// Elimination tree and symbolic-Cholesky machinery (CSparse-style):
// etree with path compression, postorder, row-subtree reach (ereach), the
// full pattern of L, and etree level sets.
//
// The level sets are what the perf model consumes: the Tacho-like
// multifrontal factorization schedules one batched GPU launch per etree
// level, so a wide, shallow tree (from nested dissection) exposes
// parallelism, while a path-shaped tree (natural ordering of a band matrix)
// serializes the factorization -- the mechanism behind the ND-vs-No ordering
// effects in the paper's Table IV.
#pragma once

#include "common/types.hpp"
#include "la/csr.hpp"

namespace frosch::direct {

/// Computes the elimination tree of a symmetric-pattern matrix.
/// parent[j] = etree parent of column j, or -1 for roots.
template <class Scalar>
IndexVector elimination_tree(const la::CsrMatrix<Scalar>& A) {
  const index_t n = A.num_rows();
  IndexVector parent(static_cast<size_t>(n), -1);
  IndexVector ancestor(static_cast<size_t>(n), -1);
  for (index_t k = 0; k < n; ++k) {
    for (index_t p = A.row_begin(k); p < A.row_end(k); ++p) {
      index_t i = A.col(p);
      if (i >= k) continue;  // use lower-triangle entries of row k
      // Walk from i up to the root of its current subtree, compressing.
      while (i != -1 && i < k) {
        const index_t next = ancestor[i];
        ancestor[i] = k;
        if (next == -1) {
          parent[i] = k;
          break;
        }
        i = next;
      }
    }
  }
  return parent;
}

/// Postorder of a forest given parent pointers.
IndexVector tree_postorder(const IndexVector& parent);

/// Level (distance from deepest leaf, starting at 1) of every tree node:
/// level[j] = 1 + max(level of children), leaves = 1.  Returns the levels
/// and writes the tree height into *height.
IndexVector tree_levels(const IndexVector& parent, index_t* height);

/// Row-subtree reach: the column pattern of row k of the Cholesky factor L
/// (excluding the diagonal), each etree path in climbing order -- no
/// particular overall order.  `marked` is scratch of size n, never holding
/// k on entry (initialize it to -1).
template <class Scalar>
void ereach(const la::CsrMatrix<Scalar>& A, index_t k, const IndexVector& parent,
            IndexVector& out, IndexVector& marked) {
  out.clear();
  marked[k] = k;
  for (index_t p = A.row_begin(k); p < A.row_end(k); ++p) {
    // Climb the etree from i until hitting a marked node (k at the latest).
    for (index_t i = A.col(p); i != -1 && i < k && marked[i] != k;
         i = parent[i]) {
      out.push_back(i);
      marked[i] = k;
    }
  }
}

/// Full symbolic Cholesky (CSparse-style, Davis 2006): the pattern of L in
/// CSC layout == the pattern of U = L^T in CSR, returned as a matrix of
/// `Out` zeros whose row j lists the row indices of column j of L,
/// ascending, diagonal first.  Two row-subtree passes: the first counts
/// each column, the second fills the columns in ascending row order, so
/// every row of the result comes out sorted.
template <class Out = char, class Scalar>
la::CsrMatrix<Out> symbolic_cholesky(const la::CsrMatrix<Scalar>& A,
                                     const IndexVector& parent) {
  const index_t n = A.num_rows();
  IndexVector marked(static_cast<size_t>(n), -1), row;
  std::vector<index_t> rowptr(static_cast<size_t>(n) + 1, 0);
  for (index_t k = 0; k < n; ++k) {
    ereach(A, k, parent, row, marked);
    ++rowptr[k + 1];  // diagonal
    for (index_t j : row) ++rowptr[j + 1];  // L(k, j) != 0
  }
  for (index_t j = 0; j < n; ++j) rowptr[j + 1] += rowptr[j];
  std::vector<index_t> colind(static_cast<size_t>(rowptr[n]));
  IndexVector next(rowptr.begin(), rowptr.end() - 1);
  std::fill(marked.begin(), marked.end(), -1);
  for (index_t k = 0; k < n; ++k) {
    ereach(A, k, parent, row, marked);
    colind[next[k]++] = k;
    for (index_t j : row) colind[next[j]++] = k;
  }
  std::vector<Out> vals(colind.size());
  return la::CsrMatrix<Out>(n, n, std::move(rowptr), std::move(colind),
                            std::move(vals));
}

}  // namespace frosch::direct
