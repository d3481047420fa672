// Structural sparse operations: transpose, add, SpGEMM (Gustavson, split
// into a cacheable symbolic pass and a numeric pass), symmetric
// permutation, and index-set submatrix extraction.
//
// SpGEMM is the kernel behind the Galerkin coarse-matrix product
// A0 = Phi^T A Phi; the paper's Fig. 4 attributes a visible share of the
// GPU setup time to it ("black part of the bar"), so it is instrumented like
// every other kernel.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/op_profile.hpp"
#include "la/csr.hpp"

namespace frosch::la {

/// B = A^T.  Two-pass counting transpose; O(nnz).  `entry_map` (optional)
/// receives, per entry of B, the position of its source entry in A: the
/// value map refresh_submatrix_values(A, *entry_map, B) refills B through
/// when A's values change and its pattern does not.
template <class Scalar>
CsrMatrix<Scalar> transpose(const CsrMatrix<Scalar>& A,
                            OpProfile* prof = nullptr,
                            IndexVector* entry_map = nullptr) {
  const index_t m = A.num_rows(), n = A.num_cols();
  std::vector<index_t> rowptr(static_cast<size_t>(n) + 1, 0);
  for (count_t k = 0; k < A.num_entries(); ++k)
    rowptr[static_cast<size_t>(A.col(static_cast<index_t>(k))) + 1]++;
  for (index_t i = 0; i < n; ++i) rowptr[i + 1] += rowptr[i];

  std::vector<index_t> colind(static_cast<size_t>(A.num_entries()));
  std::vector<Scalar> values(static_cast<size_t>(A.num_entries()));
  std::vector<index_t> next(rowptr.begin(), rowptr.end() - 1);
  if (entry_map) entry_map->resize(static_cast<size_t>(A.num_entries()));
  for (index_t i = 0; i < m; ++i) {
    for (index_t k = A.row_begin(i); k < A.row_end(i); ++k) {
      const index_t pos = next[A.col(k)]++;
      colind[pos] = i;
      values[pos] = A.val(k);
      if (entry_map) (*entry_map)[static_cast<size_t>(pos)] = k;
    }
  }
  if (prof) {
    prof->bytes += 2.0 * A.storage_bytes();
    prof->launches += 2;
    prof->critical_path += 2;
    prof->work_items += 2.0 * static_cast<double>(m);
  }
  return CsrMatrix<Scalar>(n, m, std::move(rowptr), std::move(colind),
                           std::move(values));
}

/// C = alpha*A + beta*B (same dimensions; union pattern, merged rows).
template <class Scalar>
CsrMatrix<Scalar> add(const CsrMatrix<Scalar>& A, const CsrMatrix<Scalar>& B,
                      Scalar alpha = Scalar(1), Scalar beta = Scalar(1)) {
  FROSCH_CHECK(A.num_rows() == B.num_rows() && A.num_cols() == B.num_cols(),
               "add: dimension mismatch");
  std::vector<index_t> rowptr(static_cast<size_t>(A.num_rows()) + 1, 0);
  std::vector<index_t> colind;
  std::vector<Scalar> values;
  colind.reserve(static_cast<size_t>(A.num_entries() + B.num_entries()));
  values.reserve(colind.capacity());
  for (index_t i = 0; i < A.num_rows(); ++i) {
    index_t ka = A.row_begin(i), kb = B.row_begin(i);
    const index_t ea = A.row_end(i), eb = B.row_end(i);
    while (ka < ea || kb < eb) {
      index_t ca = ka < ea ? A.col(ka) : A.num_cols();
      index_t cb = kb < eb ? B.col(kb) : B.num_cols();
      if (ca < cb) {
        colind.push_back(ca);
        values.push_back(alpha * A.val(ka++));
      } else if (cb < ca) {
        colind.push_back(cb);
        values.push_back(beta * B.val(kb++));
      } else {
        colind.push_back(ca);
        values.push_back(alpha * A.val(ka++) + beta * B.val(kb++));
      }
    }
    rowptr[i + 1] = static_cast<index_t>(colind.size());
  }
  return CsrMatrix<Scalar>(A.num_rows(), A.num_cols(), std::move(rowptr),
                           std::move(colind), std::move(values));
}

/// Symbolic pass of C = A(rows, :) * B (Gustavson, row by row with a
/// marker array): C's row pointers and sorted column indices, with a value
/// array sized for spgemm_numeric to fill.  Row i of C is row rows[i] of A
/// (every row of A in order when `rows` is null).  The result depends only
/// on the operands' patterns, so a caller that forms the same product with
/// new values keeps C and reruns only the numeric pass -- the symbolic
/// reuse of KokkosKernels' SpGEMM (Deveci, Trott & Rajamanickam 2018).
template <class Scalar>
CsrMatrix<Scalar> spgemm_symbolic(const CsrMatrix<Scalar>& A,
                                  const CsrMatrix<Scalar>& B,
                                  const IndexVector* rows = nullptr,
                                  OpProfile* prof = nullptr) {
  FROSCH_CHECK(A.num_cols() == B.num_rows(), "spgemm: inner dim mismatch");
  const index_t m = rows ? static_cast<index_t>(rows->size()) : A.num_rows();
  const index_t n = B.num_cols();
  std::vector<index_t> rowptr(static_cast<size_t>(m) + 1, 0);
  std::vector<index_t> colind;
  std::vector<index_t> marker(static_cast<size_t>(n), -1);
  for (index_t i = 0; i < m; ++i) {
    const index_t r = rows ? (*rows)[static_cast<size_t>(i)] : i;
    const size_t first = colind.size();
    for (index_t ka = A.row_begin(r); ka < A.row_end(r); ++ka) {
      const index_t j = A.col(ka);
      for (index_t kb = B.row_begin(j); kb < B.row_end(j); ++kb) {
        const index_t c = B.col(kb);
        if (marker[c] != i) {
          marker[c] = i;
          colind.push_back(c);
        }
      }
    }
    std::sort(colind.begin() + static_cast<std::ptrdiff_t>(first),
              colind.end());
    rowptr[i + 1] = static_cast<index_t>(colind.size());
  }
  if (prof) {
    prof->launches += 1;
    prof->critical_path += 1;
    prof->work_items += static_cast<double>(m);
  }
  std::vector<Scalar> values(colind.size());
  return CsrMatrix<Scalar>(m, n, std::move(rowptr), std::move(colind),
                           std::move(values));
}

/// Numeric pass of C = A(rows, :) * B into C, the spgemm_symbolic result
/// for the same operand patterns and `rows`: only C's values are written.
/// Each row first sets its pattern's accumulator slots to -0.0, then adds
/// every product a_rj * b_jc in A's and B's entry order, then gathers the
/// row by position.  -0.0 is the IEEE additive identity (-0.0 + x == x
/// for every x, including -0.0 and +0.0), so each entry is bitwise what a
/// one-pass Gustavson loop stores when it ASSIGNS the first product and
/// adds the rest in the same order.
///
/// The profile charges the flops and all operand and product traffic, so
/// symbolic + numeric charge exactly what one fused pass would.
template <class Scalar>
void spgemm_numeric(const CsrMatrix<Scalar>& A, const CsrMatrix<Scalar>& B,
                    CsrMatrix<Scalar>& C, const IndexVector* rows = nullptr,
                    OpProfile* prof = nullptr) {
  const index_t m = C.num_rows();
  FROSCH_CHECK(A.num_cols() == B.num_rows() && C.num_cols() == B.num_cols() &&
                   m == (rows ? static_cast<index_t>(rows->size())
                              : A.num_rows()),
               "spgemm_numeric: operand/product mismatch");
  std::vector<Scalar> acc(static_cast<size_t>(B.num_cols()));
  auto& vals = C.values();
  count_t mults = 0, a_entries = 0;
  for (index_t i = 0; i < m; ++i) {
    const index_t r = rows ? (*rows)[static_cast<size_t>(i)] : i;
    for (index_t k = C.row_begin(i); k < C.row_end(i); ++k)
      acc[C.col(k)] = Scalar(-0.0);
    for (index_t ka = A.row_begin(r); ka < A.row_end(r); ++ka) {
      const index_t j = A.col(ka);
      const Scalar aij = A.val(ka);
      mults += B.row_nnz(j);
      for (index_t kb = B.row_begin(j); kb < B.row_end(j); ++kb)
        acc[B.col(kb)] += aij * B.val(kb);
    }
    a_entries += A.row_nnz(r);
    for (index_t k = C.row_begin(i); k < C.row_end(i); ++k)
      vals[static_cast<size_t>(k)] = acc[C.col(k)];
  }
  if (prof) {
    // The rows of A read: the whole matrix, or the selected rows only.
    const double a_bytes =
        rows ? static_cast<double>(m + 1) * sizeof(index_t) +
                   static_cast<double>(a_entries) *
                       (sizeof(index_t) + sizeof(Scalar))
             : A.storage_bytes();
    prof->flops += 2.0 * static_cast<double>(mults);
    prof->bytes += a_bytes + B.storage_bytes() +
                   static_cast<double>(C.num_entries()) *
                       (sizeof(index_t) + sizeof(Scalar));
    prof->launches += 1;
    prof->critical_path += 1;
    prof->work_items += static_cast<double>(m);
  }
}

/// C = A * B: the symbolic pass followed by the numeric pass.  Two
/// launches, as a GPU implementation runs them.
template <class Scalar>
CsrMatrix<Scalar> spgemm(const CsrMatrix<Scalar>& A, const CsrMatrix<Scalar>& B,
                         OpProfile* prof = nullptr) {
  CsrMatrix<Scalar> C = spgemm_symbolic(A, B, nullptr, prof);
  spgemm_numeric(A, B, C, nullptr, prof);
  return C;
}

/// Symmetric permutation B = A(p, p), where p maps NEW index -> OLD index
/// (i.e. B(i, j) = A(p[i], p[j])).
template <class Scalar>
CsrMatrix<Scalar> permute_symmetric(const CsrMatrix<Scalar>& A,
                                    const IndexVector& perm) {
  FROSCH_CHECK(A.num_rows() == A.num_cols(), "permute_symmetric: square only");
  const index_t n = A.num_rows();
  FROSCH_CHECK(static_cast<index_t>(perm.size()) == n,
               "permute_symmetric: perm size mismatch");
  IndexVector inv(static_cast<size_t>(n));
  for (index_t i = 0; i < n; ++i) inv[perm[i]] = i;

  std::vector<index_t> rowptr(static_cast<size_t>(n) + 1, 0);
  for (index_t i = 0; i < n; ++i)
    rowptr[static_cast<size_t>(i) + 1] = A.row_nnz(perm[i]);
  for (index_t i = 0; i < n; ++i) rowptr[i + 1] += rowptr[i];

  std::vector<index_t> colind(static_cast<size_t>(A.num_entries()));
  std::vector<Scalar> values(static_cast<size_t>(A.num_entries()));
  for (index_t i = 0; i < n; ++i) {
    index_t pos = rowptr[i];
    const index_t old = perm[i];
    for (index_t k = A.row_begin(old); k < A.row_end(old); ++k) {
      colind[pos] = inv[A.col(k)];
      values[pos] = A.val(k);
      ++pos;
    }
  }
  return CsrMatrix<Scalar>(n, n, std::move(rowptr), std::move(colind),
                           std::move(values));
}

/// Extracts the submatrix A(rows, cols).  `cols` is given as a global->local
/// map built internally; complexity O(sum of extracted row lengths).
/// `entry_map` (optional) receives, per extracted entry in order, the index
/// of the source entry in A's value array -- the numeric overlay map that
/// lets refresh_submatrix_values re-copy values without re-deriving the
/// structure (DESIGN.md section 9).
template <class Scalar>
CsrMatrix<Scalar> extract_submatrix(const CsrMatrix<Scalar>& A,
                                    const IndexVector& rows,
                                    const IndexVector& cols,
                                    IndexVector* entry_map = nullptr) {
  IndexVector col_map(static_cast<size_t>(A.num_cols()), -1);
  for (size_t j = 0; j < cols.size(); ++j)
    col_map[cols[j]] = static_cast<index_t>(j);

  if (entry_map) entry_map->clear();
  std::vector<index_t> rowptr(rows.size() + 1, 0);
  std::vector<index_t> colind;
  std::vector<Scalar> values;
  for (size_t i = 0; i < rows.size(); ++i) {
    const index_t r = rows[i];
    for (index_t k = A.row_begin(r); k < A.row_end(r); ++k) {
      const index_t lc = col_map[A.col(k)];
      if (lc >= 0) {
        colind.push_back(lc);
        values.push_back(A.val(k));
        if (entry_map) entry_map->push_back(k);
      }
    }
    rowptr[i + 1] = static_cast<index_t>(colind.size());
  }
  return CsrMatrix<Scalar>(static_cast<index_t>(rows.size()),
                           static_cast<index_t>(cols.size()), std::move(rowptr),
                           std::move(colind), std::move(values));
}

/// Copies A's current values into a previously extracted submatrix through
/// its entry map, touching only the value array (the submatrix pattern and
/// its storage addresses stay put).  Produces exactly the values a fresh
/// extract_submatrix of the same index sets would.
template <class Scalar>
void refresh_submatrix_values(const CsrMatrix<Scalar>& A,
                              const IndexVector& entry_map,
                              CsrMatrix<Scalar>& sub) {
  FROSCH_CHECK(entry_map.size() == static_cast<size_t>(sub.num_entries()),
               "refresh_submatrix_values: entry map/submatrix mismatch");
  auto& vals = sub.values();
  for (size_t q = 0; q < entry_map.size(); ++q) vals[q] = A.val(entry_map[q]);
}

/// Frobenius-norm of A*x - b residual helper used across tests.
template <class Scalar>
double residual_norm(const CsrMatrix<Scalar>& A, const std::vector<Scalar>& x,
                     const std::vector<Scalar>& b) {
  double nrm = 0.0;
  for (index_t i = 0; i < A.num_rows(); ++i) {
    Scalar sum(0);
    for (index_t k = A.row_begin(i); k < A.row_end(i); ++k)
      sum += A.val(k) * x[A.col(k)];
    const double r = static_cast<double>(sum - b[static_cast<size_t>(i)]);
    nrm += r * r;
  }
  return std::sqrt(nrm);
}

}  // namespace frosch::la
