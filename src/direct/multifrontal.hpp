// Multifrontal sparse Cholesky: the Tacho stand-in (see DESIGN.md).
//
// Structure mirrors what matters for the paper's GPU study:
//   * the SYMBOLIC phase (elimination tree, factor pattern, fundamental
//     supernodes and their assembly tree, postorder, the L = U^T value map)
//     depends only on the sparsity pattern and is fully REUSABLE across
//     numeric factorizations -- Tacho's decisive advantage over SuperLU in
//     Fig. 4 / Table III;
//   * the NUMERIC phase visits the supernodes in assembly-tree postorder
//     (Liu, SIAM Review 1992).  A supernode's k pivot columns share one
//     dense frontal matrix: its columns of A are assembled once, the
//     children's update (Schur) matrices are extend-added once, all k
//     pivots are eliminated by the blocked la::partial_cholesky, and the
//     trailing Schur block goes onto an update stack for the parent.  A GPU
//     implementation launches one batched kernel per etree LEVEL -- so its
//     profile records `launches = tree height` with per-level widths, which
//     is exactly why nested-dissection ordering (wide shallow tree) helps
//     on GPUs.
#pragma once

#include "common/op_profile.hpp"
#include "direct/elimination_tree.hpp"
#include "direct/factorization.hpp"
#include "la/dense.hpp"
#include "la/ops.hpp"

namespace frosch::direct {

template <class Scalar>
class MultifrontalCholesky {
 public:
  /// Pattern-only analysis; reusable for any matrix with this pattern.
  void symbolic(const la::CsrMatrix<Scalar>& A, OpProfile* prof = nullptr) {
    FROSCH_CHECK(A.num_rows() == A.num_cols(),
                 "MultifrontalCholesky: square matrices only");
    n_ = A.num_rows();
    const IndexVector parent = elimination_tree(A);
    tree_levels(parent, &tree_height_);

    // Factor pattern: row j of U = L^T lists the rows of column j of L.  L
    // comes from one counting transpose of U, whose value map keeps where
    // each L entry sits in U: L.values[r] = U.values[l_from_u_[r]].
    fact_.U = symbolic_cholesky<Scalar>(A, parent);
    const la::CsrMatrix<Scalar>& U = fact_.U;
    const count_t nnz = U.num_entries();
    std::vector<index_t> lptr(static_cast<size_t>(n_) + 1, 0);
    for (index_t j : U.colind()) ++lptr[j + 1];
    for (index_t i = 0; i < n_; ++i) lptr[i + 1] += lptr[i];
    std::vector<index_t> lcol(static_cast<size_t>(nnz));
    l_from_u_.assign(static_cast<size_t>(nnz), 0);
    IndexVector next(lptr.begin(), lptr.end() - 1);
    for (index_t j = 0; j < n_; ++j) {
      for (index_t p = U.row_begin(j); p < U.row_end(j); ++p) {
        const index_t r = next[U.col(p)]++;
        lcol[r] = j;
        l_from_u_[r] = p;
      }
    }
    fact_.L = la::CsrMatrix<Scalar>(n_, n_, std::move(lptr), std::move(lcol),
                                    std::vector<Scalar>(U.values().size()));
    fact_.unit_diag_L = false;
    fact_.row_perm_old2new.clear();
    fact_.sn_ptr = detect_supernodes(fact_.U);
    fact_.cholesky = true;

    // Assembly tree: a supernode's parent holds the etree parent of its
    // last column.
    const IndexVector& sn_ptr = fact_.sn_ptr;
    const index_t ns = static_cast<index_t>(sn_ptr.size()) - 1;
    IndexVector col_sn(static_cast<size_t>(n_)), sn_parent(ns, -1);
    nchild_.assign(static_cast<size_t>(ns), 0);
    for (index_t s = 0; s < ns; ++s)
      for (index_t j = sn_ptr[s]; j < sn_ptr[s + 1]; ++j) col_sn[j] = s;
    for (index_t s = 0; s < ns; ++s) {
      const index_t p = parent[sn_ptr[s + 1] - 1];
      if (p == -1) continue;
      sn_parent[s] = col_sn[p];
      ++nchild_[col_sn[p]];
    }
    sn_post_ = tree_postorder(sn_parent);

    // Pattern-only numeric constants: the flop count (2 s^2 per column of
    // front size s, as for one front per column), the front area, the
    // words the supernodal fronts move, and the workspace sizes (the
    // widest front and the deepest update stack of the postorder walk).
    flops_ = front_area_ = 0.0;
    double words = 0.0;
    max_front_ = 0;
    max_stack_ = 0;
    std::vector<size_t> stack;  // update sizes, bottom to top
    size_t depth = 0;
    for (const index_t s : sn_post_) {
      const index_t f = sn_ptr[s], k = sn_ptr[s + 1] - f;
      const index_t sz = fact_.U.row_nnz(f), m = sz - k;
      max_front_ = std::max(max_front_, sz);
      words += tri(sz);  // zeroed and assembled once
      for (index_t c = 0; c < nchild_[s]; ++c) {
        words += 3.0 * double(stack.back());  // read + front read/write
        depth -= stack.back();
        stack.pop_back();
      }
      for (index_t p = 0; p < k; p += la::kLuPanelWidth) {
        const double kb = double(std::min(la::kLuPanelWidth, k - p));
        const double rows = double(sz - p), rest = rows - kb;
        words += 2.0 * rows * kb + rest * kb + 2.0 * tri(rest);
      }
      for (index_t c = 0; c < k; ++c) {
        const double sj = double(sz - c);
        flops_ += 2.0 * sj * sj;
        front_area_ += sj * sj;
        words += 2.0 * sj;  // front column -> U
      }
      if (m > 0) {
        stack.push_back(static_cast<size_t>(tri(m)));
        depth += stack.back();
        max_stack_ = std::max(max_stack_, depth);
        words += 2.0 * tri(m);
      }
    }
    // Plus the U -> L value scatter through l_from_u_.
    bytes_ = words * sizeof(Scalar) +
             double(nnz) * (2.0 * sizeof(Scalar) + sizeof(index_t));

    if (prof) {
      // The etree and pattern pass, plus the transposed pattern and its
      // value map.
      prof->bytes += A.storage_bytes() +
                     4.0 * static_cast<double>(nnz) * sizeof(index_t);
      prof->launches += 1;  // symbolic analysis is a host-side pass
      prof->critical_path += 1;
      prof->work_items += static_cast<double>(n_);
    }
  }

  bool has_symbolic() const { return n_ > 0; }
  static constexpr bool symbolic_reusable() { return true; }
  index_t tree_height() const { return tree_height_; }

  /// Numeric factorization A = L L^T using the cached symbolic data.  A must
  /// have the pattern symbolic() analyzed (or a subset of the factor's):
  /// an entry outside it throws, naming its row and column.  The factor is
  /// overwritten in place, so a throw leaves it partly refactored.
  void numeric(const la::CsrMatrix<Scalar>& A, OpProfile* prof = nullptr) {
    FROSCH_CHECK(has_symbolic(), "MultifrontalCholesky: symbolic() first");
    FROSCH_CHECK(A.num_rows() == n_ && A.num_cols() == n_,
                 "MultifrontalCholesky: dimension changed");
    const la::CsrMatrix<Scalar>& U = fact_.U;
    const IndexVector& sn_ptr = fact_.sn_ptr;
    std::vector<Scalar>& Ux = fact_.U.values();
    std::vector<Scalar> front(static_cast<size_t>(max_front_) * max_front_);
    std::vector<Scalar> stack(max_stack_);
    // Supernodes whose updates are on the stack, bottom to top, with the
    // offset of each update (its lower triangle, packed by columns).
    IndexVector pending;
    std::vector<size_t> pending_off;
    size_t top = 0;
    IndexVector pos(static_cast<size_t>(n_), -1);  // global row -> front row
    std::vector<Scalar> pack;  // SYRK pack scratch, grown by the widest front

    for (const index_t s : sn_post_) {
      const index_t f = sn_ptr[s], k = sn_ptr[s + 1] - f;
      const index_t sz = U.row_nnz(f), m = sz - k;
      const index_t* rows = U.colind().data() + U.row_begin(f);
      const size_t ld = static_cast<size_t>(sz);
      Scalar* F = front.data();
      for (index_t i = 0; i < sz; ++i) {
        pos[rows[i]] = i;
        std::fill(F + i * ld + i, F + (i + 1) * ld, Scalar(0));
      }
      // Columns f..f+k-1 of A, read as the upper part of their rows.
      for (index_t c = 0; c < k; ++c) {
        const index_t j = f + c;
        for (index_t p = A.row_begin(j); p < A.row_end(j); ++p) {
          const index_t i = A.col(p);
          if (i < j) continue;
          FROSCH_CHECK(pos[i] >= 0, "MultifrontalCholesky: entry ("
                                        << i << ", " << j
                                        << ") is outside the pattern "
                                           "symbolic() analyzed");
          F[c * ld + pos[i]] += A.val(p);
        }
      }
      // Extend-add the children's updates: the top nchild_[s] entries.
      const size_t first = pending.size() - static_cast<size_t>(nchild_[s]);
      for (size_t e = first; e < pending.size(); ++e) {
        const index_t cf = sn_ptr[pending[e]];
        const index_t ck = sn_ptr[pending[e] + 1] - cf;
        const index_t cm = U.row_nnz(cf) - ck;
        const index_t* crows = U.colind().data() + U.row_begin(cf) + ck;
        const Scalar* u = stack.data() + pending_off[e];
        for (index_t cc = 0; cc < cm; ++cc) {
          Scalar* col = F + pos[crows[cc]] * ld;
          for (index_t rr = cc; rr < cm; ++rr) col[pos[crows[rr]]] += *u++;
        }
      }
      if (first < pending.size()) {
        top = pending_off[first];
        pending.resize(first);
        pending_off.resize(first);
      }
      la::partial_cholesky(F, sz, k, pack);
      for (index_t c = 0; c < k; ++c)
        std::copy(F + c * ld + c, F + (c + 1) * ld,
                  Ux.begin() + U.row_begin(f + c));
      if (m > 0) {
        pending.push_back(s);
        pending_off.push_back(top);
        Scalar* u = stack.data() + top;
        for (index_t c = k; c < sz; ++c)
          u = std::copy(F + c * ld + c, F + (c + 1) * ld, u);
        top = static_cast<size_t>(u - stack.data());
      }
      for (index_t i = 0; i < sz; ++i) pos[rows[i]] = -1;
    }
    std::vector<Scalar>& Lx = fact_.L.values();
    for (size_t r = 0; r < Lx.size(); ++r) Lx[r] = Ux[l_from_u_[r]];

    if (prof) {
      prof->flops += flops_;
      prof->bytes += bytes_ + A.storage_bytes();
      // Level-set schedule: one batched launch of all fronts in a level;
      // within a launch, team kernels parallelize over the dense front
      // entries (Tacho's team-level BLAS), so the exposed width is the
      // total front area, not the front count.
      prof->launches += tree_height_;
      prof->critical_path += tree_height_;
      prof->work_items += front_area_;
    }
  }

  const Factorization<Scalar>& factorization() const { return fact_; }
  Factorization<Scalar>& factorization() { return fact_; }

 private:
  /// Entries in the lower triangle of an m x m block.
  static double tri(double m) { return m * (m + 1.0) / 2.0; }

  index_t n_ = 0;
  index_t tree_height_ = 0;
  IndexVector sn_post_;       ///< supernodes in assembly-tree postorder
  IndexVector nchild_;        ///< children per supernode
  IndexVector l_from_u_;      ///< L value r = U value l_from_u_[r]
  index_t max_front_ = 0;     ///< widest front
  size_t max_stack_ = 0;      ///< deepest update stack, in entries
  double flops_ = 0.0, front_area_ = 0.0, bytes_ = 0.0;
  Factorization<Scalar> fact_;
};

}  // namespace frosch::direct
