// Level-based incomplete LU factorization ILU(k), the paper's inexact local
// solver (Section V-B3, Tables IV/V), with the classic two-phase split:
//
//   symbolic(A, k)   level-of-fill pattern and its L/U factor layout; both
//                    depend only on the sparsity structure, so they are
//                    REUSABLE across numeric calls;
//   numeric(A)       IKJ-variant numeric factorization writing values into
//                    the fixed layout.
//
// The pattern machinery is shared with FastILU (fastilu.hpp), which performs
// Chow-Patel Jacobi sweeps on the SAME ILU(k) pattern.
#pragma once

#include <limits>

#include "common/op_profile.hpp"
#include "direct/factorization.hpp"
#include "la/ops.hpp"

namespace frosch::ilu {

using direct::Factorization;

/// Symbolic level-of-fill pattern of ILU(k): for each row, the retained
/// column pattern (sorted) split into strict-lower and upper(+diag) parts.
struct IlukPattern {
  index_t n = 0;
  int level = 0;
  // Full row pattern (sorted columns) with the diagonal included.
  IndexVector rowptr;  ///< size n+1
  IndexVector colind;
  IndexVector diag_pos;  ///< position of the diagonal within each row

  count_t nnz() const { return static_cast<count_t>(colind.size()); }
};

/// Computes the ILU(k) pattern by symbolic IKJ elimination with fill levels
/// lev(fill) = lev(ik) + lev(kj) + 1, keeping entries with lev <= k.
template <class Scalar>
IlukPattern iluk_symbolic(const la::CsrMatrix<Scalar>& A, int level,
                          OpProfile* prof = nullptr) {
  FROSCH_CHECK(A.num_rows() == A.num_cols(), "iluk: square matrices only");
  FROSCH_CHECK(level >= 0, "iluk: level must be non-negative");
  const index_t n = A.num_rows();
  IlukPattern pat;
  pat.n = n;
  pat.level = level;
  pat.rowptr.assign(static_cast<size_t>(n) + 1, 0);
  pat.diag_pos.assign(static_cast<size_t>(n), 0);

  // Levels of the retained entries of already-processed rows' U parts.
  std::vector<IndexVector> urow_cols(static_cast<size_t>(n));
  std::vector<IndexVector> urow_levs(static_cast<size_t>(n));

  // Dense per-row workspace: fill level (INT_MAX == absent) + linked list of
  // active columns in ascending order (ITSOL-style).
  constexpr index_t kAbsent = std::numeric_limits<index_t>::max();
  IndexVector lev(static_cast<size_t>(n), kAbsent);
  IndexVector next(static_cast<size_t>(n) + 1, -1);  // linked list, head = n
  const index_t head = n;
  double work = 0.0;

  for (index_t i = 0; i < n; ++i) {
    // Load row i of A at level 0 (columns already sorted).
    index_t prev = head;
    next[head] = -1;
    for (index_t p = A.row_begin(i); p < A.row_end(i); ++p) {
      const index_t j = A.col(p);
      lev[j] = 0;
      next[prev] = j;
      next[j] = -1;
      prev = j;
    }
    if (lev[i] == kAbsent) {
      // Ensure a structural diagonal (needed for the pivoted division).
      index_t c = head;
      while (next[c] != -1 && next[c] < i) c = next[c];
      next[i] = next[c];
      next[c] = i;
      lev[i] = 0;
    }
    // Symbolic elimination: traverse active columns k < i in ascending order.
    for (index_t k = next[head]; k != -1 && k < i; k = next[k]) {
      const index_t lik = lev[k];
      const auto& ucols = urow_cols[k];
      const auto& ulevs = urow_levs[k];
      index_t cursor = k;  // insertion scan starts at k (cols are > k)
      for (size_t q = 0; q < ucols.size(); ++q) {
        const index_t j = ucols[q];
        const index_t l = lik + ulevs[q] + 1;
        if (l > level) continue;
        work += 1.0;
        if (lev[j] != kAbsent) {
          lev[j] = std::min(lev[j], l);
        } else {
          // Sorted insert after `cursor`.
          while (next[cursor] != -1 && next[cursor] < j) cursor = next[cursor];
          next[j] = next[cursor];
          next[cursor] = j;
          lev[j] = l;
        }
      }
    }
    // Harvest the row pattern; stash the U part for later rows.
    for (index_t j = next[head]; j != -1; j = next[j]) {
      if (j == i) pat.diag_pos[i] = static_cast<index_t>(pat.colind.size());
      if (j > i) {
        urow_cols[i].push_back(j);
        urow_levs[i].push_back(lev[j]);
      }
      pat.colind.push_back(j);
    }
    pat.rowptr[i + 1] = static_cast<index_t>(pat.colind.size());
    // Reset workspace.
    for (index_t j = next[head]; j != -1; j = next[j]) lev[j] = kAbsent;
  }
  if (prof) {
    prof->bytes += A.storage_bytes() +
                   static_cast<double>(pat.colind.size()) * sizeof(index_t);
    prof->flops += work;
    prof->launches += 1;  // host-side symbolic pass
    prof->critical_path += 1;
    prof->work_items += static_cast<double>(n);
  }
  return pat;
}

/// The unit-L / U factor layout of an ILU(k) pattern, built once per
/// pattern: L row i holds the strict-lower pattern entries of row i in
/// pattern order followed by the stored unit diagonal, U row i the diagonal
/// and the upper entries.  So pattern row i's entries [rowptr[i], diag_pos[i])
/// are L row i's leading ones and [diag_pos[i], rowptr[i+1]) are U row i, in
/// order: a numeric pass writes values straight into the layout.  sn_ptr is
/// detected on L's columns; `lower_levels` (optional) receives the level
/// count of L's row dependencies.
template <class Scalar>
Factorization<Scalar> ilu_factor_layout(const IlukPattern& pat,
                                        index_t* lower_levels = nullptr) {
  const index_t n = pat.n;
  std::vector<index_t> lptr(static_cast<size_t>(n) + 1, 0);
  std::vector<index_t> uptr(static_cast<size_t>(n) + 1, 0);
  for (index_t i = 0; i < n; ++i) {
    lptr[i + 1] = lptr[i] + (pat.diag_pos[i] - pat.rowptr[i]) + 1;
    uptr[i + 1] = uptr[i] + (pat.rowptr[i + 1] - pat.diag_pos[i]);
  }
  std::vector<index_t> lcol(static_cast<size_t>(lptr[n]));
  std::vector<index_t> ucol(static_cast<size_t>(uptr[n]));
  std::vector<Scalar> lval(lcol.size(), Scalar(0));
  std::vector<Scalar> uval(ucol.size(), Scalar(0));
  IndexVector level(static_cast<size_t>(n), 1);
  index_t maxl = n > 0 ? 1 : 0;
  for (index_t i = 0; i < n; ++i) {
    index_t l = lptr[i], lv = 1;
    for (index_t p = pat.rowptr[i]; p < pat.diag_pos[i]; ++p) {
      lcol[l++] = pat.colind[p];
      lv = std::max(lv, level[pat.colind[p]] + 1);
    }
    lcol[l] = i;
    lval[l] = Scalar(1);
    level[i] = lv;
    maxl = std::max(maxl, lv);
    std::copy(pat.colind.begin() + pat.diag_pos[i],
              pat.colind.begin() + pat.rowptr[i + 1],
              ucol.begin() + uptr[i]);
  }
  if (lower_levels) *lower_levels = maxl;
  Factorization<Scalar> f;
  f.L = la::CsrMatrix<Scalar>(n, n, std::move(lptr), std::move(lcol),
                              std::move(lval));
  f.U = la::CsrMatrix<Scalar>(n, n, std::move(uptr), std::move(ucol),
                              std::move(uval));
  f.unit_diag_L = true;
  f.sn_ptr = direct::detect_supernodes(la::transpose(f.L));
  return f;
}

/// Numeric ILU(k) on a fixed pattern (standard level-scheduled SpILU when
/// run on a GPU; the profile records the row-dependency critical path).
template <class Scalar>
class IlukFactorization {
 public:
  /// The level-of-fill pattern and its L/U factor layout.
  void symbolic(const la::CsrMatrix<Scalar>& A, int level,
                OpProfile* prof = nullptr) {
    pat_ = iluk_symbolic(A, level, prof);
    fact_ = ilu_factor_layout<Scalar>(pat_, &lower_levels_);
  }

  static constexpr bool symbolic_reusable() { return true; }
  const IlukPattern& pattern() const { return pat_; }

  /// IKJ elimination row by row, each finished row written into the factor
  /// layout in place (the eliminated rows k < i are read back from U).
  void numeric(const la::CsrMatrix<Scalar>& A, OpProfile* prof = nullptr) {
    FROSCH_CHECK(pat_.n == A.num_rows(), "iluk numeric: pattern mismatch");
    const index_t n = pat_.n;
    std::vector<Scalar>& Lx = fact_.L.values();
    std::vector<Scalar>& Ux = fact_.U.values();
    std::vector<Scalar> w(static_cast<size_t>(n), Scalar(0));
    IndexVector wpos(static_cast<size_t>(n), -1);
    double flops = 0.0;

    for (index_t i = 0; i < n; ++i) {
      const index_t rb = pat_.rowptr[i], re = pat_.rowptr[i + 1];
      for (index_t p = rb; p < re; ++p) wpos[pat_.colind[p]] = p;
      for (index_t p = A.row_begin(i); p < A.row_end(i); ++p)
        w[A.col(p)] = A.val(p);
      // IKJ elimination over pattern columns k < i (ascending).
      for (index_t p = rb; p < re && pat_.colind[p] < i; ++p) {
        const index_t k = pat_.colind[p];
        // U row k is pattern row k from its diagonal on: pattern position
        // q sits at U position q + off.
        const index_t off = fact_.U.row_begin(k) - pat_.diag_pos[k];
        const Scalar ukk = Ux[fact_.U.row_begin(k)];
        FROSCH_CHECK(ukk != Scalar(0), "iluk numeric: zero pivot at " << k);
        const Scalar lik = w[k] / ukk;
        w[k] = lik;
        flops += 1.0;
        for (index_t q = pat_.diag_pos[k] + 1; q < pat_.rowptr[k + 1]; ++q) {
          const index_t j = pat_.colind[q];
          if (wpos[j] >= 0) {
            w[j] -= lik * Ux[q + off];
            flops += 2.0;
          }
        }
      }
      Scalar* out = Lx.data() + fact_.L.row_begin(i);
      for (index_t p = rb; p < re; ++p) {
        const index_t j = pat_.colind[p];
        if (p == pat_.diag_pos[i]) out = Ux.data() + fact_.U.row_begin(i);
        *out++ = w[j];
        w[j] = Scalar(0);
        wpos[j] = -1;
      }
      FROSCH_CHECK(Ux[fact_.U.row_begin(i)] != Scalar(0),
                   "iluk numeric: zero diagonal at row " << i);
    }
    if (prof) {
      prof->flops += flops;
      prof->bytes += A.storage_bytes() +
                     static_cast<double>(pat_.nnz()) * sizeof(Scalar);
      // Standard SpILU on a GPU is level-set scheduled over row
      // dependencies; approximate the critical path with the lower-pattern
      // level count (fixed at symbolic()).
      prof->launches += lower_levels_;
      prof->critical_path += lower_levels_;
      prof->work_items += static_cast<double>(n);
    }
  }

  const Factorization<Scalar>& factorization() const { return fact_; }

 private:
  IlukPattern pat_;
  Factorization<Scalar> fact_;
  index_t lower_levels_ = 0;
};

}  // namespace frosch::ilu
