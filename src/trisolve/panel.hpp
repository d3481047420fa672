// Dense-panel sweep for Cholesky factors: the supernodal triangular solve
// [Yamazaki, Rajamanickam, Ellingwood 2020] on the factor storage every
// engine already reads.
//
// In a Cholesky factor (Factorization::cholesky) U = L^T entrywise and the
// rows f..f+k-1 of a fundamental supernode are its k panel columns: U row
// f+c lists the rows U.colind()[U.row_begin(f) + c ..], i.e. the supernode's
// shared row list minus its first c entries.  U's CSR values therefore hold
// each panel packed column-major (the triangle, then the rectangle over the
// shared rows), and a single-vector solve can work on dense, contiguous
// panel columns:
//
//   forward (L)   supernodes ascending: gather x over the supernode's rows
//                 into a dense scratch once, then right-looking -- divide a
//                 pivot by its diagonal, one contiguous axpy down its panel
//                 column -- and scatter back.  Every row receives its
//                 updates in ascending column order: bitwise the CSR L-row
//                 chain of solve_row, but the axpys are independent and
//                 vectorize where the row chain is one dependent sum;
//   backward (U)  supernodes descending: one contiguous dot per panel
//                 column, columns descending, each in U's CSR row order --
//                 bitwise the CSR U-row chain, without a column compare.
//
// A width-1, single-threaded sweep only.  With W >= 2 interleaved columns
// the CSR row kernel already runs W independent chains per factor row and
// reads each index once for all of them, while the right-looking axpys
// would store every update.  A sweep under a parallel policy keeps its
// engine's CSR schedule (BlockSweepEngine::sweep_tiles); the subdomain
// solves of a Schwarz apply run nested in the part loop and so serially.
#pragma once

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "direct/factorization.hpp"

namespace frosch::trisolve {

template <class Scalar>
class PanelSweep {
 public:
  /// Binds `f` if it is a Cholesky factor (active() tells).
  void setup(const direct::Factorization<Scalar>& f) {
    fact_ = f.cholesky ? &f : nullptr;
    if (fact_ == nullptr) return;
    max_front_ = 0;
    for (index_t s = 0; s + 1 < static_cast<index_t>(f.sn_ptr.size()); ++s)
      max_front_ = std::max(max_front_, f.U.row_nnz(f.sn_ptr[s]));
  }

  bool active() const { return fact_ != nullptr; }

  /// x <- U^{-1} L^{-1} x in place on one column of an interleaved block:
  /// entry i at x[i * ld].
  void solve(Scalar* x, index_t ld) const {
    if (scratch_.size() < static_cast<size_t>(max_front_))
      scratch_.resize(static_cast<size_t>(max_front_));
    forward(x, ld);
    backward(x, ld);
  }

 private:
  static Scalar& at(Scalar* x, index_t ld, index_t i) {
    return x[static_cast<size_t>(i) * static_cast<size_t>(ld)];
  }

  /// x <- L^{-1} x, supernodes ascending, right-looking.
  void forward(Scalar* x, index_t ld) const {
    const la::CsrMatrix<Scalar>& U = fact_->U;
    const IndexVector& sn_ptr = fact_->sn_ptr;
    const index_t nsn = static_cast<index_t>(sn_ptr.size()) - 1;
    const Scalar* vals = U.values().data();
    Scalar* S = scratch_.data();
    for (index_t s = 0; s < nsn; ++s) {
      const index_t f = sn_ptr[s], k = sn_ptr[s + 1] - f;
      const index_t sz = U.row_nnz(f), m = sz - k;
      const index_t* rows = U.colind().data() + U.row_begin(f);
      for (index_t i = 0; i < sz; ++i) S[i] = at(x, ld, rows[i]);
      // Triangle: each pivot is final once the columns left of it in this
      // supernode have updated it.
      for (index_t c = 0; c < k; ++c) {
        const Scalar* u = vals + U.row_begin(f + c);  // panel column c
        FROSCH_ASSERT(u[0] != Scalar(0), "panel sweep: zero diagonal");
        const Scalar p = S[c] = Scalar(S[c] / u[0]);
        for (index_t t = 1; t < k - c; ++t) S[c + t] -= u[t] * p;
      }
      // Rectangle: every row takes the k pivots in column order.
      for (index_t c = 0; c < k; ++c) {
        const Scalar* u = vals + U.row_begin(f + c) + (k - c);
        const Scalar p = S[c];
        for (index_t r = 0; r < m; ++r) S[k + r] -= u[r] * p;
      }
      for (index_t i = 0; i < sz; ++i) at(x, ld, rows[i]) = S[i];
    }
  }

  /// x <- U^{-1} x, supernodes descending (the factor streams backwards):
  /// one dot per panel column.
  void backward(Scalar* x, index_t ld) const {
    const la::CsrMatrix<Scalar>& U = fact_->U;
    const IndexVector& sn_ptr = fact_->sn_ptr;
    const Scalar* vals = U.values().data();
    for (index_t s = static_cast<index_t>(sn_ptr.size()) - 2; s >= 0; --s) {
      const index_t f = sn_ptr[s], k = sn_ptr[s + 1] - f;
      const index_t sz = U.row_nnz(f);
      const index_t* rows = U.colind().data() + U.row_begin(f);
      for (index_t c = k - 1; c >= 0; --c) {
        const Scalar* u = vals + U.row_begin(f + c);  // U row f+c
        Scalar acc = at(x, ld, f + c);
        for (index_t t = 1; t < sz - c; ++t)
          acc -= u[t] * at(x, ld, rows[c + t]);
        at(x, ld, f + c) = Scalar(acc / u[0]);
      }
    }
  }

  const direct::Factorization<Scalar>* fact_ = nullptr;
  index_t max_front_ = 0;  ///< widest supernode row list
  mutable std::vector<Scalar> scratch_;  ///< grow-only, one front wide
};

}  // namespace frosch::trisolve
