// Column-major dense matrix plus the small dense kernels needed by the
// multifrontal factorization (partial Cholesky of frontal matrices with
// extend-add) and by GMRES (Hessenberg least-squares via Givens rotations is
// in krylov/, but the coarse-space code uses gemm here).
//
// These play the role of the BLAS/LAPACK "team-level kernels" that Tacho
// dispatches on GPU fronts (Section V-B1).
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/op_profile.hpp"
#include "common/types.hpp"

namespace frosch::la {

template <class Scalar>
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(index_t rows, index_t cols)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows) * static_cast<size_t>(cols), Scalar(0)) {}

  index_t num_rows() const { return rows_; }
  index_t num_cols() const { return cols_; }

  Scalar& operator()(index_t i, index_t j) {
    FROSCH_ASSERT(i >= 0 && i < rows_ && j >= 0 && j < cols_,
                  "DenseMatrix index out of range");
    return data_[static_cast<size_t>(j) * rows_ + i];
  }
  Scalar operator()(index_t i, index_t j) const {
    FROSCH_ASSERT(i >= 0 && i < rows_ && j >= 0 && j < cols_,
                  "DenseMatrix index out of range");
    return data_[static_cast<size_t>(j) * rows_ + i];
  }

  Scalar* data() { return data_.data(); }
  const Scalar* data() const { return data_.data(); }
  Scalar* col(index_t j) { return data_.data() + static_cast<size_t>(j) * rows_; }
  const Scalar* col(index_t j) const {
    return data_.data() + static_cast<size_t>(j) * rows_;
  }

  void set_zero() { std::fill(data_.begin(), data_.end(), Scalar(0)); }

 private:
  index_t rows_ = 0, cols_ = 0;
  std::vector<Scalar> data_;
};

/// C += A * B (no transposition); naive triple loop, column-major friendly.
template <class Scalar>
void gemm_accum(const DenseMatrix<Scalar>& A, const DenseMatrix<Scalar>& B,
                DenseMatrix<Scalar>& C, Scalar alpha = Scalar(1),
                OpProfile* prof = nullptr) {
  FROSCH_CHECK(A.num_cols() == B.num_rows() && C.num_rows() == A.num_rows() &&
                   C.num_cols() == B.num_cols(),
               "gemm_accum: dimension mismatch");
  for (index_t j = 0; j < B.num_cols(); ++j) {
    for (index_t k = 0; k < A.num_cols(); ++k) {
      const Scalar bkj = alpha * B(k, j);
      if (bkj == Scalar(0)) continue;
      for (index_t i = 0; i < A.num_rows(); ++i) C(i, j) += A(i, k) * bkj;
    }
  }
  if (prof) {
    prof->flops += 2.0 * double(A.num_rows()) * double(A.num_cols()) *
                   double(B.num_cols());
    prof->launches += 1;
    prof->critical_path += 1;
    prof->work_items += double(A.num_rows()) * double(B.num_cols());
  }
}

namespace detail {

/// Side of the register tile of the packed trailing updates.
inline constexpr index_t kTile = 4;

/// Packs the rows x kb block whose (i, p) entry is a[i * rs + p * cs] into
/// kTile-row strips at out, each stored depth-major (the kTile entries of
/// one depth p adjacent); the last strip is zero padded, and out holds
/// ceil(rows / kTile) * kTile * kb values.  The loops walk the unit stride,
/// so a column-major block packs by columns and a transposed one by rows.
template <class Scalar>
void pack_strips(index_t rows, index_t kb, const Scalar* a, size_t rs,
                 size_t cs, Scalar* out) {
  constexpr index_t T = kTile;
  for (index_t s = 0; s < rows; s += T, out += static_cast<size_t>(kb) * T) {
    const index_t w = std::min(T, rows - s);
    const Scalar* as = a + s * rs;
    if (cs == 1) {
      for (index_t ii = 0; ii < w; ++ii)
        for (index_t p = 0; p < kb; ++p) out[p * T + ii] = as[ii * rs + p];
    } else {
      for (index_t p = 0; p < kb; ++p)
        for (index_t ii = 0; ii < w; ++ii)
          out[p * T + ii] = as[ii * rs + p * cs];
    }
    for (index_t p = 0; w < T && p < kb; ++p)
      std::fill(out + p * T + w, out + (p + 1) * T, Scalar(0));
  }
}

/// Grows buf (never shrinks it) to hold the strip packing of rows x kb.
template <class Scalar>
Scalar* strip_buffer(std::vector<Scalar>& buf, index_t rows, index_t kb) {
  const size_t need =
      static_cast<size_t>((rows + kTile - 1) / kTile) * kTile * kb;
  if (buf.size() < need) buf.resize(need);
  return buf.data();
}

/// One register tile of C -= L * R^T: lb and rb are packed strips of depth
/// kb; c is the tile's corner in a column-major array of leading dimension
/// ld, of which the leading iw x jw part exists.  With `lower`, only the
/// entries on and below the tile's diagonal are written.  Every entry sums
/// its kb products in depth order from zero, then leaves C once, so neither
/// the tile shape nor the vector width changes a bit.  The products
/// accumulate in double at every precision: summed in float, the rank-kb
/// updates doubled the residual of float Cholesky fronts, and the float
/// Schwarz preconditioner needed 35 GMRES iterations instead of 26.  Double
/// tiles run on two-lane GCC/Clang vector types, a separate multiply and add
/// per lane as in the scalar loop: a 1240^2 lu_factor_blocked takes
/// 0.116-0.122 s with them and 0.141-0.148 s with the scalar loop (x86-64,
/// SSE2 build, best of 5).  Eight accumulators fit the sixteen SSE2
/// registers with room for the operands; an 8x4 tile spills.
template <class Scalar>
void tile_subtract(const Scalar* lb, const Scalar* rb, index_t kb, Scalar* c,
                   size_t ld, index_t iw, index_t jw, bool lower) {
  using Acc = double;
  constexpr index_t T = kTile;
  std::array<Acc, T * T> acc{};
  if constexpr (std::is_same_v<Scalar, double>) {
    typedef double v2 __attribute__((vector_size(16)));
    v2 vacc[T][T / 2] = {};
    for (index_t p = 0; p < kb; ++p) {
      v2 a[T / 2];
      std::memcpy(a, lb + p * T, sizeof a);
      for (index_t jj = 0; jj < T; ++jj) {
        const double b = rb[p * T + jj];
        const v2 bb = {b, b};
        for (index_t v = 0; v < T / 2; ++v) vacc[jj][v] += a[v] * bb;
      }
    }
    std::memcpy(acc.data(), vacc, sizeof vacc);
  } else {
    for (index_t p = 0; p < kb; ++p)
      for (index_t jj = 0; jj < T; ++jj)
        for (index_t ii = 0; ii < T; ++ii)
          acc[jj * T + ii] += Acc(lb[p * T + ii]) * Acc(rb[p * T + jj]);
  }
  for (index_t jj = 0; jj < jw; ++jj) {
    Scalar* cc = c + jj * ld;
    for (index_t ii = lower ? jj : 0; ii < iw; ++ii)
      cc[ii] = Scalar(Acc(cc[ii]) - acc[jj * T + ii]);
  }
}

/// Trailing update C -= L * U of a blocked LU step, column-major with
/// leading dimension ld: C is rows x cols at c, L is rows x kb at l, U is
/// kb x cols at u.  Both operands are packed into kTile-wide strips (L by
/// columns, U by rows, each reading contiguous memory) so a register tile
/// accumulates over the whole panel depth from contiguous memory (the GEMM
/// micro-kernel shape; zero padding covers the edges).  lp and up are
/// grow-only pack buffers owned by the caller.
template <class Scalar>
void lu_trailing_update(index_t rows, index_t cols, index_t kb,
                        const Scalar* l, const Scalar* u, Scalar* c,
                        index_t ld, std::vector<Scalar>& lp,
                        std::vector<Scalar>& up) {
  constexpr index_t T = kTile;
  const size_t ldz = static_cast<size_t>(ld);
  Scalar* lb = strip_buffer(lp, rows, kb);
  Scalar* ub = strip_buffer(up, cols, kb);
  pack_strips(rows, kb, l, 1, ldz, lb);
  pack_strips(cols, kb, u, ldz, 1, ub);
  for (index_t js = 0; js * T < cols; ++js)
    for (index_t is = 0; is * T < rows; ++is)
      tile_subtract(lb + static_cast<size_t>(is) * kb * T,
                    ub + static_cast<size_t>(js) * kb * T, kb,
                    c + (js * T) * ldz + is * T, ldz,
                    std::min<index_t>(T, rows - is * T),
                    std::min<index_t>(T, cols - js * T), false);
}

/// Symmetric trailing update of a blocked Cholesky step: the LOWER triangle
/// of the rows x rows block at c (leading dimension ld) gets -= L * L^T,
/// where L is rows x kb at l.  One packing (into the caller's grow-only
/// buffer lp) serves both operands, and tiles above the diagonal are
/// skipped (the SYRK shape of lu_trailing_update).
template <class Scalar>
void syrk_trailing_update(index_t rows, index_t kb, const Scalar* l, Scalar* c,
                          index_t ld, std::vector<Scalar>& lp) {
  constexpr index_t T = kTile;
  const size_t ldz = static_cast<size_t>(ld);
  Scalar* lb = strip_buffer(lp, rows, kb);
  pack_strips(rows, kb, l, 1, ldz, lb);
  for (index_t js = 0; js * T < rows; ++js)
    for (index_t is = js; is * T < rows; ++is)
      tile_subtract(lb + static_cast<size_t>(is) * kb * T,
                    lb + static_cast<size_t>(js) * kb * T, kb,
                    c + (js * T) * ldz + is * T, ldz,
                    std::min<index_t>(T, rows - is * T),
                    std::min<index_t>(T, rows - js * T), is == js);
}

}  // namespace detail

/// Panel width of lu_factor_blocked and partial_cholesky.  Part of the
/// bitwise contract: each trailing entry sums one panel's products before
/// it leaves the accumulator, so the width fixes the grouping of every
/// update (the golden digests in tests/test_la.cpp pin it).
inline constexpr index_t kLuPanelWidth = 32;

/// In-place partial Cholesky of the leading k x k block of the symmetric
/// n x n column-major array f, updating the trailing (n-k) x (n-k) block
/// with the Schur complement (`pack` is the caller's grow-only scratch of
/// the SYRK update).  Blocked right-looking:
/// each panel of kLuPanelWidth pivot columns is factored unblocked, then
/// everything right of it gets one rank-kb SYRK update.  On return the
/// lower leading block holds L (including the sqrt diagonal), the
/// off-diagonal block holds L21 = A21 * L11^{-T}, and the LOWER TRIANGLE of
/// the trailing block holds A22 - L21 * L21^T (the upper triangle is not
/// referenced or updated, as in LAPACK 'L' routines).  Serial and
/// deterministic.  Throws on a non-positive pivot.
template <class Scalar>
void partial_cholesky(Scalar* f, index_t n, index_t k,
                      std::vector<Scalar>& pack) {
  const size_t ldz = static_cast<size_t>(n);
  for (index_t p = 0; p < k; p += kLuPanelWidth) {
    const index_t pend = std::min(p + kLuPanelWidth, k);
    for (index_t j = p; j < pend; ++j) {
      Scalar* cj = f + j * ldz;
      Scalar d = cj[j];
      FROSCH_CHECK(d > Scalar(0), "partial_cholesky: non-positive pivot at "
                                      << j << " (" << d << ")");
      d = std::sqrt(d);
      cj[j] = d;
      for (index_t i = j + 1; i < n; ++i) cj[i] /= d;
      for (index_t c = j + 1; c < pend; ++c) {
        Scalar* cc = f + c * ldz;
        const Scalar ljc = cj[c];
        for (index_t i = c; i < n; ++i) cc[i] -= cj[i] * ljc;
      }
    }
    if (pend < n)
      detail::syrk_trailing_update(n - pend, pend - p, f + p * ldz + pend,
                                   f + pend * ldz + pend, n, pack);
  }
}

/// partial_cholesky of the square DenseMatrix F (see above).
template <class Scalar>
void partial_cholesky(DenseMatrix<Scalar>& F, index_t k,
                      OpProfile* prof = nullptr) {
  const index_t n = F.num_rows();
  FROSCH_CHECK(F.num_cols() == n && k <= n, "partial_cholesky: bad dims");
  std::vector<Scalar> pack;
  partial_cholesky(F.data(), n, k, pack);
  if (prof) {
    double flops = 0.0;
    for (index_t j = 0; j < k; ++j)
      flops += 2.0 * double(n - j) * double(n - j);
    prof->flops += flops;
    prof->bytes += double(n) * double(n) * sizeof(Scalar);
    prof->launches += 3;  // potrf + trsm + syrk as a GPU would batch them
    prof->critical_path += 3;
    prof->work_items += double(n) * double(n);
  }
}

/// Blocked right-looking LU with partial pivoting, the LAPACK getrf shape:
/// factors P A = L U in place (unit L strictly below the diagonal, U on and
/// above it); piv[k] is the row swapped with row k at step k.  Each panel
/// of kLuPanelWidth columns is factored unblocked (largest magnitude, first on
/// ties), its swaps applied across the whole row, the U12 block solved
/// against unit L11, and the trailing block updated by one rank-nb product.
/// Serial and deterministic.  Returns the first column whose pivot
/// candidates are all zero (or NaN) -- the factorization stops there --
/// or -1 on success.  `prof` gets the flops performed and the blocked
/// memory traffic: each panel step streams its panel and its trailing
/// block once, rather than once per column.
template <class Scalar>
index_t lu_factor_blocked(DenseMatrix<Scalar>& A, IndexVector& piv,
                          OpProfile* prof = nullptr) {
  constexpr index_t nb = kLuPanelWidth;
  const index_t n = A.num_rows();
  FROSCH_CHECK(A.num_cols() == n, "lu_factor_blocked: square only");
  piv.assign(static_cast<size_t>(n), 0);
  std::vector<Scalar> lp, up;  // trailing-update packs, sized by panel 1
  double flops = 0.0, words = 0.0;
  index_t failed = -1;
  for (index_t k = 0; k < n && failed < 0; k += nb) {
    const index_t kb = std::min(nb, n - k), kend = k + kb;
    const double m = double(n - k), rest = double(n - kend);
    // ---- unblocked panel factorization (rows k..n-1, columns k..kend-1)
    for (index_t j = k; j < kend; ++j) {
      index_t p = -1;
      double best = 0.0;
      for (index_t i = j; i < n; ++i) {
        const double mag = std::abs(static_cast<double>(A(i, j)));
        if (mag > best) {
          best = mag;
          p = i;
        }
      }
      if (p < 0) {
        failed = j;
        break;
      }
      piv[j] = p;
      if (p != j)
        for (index_t c = k; c < kend; ++c) std::swap(A(j, c), A(p, c));
      const Scalar d = A(j, j);
      Scalar* cj = A.col(j);
      for (index_t i = j + 1; i < n; ++i) cj[i] = cj[i] / d;
      for (index_t c = j + 1; c < kend; ++c) {
        Scalar* cc = A.col(c);
        const Scalar u = cc[j];
        for (index_t i = j + 1; i < n; ++i) cc[i] -= cj[i] * u;
      }
      flops += double(n - j - 1) * (1.0 + 2.0 * double(kend - j - 1));
    }
    words += 2.0 * m * double(kb);  // panel read + write
    // ---- the panel's row swaps outside it, a column at a time (LAPACK's
    // laswp): swaps move values exactly, so deferring them changes no bit.
    const index_t jend = failed >= 0 ? failed : kend;
    auto swap_rows = [&](Scalar* cc) {
      for (index_t j = k; j < jend; ++j) std::swap(cc[j], cc[piv[j]]);
    };
    for (index_t c = 0; c < k; ++c) swap_rows(A.col(c));
    if (failed >= 0 || kend == n) {
      for (index_t c = kend; c < n; ++c) swap_rows(A.col(c));
      break;
    }
    // ---- U12 = L11^{-1} A12 (unit lower triangular solve) ---------------
    for (index_t c = kend; c < n; ++c) {
      Scalar* cc = A.col(c);
      swap_rows(cc);
      for (index_t p = k; p < kend; ++p) {
        const Scalar u = cc[p];
        const Scalar* lp = A.col(p);
        for (index_t i = p + 1; i < kend; ++i) cc[i] -= lp[i] * u;
      }
    }
    flops += double(kb) * double(kb - 1) * rest;
    // ---- A22 -= L21 * U12 ---------------------------------------------
    detail::lu_trailing_update(n - kend, n - kend, kb, A.col(k) + kend,
                               A.col(kend) + k, A.col(kend) + kend, n, lp,
                               up);
    flops += 2.0 * rest * rest * double(kb);
    words += 2.0 * double(kb) * rest + rest * double(kb) + 2.0 * rest * rest;
  }
  if (prof) {
    const count_t panels = (n + nb - 1) / nb;
    prof->flops += flops;
    prof->bytes += words * sizeof(Scalar);
    prof->launches += 3 * panels;  // getf2 + trsm + gemm per panel
    prof->critical_path += 3 * panels;
    prof->work_items += double(n) * double(n);
  }
  return failed;
}

/// Dense LU with partial pivoting (tests and small dense systems): the
/// blocked kernel above, throwing on a zero pivot column.  Overwrites A
/// with L\U, fills piv with row swaps.
template <class Scalar>
void lu_factor(DenseMatrix<Scalar>& A, IndexVector& piv) {
  const index_t j = lu_factor_blocked(A, piv);
  FROSCH_CHECK(j < 0, "lu_factor: singular at column " << j);
}

/// Solves A x = b given lu_factor output; b is overwritten with x.
template <class Scalar>
void lu_solve(const DenseMatrix<Scalar>& LU, const IndexVector& piv,
              std::vector<Scalar>& b) {
  const index_t n = LU.num_rows();
  for (index_t j = 0; j < n; ++j)
    if (piv[j] != j) std::swap(b[j], b[piv[j]]);
  for (index_t j = 0; j < n; ++j) {
    const Scalar xj = b[j];
    for (index_t i = j + 1; i < n; ++i) b[i] -= LU(i, j) * xj;
  }
  for (index_t j = n - 1; j >= 0; --j) {
    b[j] /= LU(j, j);
    const Scalar xj = b[j];
    for (index_t i = 0; i < j; ++i) b[i] -= LU(i, j) * xj;
  }
}

}  // namespace frosch::la
