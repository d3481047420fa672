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
/// kTile-row strips, each stored depth-major (the kTile entries of one
/// depth p adjacent); the last strip is zero padded.
template <class Scalar>
void pack_strips(index_t rows, index_t kb, const Scalar* a, size_t rs,
                 size_t cs, std::vector<Scalar>& out) {
  constexpr index_t T = kTile;
  out.assign(static_cast<size_t>((rows + T - 1) / T) * kb * T, Scalar(0));
  for (index_t p = 0; p < kb; ++p)
    for (index_t i = 0; i < rows; ++i)
      out[(static_cast<size_t>(i / T) * kb + p) * T + i % T] =
          a[i * rs + p * cs];
}

/// One register tile of C -= L * R^T: lb and rb are packed strips of depth
/// kb; c is the tile's corner in a column-major array of leading dimension
/// ld, of which the leading iw x jw part exists.  With `lower`, only the
/// entries on and below the tile's diagonal are written.  The products
/// accumulate in double at every precision: summed in float, the rank-kb
/// updates doubled the residual of float Cholesky fronts, and the float
/// Schwarz preconditioner needed 35 GMRES iterations instead of 26.
template <class Scalar>
void tile_subtract(const Scalar* lb, const Scalar* rb, index_t kb, Scalar* c,
                   size_t ld, index_t iw, index_t jw, bool lower) {
  using Acc = double;
  constexpr index_t T = kTile;
  std::array<Acc, T * T> acc{};
  for (index_t p = 0; p < kb; ++p)
    for (index_t jj = 0; jj < T; ++jj)
      for (index_t ii = 0; ii < T; ++ii)
        acc[jj * T + ii] += Acc(lb[p * T + ii]) * Acc(rb[p * T + jj]);
  for (index_t jj = 0; jj < jw; ++jj) {
    Scalar* cc = c + jj * ld;
    for (index_t ii = lower ? jj : 0; ii < iw; ++ii)
      cc[ii] = Scalar(Acc(cc[ii]) - acc[jj * T + ii]);
  }
}

/// Trailing update C -= L * U of a blocked LU step, column-major with
/// leading dimension ld: C is rows x cols at c, L is rows x kb at l, U is
/// kb x cols at u.  Both operands are packed into 4-wide strips so a 4x4
/// register tile accumulates over the whole panel depth from contiguous
/// memory (the GEMM micro-kernel shape; zero padding covers the edges).
template <class Scalar>
void lu_trailing_update(index_t rows, index_t cols, index_t kb,
                        const Scalar* l, const Scalar* u, Scalar* c,
                        index_t ld) {
  constexpr index_t T = kTile;
  const size_t ldz = static_cast<size_t>(ld);
  std::vector<Scalar> lp, up;
  pack_strips(rows, kb, l, 1, ldz, lp);
  pack_strips(cols, kb, u, ldz, 1, up);
  for (index_t js = 0; js * T < cols; ++js)
    for (index_t is = 0; is * T < rows; ++is)
      tile_subtract(lp.data() + static_cast<size_t>(is) * kb * T,
                    up.data() + static_cast<size_t>(js) * kb * T, kb,
                    c + (js * T) * ldz + is * T, ldz,
                    std::min<index_t>(T, rows - is * T),
                    std::min<index_t>(T, cols - js * T), false);
}

/// Symmetric trailing update of a blocked Cholesky step: the LOWER triangle
/// of the rows x rows block at c (leading dimension ld) gets -= L * L^T,
/// where L is rows x kb at l.  One packing serves both operands, and tiles
/// above the diagonal are skipped (the SYRK shape of lu_trailing_update).
template <class Scalar>
void syrk_trailing_update(index_t rows, index_t kb, const Scalar* l, Scalar* c,
                          index_t ld) {
  constexpr index_t T = kTile;
  const size_t ldz = static_cast<size_t>(ld);
  std::vector<Scalar> lp;
  pack_strips(rows, kb, l, 1, ldz, lp);
  for (index_t js = 0; js * T < rows; ++js)
    for (index_t is = js; is * T < rows; ++is)
      tile_subtract(lp.data() + static_cast<size_t>(is) * kb * T,
                    lp.data() + static_cast<size_t>(js) * kb * T, kb,
                    c + (js * T) * ldz + is * T, ldz,
                    std::min<index_t>(T, rows - is * T),
                    std::min<index_t>(T, rows - js * T), is == js);
}

}  // namespace detail

/// Panel width of lu_factor_blocked and partial_cholesky.  Widths from 16
/// to 96 time within run noise of each other on a 1240^2 LU block (x86-64,
/// SSE2 build).
inline constexpr index_t kLuPanelWidth = 32;

/// In-place partial Cholesky of the leading k x k block of the symmetric
/// n x n column-major array f, updating the trailing (n-k) x (n-k) block
/// with the Schur complement.  Blocked right-looking:
/// each panel of kLuPanelWidth pivot columns is factored unblocked, then
/// everything right of it gets one rank-kb SYRK update.  On return the
/// lower leading block holds L (including the sqrt diagonal), the
/// off-diagonal block holds L21 = A21 * L11^{-T}, and the LOWER TRIANGLE of
/// the trailing block holds A22 - L21 * L21^T (the upper triangle is not
/// referenced or updated, as in LAPACK 'L' routines).  Serial and
/// deterministic.  Throws on a non-positive pivot.
template <class Scalar>
void partial_cholesky(Scalar* f, index_t n, index_t k) {
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
                                   f + pend * ldz + pend, n);
  }
}

/// partial_cholesky of the square DenseMatrix F (see above).
template <class Scalar>
void partial_cholesky(DenseMatrix<Scalar>& F, index_t k,
                      OpProfile* prof = nullptr) {
  const index_t n = F.num_rows();
  FROSCH_CHECK(F.num_cols() == n && k <= n, "partial_cholesky: bad dims");
  partial_cholesky(F.data(), n, k);
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
        for (index_t c = 0; c < n; ++c) std::swap(A(j, c), A(p, c));
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
    if (failed >= 0 || kend == n) break;
    // ---- U12 = L11^{-1} A12 (unit lower triangular solve) ---------------
    for (index_t c = kend; c < n; ++c) {
      Scalar* cc = A.col(c);
      for (index_t p = k; p < kend; ++p) {
        const Scalar u = cc[p];
        const Scalar* lp = A.col(p);
        for (index_t i = p + 1; i < kend; ++i) cc[i] -= lp[i] * u;
      }
    }
    flops += double(kb) * double(kb - 1) * rest;
    // ---- A22 -= L21 * U12 ---------------------------------------------
    detail::lu_trailing_update(n - kend, n - kend, kb, A.col(k) + kend,
                               A.col(kend) + k, A.col(kend) + kend, n);
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
