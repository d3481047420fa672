// The one row kernel of every exact triangular engine and the sweeps built
// on it: sequential substitution and the level-scheduled parallel sweep
// (rows within a level concurrently, levels in sequence -- the execution
// structure the level-set engines' OpProfiles have always modeled), plus
// level-set computation utilities.  Every sweep runs on a row-major
// interleaved block of right-hand sides (entry (i, c) at X[i * ld + c]); a
// single vector is the width-1 block.
#pragma once

#include <algorithm>
#include <type_traits>

#include "common/op_profile.hpp"
#include "direct/factorization.hpp"
#include "exec/exec.hpp"

namespace frosch::trisolve {

/// Widest column tile of the block row kernel: a tile's accumulators live in
/// registers for the whole row.  Wider blocks are swept tile by tile, which
/// re-reads the factor once per tile and leaves every column's arithmetic
/// untouched.
inline constexpr index_t kRowTile = 8;

/// Number of column tiles a w-wide block is swept in.
inline index_t column_tiles(index_t w) {
  return (w + kRowTile - 1) / kRowTile;
}

namespace detail {

/// sweep(std::integral_constant<index_t, W>, c0) with W == tw, found by
/// counting down from kRowTile at compile time.
template <index_t W, class Sweep>
void dispatch_tile(index_t tw, index_t c0, Sweep& sweep) {
  if constexpr (W > 1) {
    if (tw < W) return dispatch_tile<W - 1>(tw, c0, sweep);
  }
  sweep(std::integral_constant<index_t, W>{}, c0);
}

}  // namespace detail

/// Calls sweep(W, c0) for each column tile [c0, c0 + W) of a w-wide block,
/// W a std::integral_constant (kRowTile, the last tile narrower), so the
/// row kernel is compiled for each tile width.  Returns the tile count.
template <class Sweep>
index_t for_column_tiles(index_t w, Sweep&& sweep) {
  for (index_t c0 = 0; c0 < w; c0 += kRowTile)
    detail::dispatch_tile<kRowTile>(std::min(w - c0, kRowTile), c0, sweep);
  return column_tiles(w);
}

/// One row update of a triangular sweep on W columns of a row-major
/// interleaved block (entry (i, c) at X[i * ld + c]): subtracts every
/// off-diagonal contribution of row i in CSR order and divides by the
/// diagonal unless the factor has an implicit unit diagonal.  The factor row
/// is read once for all W columns, and each column's accumulation is exactly
/// the single-vector row update, so every column is bitwise independent of
/// the others and of W.  All rows the update reads must already be final --
/// the sweep order or the level/block schedules guarantee it.
template <index_t W, class Scalar>
void solve_row(const la::CsrMatrix<Scalar>& T, bool unit_diag, index_t i,
               Scalar* X, index_t ld) {
  Scalar* xi = X + static_cast<size_t>(i) * static_cast<size_t>(ld);
  Scalar sum[W];
  for (index_t c = 0; c < W; ++c) sum[c] = xi[c];
  Scalar diag = unit_diag ? Scalar(1) : Scalar(0);
  for (index_t k = T.row_begin(i); k < T.row_end(i); ++k) {
    const index_t j = T.col(k);
    if (j == i) {
      diag = T.val(k);
    } else {
      const Scalar v = T.val(k);
      const Scalar* xj = X + static_cast<size_t>(j) * static_cast<size_t>(ld);
      for (index_t c = 0; c < W; ++c) sum[c] -= v * xj[c];
    }
  }
  FROSCH_ASSERT(diag != Scalar(0), "solve_row: zero diagonal");
  for (index_t c = 0; c < W; ++c)
    xi[c] = unit_diag ? sum[c] : Scalar(sum[c] / diag);
}

/// Sequential forward (rows ascending) or backward (descending) sweep of a
/// triangular factor over W interleaved columns -- the substitution order.
template <index_t W, class Scalar>
void substitution_sweep(const la::CsrMatrix<Scalar>& T, bool unit_diag,
                        bool forward, Scalar* X, index_t ld) {
  const index_t n = T.num_rows();
  for (index_t r = 0; r < n; ++r)
    solve_row<W>(T, unit_diag, forward ? r : n - 1 - r, X, ld);
}

/// x <- L^{-1} x in place (CSR lower triangular, sorted rows).
template <class Scalar>
void forward_solve(const la::CsrMatrix<Scalar>& L, bool unit_diag,
                   std::vector<Scalar>& x) {
  substitution_sweep<1>(L, unit_diag, /*forward=*/true, x.data(), 1);
}

/// x <- U^{-1} x in place (CSR upper triangular, sorted rows).
template <class Scalar>
void backward_solve(const la::CsrMatrix<Scalar>& U, std::vector<Scalar>& x) {
  substitution_sweep<1>(U, /*unit_diag=*/false, /*forward=*/false, x.data(),
                        1);
}

/// Dependency levels of a lower-triangular CSR matrix:
/// level[i] = 1 + max(level[j] : j < i, L(i,j) != 0), leaves at level 1.
/// Returns levels (1-based) and writes the count into *nlevels.
template <class Scalar>
IndexVector lower_levels(const la::CsrMatrix<Scalar>& L, index_t* nlevels) {
  const index_t n = L.num_rows();
  IndexVector level(static_cast<size_t>(n), 1);
  index_t maxl = n > 0 ? 1 : 0;
  for (index_t i = 0; i < n; ++i) {
    index_t lv = 1;
    for (index_t k = L.row_begin(i); k < L.row_end(i); ++k) {
      const index_t j = L.col(k);
      if (j < i) lv = std::max(lv, level[j] + 1);
    }
    level[i] = lv;
    maxl = std::max(maxl, lv);
  }
  if (nlevels) *nlevels = maxl;
  return level;
}

/// Dependency levels of an upper-triangular CSR matrix (deps are j > i).
template <class Scalar>
IndexVector upper_levels(const la::CsrMatrix<Scalar>& U, index_t* nlevels) {
  const index_t n = U.num_rows();
  IndexVector level(static_cast<size_t>(n), 1);
  index_t maxl = n > 0 ? 1 : 0;
  for (index_t i = n - 1; i >= 0; --i) {
    index_t lv = 1;
    for (index_t k = U.row_begin(i); k < U.row_end(i); ++k) {
      const index_t j = U.col(k);
      if (j > i) lv = std::max(lv, level[j] + 1);
    }
    level[i] = lv;
    maxl = std::max(maxl, lv);
  }
  if (nlevels) *nlevels = maxl;
  return level;
}

/// Groups rows by dependency level: `order` lists the rows level-by-level
/// (stable within a level, i.e. ascending row index) and `ptr` holds the
/// level offsets (`ptr[l]..ptr[l+1]` are the rows of 1-based level l+1).
inline void build_level_schedule(const IndexVector& level, index_t nlevels,
                                 IndexVector& order, IndexVector& ptr) {
  const index_t n = static_cast<index_t>(level.size());
  ptr.assign(static_cast<size_t>(nlevels) + 1, 0);
  for (index_t i = 0; i < n; ++i) ptr[level[i]] += 1;  // levels are 1-based
  for (index_t l = 0; l < nlevels; ++l) ptr[l + 1] += ptr[l];
  order.resize(static_cast<size_t>(n));
  IndexVector next(ptr.begin(), ptr.end() - 1);
  for (index_t i = 0; i < n; ++i) order[next[level[i] - 1]++] = i;
}

/// One level-scheduled triangular sweep over W interleaved columns, in
/// place: rows within a level run through exec::parallel_for (they only read
/// rows finalized by earlier levels), levels are a sequential dependency
/// chain.  The per-row update accumulates in CSR order exactly like the
/// substitution sweep, so the result is bitwise identical to it at EVERY
/// thread count.  Works for lower and upper factors alike; `unit_diag` only
/// for L.
template <index_t W, class Scalar>
void level_scheduled_solve(const la::CsrMatrix<Scalar>& T, bool unit_diag,
                           const IndexVector& order, const IndexVector& ptr,
                           Scalar* X, index_t ld,
                           const exec::ExecPolicy& policy) {
  const index_t nlevels = static_cast<index_t>(ptr.size()) - 1;
  for (index_t l = 0; l < nlevels; ++l) {
    const index_t begin = ptr[l], width = ptr[l + 1] - ptr[l];
    exec::parallel_for(
        policy, width,
        [&](index_t q) { solve_row<W>(T, unit_diag, order[begin + q], X, ld); },
        /*grain=*/256);
  }
}

/// Profile helper: records one triangular sweep of a w-wide block executed
/// as a level-set schedule with `nlevels` kernel launches per column tile
/// over n rows and nnz entries.  The factor streams once per tile, the
/// vectors once per column.
template <class Scalar>
void record_levelset_sweep(const la::CsrMatrix<Scalar>& T, index_t nlevels,
                           index_t w, OpProfile* prof) {
  if (!prof) return;
  const index_t tiles = column_tiles(w);
  const double wd = static_cast<double>(w);
  prof->flops += 2.0 * static_cast<double>(T.num_entries()) * wd;
  prof->bytes += static_cast<double>(tiles) * T.storage_bytes() +
                 2.0 * static_cast<double>(T.num_rows()) * wd * sizeof(Scalar);
  prof->launches += tiles * nlevels;
  prof->critical_path += tiles * nlevels;
  prof->work_items += static_cast<double>(T.num_rows()) * wd;
}

}  // namespace frosch::trisolve
