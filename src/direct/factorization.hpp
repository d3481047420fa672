// Shared triangular-factorization result type.
//
// Every factorization backend -- the SuperLU-like partial-pivoting LU, the
// Tacho-like multifrontal Cholesky, and the incomplete factorizations in
// src/ilu -- produces this struct, and every triangular-solve engine in
// src/trisolve consumes it.  This is the seam that lets the paper's solver-
// option matrix (Table I) mix factorizations and triangular-solve algorithms
// freely (e.g. SuperLU factors + Kokkos-Kernels supernodal SpTRSV).
#pragma once

#include <algorithm>
#include <vector>

#include "common/types.hpp"
#include "la/csr.hpp"

namespace frosch::direct {

/// A (possibly approximate) factorization  P*A ~= L*U  in CSR storage.
///
/// Solve semantics:  x = U^{-1} ( L^{-1} (P b) ), where (P b)[i] =
/// b[row_perm_old2new^{-1}(i)]; i.e. row_perm_old2new maps an ORIGINAL row
/// index to its PIVOTED position.  An empty row_perm_old2new means identity
/// (no pivoting: Cholesky, ILU).
template <class Scalar>
struct Factorization {
  la::CsrMatrix<Scalar> L;        ///< lower triangular, diagonal stored
  la::CsrMatrix<Scalar> U;        ///< upper triangular, diagonal stored
  bool unit_diag_L = false;       ///< if true, L's diagonal is implicit 1
  IndexVector row_perm_old2new;   ///< pivot permutation; empty == identity

  /// Supernode boundaries over the columns of L: supernode s spans columns
  /// [sn_ptr[s], sn_ptr[s+1]).  Always at least the trivial partition.
  IndexVector sn_ptr;

  /// A Cholesky factor: U == transpose(L) entrywise, no pivoting, and
  /// sn_ptr holds U's fundamental supernodes, so U's CSR values pack each
  /// supernode's dense panel column by column (trisolve/panel.hpp).
  bool cholesky = false;

  index_t n() const { return L.num_rows(); }
  count_t factor_nnz() const { return L.num_entries() + U.num_entries(); }

  /// Applies the pivot permutation: out[perm[i]] = in[i].
  void apply_row_perm(const std::vector<Scalar>& in,
                      std::vector<Scalar>& out) const {
    out.resize(in.size());
    apply_row_perm(in.data(), out.data(), static_cast<index_t>(in.size()), 1);
  }

  /// Block form on n x w row-major interleaved blocks (entry (i, c) at
  /// [i * w + c]): out row perm[i] = in row i.
  void apply_row_perm(const Scalar* in, Scalar* out, index_t n,
                      index_t w) const {
    const size_t ws = static_cast<size_t>(w);
    if (row_perm_old2new.empty()) {
      std::copy(in, in + static_cast<size_t>(n) * ws, out);
      return;
    }
    for (index_t i = 0; i < n; ++i) {
      const Scalar* src = in + static_cast<size_t>(i) * ws;
      Scalar* dst = out + static_cast<size_t>(row_perm_old2new[i]) * ws;
      for (size_t c = 0; c < ws; ++c) dst[c] = src[c];
    }
  }
};

/// Detects "fundamental supernodes" in a lower-triangular factor:
/// maximal runs of consecutive columns j, j+1 where column j+1's structure
/// equals column j's minus the diagonal entry (so the block is dense
/// trapezoidal).  Works on the column pattern: column j's rows, ascending
/// and diagonal first, are ind[ptr[j]..ptr[j+1]), i.e. the CSR pattern of
/// L^T.
inline IndexVector detect_supernodes(const IndexVector& ptr,
                                     const IndexVector& ind) {
  const index_t n = static_cast<index_t>(ptr.size()) - 1;
  IndexVector sn_ptr{0};
  index_t j = 0;
  while (j < n) {
    index_t end = j + 1;
    while (end < n) {
      // Column `end` must have the structure of column `end-1` minus its
      // first (diagonal) entry.
      const index_t b1 = ptr[end - 1], e1 = ptr[end];
      const index_t b2 = ptr[end], e2 = ptr[end + 1];
      if ((e1 - b1) != (e2 - b2) + 1) break;
      if (!std::equal(ind.begin() + b2, ind.begin() + e2,
                      ind.begin() + b1 + 1))
        break;
      ++end;
    }
    sn_ptr.push_back(end);
    j = end;
  }
  return sn_ptr;
}

/// detect_supernodes on Lt = L^T (== U for symmetric factors).
template <class Scalar>
IndexVector detect_supernodes(const la::CsrMatrix<Scalar>& Lt) {
  return detect_supernodes(Lt.rowptr(), Lt.colind());
}

}  // namespace frosch::direct
