// FastILU: fine-grained asynchronous iterative incomplete factorization
// [Chow & Patel 2015; Boman, Patel, Chow, Rajamanickam 2016].
//
// Instead of eliminating rows in dependency order, every retained entry of
// the ILU(k) pattern is treated as an unknown of the nonlinear system
//      (LU)_ij = A_ij   for (i,j) in the pattern,
// solved by Jacobi fixed-point sweeps:
//      l_ij = (a_ij - sum_{k<j} l_ik u_kj) / u_jj        (i > j)
//      u_ij =  a_ij - sum_{k<i} l_ik u_kj                (i <= j)
// Each sweep is ONE full-width data-parallel launch over nnz entries -- the
// "expose more parallelism at higher flop cost" trade the paper evaluates
// as FastILU (default: three sweeps).  The sweeps execute through
// exec::parallel_for: every entry reads only the PREVIOUS iterate
// (lvals/uvals) and writes its own slot of the next (lnew/unew), so the
// parallel result is bitwise identical to serial at every thread count.
#pragma once

#include "device/arena.hpp"
#include "exec/exec.hpp"
#include "ilu/iluk.hpp"

namespace frosch::ilu {

template <class Scalar>
class FastIlu {
 public:
  /// Same level-of-fill pattern and L/U factor layout as ILU(k); also builds
  /// the column-access index of U needed by the entry-parallel sweeps.
  void symbolic(const la::CsrMatrix<Scalar>& A, int level,
                OpProfile* prof = nullptr) {
    pat_ = iluk_symbolic(A, level, prof);
    fact_ = ilu_factor_layout<Scalar>(pat_);
    // Column access for U: ucolptr_/urows_/ucolval_ list, per column j, the
    // row indices k and U-value positions of U(k, j).
    const la::CsrMatrix<Scalar>& U = fact_.U;
    const index_t n = pat_.n;
    ucolptr_.assign(static_cast<size_t>(n) + 1, 0);
    for (index_t j : U.colind()) ++ucolptr_[j + 1];
    for (index_t j = 0; j < n; ++j) ucolptr_[j + 1] += ucolptr_[j];
    urows_.assign(U.colind().size(), 0);
    ucolval_.assign(U.colind().size(), 0);
    IndexVector next(ucolptr_.begin(), ucolptr_.end() - 1);
    for (index_t i = 0; i < n; ++i) {
      for (index_t p = U.row_begin(i); p < U.row_end(i); ++p) {
        const index_t slot = next[U.col(p)]++;
        urows_[slot] = i;
        ucolval_[slot] = p;
      }
    }
  }

  static constexpr bool symbolic_reusable() { return true; }
  const IlukPattern& pattern() const { return pat_; }

  /// Jacobi-sweep numeric phase.  `sweeps` defaults to the paper's three.
  /// The iterates live in the factor layout (pattern row i's entries are
  /// L row i's strict part, then U row i); the last sweep writes the factor
  /// in place, whose stored unit diagonal it never touches.
  void numeric(const la::CsrMatrix<Scalar>& A, int sweeps = 3,
               OpProfile* prof = nullptr,
               const exec::ExecPolicy& policy = {}) {
    FROSCH_CHECK(pat_.n == A.num_rows(), "fastilu numeric: pattern mismatch");
    FROSCH_CHECK(sweeps >= 1, "fastilu numeric: needs at least one sweep");
    const index_t n = pat_.n;
    const la::CsrMatrix<Scalar>& L = fact_.L;
    const la::CsrMatrix<Scalar>& U = fact_.U;
    // Pattern position p of row i sits at L position p + loff(i) (strict
    // lower part) or U position p + uoff(i).
    const auto loff = [&](index_t i) {
      return L.row_begin(i) - pat_.rowptr[i];
    };
    const auto uoff = [&](index_t i) {
      return U.row_begin(i) - pat_.diag_pos[i];
    };

    // Initial guess (Chow-Patel): L = strict lower of A scaled by the
    // diagonal of A, U = upper of A (absent pattern entries start at 0).
    // The same dense row scatter lays A's values onto the pattern (apat,
    // zero at fill entries) for the sweeps.
    std::vector<Scalar> adiag(static_cast<size_t>(n), Scalar(1));
    for (index_t i = 0; i < n; ++i) {
      const Scalar d = A.at(i, i);
      adiag[i] = (d != Scalar(0)) ? d : Scalar(1);
    }
    std::vector<Scalar> lvals(L.values().size(), Scalar(0));
    std::vector<Scalar> uvals(U.values().size(), Scalar(0));
    std::vector<Scalar> apat(pat_.colind.size(), Scalar(0));
    IndexVector wpos(static_cast<size_t>(n), -1);
    for (index_t i = 0; i < n; ++i) {
      const index_t rb = pat_.rowptr[i], re = pat_.rowptr[i + 1];
      for (index_t p = rb; p < re; ++p) wpos[pat_.colind[p]] = p;
      for (index_t q = A.row_begin(i); q < A.row_end(i); ++q) {
        const index_t j = A.col(q);
        const index_t p = wpos[j];
        if (p < 0) continue;  // entry outside ILU(k) pattern: dropped
        apat[p] = A.val(q);
        if (j < i)
          lvals[p + loff(i)] = A.val(q) / adiag[j];
        else
          uvals[p + uoff(i)] = A.val(q);
      }
      for (index_t p = rb; p < re; ++p) wpos[pat_.colind[p]] = -1;
    }

    // Jacobi sweeps (Jacobi = read old values, write new arrays; the last
    // sweep writes into the factor).  Rows run concurrently; the per-chunk
    // flop counts reduce deterministically.
    std::vector<Scalar> lnew(lvals.size()), unew(uvals.size());
    double flops = 0.0;
    for (int s = 0; s < sweeps; ++s) {
      const bool last = s + 1 == sweeps;
      Scalar* lout = last ? fact_.L.values().data() : lnew.data();
      Scalar* uout = last ? fact_.U.values().data() : unew.data();
      flops += exec::parallel_reduce<double>(
          policy, n, [&](index_t rb, index_t re) {
            double chunk_flops = 0.0;
            for (index_t i = rb; i < re; ++i) {
              for (index_t p = pat_.rowptr[i]; p < pat_.rowptr[i + 1]; ++p) {
                const index_t j = pat_.colind[p];
                // s_ij = sum_{k < min(i,j)} l_ik u_kj over the retained
                // pattern: two-pointer intersection of L-row i / U-column j
                // (L's diagonal, last in its row, stops the walk).
                Scalar sum(0);
                index_t la = L.row_begin(i), le = L.row_end(i);
                index_t ua = ucolptr_[j], ue = ucolptr_[j + 1];
                const index_t kmax = std::min(i, j);
                while (la < le && ua < ue) {
                  const index_t kl = L.col(la), ku = urows_[ua];
                  if (kl >= kmax) break;
                  if (kl == ku) {
                    sum += lvals[la] * uvals[ucolval_[ua]];
                    chunk_flops += 2.0;
                    ++la;
                    ++ua;
                  } else if (kl < ku) {
                    ++la;
                  } else {
                    ++ua;
                  }
                }
                const Scalar aij = apat[p];
                if (j < i) {
                  const Scalar ujj = uvals[U.row_begin(j)];
                  const index_t l = p + loff(i);
                  lout[l] = (ujj != Scalar(0)) ? Scalar((aij - sum) / ujj)
                                               : lvals[l];
                } else {
                  uout[p + uoff(i)] = aij - sum;
                }
              }
            }
            return chunk_flops;
          },
          /*grain=*/256);
      std::swap(lvals, lnew);
      std::swap(uvals, unew);
    }
    // Device backend: the sweeps read A on the device (stage if stale) and
    // enqueue one entry-parallel kernel per sweep; the resulting factor is
    // device-born (LocalSolver marks it produced).
    if (A.num_entries() > 0)
      device::touch(policy, A.values().data(), A.storage_bytes(),
                    device::Xfer::Matrix);
    device::launches(policy, static_cast<count_t>(sweeps));
    if (prof) {
      prof->flops += flops;
      prof->bytes += static_cast<double>(sweeps) *
                     (static_cast<double>(pat_.nnz()) *
                      (2.0 * sizeof(Scalar) + sizeof(index_t)));
      prof->launches += sweeps;  // one entry-parallel launch per sweep
      prof->critical_path += sweeps;
      prof->work_items += static_cast<double>(sweeps) *
                          static_cast<double>(pat_.nnz());
    }
  }

  const Factorization<Scalar>& factorization() const { return fact_; }

 private:
  IlukPattern pat_;
  Factorization<Scalar> fact_;
  IndexVector ucolptr_, urows_, ucolval_;
};

}  // namespace frosch::ilu
