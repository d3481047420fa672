// Concrete TriangularEngine implementations.  See engine.hpp for the
// algorithm catalogue and attribution.
//
// The three sweep engines (substitution, level set, supernodal) run one of
// two sweeps.  A width-1 column tile of a Cholesky factor swept serially
// (one thread, or nested inside the subdomain-parallel apply) goes through
// the dense-panel sweep (trisolve/panel.hpp), the same for all three; every
// other tile -- wider tiles, threaded sweeps, ILU and pivoted LU factors --
// runs the CSR row kernel solve_row<W> on the engine's own schedule:
// substitution order, or rows (supernodes) within a dependency level
// concurrently through exec::parallel_for, levels a sequential chain.
// Either way they keep their modeled OpProfile, which prices the schedule
// they stand for.  All of them stay bitwise identical to the serial CSR
// substitution sweep at every thread count (each row's accumulation order
// is unchanged); see DESIGN.md section 6.
#pragma once

#include "device/arena.hpp"
#include "la/spmv.hpp"
#include "trisolve/engine.hpp"
#include "trisolve/panel.hpp"
#include "trisolve/substitution.hpp"

namespace frosch::trisolve {

namespace detail {

/// Device hook shared by the exact engines: a triangular solve READS the
/// factor pair on the device, so a stale mirror measures the staging it
/// forces (SuperLU's host-rebuilt factor restages after every numeric
/// factorization; device-born factors are free).  The factorization object
/// is the mirror key -- its address is stable across numeric refreshes.
template <class Scalar>
inline void touch_factor(const exec::ExecPolicy& pol,
                         const Factorization<Scalar>* f) {
  if (f != nullptr)
    device::touch(pol, f, f->L.storage_bytes() + f->U.storage_bytes(),
                  device::Xfer::Factor);
}

/// Base of the sweep engines: their single-vector solve is the width-1 call
/// of their block solve, so one sweep body serves both.
template <class Scalar>
class BlockSweepEngine : public TriangularEngine<Scalar> {
 public:
  void solve(const std::vector<Scalar>& b, std::vector<Scalar>& x,
             OpProfile* prof) const final {
    x.resize(b.size());
    this->solve_block(static_cast<index_t>(b.size()), 1, b.data(), x.data(),
                      prof);
  }

 protected:
  /// Sweeps each column tile of the w-wide block X in place: a width-1
  /// tile of a Cholesky factor (as bound by setup) through the panel sweep
  /// when the sweep runs serially under `policy`, any other through
  /// csr(W, x) -- the engine's CSR schedule on the tile at x.  Returns the
  /// tile count.
  template <class CsrSweep>
  index_t sweep_tiles(index_t w, Scalar* X, const exec::ExecPolicy& policy,
                      CsrSweep&& csr) const {
    const bool panel = panel_.active() && (!policy.parallel() ||
                                           exec::ThreadPool::inside_worker());
    return for_column_tiles(w, [&](auto W, index_t c0) {
      if constexpr (decltype(W)::value == 1) {
        if (panel) {
          panel_.solve(X + c0, w);
          return;
        }
      }
      csr(W, X + c0);
    });
  }

  PanelSweep<Scalar> panel_;
};

}  // namespace detail

/// CPU baseline: sequential substitution.  One "launch" per factor; critical
/// path = n rows (fully serial -- deliberately ignores the exec policy).
template <class Scalar>
class SubstitutionEngine final : public detail::BlockSweepEngine<Scalar> {
 public:
  explicit SubstitutionEngine(const exec::ExecPolicy& policy = {})
      : policy_(policy) {}

  void setup(const Factorization<Scalar>& f, OpProfile* prof) override {
    fact_ = &f;
    this->panel_.setup(f);
    if (prof) {
      prof->bytes += f.L.storage_bytes() + f.U.storage_bytes();
      prof->launches += 1;
      prof->critical_path += 1;
      prof->work_items += static_cast<double>(f.n());
    }
  }

  void solve_block(index_t n, index_t w, const Scalar* B, Scalar* X,
                   OpProfile* prof) const override {
    detail::touch_factor(policy_, fact_);
    fact_->apply_row_perm(B, X, n, w);
    const index_t tiles = this->sweep_tiles(
        w, X, exec::ExecPolicy::serial(), [&](auto W, Scalar* x) {
          constexpr index_t kW = decltype(W)::value;
          substitution_sweep<kW>(fact_->L, fact_->unit_diag_L,
                                 /*forward=*/true, x, w);
          substitution_sweep<kW>(fact_->U, /*unit_diag=*/false,
                                 /*forward=*/false, x, w);
        });
    device::launches(policy_, 2 * tiles);
    if (prof) {
      prof->flops += 2.0 * static_cast<double>(fact_->factor_nnz()) * w;
      prof->bytes += static_cast<double>(tiles) *
                     (fact_->L.storage_bytes() + fact_->U.storage_bytes());
      prof->launches += 2 * tiles;
      prof->critical_path += 2 * tiles * fact_->n();  // inherently serial
      prof->work_items += 2.0 * tiles;                // one task per sweep
    }
  }

  TrisolveKind kind() const override { return TrisolveKind::Substitution; }

 private:
  const Factorization<Scalar>* fact_ = nullptr;
  exec::ExecPolicy policy_;
};

/// Element-based level-set scheduling [Anderson & Saad 1989]: rows grouped
/// into dependency levels; one kernel launch (parallel region) per level.
template <class Scalar>
class LevelSetEngine final : public detail::BlockSweepEngine<Scalar> {
 public:
  explicit LevelSetEngine(const exec::ExecPolicy& policy = {})
      : policy_(policy) {}

  void setup(const Factorization<Scalar>& f, OpProfile* prof) override {
    fact_ = &f;
    this->panel_.setup(f);
    llevel_ = lower_levels(f.L, &lower_nlevels_);
    ulevel_ = upper_levels(f.U, &upper_nlevels_);
    build_level_schedule(llevel_, lower_nlevels_, lorder_, lptr_);
    build_level_schedule(ulevel_, upper_nlevels_, uorder_, uptr_);
    if (prof) {
      // Setup streams both factors to compute levels and build the schedule.
      prof->bytes += 2.0 * (f.L.storage_bytes() + f.U.storage_bytes());
      prof->launches += 2;
      prof->critical_path += 2;
      prof->work_items += 2.0 * static_cast<double>(f.n());
    }
  }

  void solve_block(index_t n, index_t w, const Scalar* B, Scalar* X,
                   OpProfile* prof) const override {
    detail::touch_factor(policy_, fact_);
    fact_->apply_row_perm(B, X, n, w);
    const index_t tiles =
        this->sweep_tiles(w, X, policy_, [&](auto W, Scalar* x) {
          constexpr index_t kW = decltype(W)::value;
          level_scheduled_solve<kW>(fact_->L, fact_->unit_diag_L, lorder_,
                                    lptr_, x, w, policy_);
          level_scheduled_solve<kW>(fact_->U, /*unit_diag=*/false, uorder_,
                                    uptr_, x, w, policy_);
        });
    device::launches(policy_, static_cast<count_t>(tiles) *
                                  (lower_nlevels_ + upper_nlevels_));
    record_levelset_sweep(fact_->L, lower_nlevels_, w, prof);
    record_levelset_sweep(fact_->U, upper_nlevels_, w, prof);
  }

  TrisolveKind kind() const override { return TrisolveKind::LevelSet; }

  index_t lower_nlevels() const { return lower_nlevels_; }
  index_t upper_nlevels() const { return upper_nlevels_; }

 private:
  const Factorization<Scalar>* fact_ = nullptr;
  exec::ExecPolicy policy_;
  IndexVector llevel_, ulevel_;
  IndexVector lorder_, lptr_, uorder_, uptr_;
  index_t lower_nlevels_ = 0, upper_nlevels_ = 0;
};

/// Supernodal level-set solver [Yamazaki, Rajamanickam, Ellingwood 2020]:
/// level sets over supernodal column blocks instead of single rows.  Fewer,
/// fatter levels => fewer kernel launches and team-parallel dense work per
/// block, which is why the paper pairs it with SuperLU factors on GPUs.
/// Its CSR sweep runs one parallel region per block level with supernodes
/// as tasks, the rows of a supernode sequentially inside the task
/// (same-block dependencies), in factor order -- bitwise identical to
/// serial substitution.
template <class Scalar>
class SupernodalEngine final : public detail::BlockSweepEngine<Scalar> {
 public:
  explicit SupernodalEngine(const exec::ExecPolicy& policy = {})
      : policy_(policy) {}

  void setup(const Factorization<Scalar>& f, OpProfile* prof) override {
    fact_ = &f;
    this->panel_.setup(f);
    // Supernode of each column.
    const index_t nsn = static_cast<index_t>(f.sn_ptr.size()) - 1;
    IndexVector sn_of(static_cast<size_t>(f.n()));
    for (index_t s = 0; s < nsn; ++s)
      for (index_t j = f.sn_ptr[s]; j < f.sn_ptr[s + 1]; ++j) sn_of[j] = s;

    // Supernode dependency levels, derived from row levels collapsed onto
    // blocks: level(s) = 1 + max(level(s') over supernodes s' < s that s's
    // rows reference).
    IndexVector llev = block_levels(f.L, sn_of, nsn, /*lower=*/true,
                                    &lower_nlevels_);
    IndexVector ulev = block_levels(f.U, sn_of, nsn, /*lower=*/false,
                                    &upper_nlevels_);
    build_level_schedule(llev, lower_nlevels_, lsn_order_, lsn_ptr_);
    build_level_schedule(ulev, upper_nlevels_, usn_order_, usn_ptr_);
    if (prof) {
      // Supernode detection, block-structure conversion (CSC -> supernodal
      // block storage), and two level schedules: several irregular host
      // passes over both factors [Yamazaki et al. 2020], all of which must
      // be redone whenever the factor structure changes.
      prof->bytes += 6.0 * (f.L.storage_bytes() + f.U.storage_bytes());
      prof->launches += 8;
      prof->critical_path += 8;
      prof->work_items += 2.0 * static_cast<double>(f.n() + nsn);
    }
  }

  void solve_block(index_t n, index_t w, const Scalar* B, Scalar* X,
                   OpProfile* prof) const override {
    detail::touch_factor(policy_, fact_);
    fact_->apply_row_perm(B, X, n, w);
    const index_t tiles =
        this->sweep_tiles(w, X, policy_, [&](auto W, Scalar* x) {
          constexpr index_t kW = decltype(W)::value;
          block_sweep<kW>(fact_->L, fact_->unit_diag_L, /*forward=*/true,
                          lsn_order_, lsn_ptr_, x, w);
          block_sweep<kW>(fact_->U, /*unit_diag=*/false, /*forward=*/false,
                          usn_order_, usn_ptr_, x, w);
        });
    const count_t levels =
        static_cast<count_t>(tiles) * (lower_nlevels_ + upper_nlevels_);
    device::launches(policy_, levels);
    if (prof) {
      prof->flops += 2.0 * static_cast<double>(fact_->factor_nnz()) * w;
      prof->bytes += static_cast<double>(tiles) *
                     (fact_->L.storage_bytes() + fact_->U.storage_bytes());
      prof->launches += levels;
      prof->critical_path += levels;
      // Within a supernode level, team kernels parallelize over the block
      // entries (dense triangular solve + gemv) of every column, so the
      // exposed width is the factor nnz times the block width spread over
      // the levels -- the structural advantage over the row-parallel
      // element-wise schedule.
      prof->work_items += static_cast<double>(fact_->factor_nnz()) * w;
    }
  }

  TrisolveKind kind() const override {
    return TrisolveKind::SupernodalLevelSet;
  }

  index_t lower_nlevels() const { return lower_nlevels_; }
  index_t upper_nlevels() const { return upper_nlevels_; }

 private:
  static IndexVector block_levels(const la::CsrMatrix<Scalar>& T,
                                  const IndexVector& sn_of, index_t nsn,
                                  bool lower, index_t* nlevels) {
    IndexVector level(static_cast<size_t>(nsn), 1);
    index_t maxl = nsn > 0 ? 1 : 0;
    const index_t n = T.num_rows();
    auto relax = [&](index_t i) {
      const index_t s = sn_of[i];
      index_t lv = level[s];
      for (index_t k = T.row_begin(i); k < T.row_end(i); ++k) {
        const index_t sj = sn_of[T.col(k)];
        if (sj != s) lv = std::max(lv, level[sj] + 1);
      }
      level[s] = lv;
      maxl = std::max(maxl, lv);
    };
    if (lower) {
      for (index_t i = 0; i < n; ++i) relax(i);
    } else {
      for (index_t i = n - 1; i >= 0; --i) relax(i);
    }
    if (nlevels) *nlevels = maxl;
    return level;
  }

  /// One block-level sweep over W interleaved columns: supernodes of a
  /// level in parallel, the rows of one supernode sequentially (ascending
  /// for L, descending for U).
  template <index_t W>
  void block_sweep(const la::CsrMatrix<Scalar>& T, bool unit_diag,
                   bool forward, const IndexVector& sn_order,
                   const IndexVector& sn_lptr, Scalar* X, index_t ld) const {
    const auto& sn_ptr = fact_->sn_ptr;
    const index_t nlevels = static_cast<index_t>(sn_lptr.size()) - 1;
    for (index_t l = 0; l < nlevels; ++l) {
      const index_t begin = sn_lptr[l], width = sn_lptr[l + 1] - sn_lptr[l];
      exec::parallel_for(
          policy_, width,
          [&](index_t q) {
            const index_t s = sn_order[begin + q];
            const index_t rb = sn_ptr[s], re = sn_ptr[s + 1];
            for (index_t r = 0; r < re - rb; ++r) {
              solve_row<W>(T, unit_diag, forward ? rb + r : re - 1 - r, X, ld);
            }
          },
          /*grain=*/16);
    }
  }

  const Factorization<Scalar>* fact_ = nullptr;
  exec::ExecPolicy policy_;
  IndexVector lsn_order_, lsn_ptr_, usn_order_, usn_ptr_;
  index_t lower_nlevels_ = 0, upper_nlevels_ = 0;
};

/// Partitioned-inverse solver [Alvarado, Pothen, Schreiber 1993]: rewrites
/// each triangular solve as a product of inverse level factors,
///   Lhat^{-1} = (I - N_L) ... (I - N_2),   L = Lhat * D,
/// so the solve becomes a sequence of full-width SpMVs -- maximal
/// parallelism per launch at the cost of extra matrix storage/traffic.
template <class Scalar>
class PartitionedInverseEngine final : public TriangularEngine<Scalar> {
 public:
  explicit PartitionedInverseEngine(const exec::ExecPolicy& policy = {})
      : policy_(policy) {}

  void setup(const Factorization<Scalar>& f, OpProfile* prof) override {
    fact_ = &f;
    build_factors(f.L, f.unit_diag_L, /*lower=*/true, lower_factors_, ldiag_);
    build_factors(f.U, /*unit_diag=*/false, /*lower=*/false, upper_factors_,
                  udiag_);
    // The inverse level factors are built by device kernels: mark them
    // device-born so the solve's SpMV touches stage nothing.
    for (const auto& m : lower_factors_)
      device::produced(policy_, m.values().data(), m.storage_bytes());
    for (const auto& m : upper_factors_)
      device::produced(policy_, m.values().data(), m.storage_bytes());
    if (prof) {
      double fb = 0.0;
      for (auto& m : lower_factors_) fb += m.storage_bytes();
      for (auto& m : upper_factors_) fb += m.storage_bytes();
      prof->bytes += f.L.storage_bytes() + f.U.storage_bytes() + fb;
      prof->launches += 2 + static_cast<count_t>(lower_factors_.size() +
                                                 upper_factors_.size());
      prof->critical_path += 2;
      prof->work_items += 2.0 * static_cast<double>(f.n());
    }
  }

  void solve(const std::vector<Scalar>& b, std::vector<Scalar>& x,
             OpProfile* prof) const override {
    fact_->apply_row_perm(b, x);
    const index_t n = static_cast<index_t>(x.size());
    if (tmp_.size() < x.size()) tmp_.resize(x.size());
    // The SpMVs ping-pong between x and tmp_; the last product is copied
    // into x if it landed in tmp_.
    Scalar* cur = x.data();
    Scalar* nxt = tmp_.data();
    auto apply = [&](const std::vector<la::CsrMatrix<Scalar>>& factors,
                     const std::vector<Scalar>& diag) {
      for (const auto& P : factors) {
        la::spmv(P, cur, nxt, Scalar(1), Scalar(0), prof, policy_);
        std::swap(cur, nxt);
      }
      exec::parallel_for(policy_, n, [&](index_t i) { cur[i] /= diag[i]; });
    };
    apply(lower_factors_, ldiag_);  // y = Lhat^{-1} (P b); x = D_L^{-1} y
    apply(upper_factors_, udiag_);  // same for U
    if (cur != x.data()) std::copy_n(cur, n, x.data());
    device::launches(policy_, 2);
    if (prof) {
      prof->flops += 2.0 * static_cast<double>(x.size());
      prof->launches += 2;
      prof->critical_path += 2;
      prof->work_items += 2.0 * static_cast<double>(x.size());
    }
  }

  TrisolveKind kind() const override {
    return TrisolveKind::PartitionedInverse;
  }

  size_t num_factors() const {
    return lower_factors_.size() + upper_factors_.size();
  }

 private:
  /// Builds the (I - N_l) factors for levels l >= 2 of a triangular matrix.
  /// Columns are pre-scaled by the diagonal (That = T * D^{-1}), whose
  /// entries are returned in `diag` for the final x = D^{-1} y step.
  void build_factors(const la::CsrMatrix<Scalar>& T, bool unit_diag, bool lower,
                     std::vector<la::CsrMatrix<Scalar>>& factors,
                     std::vector<Scalar>& diag) {
    const index_t n = T.num_rows();
    index_t nlev = 0;
    IndexVector level = lower ? lower_levels(T, &nlev) : upper_levels(T, &nlev);
    diag.assign(static_cast<size_t>(n), Scalar(1));
    if (!unit_diag) {
      for (index_t i = 0; i < n; ++i) {
        const Scalar d = T.at(i, i);
        FROSCH_CHECK(d != Scalar(0), "partitioned inverse: zero diagonal");
        diag[i] = d;
      }
    }
    factors.clear();
    for (index_t l = 2; l <= nlev; ++l) {
      la::TripletBuilder<Scalar> b(n, n);
      for (index_t i = 0; i < n; ++i) b.add(i, i, Scalar(1));
      for (index_t i = 0; i < n; ++i) {
        if (level[i] != l) continue;
        for (index_t k = T.row_begin(i); k < T.row_end(i); ++k) {
          const index_t j = T.col(k);
          if (j == i) continue;
          b.add(i, j, -T.val(k) / diag[j]);
        }
      }
      factors.push_back(b.build());
    }
  }

  const Factorization<Scalar>* fact_ = nullptr;
  exec::ExecPolicy policy_;
  std::vector<la::CsrMatrix<Scalar>> lower_factors_, upper_factors_;
  std::vector<Scalar> ldiag_, udiag_;
  mutable std::vector<Scalar> tmp_;  ///< grow-only second SpMV operand
};

/// Iterative Jacobi-sweep triangular solve (FastSpTRSV) [Chow & Patel 2015,
/// Boman et al. 2016]:  x^{m+1} = D^{-1} (b - N x^m).  APPROXIMATE: with the
/// default five sweeps the outer Krylov method needs more iterations, but
/// every sweep is one full-width SpMV-like launch -- the trade the paper
/// measures in Tables IV/V.  Each sweep reads the previous iterate and
/// writes a fresh array, so the parallel rows are free of conflicts and the
/// result is bitwise identical at every thread count.
template <class Scalar>
class JacobiSweepsEngine final : public TriangularEngine<Scalar> {
 public:
  explicit JacobiSweepsEngine(int sweeps,
                              const exec::ExecPolicy& policy = {})
      : policy_(policy), sweeps_(sweeps) {}

  void setup(const Factorization<Scalar>& f, OpProfile* prof) override {
    fact_ = &f;
    // The diagonals, read once per numeric factorization (a numeric refresh
    // reruns setup, so they follow the new values).
    read_diag(f.L, f.unit_diag_L, ldiag_);
    read_diag(f.U, /*unit_diag=*/false, udiag_);
    if (prof) {
      // No scheduling needed at all: this is the point of the iterative
      // variant -- setup is a single streaming pass.
      prof->bytes += f.L.storage_bytes() + f.U.storage_bytes();
      prof->launches += 1;
      prof->critical_path += 1;
      prof->work_items += static_cast<double>(f.n());
    }
  }

  void solve(const std::vector<Scalar>& b, std::vector<Scalar>& x,
             OpProfile* prof) const override {
    detail::touch_factor(policy_, fact_);
    fact_->apply_row_perm(b, pb_);
    sweep_solve(fact_->L, ldiag_, pb_, y_, prof);
    sweep_solve(fact_->U, udiag_, y_, x, prof);
  }

  TrisolveKind kind() const override { return TrisolveKind::JacobiSweeps; }

 private:
  static void read_diag(const la::CsrMatrix<Scalar>& T, bool unit_diag,
                        std::vector<Scalar>& diag) {
    const index_t n = T.num_rows();
    diag.assign(static_cast<size_t>(n), Scalar(1));
    if (!unit_diag)
      for (index_t i = 0; i < n; ++i) diag[i] = T.at(i, i);
  }

  /// The sweeps ping-pong between x and the member iterate xn_; the last
  /// iterate is copied into x if it landed in xn_.
  void sweep_solve(const la::CsrMatrix<Scalar>& T,
                   const std::vector<Scalar>& diag,
                   const std::vector<Scalar>& b, std::vector<Scalar>& x,
                   OpProfile* prof) const {
    const index_t n = T.num_rows();
    x.resize(static_cast<size_t>(n));
    if (xn_.size() < static_cast<size_t>(n)) xn_.resize(static_cast<size_t>(n));
    Scalar* cur = x.data();
    Scalar* nxt = xn_.data();
    // x^0 = D^{-1} b.
    exec::parallel_for(policy_, n, [&](index_t i) { cur[i] = b[i] / diag[i]; });
    for (int s = 0; s < sweeps_; ++s) {
      exec::parallel_for(policy_, n, [&](index_t i) {
        Scalar sum = b[i];
        for (index_t k = T.row_begin(i); k < T.row_end(i); ++k) {
          const index_t j = T.col(k);
          if (j != i) sum -= T.val(k) * cur[j];
        }
        nxt[i] = sum / diag[i];
      });
      std::swap(cur, nxt);
    }
    if (cur != x.data()) std::copy_n(cur, n, x.data());
    device::launches(policy_, static_cast<count_t>(sweeps_));
    if (prof) {
      prof->flops += 2.0 * static_cast<double>(T.num_entries()) * sweeps_;
      prof->bytes += static_cast<double>(sweeps_) * T.storage_bytes();
      prof->launches += sweeps_;
      prof->critical_path += sweeps_;
      prof->work_items += static_cast<double>(sweeps_) * n;
    }
  }

  const Factorization<Scalar>* fact_ = nullptr;
  exec::ExecPolicy policy_;
  int sweeps_;
  std::vector<Scalar> ldiag_, udiag_;  ///< cached at setup
  // Grow-only solve scratch: the permuted rhs, the L-sweep result, and the
  // second Jacobi iterate.
  mutable std::vector<Scalar> pb_, y_, xn_;
};

}  // namespace frosch::trisolve
