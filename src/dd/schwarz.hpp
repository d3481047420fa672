// The FROSch-style one- and two-level overlapping additive Schwarz
// preconditioner (Section III, Eq. (1)):
//
//     M^{-1} = Phi A_0^{-1} Phi^T  +  sum_i R_i^T A_i^{-1} R_i
//
// with the GDSW/rGDSW coarse space of coarse_space.hpp.  Setup follows the
// three Trilinos phases (Section V-A1):
//
//   symbolic_setup(A)  partition bookkeeping, interface classification,
//                      per-subdomain symbolic factorization;
//   numeric_setup(A)   coarse basis + RAP + all numeric factorizations +
//                      triangular-solve setup, with a named breakdown
//                      matching Fig. 4's bars (numeric_refresh runs the
//                      same pass; DESIGN.md section 9);
//   apply(x, y)        one additive application per Krylov iteration
//                      (apply_columns: one per block of columns).
//
// RANK SHARDING (the virtual distributed runtime, src/comm).  Subdomains
// are block-mapped onto the communicator's virtual ranks (one subdomain per
// rank by default -- the paper's configuration); each rank owns its
// subdomains' overlap import and local solves.  All communication is
// MEASURED from the actual transfer plans, not estimated:
//
//   * numeric overlap-matrix refresh: the off-rank CSR rows each rank
//     imports, with their true storage bytes;
//   * apply restriction: the off-rank overlap entries of x each rank
//     imports (and the mirrored export of the additive combine), with the
//     true scalar payload -- once per block of columns;
//   * coarse problem: gathered to and replicated from the coarse subset
//     through the comm layer's collectives (coarse matrix once per numeric
//     setup, coarse rhs/solution once per block apply).
//
// Per-rank operation profiles are kept for every phase: the Summit machine
// model replays them (plus the communicator's measured per-rank traffic) to
// produce the CPU-vs-GPU, MPS-sharing, and weak/strong-scaling timings of
// Tables II-VII.
#pragma once

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "comm/comm.hpp"
#include "dd/coarse_solver.hpp"
#include "dd/coarse_space.hpp"
#include "dd/preconditioner.hpp"
#include "device/arena.hpp"
#include "exec/exec.hpp"

namespace frosch::dd {

struct SchwarzConfig {
  index_t overlap = 1;                          ///< paper setting
  bool two_level = true;                        ///< coarse space on/off
  CoarseSpaceKind coarse_space = CoarseSpaceKind::RGDSW;  ///< paper setting
  LocalSolverConfig subdomain;                  ///< local subdomain solver
  LocalSolverConfig extension;                  ///< interior-extension solver
  LocalSolverConfig coarse;                     ///< coarse-problem solver

  /// Execution policy of the subdomain-parallel phases (symbolic/numeric
  /// per-part factorizations, interior extensions, per-part apply solves)
  /// -- the paper's main source of concurrency.  Local solvers running
  /// under it execute their own kernels inline (nested regions serialize).
  exec::ExecPolicy exec;

  /// Virtual-rank communicator (non-owning, mandatory): every transfer is
  /// measured through it.  The facade passes its own; direct users pass
  /// e.g. comm::SimComm(decomp.num_parts, exec), one rank per subdomain.
  comm::Communicator* comm = nullptr;

  /// How the coarse problem is solved: process subset + recursion depth.
  /// The default DirectCoarseSolver honors coarse_ranks; the recursion
  /// keys take effect through an installed mlevel::CoarseHierarchy.
  HierarchyConfig hierarchy;

  SchwarzConfig() {
    // Defaults mirror Section VII: Tacho-style direct solvers everywhere
    // (the paper computes the basis functions with Tacho even in the ILU
    // experiments); the coarse problem uses the pivoting LU for robustness
    // against a semi-definite Galerkin matrix.
    extension.kind = LocalSolverKind::TachoLike;
    extension.trisolve = trisolve::TrisolveKind::SupernodalLevelSet;
    coarse.kind = LocalSolverKind::SuperLULike;
    coarse.trisolve = trisolve::TrisolveKind::Substitution;
  }
};

/// Per-phase, per-RANK profile collection (indexed by virtual rank; ranks
/// and subdomains coincide in the default one-subdomain-per-rank topology).
///
/// These hold the COMPUTE side only -- flops, traffic, launches.  The
/// communication each phase performs (overlap imports, apply halos, coarse
/// collectives) is recorded by the Communicator into its own measured
/// per-rank profiles; see DESIGN.md for the measured-vs-modeled boundary.
///
/// The numeric phase is additionally split per rank into factorization,
/// triangular-solve setup, interior-extension, and overlap-assembly shares:
/// the Summit model maps each share to the device that executes it (e.g.
/// the SuperLU-like factorization stays on the CPU even in GPU runs,
/// exactly as in the paper's Fig. 4 discussion).
struct SchwarzProfiles {
  std::vector<PhaseProfile> ranks;   ///< indexed by virtual rank
  std::vector<OpProfile> rank_factor;         ///< numeric: factorization
  std::vector<OpProfile> rank_trisolve_setup; ///< numeric: SpTRSV setup
  std::vector<OpProfile> rank_extension;      ///< numeric: coarse-basis ext.
  std::vector<OpProfile> rank_comm;           ///< numeric: overlap assembly
  PhaseProfile coarse;               ///< coarse-problem work (root's extra)
  std::map<std::string, OpProfile> numeric_breakdown;  ///< Fig. 4 bars
  index_t coarse_dim = 0;
  count_t apply_count = 0;

  /// Accumulated payload of the full-communicator coarse collectives, in
  /// bytes: the Galerkin/value gathers of setup and refresh plus the
  /// rhs-gather/solution-broadcast pair of every apply.  This is the
  /// replicated-coarse wire cliff bench_scaling reports per rung.
  double coarse_comm_bytes = 0.0;

  /// Per-level dimensions, subset sizes, and compute shares of the coarse
  /// solver (empty for one-level runs).
  std::vector<CoarseLevelReport> coarse_levels;
};

template <class Scalar>
class SchwarzPreconditioner final : public Preconditioner<Scalar> {
 public:
  SchwarzPreconditioner(const SchwarzConfig& cfg, const Decomposition& decomp)
      : cfg_(cfg),
        decomp_(decomp),
        comm_(cfg.comm),
        coarse_(std::make_unique<DirectCoarseSolver<Scalar>>(
            cfg.coarse, cfg.hierarchy.coarse_ranks)) {
    FROSCH_CHECK(comm_ != nullptr,
                 "SchwarzPreconditioner: SchwarzConfig::comm is null -- pass "
                 "the communicator the preconditioner records through");
  }

  index_t rows() const override { return n_; }
  index_t cols() const override { return n_; }

  const SchwarzProfiles& profiles() const { return prof_; }
  const SchwarzProfiles* schwarz_profiles() const override { return &prof_; }
  const SchwarzConfig& config() const { return cfg_; }
  index_t coarse_dim() const override { return prof_.coarse_dim; }
  const la::CsrMatrix<Scalar>& coarse_basis() const { return phi_; }
  const la::CsrMatrix<Scalar>& coarse_matrix() const { return A0_; }

  /// Replaces the coarse-level solver the coarse problem is delegated to
  /// (the facade installs an mlevel::CoarseHierarchy built from
  /// cfg.hierarchy).  Without one the DirectCoarseSolver -- the
  /// hierarchy's own terminal level -- runs.  Must be called before
  /// numeric_setup.
  void set_coarse_solver(std::unique_ptr<CoarseLevelSolver<Scalar>> s) {
    coarse_ = std::move(s);
  }

  /// Phase (a): pattern-only analysis.
  void symbolic_setup(const la::CsrMatrix<Scalar>& A) override {
    n_ = A.num_rows();
    nnz_ = A.num_entries();
    FROSCH_CHECK(static_cast<index_t>(decomp_.owner.size()) == n_,
                 "SchwarzPreconditioner: decomposition/matrix mismatch");

    // The subdomain -> rank block map (every rank gets a contiguous block
    // of subdomains; 1:1 when the communicator has one rank per subdomain).
    const size_t R = static_cast<size_t>(comm_->size());
    part_rank_.resize(static_cast<size_t>(decomp_.num_parts));
    for (index_t p = 0; p < decomp_.num_parts; ++p)
      part_rank_[p] = comm_->block_owner(decomp_.num_parts, p);

    prof_ = SchwarzProfiles{};
    prof_.ranks.assign(R, {});
    prof_.rank_factor.assign(R, {});
    prof_.rank_trisolve_setup.assign(R, {});
    prof_.rank_extension.assign(R, {});
    prof_.rank_comm.assign(R, {});
    if (cfg_.two_level) iface_ = build_interface(A, decomp_);

    // Per-subdomain overlapping matrices + symbolic factorization: fully
    // independent across parts; each writes only its own slot.  Profiles
    // land in per-part slots and merge into the owning rank in part order.
    local_mats_.assign(static_cast<size_t>(decomp_.num_parts), {});
    extract_maps_.assign(static_cast<size_t>(decomp_.num_parts), {});
    solvers_.clear();
    solvers_.resize(static_cast<size_t>(decomp_.num_parts));
    std::vector<OpProfile> sym(static_cast<size_t>(decomp_.num_parts));
    exec::parallel_for(
        cfg_.exec, decomp_.num_parts,
        [&](index_t p) {
          // The extraction map (local entry -> A entry) is the base layer a
          // numeric refresh copies values up through (DESIGN.md sec. 9).
          local_mats_[p] = la::extract_submatrix(A, decomp_.overlap_dofs[p],
                                                 decomp_.overlap_dofs[p],
                                                 &extract_maps_[p]);
          // Each subdomain solver stages and launches against the device of
          // its OWNING virtual rank (one GPU per rank in the paper's runs).
          // The arena is indexed by ROOT-communicator rank, so a subset
          // communicator's local ranks map through world_rank.
          LocalSolverConfig scfg = cfg_.subdomain;
          scfg.exec.device_rank =
              comm_->world_rank(static_cast<int>(part_rank_[p]));
          auto solver = std::make_unique<LocalSolver<Scalar>>(scfg);
          solver->symbolic(local_mats_[p], &sym[p]);
          solvers_[p] = std::move(solver);
        },
        /*grain=*/1);
    for (index_t p = 0; p < decomp_.num_parts; ++p)
      prof_.ranks[part_rank_[p]].symbolic += sym[p];

    build_exchange_plans(A);
    // The numeric layers of any earlier pattern go with it: the next
    // numeric pass is a first one, and no cached Phi can match.
    phi_ = {};
    numeric_done_ = false;
    has_coarse_ = false;
    symbolic_done_ = true;
  }

  /// Phase (b): the numeric pass.  `Z` is the global null-space basis (only
  /// used when two_level; pass an empty matrix for one-level).  What the
  /// pass rebuilds follows the state it holds (DESIGN.md section 9): the
  /// first pass after symbolic_setup builds the numeric base layers, any
  /// later one overlays values on them.
  void numeric_setup(const la::CsrMatrix<Scalar>& A,
                     const la::DenseMatrix<double>& Z) override {
    FROSCH_CHECK(symbolic_done_, "SchwarzPreconditioner: symbolic first");
    numeric_pass(A, Z);
  }

  /// The same numeric pass; false (and nothing done) before the first one.
  bool numeric_refresh(const la::CsrMatrix<Scalar>& A,
                       const la::DenseMatrix<double>& Z) override {
    if (!numeric_done_) return false;
    numeric_pass(A, Z);
    return true;
  }

  /// Phase (c): y = M^{-1} x, additive over subdomains + coarse level --
  /// the width-1 block apply.
  void apply_impl(const std::vector<Scalar>& x, std::vector<Scalar>& y,
                  OpProfile* prof) const override {
    x_col_[0] = &x;
    y_col_[0] = &y;
    apply_columns_impl(x_col_, y_col_, prof);
  }

  /// Y[c] = M^{-1} X[c] for a block of w columns (DESIGN.md section 1b).
  ///
  /// Each part gathers its restriction of all w columns into one row-major
  /// interleaved block and runs ONE local block solve, which reads every
  /// factor row once for the whole block.  The per-part solves -- the
  /// paper's dominant solve-phase concurrency -- run in parallel under
  /// cfg_.exec, each into a private block; the additive combine onto the
  /// (overlap-shared) global vectors happens serially in part order
  /// afterwards, then the coarse correction is added, column by column.
  /// Every column therefore sees exactly the arithmetic of its own width-1
  /// apply and is bitwise identical to it at every (ranks, threads)
  /// combination.  Communication is per block: the off-rank restriction
  /// entries and the mirrored additive export are posted once, and the
  /// coarse rhs gather and solution broadcast run once, each with the
  /// payload scaled by w.  The coarse solve itself runs per column.
  void apply_columns_impl(const std::vector<const std::vector<Scalar>*>& X,
                          const std::vector<std::vector<Scalar>*>& Y,
                          OpProfile* prof) const override {
    FROSCH_CHECK(numeric_done_, "SchwarzPreconditioner: numeric first");
    const index_t w = static_cast<index_t>(X.size());
    const size_t ws = X.size();
    for (auto* yc : Y) std::fill(yc->begin(), yc->end(), Scalar(0));
    const size_t nparts = static_cast<size_t>(decomp_.num_parts);
    xblk_.resize(nparts);
    yblk_.resize(nparts);
    locals_.resize(nparts);
    exec::parallel_for(
        cfg_.exec, decomp_.num_parts,
        [&](index_t p) {
          const auto& dofs = decomp_.overlap_dofs[p];
          const size_t len = dofs.size() * ws;
          auto& xb = xblk_[p];
          auto& yb = yblk_[p];
          if (xb.size() < len) {
            xb.resize(len);
            yb.resize(len);
          }
          for (size_t q = 0; q < dofs.size(); ++q)
            for (size_t c = 0; c < ws; ++c) xb[q * ws + c] = (*X[c])[dofs[q]];
          OpProfile& local = locals_[p];
          local = OpProfile{};
          solvers_[p]->solve(xb.data(), yb.data(), w, &local);
          // Restriction + prolongation memory traffic of this subdomain.
          local.bytes += 4.0 * static_cast<double>(len) * sizeof(Scalar);
          local.launches += 2;
          local.critical_path += 2;
          local.work_items += 2.0 * static_cast<double>(len);
        },
        /*grain=*/1);
    // The overlap halo of one block application, measured from the
    // exchange plans: import of off-rank x entries, export of the additive
    // combine -- one message per transfer, w columns of payload.
    comm_->post(scaled_messages(apply_import_msgs_, w, import_w_));
    comm_->post(scaled_messages(apply_export_msgs_, w, export_w_));
    device::DeviceArena* arena = device::arena_of(cfg_.exec);
    for (index_t p = 0; p < decomp_.num_parts; ++p) {
      const auto& dofs = decomp_.overlap_dofs[p];
      const auto& yb = yblk_[p];
      for (size_t q = 0; q < dofs.size(); ++q)
        for (size_t c = 0; c < ws; ++c) (*Y[c])[dofs[q]] += yb[q * ws + c];
      // Restriction + prolongation kernels launch on the owning rank's GPU.
      if (arena != nullptr)
        arena->launch(comm_->world_rank(static_cast<int>(part_rank_[p])), 2);
      prof_.ranks[part_rank_[p]].solve += locals_[p];
      if (prof) *prof += locals_[p];
    }
    if (cfg_.two_level && has_coarse_) {
      OpProfile cp;
      const size_t n0 = static_cast<size_t>(A0_.num_rows());
      if (r0_.size() < ws) {
        r0_.resize(ws);
        z0_.resize(ws);
      }
      for (size_t c = 0; c < ws; ++c)
        la::spmv_transpose(phi_, *X[c], r0_[c], Scalar(1), Scalar(0), &cp,
                           cfg_.exec, &restrict_buf_);
      // Coarse rhs gathered to the subset, solved there, solution
      // replicated: two collectives per block with the coarse block's
      // payload.
      const double payload = static_cast<double>(n0 * ws) * sizeof(Scalar);
      comm_->gather(payload);
      for (size_t c = 0; c < ws; ++c) {
        z0_[c].assign(n0, Scalar(0));
        coarse_->solve(r0_[c], z0_[c], &cp);
      }
      comm_->broadcast(payload);
      prof_.coarse_comm_bytes += 2.0 * payload;
      for (size_t c = 0; c < ws; ++c) {
        auto& yc = *Y[c];
        la::spmv(phi_, z0_[c], wc_, Scalar(1), Scalar(0), &cp, cfg_.exec);
        exec::parallel_for(cfg_.exec, n_, [&](index_t i) { yc[i] += wc_[i]; });
        device::launches(cfg_.exec, 1);  // the additive coarse combine
      }
      prof_.coarse.solve += cp;
      if (prof) *prof += cp;
      prof_.coarse_levels = coarse_->level_reports();
    }
    prof_.apply_count += w;
  }

 private:
  /// One numeric pass.  The overlapping matrices take A's values through
  /// the extraction maps of symbolic_setup; the first pass charges their
  /// assembly and the off-rank row import, later passes the value overlay
  /// and the changed values alone.  Then the coarse level and the local
  /// factorizations, in that order.
  void numeric_pass(const la::CsrMatrix<Scalar>& A,
                    const la::DenseMatrix<double>& Z) {
    FROSCH_CHECK(A.num_rows() == n_ && A.num_entries() == nnz_,
                 "SchwarzPreconditioner: numeric pattern differs from "
                 "symbolic_setup ("
                     << A.num_rows() << " rows, " << A.num_entries()
                     << " entries against " << n_ << ", " << nnz_ << ")");
    const bool first = !numeric_done_;
    auto& bk = prof_.numeric_breakdown;

    // (1) The local overlapping matrices.  In the distributed run each rank
    // imports the off-rank rows of its overlap regions; the wire traffic is
    // measured from the exchange plan, while the assembly's memory traffic
    // stays a compute cost on the owning rank.
    {
      std::vector<OpProfile> asm_prof(static_cast<size_t>(decomp_.num_parts));
      exec::parallel_for(
          cfg_.exec, decomp_.num_parts,
          [&](index_t p) {
            la::refresh_submatrix_values(A, extract_maps_[p], local_mats_[p]);
            OpProfile& o = asm_prof[p];
            o.bytes += first ? local_mats_[p].storage_bytes()
                             : static_cast<double>(extract_maps_[p].size()) *
                                   sizeof(Scalar);
            o.launches += 1;
            o.critical_path += 1;
            o.work_items += static_cast<double>(local_mats_[p].num_rows());
          },
          /*grain=*/1);
      const char* key = first ? "overlap-matrix-comm" : "overlap-value-refresh";
      for (index_t p = 0; p < decomp_.num_parts; ++p) {
        bk[key] += asm_prof[p];
        prof_.ranks[part_rank_[p]].numeric += asm_prof[p];
        prof_.rank_comm[part_rank_[p]] += asm_prof[p];
      }
      // A later pass ships only the imported rows' CHANGED value bytes; its
      // PCIe round trips charge to the Factor family, not Halo -- the halo
      // PLAN is a base layer and the refresh-ledger gate counts Halo bytes
      // as base-layer motion.
      if (first)
        comm_->post(overlap_msgs_);
      else
        comm_->post(overlap_refresh_messages(A), device::Xfer::Factor);
    }

    // (2) Coarse space: interface values, extensions, RAP, coarse factor.
    if (cfg_.two_level) numeric_coarse(A, Z, first, bk);

    // (3) Local numeric factorizations + triangular-solve setup: independent
    // per subdomain -- the phase the paper's GPU runs execute concurrently
    // across local problems.  Profiles are gathered per part and merged in
    // part order afterwards.
    {
      std::vector<OpProfile> fac(static_cast<size_t>(decomp_.num_parts));
      std::vector<OpProfile> tri(static_cast<size_t>(decomp_.num_parts));
      exec::parallel_for(
          cfg_.exec, decomp_.num_parts,
          [&](index_t p) {
            solvers_[p]->numeric(local_mats_[p], &fac[p], &tri[p]);
          },
          /*grain=*/1);
      for (index_t p = 0; p < decomp_.num_parts; ++p) {
        bk["local-factorization"] += fac[p];
        bk["sptrsv-setup"] += tri[p];
        prof_.ranks[part_rank_[p]].numeric += fac[p];
        prof_.ranks[part_rank_[p]].numeric += tri[p];
        prof_.rank_factor[part_rank_[p]] += fac[p];
        prof_.rank_trisolve_setup[part_rank_[p]] += tri[p];
      }
    }
    // Snapshot of A's values: the next pass's wire traffic ships only the
    // entries that actually CHANGED relative to this baseline.
    vals_prev_.assign(A.values().begin(), A.values().end());
    numeric_done_ = true;
  }

  /// The coarse part of a numeric pass.  The interface basis depends on Z
  /// and the interface partition only, so it is rebuilt on the first pass
  /// or when Z differs bitwise from the cached copy; the extension and
  /// Galerkin structures follow their own caches.  An empty interface basis
  /// (single-subdomain or interface-free decomposition) leaves the method
  /// one-level.
  void numeric_coarse(const la::CsrMatrix<Scalar>& A,
                      const la::DenseMatrix<double>& Z, bool first,
                      std::map<std::string, OpProfile>& bk) {
    if (first || !same_bits(Z, Z_)) {
      OpProfile iface_prof;
      phi_gamma_ = build_interface_basis<Scalar>(
          iface_, Z, n_, cfg_.coarse_space, &iface_prof);
      bk["coarse-basis-interface"] += iface_prof;
      Z_ = Z;
      ext_cache_.reset(decomp_.num_parts);
    }
    has_coarse_ = phi_gamma_.num_cols() > 0;
    if (!has_coarse_) return;

    // The extension is value-dependent (the basis drops exact numeric
    // zeros), so Phi is rebuilt every pass -- a later one through the
    // cached interior sets, submatrix maps and extension symbolic
    // factorizations -- bitwise identical to a first pass on the same A.
    device::DeviceArena* arena = device::arena_of(cfg_.exec);
    if (!first && arena != nullptr && phi_.num_entries() > 0)
      arena->invalidate(cfg_.exec.device_rank, phi_.values().data());
    CoarseSpaceProfile csp;
    la::CsrMatrix<Scalar> phi =
        extend_basis(A, decomp_, iface_, phi_gamma_, cfg_.extension,
                     ext_cache_, &csp, cfg_.exec, &part_rank_);
    charge_extension(csp, bk);

    OpProfile rap;
    galerkin_product(A, std::move(phi), &rap);
    bk["coarse-rap-spgemm"] += rap;
    prof_.coarse.numeric += rap;
    prof_.coarse_dim = A0_.num_rows();
    // The Galerkin contributions are gathered onto the coarse subset (the
    // replicated-coarse strategy when the subset is the root alone): one
    // collective, the coarse matrix's storage as payload -- its VALUES
    // alone once the subset holds the coarse sparsity.
    const double gathered =
        first ? A0_.storage_bytes()
              : static_cast<double>(A0_.num_entries()) * sizeof(Scalar);
    comm_->gather(gathered);
    prof_.coarse_comm_bytes += gathered;

    // Device runs: the assembled coarse basis crosses PCIe once per pass
    // (a later pass charges its values to the CoarseOp family); the
    // apply-phase Phi products then find it resident (same mirror key), so
    // the Krylov steady state stays transfer-free.
    if (phi_.num_entries() > 0) {
      if (first) {
        device::touch(cfg_.exec, phi_.values().data(), phi_.storage_bytes(),
                      device::Xfer::CoarseOp);
      } else if (arena != nullptr) {
        arena->transfer(cfg_.exec.device_rank, device::Dir::H2D,
                        static_cast<double>(phi_.num_entries()) *
                            sizeof(Scalar),
                        device::Xfer::CoarseOp);
        arena->produced(cfg_.exec.device_rank, phi_.values().data(),
                        phi_.storage_bytes());
      }
    }

    // The coarse solver checks A0's pattern itself.
    OpProfile cfac;
    if (first)
      coarse_->numeric_setup(A0_, *comm_, &cfac);
    else
      coarse_->numeric_refresh(A0_, *comm_, &cfac);
    bk["coarse-factorization"] += cfac;
    prof_.coarse.numeric += cfac;
    prof_.coarse_levels = coarse_->level_reports();
  }

  /// Whether X and Y have equal dimensions and bitwise equal entries.
  static bool same_bits(const la::DenseMatrix<double>& X,
                        const la::DenseMatrix<double>& Y) {
    const size_t len = static_cast<size_t>(X.num_rows()) *
                       static_cast<size_t>(X.num_cols()) * sizeof(double);
    return X.num_rows() == Y.num_rows() && X.num_cols() == Y.num_cols() &&
           (len == 0 || std::memcmp(X.data(), Y.data(), len) == 0);
  }

  /// Sets phi_ = phi and A0 = Phi^T (A Phi) through the cached Galerkin
  /// structures (base layers, DESIGN.md section 9): the structure of A Phi,
  /// Phi^T with its value map from Phi, and A0's pattern.  They are reused
  /// exactly when phi's pattern matches the cached Phi's -- only Phi^T's
  /// values are refilled and the numeric passes run; otherwise (first pass,
  /// or a Phi pattern that moved with the values) the symbolic passes
  /// rebuild them.  Both give A0 bitwise equal to the one-pass product.
  void galerkin_product(const la::CsrMatrix<Scalar>& A,
                        la::CsrMatrix<Scalar> phi, OpProfile* rap) {
    const bool reuse = phi.num_cols() == phi_.num_cols() &&
                       phi.rowptr() == phi_.rowptr() &&
                       phi.colind() == phi_.colind();
    phi_ = std::move(phi);
    if (reuse) {
      la::refresh_submatrix_values(phi_, phit_map_, phit_);
      // The value gather: read the map and Phi's values, write Phi^T's.
      rap->bytes += static_cast<double>(phit_map_.size()) *
                    (sizeof(index_t) + 2.0 * sizeof(Scalar));
      rap->launches += 1;
      rap->critical_path += 1;
      rap->work_items += static_cast<double>(phit_map_.size());
    } else {
      aphi_ = la::spgemm_symbolic(A, phi_, nullptr, rap);
      phit_ = la::transpose(phi_, rap, &phit_map_);
      A0_ = la::spgemm_symbolic(phit_, aphi_, nullptr, rap);
    }
    la::spgemm_numeric(A, phi_, aphi_, nullptr, rap);
    la::spgemm_numeric(phit_, aphi_, A0_, nullptr, rap);
  }

  /// Charges an extend_basis profile to the coarse-basis-extension bar
  /// and the rank profiles the model reads: each part's solves to its
  /// rank, and the W = A Phi_Gamma SpGEMM in even shares to every rank
  /// (each forms its own interior rows of W; launches and critical path
  /// are per-rank quantities).
  void charge_extension(const CoarseSpaceProfile& csp,
                        std::map<std::string, OpProfile>& bk) {
    bk["coarse-basis-extension"] += csp.extension_solves;
    bk["coarse-basis-extension"] += csp.extension_rhs;
    for (index_t p = 0; p < decomp_.num_parts; ++p) {
      prof_.ranks[part_rank_[p]].numeric += csp.per_part_extension[p];
      prof_.rank_extension[part_rank_[p]] += csp.per_part_extension[p];
    }
    OpProfile share = csp.extension_rhs;
    const double r = static_cast<double>(prof_.ranks.size());
    share.flops /= r;
    share.bytes /= r;
    share.work_items /= r;
    for (size_t q = 0; q < prof_.ranks.size(); ++q) {
      prof_.ranks[q].numeric += share;
      prof_.rank_extension[q] += share;
    }
  }

  /// Builds the measured exchange plans from the decomposition and the
  /// subdomain -> rank map: which overlap entries (apply halo) and which
  /// matrix rows (numeric overlap refresh) each rank imports from which,
  /// with the payloads the transfers actually carry.  Fused per (src, dst)
  /// rank pair across subdomains, exactly as a rank-level exchange packs:
  /// a dof in the overlap of SEVERAL subdomains of one rank ships once.
  void build_exchange_plans(const la::CsrMatrix<Scalar>& A) {
    const int R = comm_->size();
    const size_t rr = static_cast<size_t>(R) * static_cast<size_t>(R);
    std::vector<index_t> halo_count(rr, 0);  // dofs == imported rows
    std::vector<double> row_bytes(rr, 0.0);
    std::vector<IndexVector> row_ids(rr);  // imported dofs per (src, dst)
    // seen[dof] == dst + 1 marks dof as already packed for rank dst.  One
    // mark per dof suffices because the block map keeps each rank's
    // subdomains contiguous in part order (part_rank_ is non-decreasing).
    std::vector<index_t> seen(static_cast<size_t>(n_), 0);
    for (index_t p = 0; p < decomp_.num_parts; ++p) {
      const int dst = static_cast<int>(part_rank_[p]);
      for (index_t dof : decomp_.overlap_dofs[p]) {
        const int src = static_cast<int>(part_rank_[decomp_.owner[dof]]);
        if (src == dst) continue;
        if (seen[static_cast<size_t>(dof)] == static_cast<index_t>(dst) + 1)
          continue;
        seen[static_cast<size_t>(dof)] = static_cast<index_t>(dst) + 1;
        const size_t k = static_cast<size_t>(src) * R + dst;
        halo_count[k] += 1;
        row_ids[k].push_back(dof);
        // One imported CSR row: values + column ids + its rowptr entry.
        row_bytes[k] +=
            static_cast<double>(A.row_nnz(dof)) *
                (sizeof(Scalar) + sizeof(index_t)) +
            sizeof(index_t);
      }
    }
    overlap_msgs_.clear();
    overlap_import_rows_.clear();
    apply_import_msgs_.clear();
    apply_export_msgs_.clear();
    for (int src = 0; src < R; ++src) {
      for (int dst = 0; dst < R; ++dst) {
        const size_t k = static_cast<size_t>(src) * R + dst;
        if (halo_count[k] == 0) continue;
        comm::Message imp;
        imp.src = src;
        imp.dst = dst;
        imp.count = halo_count[k];
        imp.bytes = static_cast<double>(halo_count[k]) * sizeof(Scalar);
        apply_import_msgs_.push_back(imp);
        comm::Message exp = imp;  // additive combine: same ids, reversed
        exp.src = dst;
        exp.dst = src;
        apply_export_msgs_.push_back(exp);
        comm::Message rows;
        rows.src = src;
        rows.dst = dst;
        rows.count = halo_count[k];
        rows.bytes = row_bytes[k];
        overlap_msgs_.push_back(rows);
        overlap_import_rows_.push_back(std::move(row_ids[k]));
      }
    }
  }

  /// The refresh-path overlap exchange: the plan's (src, dst) pairs and
  /// imported rows are reused, but each message carries only the value bytes
  /// that differ from the previous numeric baseline.  Pairs whose imported
  /// rows are numerically unchanged ship nothing at all.
  std::vector<comm::Message> overlap_refresh_messages(
      const la::CsrMatrix<Scalar>& A) const {
    std::vector<comm::Message> msgs;
    msgs.reserve(overlap_msgs_.size());
    for (size_t m = 0; m < overlap_msgs_.size(); ++m) {
      index_t changed = 0;
      for (index_t dof : overlap_import_rows_[m])
        for (index_t k = A.row_begin(dof); k < A.row_end(dof); ++k)
          if (A.val(k) != vals_prev_[static_cast<size_t>(k)]) ++changed;
      if (changed == 0) continue;
      comm::Message msg = overlap_msgs_[m];
      msg.count = changed;
      msg.bytes = static_cast<double>(changed) * sizeof(Scalar);
      msgs.push_back(msg);
    }
    return msgs;
  }

  /// `msgs` with every payload scaled to a w-column block (the message
  /// count is unchanged: one message per transfer carries all columns).
  /// Width 1 posts the plan itself; wider blocks reuse `buf`'s storage.
  static const std::vector<comm::Message>& scaled_messages(
      const std::vector<comm::Message>& msgs, index_t w,
      std::vector<comm::Message>& buf) {
    if (w == 1) return msgs;
    buf.assign(msgs.begin(), msgs.end());
    for (auto& m : buf) m.bytes *= static_cast<double>(w);
    return buf;
  }

  SchwarzConfig cfg_;
  Decomposition decomp_;
  InterfacePartition iface_;
  index_t n_ = 0;
  count_t nnz_ = 0;  ///< entries of the matrix symbolic_setup analyzed
  comm::Communicator* comm_;
  IndexVector part_rank_;
  std::vector<comm::Message> overlap_msgs_;       ///< numeric row import
  std::vector<IndexVector> overlap_import_rows_;  ///< dofs per overlap msg
  std::vector<comm::Message> apply_import_msgs_;  ///< apply restriction halo
  std::vector<comm::Message> apply_export_msgs_;  ///< apply additive export
  std::vector<la::CsrMatrix<Scalar>> local_mats_;
  std::vector<IndexVector> extract_maps_;  ///< local entry -> A entry
  std::vector<std::unique_ptr<LocalSolver<Scalar>>> solvers_;
  std::unique_ptr<CoarseLevelSolver<Scalar>> coarse_;
  la::CsrMatrix<Scalar> phi_, A0_;
  la::CsrMatrix<Scalar> phi_gamma_;      ///< cached interface basis
  la::DenseMatrix<double> Z_;            ///< the null space phi_gamma_ is of
  la::CsrMatrix<Scalar> aphi_, phit_;    ///< cached A Phi and Phi^T
  IndexVector phit_map_;                 ///< Phi^T entry -> Phi entry
  ExtensionCache<Scalar> ext_cache_;     ///< cached extension base layers
  std::vector<Scalar> vals_prev_;        ///< numeric baseline for refresh
  mutable SchwarzProfiles prof_;
  // Block-apply workspaces, grow-only so the hot path allocates nothing
  // after the widest block: per part the interleaved restricted block, its
  // local solution and its profile; per column the coarse rhs/solution.
  mutable std::vector<std::vector<Scalar>> xblk_, yblk_, r0_, z0_;
  mutable std::vector<Scalar> wc_;  ///< one column's coarse correction
  mutable std::vector<Scalar> restrict_buf_;  ///< Phi^T x chunk buffers
  mutable std::vector<OpProfile> locals_;
  mutable std::vector<comm::Message> import_w_, export_w_;
  mutable std::vector<const std::vector<Scalar>*> x_col_{nullptr};
  mutable std::vector<std::vector<Scalar>*> y_col_{nullptr};
  bool symbolic_done_ = false;
  bool numeric_done_ = false;
  bool has_coarse_ = false;
};

}  // namespace frosch::dd
