// The coarse-level solver boundary of the multilevel hierarchy
// (DESIGN.md section 10).
//
// SchwarzPreconditioner owns WHERE the coarse problem appears in the
// additive method (gather the rhs, solve, replicate the correction); a
// CoarseLevelSolver owns HOW it is solved: on which process subset, and
// whether directly or recursively through another Schwarz level.  This
// header is the dd-side half of that boundary -- the abstract
// CoarseLevelSolver the preconditioner delegates to, the hierarchy
// configuration, and the one direct solve -- so dd never depends on the
// concrete mlevel subsystem (which sits ABOVE dd in the layer DAG and
// includes schwarz.hpp to build its recursive levels).
//
// DirectCoarseSolver is the only direct coarse solve: SchwarzPreconditioner
// installs it when no solver is set, and mlevel::CoarseHierarchy's
// terminal level delegates to it.  The facade's default hierarchy
// (levels=2, coarse_ranks=root) and a bare SchwarzPreconditioner therefore
// run the same object with the same call sequence.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "comm/comm.hpp"
#include "common/enum_parse.hpp"
#include "common/op_profile.hpp"
#include "dd/local_solver.hpp"
#include "la/csr.hpp"

namespace frosch::dd {

/// Which ranks participate in the coarse solve (the paper lineage's
/// process-subset coarse strategy): the root only (the replicated
/// baseline), every k-th rank, or all of them.
enum class CoarseRanks {
  Root,      ///< rank 0 only -- the replicated-coarse baseline
  Every8th,  ///< ranks 0, 8, 16, ...
  Every4th,  ///< ranks 0, 4, 8, ...
  Every2nd,  ///< ranks 0, 2, 4, ...
  All,       ///< every rank of the outer communicator
};

const char* to_string(CoarseRanks k);

/// The member world ranks of the coarse subset for an outer communicator
/// of `nranks` ranks: {0} for Root, {0, k, 2k, ...} for Every-k-th,
/// everyone for All.  Always nonempty and always contains rank 0.
std::vector<int> coarse_members(int nranks, CoarseRanks kind);

/// How the coarse problem is solved (solver/config keys `levels`,
/// `coarse_ranks`, `coarse_parts`).  levels=2 keeps the classical
/// two-level method; levels=L>2 re-partitions each coarse matrix and
/// preconditions it with another Schwarz level, L-2 times, terminating in
/// a direct solve at the top.
struct HierarchyConfig {
  index_t levels = 2;  ///< total levels incl. the fine one (2 = classical)
  CoarseRanks coarse_ranks = CoarseRanks::Root;  ///< coarse process subset
  index_t coarse_parts = 0;  ///< subdomains per recursive level (0 = auto)
};

/// One level of the coarse hierarchy as the SolveReport presents it:
/// dimensions, the process subset that solved it, and the per-subset-rank
/// compute shares the Summit model prices over that subset (not over P).
struct CoarseLevelReport {
  index_t level = 2;    ///< 2 = the first coarse level
  index_t dim = 0;      ///< rows of this level's operator
  int subset_size = 1;  ///< ranks participating in this level's solve
  index_t parts = 0;    ///< Schwarz subdomains at this level (0 = direct)
  std::vector<OpProfile> rank_numeric;  ///< per-subset-rank setup compute
  std::vector<OpProfile> rank_solve;    ///< per-subset-rank apply compute
};

/// Abstract coarse-level solver the SchwarzPreconditioner delegates to
/// (DirectCoarseSolver unless set_coarse_solver installs another).  The
/// preconditioner hands over the ASSEMBLED coarse matrix and its
/// communicator; the implementation owns subset scoping, factorization,
/// and recursion.  Every prof out-parameter is mandatory and accumulates
/// the coarse compute the preconditioner files under
/// "coarse-factorization" and its coarse PhaseProfile.
template <class Scalar>
class CoarseLevelSolver {
 public:
  virtual ~CoarseLevelSolver() = default;

  /// The preconditioner's FIRST numeric pass after symbolic_setup: a full
  /// (re)build against the freshly assembled coarse matrix -- subset
  /// setup, symbolic + numeric factorization of every level.
  virtual void numeric_setup(const la::CsrMatrix<Scalar>& A0,
                             comm::Communicator& comm, OpProfile* prof) = 0;

  /// Every LATER numeric pass: re-factor each level against its cached
  /// symbolic layers (DESIGN.md section 9).  A coarse pattern that moved
  /// with the values (a basis column appeared or vanished) makes the level
  /// rebuild as numeric_setup does; either way the hierarchy solves bitwise
  /// identically to a numeric_setup on the same A0.  The two entry points
  /// stay apart so their work is charged to the setup and refresh phases.
  virtual void numeric_refresh(const la::CsrMatrix<Scalar>& A0,
                               comm::Communicator& comm, OpProfile* prof) = 0;

  /// z0 = (approximate) A0^{-1} r0.  z0 is pre-sized by the caller.
  /// Exact for a terminal direct level; one recursive Schwarz application
  /// otherwise.
  virtual void solve(const std::vector<Scalar>& r0, std::vector<Scalar>& z0,
                     OpProfile* prof) const = 0;

  /// Snapshot of the per-level dimensions, subset sizes, and compute
  /// shares accumulated so far (fine level excluded; index 0 is level 2).
  virtual std::vector<CoarseLevelReport> level_reports() const = 0;
};

/// The direct coarse solve: the gathered A0 factored by one LocalSolver
/// (SchwarzConfig::coarse) and held by the process subset
/// coarse_members(P, ranks).  The solve computes the exact coarse
/// correction whatever the subset; the subset only scopes the accounting:
/// the factor/trisolve compute is reported as S per-rank shares, and the
/// subset-internal redistribution is recorded on a comm::SubComm, which the
/// Summit model prices over log2(S).  At S = 1 (coarse_ranks=root) no
/// sub-communicator exists and nothing beyond the LocalSolver calls is
/// recorded.
template <class Scalar>
class DirectCoarseSolver final : public CoarseLevelSolver<Scalar> {
 public:
  /// `level`: the level number level_reports() gives (2 = first coarse).
  DirectCoarseSolver(const LocalSolverConfig& cfg, CoarseRanks ranks,
                     index_t level = 2)
      : cfg_(cfg), ranks_(ranks), level_(level) {}

  void numeric_setup(const la::CsrMatrix<Scalar>& A0,
                     comm::Communicator& comm, OpProfile* prof) override {
    const std::vector<int> members = coarse_members(comm.size(), ranks_);
    subset_ = static_cast<int>(members.size());
    sub_.reset();
    if (subset_ > 1) sub_ = comm.split(members);
    dim_ = A0.num_rows();
    pattern_rowptr_ = A0.rowptr();
    pattern_colind_ = A0.colind();
    solver_ = std::make_unique<LocalSolver<Scalar>>(cfg_);
    numeric_prof_ = OpProfile{};
    solve_prof_ = OpProfile{};
    charged(prof, numeric_prof_, [&] {
      solver_->symbolic(A0, prof);
      solver_->numeric(A0, prof, prof);
    });
    // Subset redistribution of the factored operator: each member ends up
    // holding its 1/S slice.
    if (sub_) sub_->gather(A0.storage_bytes() / subset_);
  }

  void numeric_refresh(const la::CsrMatrix<Scalar>& A0,
                       comm::Communicator& comm, OpProfile* prof) override {
    if (A0.rowptr() != pattern_rowptr_ || A0.colind() != pattern_colind_) {
      // Coarse pattern changed (a value-dependent basis column appeared or
      // vanished): the cached symbolic layers are stale, so the solver
      // rebuilds cold -- which still satisfies the refresh contract,
      // because a rebuild IS the cold setup.
      numeric_setup(A0, comm, prof);
      return;
    }
    charged(prof, numeric_prof_,
            [&] { solver_->numeric(A0, prof, prof); });
    // The subset already holds the pattern; only the values move.
    if (sub_)
      sub_->gather(static_cast<double>(A0.num_entries()) * sizeof(Scalar) /
                   subset_);
  }

  void solve(const std::vector<Scalar>& r0, std::vector<Scalar>& z0,
             OpProfile* prof) const override {
    charged(prof, solve_prof_, [&] { solver_->solve(r0, z0, prof); });
    // Distributed triangular solves: the subset exchanges the coarse
    // vector slices once per solve.
    if (sub_)
      sub_->broadcast(static_cast<double>(dim_) * sizeof(Scalar) / subset_);
  }

  /// One direct level (parts = 0).  Its factor/trisolve compute is split
  /// into S equal per-rank shares: flops, traffic and work items divide;
  /// launch counts and critical path are per-rank quantities -- the same
  /// convention as the model's split_across_ranks.
  std::vector<CoarseLevelReport> level_reports() const override {
    CoarseLevelReport rep;
    rep.level = level_;
    rep.dim = dim_;
    rep.subset_size = subset_;
    rep.rank_numeric = shares(numeric_prof_);
    rep.rank_solve = shares(solve_prof_);
    return {rep};
  }

 private:
  /// Runs `op`, which accumulates into *prof, and adds what it added to
  /// `into`.
  template <class Op>
  static void charged(OpProfile* prof, OpProfile& into, Op&& op) {
    const OpProfile before = *prof;
    op();
    OpProfile delta = *prof;
    delta -= before;
    into += delta;
  }

  std::vector<OpProfile> shares(const OpProfile& total) const {
    OpProfile share;
    share.flops = total.flops / subset_;
    share.bytes = total.bytes / subset_;
    share.work_items = total.work_items / subset_;
    share.launches = total.launches;
    share.critical_path = total.critical_path;
    return std::vector<OpProfile>(static_cast<size_t>(subset_), share);
  }

  LocalSolverConfig cfg_;
  CoarseRanks ranks_;
  index_t level_;
  int subset_ = 1;
  index_t dim_ = 0;
  std::vector<index_t> pattern_rowptr_, pattern_colind_;  ///< refresh guard
  std::unique_ptr<comm::Communicator> sub_;  ///< null when S = 1
  std::unique_ptr<LocalSolver<Scalar>> solver_;
  OpProfile numeric_prof_;        ///< setup compute since the last rebuild
  mutable OpProfile solve_prof_;  ///< accumulated solves
};

}  // namespace frosch::dd

namespace frosch {

template <>
struct EnumTraits<dd::CoarseRanks> {
  static constexpr const char* type_name = "CoarseRanks";
  static constexpr std::array<dd::CoarseRanks, 5> all = {
      dd::CoarseRanks::Root, dd::CoarseRanks::Every8th,
      dd::CoarseRanks::Every4th, dd::CoarseRanks::Every2nd,
      dd::CoarseRanks::All};
};

}  // namespace frosch
