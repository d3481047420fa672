// The multilevel coarse hierarchy (DESIGN.md section 10): the concrete
// CoarseLevelSolver the facade installs into every SchwarzPreconditioner.
//
// Two orthogonal generalizations of the replicated-coarse baseline, both
// attacks on the FROSch-on-Summit coarse-problem cliff:
//
//   * PROCESS SUBSET (`coarse_ranks`): every level runs on the
//     S = |coarse_members(P)| ranks of its subset instead of the root
//     alone.  A direct level is dd::DirectCoarseSolver, which computes the
//     exact coarse correction whatever S and attributes its compute as S
//     per-rank shares (see dd/coarse_solver.hpp).
//
//   * RECURSION (`levels` > 2): the coarse matrix is re-partitioned
//     (recursive bisection, a pure function of the coarse pattern and the
//     parent part count -- never of ranks or threads, preserving the
//     bitwise-across-(ranks, threads) contract), decomposed with the same
//     overlap machinery, and preconditioned by another SchwarzPreconditioner
//     running on the subset communicator; ITS coarse problem recurses until
//     the configured depth, terminating in a direct solve.  The coarse
//     correction becomes one application of the inner Schwarz operator --
//     approximate, so outer iteration counts may drift within the bound
//     documented in DESIGN.md.
//
// A terminal level holds a dd::DirectCoarseSolver and delegates to it, so
// the default configuration (levels=2, coarse_ranks=root) IS the direct
// solve a bare SchwarzPreconditioner installs: the same object, results and
// profiles.
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "dd/coarse_solver.hpp"
#include "dd/schwarz.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"

namespace frosch::mlevel {

template <class Scalar>
class CoarseHierarchy final : public dd::CoarseLevelSolver<Scalar> {
 public:
  /// `outer`: the Schwarz configuration of the level below -- solver
  /// kinds, coarse space, overlap, exec policy, and the hierarchy keys.
  /// `parent_parts`: that level's subdomain count (the auto part-count
  /// heuristic halves it per level).  `level`: 2 for the first coarse
  /// level; recursion constructs level+1 internally.
  CoarseHierarchy(const dd::SchwarzConfig& outer, index_t parent_parts,
                  index_t level = 2)
      : outer_(outer), parent_parts_(parent_parts), level_(level) {}

  /// The coarse dimension is fixed across refreshes (the interface basis
  /// is a cached base layer), so a refresh never flips a level between
  /// terminal and recursive.
  void numeric_setup(const la::CsrMatrix<Scalar>& A0,
                     comm::Communicator& comm, OpProfile* prof) override {
    if (recursive(A0)) {
      direct_.reset();
      setup_recursive(A0, comm, prof);
    } else {
      schwarz0_.reset();
      next_ = nullptr;
      sub_.reset();
      direct_ = std::make_unique<dd::DirectCoarseSolver<Scalar>>(
          outer_.coarse, outer_.hierarchy.coarse_ranks, level_);
      direct_->numeric_setup(A0, comm, prof);
    }
  }

  void numeric_refresh(const la::CsrMatrix<Scalar>& A0,
                       comm::Communicator& comm, OpProfile* prof) override {
    if (direct_) {
      direct_->numeric_refresh(A0, comm, prof);
      return;
    }
    if (A0.rowptr() != pattern_rowptr_ || A0.colind() != pattern_colind_) {
      // Coarse pattern changed: the inner level's decomposition and
      // symbolic layers are stale, so the level rebuilds cold -- which
      // still satisfies the refresh contract.
      numeric_setup(A0, comm, prof);
      return;
    }
    const OpProfile before = inner_setup_total();
    if (!schwarz0_->numeric_refresh(A0, Z0_)) schwarz0_->numeric_setup(A0, Z0_);
    OpProfile delta = inner_setup_total();
    delta -= before;
    if (prof) *prof += delta;
  }

  void solve(const std::vector<Scalar>& r0, std::vector<Scalar>& z0,
             OpProfile* prof) const override {
    if (direct_)
      direct_->solve(r0, z0, prof);
    else
      schwarz0_->apply(r0, z0, prof);
  }

  std::vector<dd::CoarseLevelReport> level_reports() const override {
    if (direct_) return direct_->level_reports();
    dd::CoarseLevelReport rep;
    rep.level = level_;
    rep.dim = dim_;
    rep.subset_size = subset_;
    rep.parts = parts_;
    const auto& sp = schwarz0_->profiles();
    rep.rank_numeric.resize(sp.ranks.size());
    rep.rank_solve.resize(sp.ranks.size());
    for (size_t r = 0; r < sp.ranks.size(); ++r) {
      rep.rank_numeric[r] = sp.ranks[r].symbolic + sp.ranks[r].numeric;
      rep.rank_solve[r] = sp.ranks[r].solve;
    }
    std::vector<dd::CoarseLevelReport> out{std::move(rep)};
    const auto nested = next_->level_reports();
    out.insert(out.end(), nested.begin(), nested.end());
    return out;
  }

 private:
  /// Recursion is worth a Schwarz level only when the coarse matrix can
  /// still be decomposed meaningfully; tiny coarse problems terminate in
  /// the direct solve regardless of the configured depth.  Pure function
  /// of the configuration and the coarse dimension -- never of ranks.
  bool recursive(const la::CsrMatrix<Scalar>& A0) const {
    return level_ < outer_.hierarchy.levels && A0.num_rows() >= 16;
  }

  /// Auto subdomain count of a recursive level: half the parent's parts,
  /// bounded by the coarse dimension (every part needs a few rows), at
  /// least 2 (an interface must exist for the next coarse space).
  index_t level_parts(index_t n0) const {
    index_t p = outer_.hierarchy.coarse_parts > 0
                    ? outer_.hierarchy.coarse_parts
                    : std::max<index_t>(2, std::min(parent_parts_ / 2, n0 / 8));
    return std::max<index_t>(2, std::min(p, n0 / 2));
  }

  void setup_recursive(const la::CsrMatrix<Scalar>& A0,
                       comm::Communicator& comm, OpProfile* prof) {
    sub_ = comm.split(
        dd::coarse_members(comm.size(), outer_.hierarchy.coarse_ranks));
    subset_ = sub_->size();
    pattern_rowptr_ = A0.rowptr();
    pattern_colind_ = A0.colind();
    dim_ = A0.num_rows();
    const index_t n0 = dim_;
    parts_ = level_parts(n0);

    // Re-partition + decompose the coarse matrix: the same machinery the
    // fine level went through, measured into the same profile.
    const auto g = graph::build_graph(A0, prof);
    const IndexVector owner = graph::recursive_bisection(g, parts_, prof);
    const dd::Decomposition decomp =
        dd::build_decomposition(A0, owner, parts_, outer_.overlap, prof);

    inner_cfg_ = outer_;
    inner_cfg_.comm = sub_.get();
    schwarz0_ =
        std::make_unique<dd::SchwarzPreconditioner<Scalar>>(inner_cfg_, decomp);
    auto next =
        std::make_unique<CoarseHierarchy<Scalar>>(outer_, parts_, level_ + 1);
    next_ = next.get();
    schwarz0_->set_coarse_solver(std::move(next));
    schwarz0_->symbolic_setup(A0);
    // Null space of the coarse operator: the constants (the coarse basis
    // functions form a partition of unity over the null-space directions).
    Z0_ = la::DenseMatrix<double>(n0, 1);
    for (index_t i = 0; i < n0; ++i) Z0_(i, 0) = 1.0;
    schwarz0_->numeric_setup(A0, Z0_);
    if (prof) *prof += inner_setup_total();
  }

  /// Total setup-side compute the inner Schwarz has accumulated: per-rank
  /// symbolic + numeric plus its coarse-problem work (which includes the
  /// recursion below it).
  OpProfile inner_setup_total() const {
    OpProfile total;
    const auto& sp = schwarz0_->profiles();
    for (const auto& rp : sp.ranks) {
      total += rp.symbolic;
      total += rp.numeric;
    }
    total += sp.coarse.numeric;
    return total;
  }

  dd::SchwarzConfig outer_;
  index_t parent_parts_ = 0;
  index_t level_ = 2;

  // Terminal branch.
  std::unique_ptr<dd::DirectCoarseSolver<Scalar>> direct_;
  // Recursive branch: inner Schwarz on the subset comm; next_ is the
  // hierarchy one level up, owned by schwarz0_ through set_coarse_solver.
  int subset_ = 1;
  index_t dim_ = 0;
  index_t parts_ = 0;  ///< inner subdomains
  std::vector<index_t> pattern_rowptr_, pattern_colind_;  ///< refresh guard
  std::unique_ptr<comm::Communicator> sub_;  ///< subset comm
  dd::SchwarzConfig inner_cfg_;
  std::unique_ptr<dd::SchwarzPreconditioner<Scalar>> schwarz0_;
  CoarseHierarchy<Scalar>* next_ = nullptr;
  la::DenseMatrix<double> Z0_;
};

}  // namespace frosch::mlevel
