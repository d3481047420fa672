// Composite local subdomain solver: a factorization backend (direct or
// incomplete) paired with a triangular-solve engine, behind the three-phase
// interface (symbolic / numeric / solve) that all Trilinos solvers share
// (Section V-A1).  This is the seam where the paper's solver-option matrix
// (Table I) is assembled:
//
//   SuperLULike + SupernodalLevelSet  == "SuperLU + Kokkos-Kernels SpTRSV"
//   TachoLike   + LevelSet            == "Tacho with its internal solver"
//   Iluk        + LevelSet            == "Kokkos-Kernels SpILU + SpTRSV (KK)"
//   FastIlu     + JacobiSweeps        == "FastILU + FastSpTRSV (Fast)"
#pragma once

#include <array>
#include <memory>
#include <string>

#include "common/enum_parse.hpp"
#include "device/arena.hpp"
#include "direct/gp_lu.hpp"
#include "exec/exec.hpp"
#include "direct/multifrontal.hpp"
#include "graph/nested_dissection.hpp"
#include "ilu/fastilu.hpp"
#include "ilu/iluk.hpp"
#include "trisolve/engine.hpp"

namespace frosch::dd {

enum class LocalSolverKind {
  SuperLULike,  ///< left-looking partial-pivoting LU (CPU-style direct)
  TachoLike,    ///< multifrontal Cholesky (GPU-style direct, SPD)
  Iluk,         ///< level-based incomplete LU
  FastIlu,      ///< Chow-Patel iterative incomplete LU
};

const char* to_string(LocalSolverKind k);

enum class Ordering {
  Natural,           ///< "No" in Table IV
  NestedDissection,  ///< "ND" in Table IV
};

const char* to_string(Ordering k);

}  // namespace frosch::dd

namespace frosch {

template <>
struct EnumTraits<dd::LocalSolverKind> {
  static constexpr const char* type_name = "LocalSolverKind";
  static constexpr std::array<dd::LocalSolverKind, 4> all = {
      dd::LocalSolverKind::SuperLULike, dd::LocalSolverKind::TachoLike,
      dd::LocalSolverKind::Iluk, dd::LocalSolverKind::FastIlu};
};

template <>
struct EnumTraits<dd::Ordering> {
  static constexpr const char* type_name = "Ordering";
  static constexpr std::array<dd::Ordering, 2> all = {
      dd::Ordering::Natural, dd::Ordering::NestedDissection};
};

}  // namespace frosch

namespace frosch::dd {

struct LocalSolverConfig {
  LocalSolverKind kind = LocalSolverKind::TachoLike;
  trisolve::TrisolveKind trisolve = trisolve::TrisolveKind::LevelSet;
  Ordering ordering = Ordering::NestedDissection;
  int ilu_level = 0;        ///< k of ILU(k)
  int fastilu_sweeps = 3;   ///< paper default
  int fastsptrsv_sweeps = 5;///< paper default

  /// Dofs per mesh node (3 for elasticity).  Fill-reducing orderings are
  /// computed on the node-compressed quotient graph and expanded blockwise
  /// -- what METIS-based solvers do for vector-valued problems; ordering
  /// the raw dof graph produces drastically worse separators and fill.
  int dof_block_size = 1;

  /// Execution policy for this solver's parallel kernels (FastILU sweeps,
  /// level-set / Jacobi trisolves).  When the solver runs inside an already
  /// parallel region (e.g. the subdomain-parallel Schwarz phases) the inner
  /// kernels automatically degrade to inline serial execution.
  exec::ExecPolicy exec;
};

/// One subdomain (or coarse) solver with the three Trilinos phases.
template <class Scalar>
class LocalSolver {
 public:
  explicit LocalSolver(const LocalSolverConfig& cfg) : cfg_(cfg) {
    trisolve::TrisolveOptions topt;
    topt.jacobi_sweeps = cfg.fastsptrsv_sweeps;
    topt.exec = cfg.exec;
    engine_ = trisolve::make_trisolve<Scalar>(cfg.trisolve, topt);
  }

  /// Pattern analysis: ordering + backend symbolic phase.  `prof` gets
  /// both, the ordering's graph build, dissection and permutation included.
  void symbolic(const la::CsrMatrix<Scalar>& A, OpProfile* prof = nullptr) {
    if (cfg_.ordering == Ordering::NestedDissection) {
      perm_ = nd_ordering(A, prof);
      Aord_ = la::permute_symmetric(A, perm_);
      if (prof) {
        // The permutation reads A and writes the ordered copy.
        prof->bytes += 2.0 * A.storage_bytes();
        prof->launches += 1;
        prof->critical_path += 1;
        prof->work_items += static_cast<double>(A.num_rows());
      }
    } else {
      perm_.clear();
      Aord_ = A;
    }
    switch (cfg_.kind) {
      case LocalSolverKind::SuperLULike:
        lu_.symbolic(Aord_);
        break;
      case LocalSolverKind::TachoLike:
        chol_.symbolic(Aord_, prof);
        break;
      case LocalSolverKind::Iluk:
        iluk_.symbolic(Aord_, cfg_.ilu_level, prof);
        break;
      case LocalSolverKind::FastIlu:
        fast_.symbolic(Aord_, cfg_.ilu_level, prof);
        break;
    }
    symbolic_done_ = true;
  }

  /// Whether the symbolic phase survives a numeric refactorization.
  bool symbolic_reusable() const {
    return cfg_.kind != LocalSolverKind::SuperLULike;
  }

  /// Numeric factorization + triangular-solve setup.  The trisolve setup is
  /// charged to `trisolve_setup_prof` separately so Fig. 4's breakdown can
  /// show it (it is redone after EVERY numeric factorization for the
  /// pivoting backend -- the paper's key SuperLU-on-GPU cost).  A must have
  /// the sparsity pattern symbolic() analyzed; its values are gathered into
  /// the ordered matrix in place.
  void numeric(const la::CsrMatrix<Scalar>& A, OpProfile* factor_prof = nullptr,
               OpProfile* trisolve_setup_prof = nullptr) {
    FROSCH_CHECK(symbolic_done_, "LocalSolver: symbolic() first");
    gather_values(A);
    numeric_backend(factor_prof, trisolve_setup_prof);
    stage_factor();
    numeric_done_ = true;
  }

  /// Numeric-only refactorization against the frozen symbolic structure
  /// (ordering, ordered pattern, elimination tree / fill pattern, factor
  /// layout): the numeric overlay of a layered refresh (DESIGN.md section
  /// 9).  The engines' level schedules are rebuilt by their setup(), as
  /// after any numeric pass.  A must have the sparsity pattern of the
  /// matrix symbolic() analyzed; only its values may differ.  The refreshed
  /// values are gathered INTO the existing ordered matrix so its value-array
  /// address -- the device mirror key -- stays stable, and the value-only
  /// PCIe crossing is charged to the Factor family (numeric overlay), never
  /// Matrix (pattern base).  The pivoting backend's factor structure depends
  /// on the values (Table I), but its fill-reducing ordering depends only on
  /// the pattern: it keeps perm_ and re-runs the full numeric phase, as a
  /// cold numeric setup would (SuperLU's SamePattern mode) -- keeping
  /// refreshed results bitwise identical to cold ones.
  void numeric_refresh(const la::CsrMatrix<Scalar>& A,
                       OpProfile* factor_prof = nullptr,
                       OpProfile* trisolve_setup_prof = nullptr) {
    FROSCH_CHECK(numeric_done_, "LocalSolver: refresh before numeric()");
    if (!symbolic_reusable()) {
      numeric(A, factor_prof, trisolve_setup_prof);
      return;
    }
    gather_values(A);
    numeric_backend(factor_prof, trisolve_setup_prof);
    stage_factor_refresh();
  }

  /// x = A^{-1} b (exactly or approximately, per the configured backend):
  /// the width-1 block solve.
  void solve(const std::vector<Scalar>& b, std::vector<Scalar>& x,
             OpProfile* prof = nullptr) const {
    FROSCH_CHECK(numeric_done_, "LocalSolver: numeric() first");
    FROSCH_CHECK(static_cast<index_t>(b.size()) == Aord_.num_rows(),
                 "LocalSolver::solve: rhs size " << b.size()
                     << " != " << Aord_.num_rows());
    x.resize(b.size());
    solve(b.data(), x.data(), 1, prof);
  }

  /// X = A^{-1} B for w right-hand sides stored row-major interleaved
  /// (entry (i, c) at [i * w + c]), the layout the triangular engines sweep
  /// with one pass over each factor row.  X holds n * w entries and does
  /// not alias B.  The fill-reducing ordering is applied around the engine
  /// call in grow-only workspaces, so repeated solves allocate nothing (and
  /// one solver must not be solved from two threads at once).  Column c is
  /// bitwise the single-vector solve of column c.
  void solve(const Scalar* B, Scalar* X, index_t w,
             OpProfile* prof = nullptr) const {
    const index_t n = Aord_.num_rows();
    if (perm_.empty()) {
      solve_ordered(B, X, w, prof);
      return;
    }
    const size_t ws = static_cast<size_t>(w);
    const size_t len = static_cast<size_t>(n) * ws;
    if (bp_.size() < len) {
      bp_.resize(len);
      xp_.resize(len);
    }
    // Element loops, not a copy call per row: rows are a few entries wide.
    for (index_t i = 0; i < n; ++i) {
      const Scalar* src = B + static_cast<size_t>(perm_[i]) * ws;
      Scalar* dst = bp_.data() + static_cast<size_t>(i) * ws;
      for (size_t c = 0; c < ws; ++c) dst[c] = src[c];
    }
    solve_ordered(bp_.data(), xp_.data(), w, prof);
    for (index_t i = 0; i < n; ++i) {
      const Scalar* src = xp_.data() + static_cast<size_t>(i) * ws;
      Scalar* dst = X + static_cast<size_t>(perm_[i]) * ws;
      for (size_t c = 0; c < ws; ++c) dst[c] = src[c];
    }
  }

  /// The fill-reducing ordering, new -> old (empty: the identity): ordered
  /// row i is row ordering()[i] of the matrix the solver factored.
  const IndexVector& ordering() const { return perm_; }

  /// solve(B, X, w) on a block whose rows are already in ordering(): the
  /// engine's block sweep alone, without the permuted workspace copies.
  void solve_ordered(const Scalar* B, Scalar* X, index_t w,
                     OpProfile* prof = nullptr) const {
    FROSCH_CHECK(numeric_done_, "LocalSolver: numeric() first");
    engine_->solve_block(Aord_.num_rows(), w, B, X, prof);
  }

  count_t factor_nnz() const {
    switch (cfg_.kind) {
      case LocalSolverKind::SuperLULike: return lu_.factorization().factor_nnz();
      case LocalSolverKind::TachoLike: return chol_.factorization().factor_nnz();
      case LocalSolverKind::Iluk: return iluk_.factorization().factor_nnz();
      case LocalSolverKind::FastIlu: return fast_.factorization().factor_nnz();
    }
    return 0;
  }

 private:
  /// Copies A's values into the ordered matrix in place, O(nnz): each
  /// original row is scattered into a dense row by its new column index and
  /// read back along Aord_'s sorted row, so the values land exactly where
  /// symbolic()'s permute_symmetric put them.  A row-stamp check rejects a
  /// matrix whose pattern differs from the one symbolic() analyzed.
  void gather_values(const la::CsrMatrix<Scalar>& A) {
    const index_t n = Aord_.num_rows();
    FROSCH_CHECK(A.num_rows() == n && A.num_entries() == Aord_.num_entries(),
                 "LocalSolver: numeric pattern differs from symbolic() ("
                     << A.num_rows() << " rows, " << A.num_entries()
                     << " entries against " << n << ", "
                     << Aord_.num_entries() << ")");
    std::vector<Scalar>& vals = Aord_.values();
    if (perm_.empty()) {
      FROSCH_CHECK(A.rowptr() == Aord_.rowptr() && A.colind() == Aord_.colind(),
                   "LocalSolver: numeric pattern differs from symbolic()");
      std::copy(A.values().begin(), A.values().end(), vals.begin());
      return;
    }
    IndexVector inv(static_cast<size_t>(n)), stamp(static_cast<size_t>(n), -1);
    std::vector<Scalar> row(static_cast<size_t>(n));
    for (index_t i = 0; i < n; ++i) inv[perm_[i]] = i;
    for (index_t i = 0; i < n; ++i) {
      const index_t old = perm_[i];
      FROSCH_CHECK(A.row_nnz(old) == Aord_.row_nnz(i),
                   "LocalSolver: numeric pattern differs from symbolic() in "
                   "row " << old);
      for (index_t k = A.row_begin(old); k < A.row_end(old); ++k) {
        const index_t j = inv[A.col(k)];
        row[j] = A.val(k);
        stamp[j] = i;
      }
      for (index_t k = Aord_.row_begin(i); k < Aord_.row_end(i); ++k) {
        const index_t j = Aord_.col(k);
        FROSCH_CHECK(stamp[j] == i,
                     "LocalSolver: numeric pattern differs from symbolic() in "
                     "row " << old);
        vals[k] = row[j];
      }
    }
  }

  /// Backend numeric factorization of the (already ordered) Aord_ plus the
  /// triangular-solve setup: shared by numeric() and numeric_refresh().
  void numeric_backend(OpProfile* factor_prof,
                       OpProfile* trisolve_setup_prof) {
    switch (cfg_.kind) {
      case LocalSolverKind::SuperLULike:
        lu_.numeric(Aord_, factor_prof);
        engine_->setup(lu_.factorization(), trisolve_setup_prof);
        break;
      case LocalSolverKind::TachoLike:
        chol_.numeric(Aord_, factor_prof);
        engine_->setup(chol_.factorization(), trisolve_setup_prof);
        break;
      case LocalSolverKind::Iluk:
        iluk_.numeric(Aord_, factor_prof);
        engine_->setup(iluk_.factorization(), trisolve_setup_prof);
        break;
      case LocalSolverKind::FastIlu:
        fast_.numeric(Aord_, cfg_.fastilu_sweeps, factor_prof, cfg_.exec);
        engine_->setup(fast_.factorization(), trisolve_setup_prof);
        break;
    }
  }

  const trisolve::Factorization<Scalar>& factorization() const {
    switch (cfg_.kind) {
      case LocalSolverKind::SuperLULike: return lu_.factorization();
      case LocalSolverKind::TachoLike: return chol_.factorization();
      case LocalSolverKind::Iluk: return iluk_.factorization();
      case LocalSolverKind::FastIlu: break;
    }
    return fast_.factorization();
  }

  /// Device placement of the numeric phase (the paper's Table I split):
  /// the pivoting SuperLU backend factors on the HOST, so its factor (and
  /// the freshly rebuilt trisolve schedule) crosses PCIe after EVERY
  /// numeric refresh; the device-native backends (Tacho, SpILU, FastILU)
  /// consume the subdomain matrix on the device -- it is staged up once --
  /// and their factor is device-born, never transferred.  The mirror key
  /// is the factorization object the engines touch in solve().
  void stage_factor() {
    device::DeviceArena* arena = device::arena_of(cfg_.exec);
    if (arena == nullptr) return;
    const int r = cfg_.exec.device_rank;
    const trisolve::Factorization<Scalar>& f = factorization();
    const double fbytes = f.L.storage_bytes() + f.U.storage_bytes();
    if (cfg_.kind == LocalSolverKind::SuperLULike) {
      arena->invalidate(r, &f);  // host refactorization stales the mirror
      arena->to_device(r, &f, fbytes, device::Xfer::Factor);
    } else {
      // The numeric pass rewrote the ordered values on the host.
      if (staged_input_ != nullptr) arena->invalidate(r, staged_input_);
      if (Aord_.num_entries() > 0) {
        arena->to_device(r, Aord_.values().data(), Aord_.storage_bytes(),
                         device::Xfer::Matrix);
        staged_input_ = Aord_.values().data();
      }
      arena->produced(r, &f, fbytes);
    }
  }

  /// Device placement of a numeric-only refresh (reusable-symbolic backends
  /// only; the pivoting backend re-enters stage_factor() through the cold
  /// path).  The subdomain matrix mirror is still valid -- same address,
  /// same size -- so no Matrix-family staging happens; what crosses PCIe is
  /// the value-only overlay, charged unconditionally to the Factor family.
  /// The refactored result stays device-born.
  void stage_factor_refresh() {
    device::DeviceArena* arena = device::arena_of(cfg_.exec);
    if (arena == nullptr) return;
    const int r = cfg_.exec.device_rank;
    const trisolve::Factorization<Scalar>& f = factorization();
    const double fbytes = f.L.storage_bytes() + f.U.storage_bytes();
    if (Aord_.num_entries() > 0)
      arena->transfer(r, device::Dir::H2D,
                      static_cast<double>(Aord_.num_entries()) * sizeof(Scalar),
                      device::Xfer::Factor);
    arena->produced(r, &f, fbytes);
  }

  /// ND permutation, computed on the node-compressed quotient graph when
  /// dof_block_size divides the dimension and the dof blocks are intact.
  IndexVector nd_ordering(const la::CsrMatrix<Scalar>& A,
                          OpProfile* prof) const {
    const index_t b = cfg_.dof_block_size;
    const index_t n = A.num_rows();
    if (b <= 1 || n % b != 0) {
      return graph::nested_dissection(graph::build_graph(A, prof), {}, prof);
    }
    const index_t nq = n / b;
    la::TripletBuilder<char> qb(nq, nq);
    for (index_t i = 0; i < n; ++i)
      for (index_t k = A.row_begin(i); k < A.row_end(i); ++k)
        if (i / b != A.col(k) / b) qb.add(i / b, A.col(k) / b, 1);
    if (prof) {
      // The pattern scan and the quotient's triplet build.
      prof->bytes +=
          3.0 * static_cast<double>(A.num_entries()) * sizeof(index_t);
      prof->launches += 1;
      prof->critical_path += 1;
      prof->work_items += static_cast<double>(n);
    }
    IndexVector qperm = graph::nested_dissection(
        graph::build_graph(qb.build(), prof), {}, prof);
    IndexVector perm(static_cast<size_t>(n));
    for (index_t q = 0; q < nq; ++q)
      for (index_t c = 0; c < b; ++c) perm[q * b + c] = qperm[q] * b + c;
    return perm;
  }

  LocalSolverConfig cfg_;
  const void* staged_input_ = nullptr;  ///< device mirror key of Aord_
  IndexVector perm_;  ///< new -> old fill-reducing permutation
  la::CsrMatrix<Scalar> Aord_;
  direct::GilbertPeierlsLu<Scalar> lu_;
  direct::MultifrontalCholesky<Scalar> chol_;
  ilu::IlukFactorization<Scalar> iluk_;
  ilu::FastIlu<Scalar> fast_;
  std::unique_ptr<trisolve::TriangularEngine<Scalar>> engine_;
  mutable std::vector<Scalar> bp_, xp_;  ///< ordered block-solve workspace
  bool symbolic_done_ = false;
  bool numeric_done_ = false;
};

}  // namespace frosch::dd
