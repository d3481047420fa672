// Common Krylov-solver interface: one KrylovOptions aggregate covering every
// method (selectable by enum or by name through from_string), and the one
// KrylovSolver that the frosch::Solver facade drives -- the Belos
// SolverManager analogue of the paper's Trilinos stack.
#pragma once

#include <memory>

#include "krylov/block.hpp"
#include "krylov/cg.hpp"
#include "krylov/gmres.hpp"
#include "krylov/pipelined.hpp"

namespace frosch::krylov {

enum class KrylovMethod {
  Gmres,      ///< restarted, right-preconditioned (the paper's solver)
  Cg,         ///< for SPD operator + SPD preconditioner
  GmresPipe,  ///< pipelined GMRES: async fused reduce overlapped with the op
  CgPipe,     ///< pipelined CG (Ghysels-Vanroose), same overlap contract
};

const char* to_string(KrylovMethod k);

/// Unified options: the union of GmresOptions and CgOptions (GMRES-only
/// fields are ignored by CG).  Both methods share the tolerance-relative-
/// to-initial-residual semantics and populate the same SolveResult fields.
struct KrylovOptions {
  KrylovMethod method = KrylovMethod::Gmres;
  index_t restart = 30;         ///< GMRES cycle length (paper setting)
  index_t max_iters = 2000;
  double tol = 1e-7;            ///< relative to the initial residual
  OrthoKind ortho = OrthoKind::SingleReduce;  ///< GMRES orthogonalization
  IterationCallback on_iteration;  ///< optional per-iteration observer
  exec::ExecPolicy exec;  ///< vector-kernel execution policy
  la::DistContext dist;   ///< measured distributed reductions + attribution

  GmresOptions gmres_options() const {
    GmresOptions o;
    o.restart = restart;
    o.max_iters = max_iters;
    o.tol = tol;
    o.ortho = ortho;
    o.on_iteration = on_iteration;
    o.exec = exec;
    o.dist = dist;
    return o;
  }

  CgOptions cg_options() const {
    CgOptions o;
    o.max_iters = max_iters;
    o.tol = tol;
    o.on_iteration = on_iteration;
    o.exec = exec;
    o.dist = dist;
    return o;
  }
};

/// A configured iterative method: solves A x = b with an optional right
/// preconditioner (nullptr for none); x serves as initial guess and result.
/// One class covers every KrylovMethod and switches on options().method.
///
/// INITIAL-GUESS CONTRACT (every method): an EMPTY `x` requests the zero
/// initial guess; an `x` sized like the system is used as a WARM START (the
/// solve continues from it, and the tolerance is relative to the residual
/// AT that guess); any other size is an error.  The facade passes `x`
/// through unchanged, so frosch::Solver::solve has the same semantics --
/// warm starts are what SolveSession amortizes across a stream of related
/// right-hand sides.
template <class Scalar>
class KrylovSolver {
 public:
  explicit KrylovSolver(const KrylovOptions& opts = {}) : opts_(opts) {}
  KrylovMethod method() const { return opts_.method; }
  const KrylovOptions& options() const { return opts_; }

  SolveResult solve(const LinearOperator<Scalar>& A,
                    const LinearOperator<Scalar>* prec,
                    const std::vector<Scalar>& b,
                    std::vector<Scalar>& x) const {
    switch (opts_.method) {
      case KrylovMethod::Gmres:
        return gmres<Scalar>(A, prec, b, x, opts_.gmres_options());
      case KrylovMethod::Cg:
        return cg<Scalar>(A, prec, b, x, opts_.cg_options());
      case KrylovMethod::GmresPipe:
        return gmres_pipe<Scalar>(A, prec, b, x, opts_.gmres_options());
      case KrylovMethod::CgPipe:
        return cg_pipe<Scalar>(A, prec, b, x, opts_.cg_options());
    }
    FROSCH_CHECK(false, "KrylovSolver: unknown method");
    return {};
  }

  /// Batched multi-RHS solve (see krylov/block.hpp): B.size() systems in
  /// lockstep with per-iteration reductions fused into one collective.
  /// Column c of the result is bitwise identical to solve(A, prec, B[c],
  /// X[c]) at every (ranks, threads) and any batch composition.  The
  /// pipelined methods solve blocks with their non-pipelined engine: the
  /// block solve already fuses its reductions across the whole block, so
  /// the single-column pipelining does not compose with it.
  BlockSolveResult solve_block(const LinearOperator<Scalar>& A,
                               const LinearOperator<Scalar>* prec,
                               const std::vector<std::vector<Scalar>>& B,
                               std::vector<std::vector<Scalar>>& X) const {
    if (opts_.method == KrylovMethod::Cg ||
        opts_.method == KrylovMethod::CgPipe)
      return block_cg<Scalar>(A, prec, B, X, opts_.cg_options());
    return block_gmres<Scalar>(A, prec, B, X, opts_.gmres_options());
  }

 private:
  KrylovOptions opts_;
};

/// Factory covering every KrylovMethod.
template <class Scalar>
std::unique_ptr<KrylovSolver<Scalar>> make_krylov(const KrylovOptions& opts) {
  return std::make_unique<KrylovSolver<Scalar>>(opts);
}

}  // namespace frosch::krylov

namespace frosch {

template <>
struct EnumTraits<krylov::KrylovMethod> {
  static constexpr const char* type_name = "KrylovMethod";
  static constexpr std::array<krylov::KrylovMethod, 4> all = {
      krylov::KrylovMethod::Gmres, krylov::KrylovMethod::Cg,
      krylov::KrylovMethod::GmresPipe, krylov::KrylovMethod::CgPipe};
};

}  // namespace frosch
