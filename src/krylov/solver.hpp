// Common Krylov-solver interface: the one KrylovSolver that the
// frosch::Solver facade drives -- the Belos SolverManager analogue of the
// paper's Trilinos stack.  Its KrylovOptions (krylov/gmres.hpp) cover every
// method, selectable by enum or by name through from_string.
#pragma once

#include <memory>

#include "krylov/block.hpp"
#include "krylov/cg.hpp"
#include "krylov/gmres.hpp"
#include "krylov/pipelined.hpp"

namespace frosch::krylov {

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
        return gmres<Scalar>(A, prec, b, x, opts_);
      case KrylovMethod::Cg:
        return cg<Scalar>(A, prec, b, x, opts_);
      case KrylovMethod::GmresPipe:
        return gmres_pipe<Scalar>(A, prec, b, x, opts_);
      case KrylovMethod::CgPipe:
        return cg_pipe<Scalar>(A, prec, b, x, opts_);
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
      return block_cg<Scalar>(A, prec, B, X, opts_);
    return block_gmres<Scalar>(A, prec, B, X, opts_);
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
