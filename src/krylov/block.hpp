// The one Krylov engine: block GMRES and block CG run WIDTH independent
// solves in lockstep over a multi-column block, fusing the per-iteration
// communication across columns.  As in Belos, a single-vector solve is the
// width-1 block solve: gmres() and cg() are adapters of these two loops.
//
//   * operator / preconditioner applications of a multi-column solve go
//     through LinearOperator::apply_columns (one ghost import per block
//     application on the distributed operator); a single-column solve
//     applies through apply(), the width-1 block application;
//   * every reduction stage batches ALL columns' partial sums into ONE
//     measured allreduce_slots via la::dist_fused_dots.  Per lockstep
//     iteration, block GMRES makes 1 collective under single-reduce, max j
//     + 2 under MGS and 3 under CGS2, whatever the width; block CG keeps
//     its fixed three stages.
//
// Fused all-reduce slots fold independently, so a column's trajectory --
// iterates, Givens rotations, residual history, iteration count -- never
// depends on which other columns share the block: a column's results are
// reproduced bit for bit at ANY batch composition.  Converged columns are
// DEFLATED: they drop out of the lockstep and stop contributing work and
// all-reduce payload while the rest continue.  A zero iteration cap runs no
// iteration and reports final_residual = initial_residual.
#pragma once

#include "krylov/cg.hpp"
#include "krylov/gmres.hpp"

namespace frosch::krylov {

/// Result of one batched block solve: per-column convergence data (each
/// column's entries match a solo solve of that column bitwise) plus the
/// whole-block aggregate operation profile.  Per-column profiles are not
/// separable -- fused collectives and block applications are shared -- so
/// columns[c].profile stays empty and `profile` carries the block totals.
struct BlockSolveResult {
  std::vector<SolveResult> columns;
  OpProfile profile;

  bool all_converged() const {
    for (const auto& c : columns)
      if (!c.converged) return false;
    return true;
  }
  index_t max_iterations() const {
    index_t m = 0;
    for (const auto& c : columns) m = std::max(m, c.iterations);
    return m;
  }
};

/// Block GMRES over B.size() right-hand sides; X[c] obeys the single-vector
/// initial-guess contract per column (empty = zero guess, system-sized =
/// warm start).  Every OrthoKind is supported.
template <class Scalar>
BlockSolveResult block_gmres(const LinearOperator<Scalar>& A,
                             const LinearOperator<Scalar>* prec,
                             const std::vector<std::vector<Scalar>>& B,
                             std::vector<std::vector<Scalar>>& X,
                             const KrylovOptions& opts = {});

/// Block CG over B.size() right-hand sides (same contracts as block_gmres;
/// three fused reductions per lockstep iteration regardless of width).
template <class Scalar>
BlockSolveResult block_cg(const LinearOperator<Scalar>& A,
                          const LinearOperator<Scalar>* prec,
                          const std::vector<std::vector<Scalar>>& B,
                          std::vector<std::vector<Scalar>>& X,
                          const KrylovOptions& opts = {});

}  // namespace frosch::krylov
