// Preconditioned conjugate gradients, provided for SPD systems alongside
// GMRES (the Belos package the paper builds on ships both).  Used by tests
// to cross-check the GDSW preconditioner's SPD application.
//
// Like gmres(), cg() is the width-1 block solve: an adapter of block_cg
// (krylov/block.hpp), which holds the one CG loop.  Convergence semantics
// are IDENTICAL to gmres(): the tolerance is relative to the initial
// residual, a convergence signalled by the recurrence residual is confirmed
// against the explicitly computed true residual before the solver stops,
// and the same SolveResult fields are populated (including the residual
// history and the per-iteration callback).
#pragma once

#include "krylov/gmres.hpp"

namespace frosch::krylov {

/// Initial-guess CONTRACT (same as gmres, see krylov/solver.hpp): an EMPTY
/// `x` requests the zero initial guess; an `x` of the system size is taken
/// as a warm start; any other size is an error.  KrylovOptions::restart and
/// ::ortho do not apply to CG and are ignored.
template <class Scalar>
SolveResult cg(const LinearOperator<Scalar>& A,
               const LinearOperator<Scalar>* prec,
               const std::vector<Scalar>& b, std::vector<Scalar>& x,
               const KrylovOptions& opts = {});

}  // namespace frosch::krylov
