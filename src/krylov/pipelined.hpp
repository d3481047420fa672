// Pipelined (communication-overlapping) Krylov variants: the per-iteration
// inner products are FUSED into one all-reduce that is POSTED asynchronously
// (la::dist_fused_dots_async) and overlapped with the next operator /
// preconditioner application -- the Ghysels-Vanroose "one overlap deep"
// pipelining the paper's Summit runs motivate, where the node count makes
// the all-reduce latency a first-order cost.
//
// Determinism contract (DESIGN.md section 7): both variants are bitwise
// identical across (backend, ranks, threads) -- the async reduce folds its
// chunk partials in slot order at post, exactly like the blocking reduce.
// They are NOT bitwise identical to cg()/gmres(): pipelining rearranges the
// recurrences (cg-pipe) and the orthogonalization schedule (gmres-pipe), so
// iteration counts may differ from the non-pipelined methods by design; the
// golden tests pin them separately.  They are the only Krylov loops
// outside the block engine (krylov/block.hpp); gmres_pipe advances the same
// Givens / least-squares state (GivensLsq, krylov/gmres.hpp) as block GMRES.
//
// Async-reduce accounting: cg_pipe posts exactly one async fused all-reduce
// per pass -- ov_reductions == iterations + 1 (the extra post belongs to the
// final pass that only reports) -- and gmres_pipe posts exactly one per
// iteration: ov_reductions == iterations.  A zero iteration cap posts none.
#pragma once

#include "krylov/cg.hpp"
#include "krylov/gmres.hpp"

namespace frosch::krylov {

/// Pipelined preconditioned CG (Ghysels-Vanroose PIPECG): each pass posts
/// ONE async fused all-reduce carrying {(r,u), (w,u), (r,r)} and overlaps
/// it with m = M^{-1} w and n = A m.  The residual norm reported for
/// iteration k is the recurrence residual after update k, delivered by the
/// reduce posted one overlapped step later; a signalled convergence is
/// confirmed against the explicitly computed true residual exactly as in
/// cg().  Same initial-guess contract as cg().
template <class Scalar>
SolveResult cg_pipe(const LinearOperator<Scalar>& A,
                    const LinearOperator<Scalar>* prec,
                    const std::vector<Scalar>& b, std::vector<Scalar>& x,
                    const CgOptions& opts = {});

/// Pipelined restarted right-preconditioned GMRES: a two-basis iteration
/// keeping V (orthonormal) and U with the invariant U[j] = A M^{-1} V[j].
/// Each iteration posts ONE async fused all-reduce carrying the CGS1
/// projection coefficients [V^T U_j ; U_j^T U_j] and overlaps it with the
/// speculative application What = A M^{-1} U_j; the next basis vector's
/// norm comes from the Pythagorean identity, with the same "twice is
/// enough" blocking re-orthogonalization safeguard gmres() applies when
/// cancellation makes the estimate untrustworthy (one fused projection
/// reduction, then an explicit norm).  The method is inherently
/// single-reduce: GmresOptions::ortho is IGNORED.  Each restart cycle costs
/// one extra operator application (the U[0] rebuild).  Same initial-guess
/// contract as gmres().
template <class Scalar>
SolveResult gmres_pipe(const LinearOperator<Scalar>& A,
                       const LinearOperator<Scalar>* prec,
                       const std::vector<Scalar>& b, std::vector<Scalar>& x,
                       const GmresOptions& opts = {});

}  // namespace frosch::krylov
