// Abstract preconditioner interface: the three-phase Trilinos lifecycle
// (Section V-A1) behind one base class --
//
//   symbolic_setup(A)   pattern-only analysis,
//   numeric_setup(A,Z)  numeric factorizations (Z: global null-space basis),
//   apply(x, y, prof)   one application per Krylov iteration
//                       (inherited from krylov::LinearOperator)
//
// -- implemented by SchwarzPreconditioner and the half-precision wrapper,
// and created by name through the frosch::Solver facade's factory registry.
#pragma once

#include "krylov/operator.hpp"
#include "la/dense.hpp"

namespace frosch::dd {

struct SchwarzProfiles;

template <class Scalar>
class Preconditioner : public krylov::LinearOperator<Scalar> {
 public:
  /// Phase (a): pattern-only analysis.
  virtual void symbolic_setup(const la::CsrMatrix<Scalar>& A) = 0;

  /// Phase (b): the numeric pass.  `Z` is the global null-space basis
  /// (always double; implementations cast down as needed).  A must have the
  /// sparsity pattern symbolic_setup analyzed.  What a pass rebuilds
  /// follows the state the implementation holds, not the entry point: the
  /// first pass after symbolic_setup builds the numeric base layers, any
  /// later one overlays values on them (value copies, refactorizations,
  /// coarse values) -- bitwise identically to a first pass on the same
  /// matrix (DESIGN.md section 9).
  virtual void numeric_setup(const la::CsrMatrix<Scalar>& A,
                             const la::DenseMatrix<double>& Z) = 0;

  /// The same numeric pass for a matrix with the pattern of the previous
  /// ones.  Returns false, doing nothing, before the first numeric pass.
  virtual bool numeric_refresh(const la::CsrMatrix<Scalar>& A,
                               const la::DenseMatrix<double>& Z) = 0;

  /// Dimension of the coarse problem, 0 when the method has no coarse level.
  virtual index_t coarse_dim() const { return 0; }

  /// Per-phase, per-rank Schwarz profiles when the implementation records
  /// them (nullptr otherwise) -- the facade consolidates these into its
  /// SolveReport for the Summit machine model.
  virtual const SchwarzProfiles* schwarz_profiles() const { return nullptr; }
};

}  // namespace frosch::dd
