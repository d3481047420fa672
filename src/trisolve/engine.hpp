// Triangular-solve engines.
//
// Applying M^{-1} after a (complete or incomplete) factorization means two
// sparse triangular solves per subdomain per Krylov iteration -- the paper's
// dominant solve-phase kernel and the hardest one to run fast on a GPU.
// This module implements the paper's four algorithmic options (Table I):
//
//   Substitution          row-by-row forward/backward solve (CPU baseline)
//   LevelSet              element-based level-set scheduling [Anderson-Saad]
//   SupernodalLevelSet    level sets over supernodal blocks [Yamazaki et al.,
//                         the Kokkos-Kernels solver used with SuperLU factors]
//   PartitionedInverse    factorized inverse: solve == sequence of SpMVs
//                         [Alvarado-Pothen-Schreiber]
//   JacobiSweeps          iterative approximate solve (FastSpTRSV, Chow-Patel
//                         flavour; APPROXIMATE -- changes Krylov counts)
//
// All engines except JacobiSweeps are numerically equivalent (Section VIII-A
// states the same); they differ only in their operation profiles, which is
// what the Summit machine model prices.  On a Cholesky factor (every
// MultifrontalCholesky factor) the substitution, level-set and supernodal
// engines execute the same dense-panel supernodal sweep (panel.hpp) for a
// single vector swept serially, and only their modeled schedules differ;
// blocks of several vectors, threaded sweeps, ILU and pivoted LU factors
// run the CSR row kernel on each engine's own schedule.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "common/enum_parse.hpp"
#include "common/op_profile.hpp"
#include "direct/factorization.hpp"
#include "exec/exec.hpp"

namespace frosch::trisolve {

enum class TrisolveKind {
  Substitution,
  LevelSet,
  SupernodalLevelSet,
  PartitionedInverse,
  JacobiSweeps,
};

const char* to_string(TrisolveKind k);

}  // namespace frosch::trisolve

namespace frosch {

template <>
struct EnumTraits<trisolve::TrisolveKind> {
  static constexpr const char* type_name = "TrisolveKind";
  static constexpr std::array<trisolve::TrisolveKind, 5> all = {
      trisolve::TrisolveKind::Substitution, trisolve::TrisolveKind::LevelSet,
      trisolve::TrisolveKind::SupernodalLevelSet,
      trisolve::TrisolveKind::PartitionedInverse,
      trisolve::TrisolveKind::JacobiSweeps};
};

}  // namespace frosch

namespace frosch::trisolve {

using direct::Factorization;

/// Options shared by all engines.
struct TrisolveOptions {
  int jacobi_sweeps = 5;  ///< FastSpTRSV sweep count (paper default: five)
  exec::ExecPolicy exec;  ///< within-level / per-sweep execution policy
};

/// A fully set-up solver for  x = U^{-1} L^{-1} P b  given a Factorization.
template <class Scalar>
class TriangularEngine {
 public:
  virtual ~TriangularEngine() = default;

  /// Builds scheduling data (level sets, supernode levels, inverse factors).
  /// Must be re-run after every numeric factorization whose structure may
  /// have changed (always, for partial-pivoting LU).  `prof` receives the
  /// setup cost -- the quantity behind the SuperLU setup bars in Fig. 4.
  virtual void setup(const Factorization<Scalar>& f, OpProfile* prof) = 0;

  /// Solves with both factors, applying the pivot permutation first.
  virtual void solve(const std::vector<Scalar>& b, std::vector<Scalar>& x,
                     OpProfile* prof) const = 0;

  /// Block solve of w right-hand sides: B and X are n x w blocks stored
  /// row-major interleaved (entry (i, c) at [i * w + c]); X holds n * w
  /// entries and does not alias B.  Column c of X is bitwise what solve()
  /// returns for column c of B.  The exact engines override this with one
  /// sweep that reads each factor row once for all columns (their solve()
  /// is its width-1 call); this default solves column by column through
  /// grow-only column buffers.
  virtual void solve_block(index_t n, index_t w, const Scalar* B, Scalar* X,
                           OpProfile* prof) const {
    const size_t rows = static_cast<size_t>(n), ws = static_cast<size_t>(w);
    col_b_.resize(rows);
    for (size_t c = 0; c < ws; ++c) {
      for (size_t i = 0; i < rows; ++i) col_b_[i] = B[i * ws + c];
      solve(col_b_, col_x_, prof);
      for (size_t i = 0; i < rows; ++i) X[i * ws + c] = col_x_[i];
    }
  }

  virtual TrisolveKind kind() const = 0;

 private:
  mutable std::vector<Scalar> col_b_, col_x_;  ///< solve_block's columns
};

/// Factory covering every TrisolveKind.
template <class Scalar>
std::unique_ptr<TriangularEngine<Scalar>> make_trisolve(
    TrisolveKind kind, const TrisolveOptions& opts = {});

}  // namespace frosch::trisolve
