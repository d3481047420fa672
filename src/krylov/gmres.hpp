// Restarted GMRES [Saad & Schultz 1986] with right preconditioning and a
// selectable orthogonalization scheme, including the SINGLE-REDUCE low-
// synchronization variant [Swirydowicz, Langou, Ananthan, Yang, Thomas 2021]
// that the paper uses for all experiments (Section VII): one global
// all-reduce per iteration instead of one per basis vector.
//
// As in Belos, a single-vector solve is the width-1 block solve: gmres() is
// an adapter of block_gmres (krylov/block.hpp), the one Arnoldi loop.  This
// header holds the options and result types both share, and the Givens /
// least-squares state of a restart cycle that block GMRES columns and the
// pipelined GMRES (krylov/pipelined.hpp) advance.
//
// The reduction counts are recorded on the OpProfile (via fused dots) and
// priced by the perf/ collective model -- on hundreds of ranks the latency
// difference between the variants is exactly the effect [30] measures.
#pragma once

#include <array>
#include <cmath>
#include <functional>
#include <string>

#include "common/enum_parse.hpp"
#include "common/error.hpp"
#include "exec/exec.hpp"
#include "krylov/operator.hpp"
#include "la/dense.hpp"
#include "la/dist.hpp"
#include "la/vector_ops.hpp"

namespace frosch::krylov {

enum class OrthoKind {
  MGS,          ///< modified Gram-Schmidt: j+1 reductions per iteration
  CGS2,         ///< re-orthogonalized classical GS: 3 fused reductions
  SingleReduce, ///< fused [V^T w; w^T w]: ONE reduction per iteration
};

const char* to_string(OrthoKind k);

/// Observes the solve as it progresses: called once per Krylov iteration
/// with the 1-based iteration number and the current residual estimate.
using IterationCallback = std::function<void(index_t iteration, double residual)>;

struct GmresOptions {
  index_t restart = 30;         ///< paper setting
  index_t max_iters = 2000;
  double tol = 1e-7;            ///< relative to the initial residual (paper)
  OrthoKind ortho = OrthoKind::SingleReduce;
  IterationCallback on_iteration;  ///< optional per-iteration observer
  exec::ExecPolicy exec;  ///< vector-kernel execution (dots, axpys, scales)
  /// Virtual distributed-memory context: when active, every reduction and
  /// norm is a MEASURED communicated event through the communicator (one
  /// fused all-reduce per single-reduce iteration) and per-rank Krylov work
  /// is attributed by row ownership.  Inactive (default): the shared-memory
  /// kernels, bitwise identical results.
  la::DistContext dist;
};

struct SolveResult {
  bool converged = false;
  index_t iterations = 0;       ///< total Arnoldi steps across restarts
  double initial_residual = 0.0;
  double final_residual = 0.0;  ///< true residual at the last restart check
  /// residual_history[0] is the initial residual; one entry per iteration
  /// follows (the implicit Givens estimate for GMRES, the recurrence
  /// residual for CG), with restart/convergence checks replacing the last
  /// entry of a cycle by the explicitly computed true residual.
  std::vector<double> residual_history;
  OpProfile profile;            ///< whole-solve operation profile
};

/// Counts one iteration whose residual estimate is rnorm: appends it to the
/// history and notifies the observer.
inline void record_iteration(SolveResult& res, double rnorm,
                             const IterationCallback& cb) {
  ++res.iterations;
  res.residual_history.push_back(rnorm);
  if (cb) cb(res.iterations, rnorm);
}

/// Right-preconditioned restarted GMRES:  solves A x = b, applying
/// prec = M^{-1} after every operator application (pass nullptr for none).
/// x serves as initial guess and result.  The width-1 block_gmres.
template <class Scalar>
SolveResult gmres(const LinearOperator<Scalar>& A,
                  const LinearOperator<Scalar>* prec,
                  const std::vector<Scalar>& b, std::vector<Scalar>& x,
                  const GmresOptions& opts = {});

/// The Givens / least-squares state of one restart cycle of length m: the
/// rotated Hessenberg matrix H, the rotations (cs, sn) and the rotated
/// right-hand side g, whose last entry is the implicit residual estimate.
template <class Scalar>
class GivensLsq {
 public:
  explicit GivensLsq(index_t m)
      : H_(m + 1, m),
        cs_(static_cast<size_t>(m)),
        sn_(static_cast<size_t>(m)),
        g_(static_cast<size_t>(m) + 1),
        y_(static_cast<size_t>(m)) {}

  /// Starts a cycle from the residual norm beta.
  void reset(double beta) {
    std::fill(g_.begin(), g_.end(), Scalar(0));
    g_[0] = static_cast<Scalar>(beta);
  }

  /// Stores Arnoldi column j (h[0..j+1], h[j+1] > 0), rotates it by the
  /// accumulated rotations and a new one that annihilates H(j+1, j).
  /// Returns |g[j+1]|, the implicit residual estimate after step j.
  double rotate(index_t j, const std::vector<Scalar>& h) {
    for (index_t i = 0; i <= j + 1; ++i) H_(i, j) = h[static_cast<size_t>(i)];
    for (index_t i = 0; i < j; ++i) {
      const Scalar t = cs(i) * H_(i, j) + sn(i) * H_(i + 1, j);
      H_(i + 1, j) = -sn(i) * H_(i, j) + cs(i) * H_(i + 1, j);
      H_(i, j) = t;
    }
    const Scalar a = H_(j, j), bb = H_(j + 1, j);
    const Scalar rho = std::sqrt(a * a + bb * bb);
    FROSCH_CHECK(rho > Scalar(0), "gmres: Givens breakdown");
    cs(j) = a / rho;
    sn(j) = bb / rho;
    H_(j, j) = rho;
    H_(j + 1, j) = Scalar(0);
    g(j + 1) = -sn(j) * g(j);
    g(j) = cs(j) * g(j);
    return std::abs(static_cast<double>(g(j + 1)));
  }

  /// Closes the cycle on a breakdown column j (h[j+1] == 0: the Krylov
  /// space is invariant and the solution exact in it).  The back-solve runs
  /// against g, which lives in the basis rotated by the accumulated Givens
  /// rotations, so the column is rotated into that basis too; no new
  /// rotation is needed.  Returns |g[j]|, the pre-step estimate (the true
  /// residual replaces it at the end of the cycle).
  double close_breakdown(index_t j, std::vector<Scalar>& h) {
    for (index_t i = 0; i < j; ++i) {
      const size_t u = static_cast<size_t>(i);
      const Scalar t = cs(i) * h[u] + sn(i) * h[u + 1];
      h[u + 1] = -sn(i) * h[u] + cs(i) * h[u + 1];
      h[u] = t;
    }
    for (index_t i = 0; i <= j + 1; ++i)
      H_(i, j) = i <= j ? h[static_cast<size_t>(i)] : Scalar(0);
    return std::abs(static_cast<double>(g(j)));
  }

  /// Back-solves H(0:k, 0:k) y = g(0:k) and forms z = V(:, 0:k) y for the k
  /// columns of the cycle.
  void correction(index_t k, const std::vector<std::vector<Scalar>>& V,
                  std::vector<Scalar>& z, const la::DistContext& dc,
                  OpProfile* prof, const exec::ExecPolicy& ex) {
    for (index_t i = k - 1; i >= 0; --i) {
      Scalar s = g(i);
      for (index_t k2 = i + 1; k2 < k; ++k2) s -= H_(i, k2) * y(k2);
      y(i) = s / H_(i, i);
    }
    std::fill(z.begin(), z.end(), Scalar(0));
    for (index_t i = 0; i < k; ++i)
      la::dist_axpy(dc, y(i), V[static_cast<size_t>(i)], z, prof, ex);
  }

 private:
  Scalar& cs(index_t i) { return cs_[static_cast<size_t>(i)]; }
  Scalar& sn(index_t i) { return sn_[static_cast<size_t>(i)]; }
  Scalar& g(index_t i) { return g_[static_cast<size_t>(i)]; }
  Scalar& y(index_t i) { return y_[static_cast<size_t>(i)]; }

  la::DenseMatrix<Scalar> H_;
  std::vector<Scalar> cs_, sn_, g_, y_;
};

}  // namespace frosch::krylov

namespace frosch {

template <>
struct EnumTraits<krylov::OrthoKind> {
  static constexpr const char* type_name = "OrthoKind";
  static constexpr std::array<krylov::OrthoKind, 3> all = {
      krylov::OrthoKind::MGS, krylov::OrthoKind::CGS2,
      krylov::OrthoKind::SingleReduce};
};

}  // namespace frosch
