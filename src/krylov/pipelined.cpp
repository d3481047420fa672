#include "krylov/pipelined.hpp"

#include <cmath>

#include "common/error.hpp"

namespace frosch::krylov {

namespace {

/// w = Op(v) with Op = A (no preconditioner) or A M^{-1} (right
/// preconditioning), staging the preconditioned vector in `tmp`.
template <class Scalar>
void apply_op(const LinearOperator<Scalar>& A, const LinearOperator<Scalar>* prec,
              const std::vector<Scalar>& v, std::vector<Scalar>& w,
              std::vector<Scalar>& tmp, OpProfile* prof) {
  if (prec) {
    prec->apply(v, tmp, prof);
    A.apply(tmp, w, prof);
  } else {
    A.apply(v, w, prof);
  }
}

}  // namespace

template <class Scalar>
SolveResult cg_pipe(const LinearOperator<Scalar>& A,
                    const LinearOperator<Scalar>* prec,
                    const std::vector<Scalar>& b, std::vector<Scalar>& x,
                    const KrylovOptions& opts) {
  FROSCH_CHECK(A.rows() == A.cols(), "cg-pipe: square operator required");
  const index_t n = A.rows();
  FROSCH_CHECK(static_cast<index_t>(b.size()) == n,
               "cg-pipe: rhs size mismatch");
  FROSCH_CHECK(x.empty() || static_cast<index_t>(x.size()) == n,
               "cg-pipe: x must be empty (zero initial guess) or sized like "
               "the system (warm start); got " << x.size() << " for n = " << n);
  x.resize(static_cast<size_t>(n), Scalar(0));
  SolveResult res;
  OpProfile* prof = &res.profile;
  const exec::ExecPolicy& ex = opts.exec;
  const la::DistContext& dc = opts.dist;

  std::vector<Scalar> r(static_cast<size_t>(n)), u(static_cast<size_t>(n)),
      w(static_cast<size_t>(n)), m(static_cast<size_t>(n)),
      nv(static_cast<size_t>(n));
  std::vector<Scalar> p, s, q, z;  // recurrence directions (set at pass 0)

  // r = b - A x; the initial residual norm is the one BLOCKING reduction of
  // the method (every in-loop reduction is posted async).
  A.apply(x, r, prof);
  exec::parallel_for(ex, n, [&](index_t i) { r[i] = b[i] - r[i]; });
  const double beta0 = static_cast<double>(la::dist_norm2(dc, r, prof, ex));
  res.initial_residual = beta0;
  res.final_residual = beta0;
  res.residual_history.push_back(beta0);
  res.converged = beta0 == 0.0;
  if (res.converged || opts.max_iters <= 0) return res;
  const double target = opts.tol * beta0;

  // u = M^{-1} r, w = A u.
  if (prec) {
    prec->apply(r, u, prof);
  } else {
    u = r;
  }
  A.apply(u, w, prof);

  std::vector<la::DotJob<Scalar>> jobs(3);
  std::vector<Scalar> dots, dot_scratch;
  Scalar gamma_old(0), alpha_old(0);
  for (index_t k = 0;; ++k) {
    // Post {gamma = (r,u), delta = (w,u), rho = (r,r)} async and overlap the
    // reduce with m = M^{-1} w and n = A m.
    jobs[0] = {&r, &u};
    jobs[1] = {&w, &u};
    jobs[2] = {&r, &r};
    auto pending = la::dist_fused_dots_async(dc, jobs, dots, prof, ex,
                                             &dot_scratch);
    if (prec) {
      prec->apply(w, m, prof);
    } else {
      m = w;
    }
    A.apply(m, nv, prof);
    pending.wait();
    const Scalar gamma = dots[0], delta = dots[1];
    const double rn = std::sqrt(static_cast<double>(dots[2]));

    if (k >= 1) {
      // The reduce just waited on carries the recurrence residual of update
      // k (posted one overlapped step after that update): report it now.
      res.final_residual = rn;
      record_iteration(res, rn, opts.on_iteration);
      if (rn <= target) {
        // Confirm against the true residual (the recurrence drifts), the
        // same safeguard cg() applies; the confirmation norm is blocking.
        std::vector<Scalar> rt(static_cast<size_t>(n));
        A.apply(x, rt, prof);
        exec::parallel_for(ex, n, [&](index_t i) { rt[i] = b[i] - rt[i]; });
        const double tn =
            static_cast<double>(la::dist_norm2(dc, rt, prof, ex));
        res.final_residual = tn;
        res.residual_history.back() = tn;
        if (tn <= target) {
          res.converged = true;
          return res;
        }
        // Unconfirmed: keep iterating on the (still valid) recurrence.
      }
    }
    if (k >= opts.max_iters) break;

    const Scalar beta = k == 0 ? Scalar(0) : gamma / gamma_old;
    const Scalar denom =
        k == 0 ? delta : delta - beta * gamma / alpha_old;
    FROSCH_CHECK(denom > Scalar(0),
                 "cg-pipe: operator not SPD (pipelined p^T A p estimate <= 0)");
    const Scalar alpha = gamma / denom;
    if (k == 0) {
      z = nv;
      q = m;
      s = w;
      p = u;
    } else {
      // Direction recurrences (the PIPECG z/q/s/p updates); like cg()'s
      // p-update these are uncharged recurrence bookkeeping.
      exec::parallel_for(ex, n, [&](index_t i) {
        z[i] = nv[i] + beta * z[i];
        q[i] = m[i] + beta * q[i];
        s[i] = w[i] + beta * s[i];
        p[i] = u[i] + beta * p[i];
      });
    }
    la::dist_axpy(dc, alpha, p, x, prof, ex);
    la::dist_axpy(dc, -alpha, s, r, prof, ex);
    la::dist_axpy(dc, -alpha, q, u, prof, ex);
    la::dist_axpy(dc, -alpha, z, w, prof, ex);
    gamma_old = gamma;
    alpha_old = alpha;
  }
  return res;
}

template <class Scalar>
SolveResult gmres_pipe(const LinearOperator<Scalar>& A,
                       const LinearOperator<Scalar>* prec,
                       const std::vector<Scalar>& b, std::vector<Scalar>& x,
                       const KrylovOptions& opts) {
  FROSCH_CHECK(A.rows() == A.cols(), "gmres-pipe: square operator required");
  FROSCH_CHECK(opts.restart > 0, "gmres-pipe: restart must be positive");
  const index_t n = A.rows();
  FROSCH_CHECK(static_cast<index_t>(b.size()) == n,
               "gmres-pipe: rhs size mismatch");
  FROSCH_CHECK(x.empty() || static_cast<index_t>(x.size()) == n,
               "gmres-pipe: x must be empty (zero initial guess) or sized "
               "like the system (warm start); got " << x.size() << " for n = "
                                                    << n);
  x.resize(static_cast<size_t>(n), Scalar(0));
  const index_t m = opts.restart;

  SolveResult res;
  OpProfile* prof = &res.profile;
  const exec::ExecPolicy& ex = opts.exec;
  const la::DistContext& dc = opts.dist;

  // Two bases: V orthonormal, U with the invariant U[j] = Op(V[j]) (Op =
  // A M^{-1}), which is what lets the next column's projection be posted
  // BEFORE the column is orthogonalized.
  std::vector<std::vector<Scalar>> V(static_cast<size_t>(m) + 1);
  std::vector<std::vector<Scalar>> U(static_cast<size_t>(m) + 1);
  GivensLsq<Scalar> lsq(m);
  std::vector<Scalar> what(static_cast<size_t>(n)), z(static_cast<size_t>(n));
  std::vector<Scalar> h(static_cast<size_t>(m) + 1);
  std::vector<Scalar> c;  // fused-reduce results (async delivery target)
  std::vector<Scalar> dot_scratch;  // grow-only fused-dot chunk partials
  std::vector<la::DotJob<Scalar>> jobs;

  std::vector<Scalar> r(static_cast<size_t>(n));
  A.apply(x, r, prof);
  exec::parallel_for(ex, n, [&](index_t i) { r[i] = b[i] - r[i]; });
  const double beta0 = static_cast<double>(la::dist_norm2(dc, r, prof, ex));
  res.initial_residual = beta0;
  res.final_residual = beta0;
  res.residual_history.push_back(beta0);
  res.converged = beta0 == 0.0;
  if (res.converged) return res;
  const double target = opts.tol * beta0;

  double beta = beta0;
  while (res.iterations < opts.max_iters) {
    // --- restart cycle ---
    V[0] = r;
    la::dist_scale(dc, V[0], Scalar(1.0 / beta), prof, ex);
    lsq.reset(beta);
    // Rebuild the second basis head: U[0] = Op(V[0]) -- the one extra
    // operator application each restart cycle costs.
    if (U[0].size() != static_cast<size_t>(n))
      U[0].resize(static_cast<size_t>(n));
    apply_op(A, prec, V[0], U[0], z, prof);

    // Post the pass-0 projection {V[0].U[0], U[0].U[0]} and overlap it with
    // the speculative application What = Op(U[0]).
    jobs.assign(2, {});
    jobs[0] = {&V[0], &U[0]};
    jobs[1] = {&U[0], &U[0]};
    auto pending =
        la::dist_fused_dots_async(dc, jobs, c, prof, ex, &dot_scratch);
    apply_op(A, prec, U[0], what, z, prof);

    index_t j = 0;
    for (; j < m && res.iterations < opts.max_iters; ++j) {
      pending.wait();
      // c[0..j] = V[i]^T U[j] (the CGS1 coefficients), c[j+1] = U[j]^T U[j].
      const Scalar sigma = c[static_cast<size_t>(j) + 1];
      Scalar c2 = Scalar(0);
      for (index_t i = 0; i <= j; ++i) {
        h[i] = c[static_cast<size_t>(i)];
        c2 += h[i] * h[i];
      }
      // Orthogonalize against BOTH bases with the same coefficients: wv is
      // the projected U[j] (the unnormalized next V column) and wu = Op(wv)
      // by linearity -- the invariant that keeps the bases consistent.
      auto& wv = V[static_cast<size_t>(j) + 1];
      auto& wu = U[static_cast<size_t>(j) + 1];
      wv = U[static_cast<size_t>(j)];
      for (index_t i = 0; i <= j; ++i) la::dist_axpy(dc, -h[i], V[i], wv, prof, ex);
      wu = what;
      for (index_t i = 0; i <= j; ++i) la::dist_axpy(dc, -h[i], U[i], wu, prof, ex);
      const Scalar nrm2v = sigma - c2;
      if (!(nrm2v > Scalar(1e-4) * sigma)) {
        // Severe cancellation: the Pythagorean estimate is untrustworthy.
        // The same "twice is enough" safeguard as gmres()'s single-reduce
        // path, applied to both bases; these reductions are BLOCKING (the
        // safeguard trades the overlap for accuracy on the rare trigger).
        jobs.resize(static_cast<size_t>(j) + 1);
        for (index_t i = 0; i <= j; ++i)
          jobs[static_cast<size_t>(i)] = {&V[static_cast<size_t>(i)], &wv};
        std::vector<Scalar> d2;
        la::dist_fused_dots(dc, jobs, d2, prof, ex, &dot_scratch);
        for (index_t i = 0; i <= j; ++i) {
          la::dist_axpy(dc, -d2[i], V[i], wv, prof, ex);
          la::dist_axpy(dc, -d2[i], U[i], wu, prof, ex);
          h[i] += d2[i];
        }
        h[j + 1] = la::dist_norm2(dc, wv, prof, ex);
      } else {
        h[j + 1] = std::sqrt(nrm2v);
      }
      if (!(h[j + 1] > Scalar(0))) {
        // Breakdown: close the cycle on the column, as block GMRES does.
        record_iteration(res, lsq.close_breakdown(j, h), opts.on_iteration);
        ++j;
        break;
      }
      la::dist_scale(dc, wv, Scalar(1) / h[j + 1], prof, ex);
      la::dist_scale(dc, wu, Scalar(1) / h[j + 1], prof, ex);
      const double rnorm = lsq.rotate(j, h);
      record_iteration(res, rnorm, opts.on_iteration);
      if (rnorm <= target) {
        ++j;
        break;
      }
      // Pipeline the next pass iff the for loop will actually run it (the
      // condition mirrors the loop continuation exactly, so no pending
      // reduce is ever orphaned): post the projection of the j+1 column
      // against V[0..j+1] plus its norm slot, overlapped with the next
      // speculative application.
      if (j + 1 < m && res.iterations < opts.max_iters) {
        jobs.assign(static_cast<size_t>(j) + 3, {});
        for (index_t i = 0; i <= j + 1; ++i)
          jobs[static_cast<size_t>(i)] = {&V[static_cast<size_t>(i)],
                                          &U[static_cast<size_t>(j) + 1]};
        jobs[static_cast<size_t>(j) + 2] = {&U[static_cast<size_t>(j) + 1],
                                            &U[static_cast<size_t>(j) + 1]};
        pending =
            la::dist_fused_dots_async(dc, jobs, c, prof, ex, &dot_scratch);
        apply_op(A, prec, U[static_cast<size_t>(j) + 1], what, z, prof);
      }
    }

    // Least-squares back-substitution and solution update: as gmres().
    lsq.correction(j, V, z, dc, prof, ex);
    if (prec) {
      std::vector<Scalar> t(static_cast<size_t>(n));
      prec->apply(z, t, prof);
      z = t;
    }
    exec::parallel_for(ex, n, [&](index_t i) { x[i] += z[i]; });

    A.apply(x, r, prof);
    exec::parallel_for(ex, n, [&](index_t i) { r[i] = b[i] - r[i]; });
    beta = static_cast<double>(la::dist_norm2(dc, r, prof, ex));
    res.final_residual = beta;
    res.residual_history.back() = beta;
    if (beta <= target) {
      res.converged = true;
      return res;
    }
  }
  return res;
}

template SolveResult cg_pipe<double>(const LinearOperator<double>&,
                                     const LinearOperator<double>*,
                                     const std::vector<double>&,
                                     std::vector<double>&,
                                     const KrylovOptions&);
template SolveResult cg_pipe<float>(const LinearOperator<float>&,
                                    const LinearOperator<float>*,
                                    const std::vector<float>&,
                                    std::vector<float>&, const KrylovOptions&);
template SolveResult gmres_pipe<double>(const LinearOperator<double>&,
                                        const LinearOperator<double>*,
                                        const std::vector<double>&,
                                        std::vector<double>&,
                                        const KrylovOptions&);
template SolveResult gmres_pipe<float>(const LinearOperator<float>&,
                                       const LinearOperator<float>*,
                                       const std::vector<float>&,
                                       std::vector<float>&,
                                       const KrylovOptions&);

}  // namespace frosch::krylov
