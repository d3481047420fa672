#include "krylov/block.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

// The one Krylov engine (see block.hpp).  Every distributed reduction of a
// column's recurrence is one slot range of a fused dist_fused_dots call, and
// each slot folds alone, so a column's trajectory is that of its solo solve
// at any width.  gmres() and cg() are the width-1 calls of this engine.
namespace frosch::krylov {

namespace {

template <class Scalar>
using ColPtrs = std::vector<const std::vector<Scalar>*>;
template <class Scalar>
using MutColPtrs = std::vector<std::vector<Scalar>*>;

/// What every column of a block solve carries.
template <class Scalar>
struct Column {
  const std::vector<Scalar>* b = nullptr;
  std::vector<Scalar>* x = nullptr;
  std::vector<Scalar> r;  ///< residual (the recurrence residual for CG)
  double target = 0.0;
  bool finished = false;  ///< deflated: out of the lockstep
  SolveResult res;
};

template <class Scalar>
double root(Scalar s) {
  return static_cast<double>(std::sqrt(s));
}

/// The machinery the block solves share: column binding, the operator-
/// application rule, fused reductions and residual norms.
template <class Scalar>
class Engine {
 public:
  Engine(const char* who, const LinearOperator<Scalar>& A, size_t width,
         OpProfile* prof, const exec::ExecPolicy& ex,
         const la::DistContext& dc)
      : who_(who), A_(A), single_(width == 1), n_(A.rows()), prof_(prof),
        ex_(ex), dc_(dc) {
    FROSCH_CHECK(A.rows() == A.cols(), who << ": square operator required");
  }

  index_t n() const { return n_; }
  OpProfile* prof() const { return prof_; }
  const exec::ExecPolicy& ex() const { return ex_; }
  const la::DistContext& dc() const { return dc_; }

  /// Binds column c to (b, x) under the initial-guess contract: an empty x
  /// is the zero guess, a system-sized x a warm start.
  void bind(Column<Scalar>& cl, size_t c, const std::vector<Scalar>* b,
            std::vector<Scalar>* x) const {
    FROSCH_CHECK(static_cast<index_t>(b->size()) == n_,
                 who_ << ": rhs size mismatch in column " << c);
    FROSCH_CHECK(x->empty() || static_cast<index_t>(x->size()) == n_,
                 who_ << ": column " << c
                      << " must be empty (zero initial guess) or sized like "
                         "the system (warm start); got "
                      << x->size() << " for n = " << n_);
    x->resize(static_cast<size_t>(n_), Scalar(0));
    cl.b = b;
    cl.x = x;
    cl.r.assign(static_cast<size_t>(n_), Scalar(0));
  }

  void queue(const std::vector<Scalar>* in, std::vector<Scalar>* out) {
    ins_.push_back(in);
    outs_.push_back(out);
  }

  /// Applies op to the queued (in -> out) columns.  A solve with one
  /// right-hand side applies through apply(), a wider one through
  /// apply_columns() at every active width.  Every real operator's apply()
  /// is its width-1 block application, so the bits agree either way; the
  /// rule keeps a single-vector solve on the single-vector seam.
  void apply(const LinearOperator<Scalar>& op) {
    if (single_)
      op.apply(*ins_[0], *outs_[0], prof_);
    else
      op.apply_columns(ins_, outs_, prof_);
    ins_.clear();
    outs_.clear();
  }

  void dot(const std::vector<Scalar>* x, const std::vector<Scalar>* y) {
    jobs_.push_back({x, y});
  }

  /// ONE fused all-reduce carrying every queued dot, in queue order.
  const std::vector<Scalar>& reduce() {
    la::dist_fused_dots(dc_, jobs_, vals_, prof_, ex_, &dot_scratch_);
    jobs_.clear();
    return vals_;
  }

  /// *into(c) = b_c - A x_c for the listed columns (one application), then
  /// one fused all-reduce of their squared norms.
  template <class Col, class Into>
  const std::vector<Scalar>& residual_norms(std::vector<Col>& cols,
                                            const std::vector<size_t>& sel,
                                            Into into) {
    for (size_t c : sel) queue(cols[c].x, into(cols[c]));
    apply(A_);
    for (size_t c : sel) {
      auto& r = *into(cols[c]);
      const auto& b = *cols[c].b;
      exec::parallel_for(ex_, n_, [&](index_t i) { r[i] = b[i] - r[i]; });
      dot(&r, &r);
    }
    return reduce();
  }

  /// Initial residuals r = b - A x and their fused norms.  A column with a
  /// zero residual has converged; a zero iteration cap runs no iteration.
  /// Either way the column is deflated before the first lockstep step.
  template <class Col>
  void start(std::vector<Col>& cols, double tol, index_t max_iters) {
    std::vector<size_t> all(cols.size());
    for (size_t c = 0; c < all.size(); ++c) all[c] = c;
    const auto& v = residual_norms(cols, all, [](Col& cl) { return &cl.r; });
    for (size_t c = 0; c < cols.size(); ++c) {
      auto& res = cols[c].res;
      const double beta0 = root(v[c]);
      res.initial_residual = beta0;
      res.final_residual = beta0;
      res.residual_history.push_back(beta0);
      res.converged = beta0 == 0.0;
      cols[c].target = tol * beta0;
      cols[c].finished = res.converged || max_iters <= 0;
    }
  }

 private:
  const char* who_;
  const LinearOperator<Scalar>& A_;
  bool single_;
  index_t n_;
  OpProfile* prof_;
  const exec::ExecPolicy& ex_;
  const la::DistContext& dc_;
  ColPtrs<Scalar> ins_;
  MutColPtrs<Scalar> outs_;
  std::vector<la::DotJob<Scalar>> jobs_;
  std::vector<Scalar> vals_;
  std::vector<Scalar> dot_scratch_;  ///< grow-only fused-dot chunk partials
};

// ---------------------------------------------------------------------------
// Block GMRES
// ---------------------------------------------------------------------------

template <class Scalar>
struct GmresColumn : Column<Scalar> {
  explicit GmresColumn(index_t m)
      : V(static_cast<size_t>(m) + 1), lsq(m), h(static_cast<size_t>(m) + 1) {}
  std::vector<std::vector<Scalar>> V;
  GivensLsq<Scalar> lsq;
  std::vector<Scalar> h, w, z;
  double beta = 0.0;
  index_t j = 0;
  bool at_restart = true;  ///< cycle must be (re)initialized before stepping
};

/// Orthogonalizes every active column's w against its basis V[0..j],
/// leaving the coefficients in h[0..j] and the norm of the projected w in
/// h[j+1].  Each reduction is one fused all-reduce over the columns that
/// take part in it, so per lockstep iteration:
///   single-reduce  [V^T w ; w^T w]: 1 (+2 when cancellation strikes)
///   MGS            V[i]^T w for i = 0..max j, then the norms: max j + 2
///   CGS2           two projection passes, then the norms: 3
template <class Scalar>
void orthogonalize(Engine<Scalar>& e, std::vector<GmresColumn<Scalar>>& cols,
                   const std::vector<size_t>& act, OrthoKind kind,
                   std::vector<size_t>& sel) {
  const la::DistContext& dc = e.dc();
  OpProfile* prof = e.prof();
  const exec::ExecPolicy& ex = e.ex();
  // One classical Gram-Schmidt pass: one all-reduce for every V^T w, then
  // the projections; `first` starts h, later passes accumulate into it.
  auto cgs_pass = [&](const std::vector<size_t>& list, bool first) {
    for (size_t c : list)
      for (index_t i = 0; i <= cols[c].j; ++i)
        e.dot(&cols[c].V[static_cast<size_t>(i)], &cols[c].w);
    const auto& v = e.reduce();
    size_t off = 0;
    for (size_t c : list) {
      auto& cl = cols[c];
      for (index_t i = 0; i <= cl.j; ++i) {
        const size_t u = static_cast<size_t>(i);
        const Scalar ci = v[off + u];
        la::dist_axpy(dc, -ci, cl.V[u], cl.w, prof, ex);
        cl.h[u] = first ? ci : cl.h[u] + ci;
      }
      off += static_cast<size_t>(cl.j) + 1;
    }
  };
  auto norms = [&](const std::vector<size_t>& list) {
    for (size_t c : list) e.dot(&cols[c].w, &cols[c].w);
    const auto& v = e.reduce();
    for (size_t q = 0; q < list.size(); ++q)
      cols[list[q]].h[static_cast<size_t>(cols[list[q]].j) + 1] =
          std::sqrt(v[q]);
  };

  switch (kind) {
    case OrthoKind::MGS: {
      index_t jmax = 0;
      for (size_t c : act) jmax = std::max(jmax, cols[c].j);
      for (index_t i = 0; i <= jmax; ++i) {
        const size_t u = static_cast<size_t>(i);
        sel.clear();
        for (size_t c : act) {
          if (cols[c].j < i) continue;
          sel.push_back(c);
          e.dot(&cols[c].V[u], &cols[c].w);
        }
        const auto& v = e.reduce();
        for (size_t q = 0; q < sel.size(); ++q) {
          auto& cl = cols[sel[q]];
          cl.h[u] = v[q];
          la::dist_axpy(dc, -cl.h[u], cl.V[u], cl.w, prof, ex);
        }
      }
      norms(act);
      return;
    }
    case OrthoKind::CGS2:
      cgs_pass(act, true);
      cgs_pass(act, false);
      norms(act);
      return;
    case OrthoKind::SingleReduce: {
      // Fuse [V^T w ; w^T w]; the norm of the projected vector follows from
      // the Pythagorean identity ||w - V c||^2 = w^T w - ||c||^2.
      for (size_t c : act) {
        for (index_t i = 0; i <= cols[c].j; ++i)
          e.dot(&cols[c].V[static_cast<size_t>(i)], &cols[c].w);
        e.dot(&cols[c].w, &cols[c].w);
      }
      const auto& v = e.reduce();
      sel.clear();
      size_t off = 0;
      for (size_t c : act) {
        auto& cl = cols[c];
        const size_t j = static_cast<size_t>(cl.j);
        const Scalar wtw = v[off + j + 1];
        Scalar c2 = Scalar(0);
        for (size_t i = 0; i <= j; ++i) {
          cl.h[i] = v[off + i];
          c2 += cl.h[i] * cl.h[i];
        }
        for (size_t i = 0; i <= j; ++i)
          la::dist_axpy(dc, -cl.h[i], cl.V[i], cl.w, prof, ex);
        const Scalar nrm2v = wtw - c2;
        if (!(nrm2v > Scalar(1e-4) * wtw))
          sel.push_back(c);
        else
          cl.h[j + 1] = std::sqrt(nrm2v);
        off += j + 2;
      }
      if (!sel.empty()) {
        // Severe cancellation: the Pythagorean estimate is untrustworthy
        // and the projection has lost orthogonality.  Re-orthogonalize
        // once and take explicit norms ("twice is enough"), fused over the
        // columns that triggered it.
        cgs_pass(sel, false);
        norms(sel);
      }
      return;
    }
  }
}

template <class Scalar>
BlockSolveResult gmres_engine(const char* who,
                              const LinearOperator<Scalar>& A,
                              const LinearOperator<Scalar>* prec,
                              const ColPtrs<Scalar>& B,
                              const MutColPtrs<Scalar>& X,
                              const KrylovOptions& opts) {
  FROSCH_CHECK(opts.restart > 0, who << ": restart must be positive");
  const index_t m = opts.restart;
  const size_t nb = B.size();
  BlockSolveResult out;
  out.columns.resize(nb);
  Engine<Scalar> e(who, A, nb, &out.profile, opts.exec, opts.dist);
  if (nb == 0) return out;
  const index_t n = e.n();
  OpProfile* prof = e.prof();
  const exec::ExecPolicy& ex = opts.exec;
  const la::DistContext& dc = opts.dist;

  std::vector<GmresColumn<Scalar>> cols;
  cols.reserve(nb);
  for (size_t c = 0; c < nb; ++c) {
    cols.emplace_back(m);
    auto& cl = cols.back();
    e.bind(cl, c, B[c], X[c]);
    cl.w.assign(static_cast<size_t>(n), Scalar(0));
    cl.z.assign(static_cast<size_t>(n), Scalar(0));
  }
  e.start(cols, opts.tol, opts.max_iters);
  for (auto& cl : cols) cl.beta = cl.res.initial_residual;

  std::vector<size_t> act, sel;
  for (;;) {
    act.clear();
    for (size_t c = 0; c < nb; ++c)
      if (!cols[c].finished) act.push_back(c);
    if (act.empty()) break;

    // --- restart-cycle initialization for columns that need one ---
    for (size_t c : act) {
      auto& cl = cols[c];
      if (!cl.at_restart) continue;
      cl.V[0] = cl.r;
      la::dist_scale(dc, cl.V[0], Scalar(1.0 / cl.beta), prof, ex);
      cl.lsq.reset(cl.beta);
      cl.j = 0;
      cl.at_restart = false;
    }

    // --- w = A M^{-1} v_j for every active column ---
    for (size_t c : act) {
      auto& cl = cols[c];
      e.queue(&cl.V[static_cast<size_t>(cl.j)], prec ? &cl.z : &cl.w);
    }
    if (prec) {
      e.apply(*prec);
      for (size_t c : act) e.queue(&cols[c].z, &cols[c].w);
    }
    e.apply(A);

    orthogonalize(e, cols, act, opts.ortho, sel);

    // --- per-column Givens update / breakdown handling (local work); sel
    // collects the columns whose cycle ends this iteration ---
    sel.clear();
    for (size_t c : act) {
      auto& cl = cols[c];
      const size_t j = static_cast<size_t>(cl.j);
      if (!(cl.h[j + 1] > Scalar(0))) {
        // Breakdown: the Krylov space is invariant; close the cycle on it.
        record_iteration(cl.res, cl.lsq.close_breakdown(cl.j, cl.h),
                         opts.on_iteration);
        ++cl.j;
        sel.push_back(c);
        continue;
      }
      // The projected w becomes the next basis vector; w takes the old
      // storage as scratch for the next application.
      cl.V[j + 1].resize(static_cast<size_t>(n));
      cl.V[j + 1].swap(cl.w);
      la::dist_scale(dc, cl.V[j + 1], Scalar(1) / cl.h[j + 1], prof, ex);
      const double rnorm = cl.lsq.rotate(cl.j, cl.h);
      record_iteration(cl.res, rnorm, opts.on_iteration);
      ++cl.j;
      if (rnorm <= cl.target || cl.j == m ||
          cl.res.iterations >= opts.max_iters)
        sel.push_back(c);
    }

    // --- cycle end, fused over the columns whose cycle finished ---
    if (sel.empty()) continue;
    for (size_t c : sel) cols[c].lsq.correction(cols[c].j, cols[c].V,
                                                cols[c].z, dc, prof, ex);
    if (prec) {
      // z <- M^{-1} z (w is free here and takes the result).
      for (size_t c : sel) e.queue(&cols[c].z, &cols[c].w);
      e.apply(*prec);
      for (size_t c : sel) cols[c].z.swap(cols[c].w);
    }
    for (size_t c : sel) {
      auto& x = *cols[c].x;
      const auto& z = cols[c].z;
      exec::parallel_for(ex, n, [&](index_t i) { x[i] += z[i]; });
    }
    // True residuals for the restart / convergence decision; each replaces
    // the cycle's last (implicit) history entry.
    const auto& v = e.residual_norms(
        cols, sel, [](GmresColumn<Scalar>& cl) { return &cl.r; });
    for (size_t q = 0; q < sel.size(); ++q) {
      auto& cl = cols[sel[q]];
      cl.beta = root(v[q]);
      cl.res.final_residual = cl.beta;
      cl.res.residual_history.back() = cl.beta;
      if (cl.beta <= cl.target) {
        cl.res.converged = true;
        cl.finished = true;
      } else if (cl.res.iterations >= opts.max_iters) {
        cl.finished = true;
      } else {
        // An unconfirmed implicit convergence (or a breakdown) restarts
        // from the true residual.
        cl.at_restart = true;
      }
    }
  }

  for (size_t c = 0; c < nb; ++c) out.columns[c] = std::move(cols[c].res);
  return out;
}

// ---------------------------------------------------------------------------
// Block CG
// ---------------------------------------------------------------------------

template <class Scalar>
struct CgColumn : Column<Scalar> {
  std::vector<Scalar> z, p, Ap, rt;
  Scalar rz = Scalar(0);
};

template <class Scalar>
BlockSolveResult cg_engine(const char* who, const LinearOperator<Scalar>& A,
                           const LinearOperator<Scalar>* prec,
                           const ColPtrs<Scalar>& B,
                           const MutColPtrs<Scalar>& X,
                           const KrylovOptions& opts) {
  const size_t nb = B.size();
  BlockSolveResult out;
  out.columns.resize(nb);
  Engine<Scalar> e(who, A, nb, &out.profile, opts.exec, opts.dist);
  if (nb == 0) return out;
  const index_t n = e.n();
  OpProfile* prof = e.prof();
  const exec::ExecPolicy& ex = opts.exec;
  const la::DistContext& dc = opts.dist;

  std::vector<CgColumn<Scalar>> cols(nb);
  for (size_t c = 0; c < nb; ++c) {
    auto& cl = cols[c];
    e.bind(cl, c, B[c], X[c]);
    cl.z.assign(static_cast<size_t>(n), Scalar(0));
    cl.Ap.assign(static_cast<size_t>(n), Scalar(0));
    cl.rt.assign(static_cast<size_t>(n), Scalar(0));
  }
  e.start(cols, opts.tol, opts.max_iters);

  std::vector<size_t> act, confirm;
  auto active = [&] {
    act.clear();
    for (size_t c = 0; c < nb; ++c)
      if (!cols[c].finished) act.push_back(c);
    return !act.empty();
  };
  // z = M^{-1} r and one fused all-reduce for every r.z.
  auto precondition = [&] {
    if (prec) {
      for (size_t c : act) e.queue(&cols[c].r, &cols[c].z);
      e.apply(*prec);
    } else {
      for (size_t c : act) cols[c].z = cols[c].r;
    }
    for (size_t c : act) e.dot(&cols[c].r, &cols[c].z);
    return e.reduce();
  };

  if (active()) {
    const auto& v = precondition();
    for (size_t q = 0; q < act.size(); ++q) {
      auto& cl = cols[act[q]];
      cl.p = cl.z;
      cl.rz = v[q];
    }
  }

  while (active()) {
    // Stage 1 of 3: Ap = A p and one all-reduce for every p.Ap.
    for (size_t c : act) {
      e.queue(&cols[c].p, &cols[c].Ap);
      e.dot(&cols[c].p, &cols[c].Ap);
    }
    e.apply(A);
    {
      const auto& v = e.reduce();
      for (size_t q = 0; q < act.size(); ++q) {
        auto& cl = cols[act[q]];
        const Scalar pAp = v[q];
        FROSCH_CHECK(pAp > Scalar(0), who << ": operator not SPD (p^T A p "
                                             "<= 0) in column " << act[q]);
        const Scalar alpha = cl.rz / pAp;
        la::dist_axpy(dc, alpha, cl.p, *cl.x, prof, ex);
        la::dist_axpy(dc, -alpha, cl.Ap, cl.r, prof, ex);
      }
    }

    // Stage 2 of 3: one all-reduce for every recurrence-residual norm.
    for (size_t c : act) e.dot(&cols[c].r, &cols[c].r);
    {
      const auto& v = e.reduce();
      confirm.clear();
      for (size_t q = 0; q < act.size(); ++q) {
        auto& cl = cols[act[q]];
        const double rn = root(v[q]);
        cl.res.final_residual = rn;
        record_iteration(cl.res, rn, opts.on_iteration);
        if (rn <= cl.target) confirm.push_back(act[q]);
      }
    }
    if (!confirm.empty()) {
      // Confirm against the true residual (the recurrence drifts over many
      // iterations); unconfirmed columns keep iterating on the (still
      // valid) recurrence.
      const auto& v = e.residual_norms(
          cols, confirm, [](CgColumn<Scalar>& cl) { return &cl.rt; });
      for (size_t q = 0; q < confirm.size(); ++q) {
        auto& cl = cols[confirm[q]];
        const double tn = root(v[q]);
        cl.res.final_residual = tn;
        cl.res.residual_history.back() = tn;
        if (tn <= cl.target) {
          cl.res.converged = true;
          cl.finished = true;
        }
      }
    }

    // Stage 3 of 3: z = M^{-1} r, r.z and the direction update.  Columns
    // at the iteration cap run it too and are retired afterwards.
    if (!active()) break;
    const auto& v = precondition();
    for (size_t q = 0; q < act.size(); ++q) {
      auto& cl = cols[act[q]];
      const Scalar rz_new = v[q];
      const Scalar betak = rz_new / cl.rz;
      cl.rz = rz_new;
      auto& p = cl.p;
      const auto& z = cl.z;
      exec::parallel_for(ex, n, [&](index_t i) { p[i] = z[i] + betak * p[i]; });
      if (cl.res.iterations >= opts.max_iters) cl.finished = true;
    }
  }

  for (size_t c = 0; c < nb; ++c) out.columns[c] = std::move(cols[c].res);
  return out;
}

/// Resolves block X against B (X empty or of B's width) into column lists.
template <class Scalar>
void column_lists(const char* who, const std::vector<std::vector<Scalar>>& B,
                  std::vector<std::vector<Scalar>>& X, ColPtrs<Scalar>& bs,
                  MutColPtrs<Scalar>& xs) {
  FROSCH_CHECK(B.size() == X.size() || X.empty(),
               who << ": X must be empty or match B's width");
  if (X.empty()) X.resize(B.size());
  for (size_t c = 0; c < B.size(); ++c) {
    bs.push_back(&B[c]);
    xs.push_back(&X[c]);
  }
}

SolveResult width1_result(BlockSolveResult&& out) {
  out.columns[0].profile = out.profile;
  return std::move(out.columns[0]);
}

}  // namespace

template <class Scalar>
BlockSolveResult block_gmres(const LinearOperator<Scalar>& A,
                             const LinearOperator<Scalar>* prec,
                             const std::vector<std::vector<Scalar>>& B,
                             std::vector<std::vector<Scalar>>& X,
                             const KrylovOptions& opts) {
  ColPtrs<Scalar> bs;
  MutColPtrs<Scalar> xs;
  column_lists("block_gmres", B, X, bs, xs);
  return gmres_engine("block_gmres", A, prec, bs, xs, opts);
}

template <class Scalar>
BlockSolveResult block_cg(const LinearOperator<Scalar>& A,
                          const LinearOperator<Scalar>* prec,
                          const std::vector<std::vector<Scalar>>& B,
                          std::vector<std::vector<Scalar>>& X,
                          const KrylovOptions& opts) {
  ColPtrs<Scalar> bs;
  MutColPtrs<Scalar> xs;
  column_lists("block_cg", B, X, bs, xs);
  return cg_engine("block_cg", A, prec, bs, xs, opts);
}

template <class Scalar>
SolveResult gmres(const LinearOperator<Scalar>& A,
                  const LinearOperator<Scalar>* prec,
                  const std::vector<Scalar>& b, std::vector<Scalar>& x,
                  const KrylovOptions& opts) {
  return width1_result(
      gmres_engine<Scalar>("gmres", A, prec, {&b}, {&x}, opts));
}

template <class Scalar>
SolveResult cg(const LinearOperator<Scalar>& A,
               const LinearOperator<Scalar>* prec,
               const std::vector<Scalar>& b, std::vector<Scalar>& x,
               const KrylovOptions& opts) {
  return width1_result(
      cg_engine<Scalar>("cg", A, prec, {&b}, {&x}, opts));
}

#define FROSCH_KRYLOV_ENGINE(S)                                              \
  template BlockSolveResult block_gmres<S>(                                  \
      const LinearOperator<S>&, const LinearOperator<S>*,                    \
      const std::vector<std::vector<S>>&, std::vector<std::vector<S>>&,      \
      const KrylovOptions&);                                                 \
  template BlockSolveResult block_cg<S>(                                     \
      const LinearOperator<S>&, const LinearOperator<S>*,                    \
      const std::vector<std::vector<S>>&, std::vector<std::vector<S>>&,      \
      const KrylovOptions&);                                                 \
  template SolveResult gmres<S>(const LinearOperator<S>&,                    \
                                const LinearOperator<S>*,                    \
                                const std::vector<S>&, std::vector<S>&,      \
                                const KrylovOptions&);                       \
  template SolveResult cg<S>(const LinearOperator<S>&,                       \
                             const LinearOperator<S>*,                       \
                             const std::vector<S>&, std::vector<S>&,         \
                             const KrylovOptions&);
FROSCH_KRYLOV_ENGINE(double)
FROSCH_KRYLOV_ENGINE(float)
#undef FROSCH_KRYLOV_ENGINE

}  // namespace frosch::krylov
