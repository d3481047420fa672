// Per-rank block vectors and the rank-sharded SpMV on top of la/dist.hpp
// -- the kernels behind every distributed operator application, single
// vector or batched multi-RHS:
//
//   DistMultiVector   per-rank packed storage of a WIDTH-column block over a
//                     HaloPlan's local column spaces, column-major per rank
//                     (a single vector is the width-1 block).
//   halo_import       ONE ghost exchange (one message per transfer) moves
//                     every column's ghosts -- the payload scales with the
//                     width, the message count does not; halo_import_async
//                     is its nonblocking form (one shared copy body).
//   dist_spmv_multi   Y = A X for all columns in one pass over the matrix:
//                     the one SpMV kernel, blocking or overlapped.
//   dist_fused_dots   arbitrary list of dot products fused into ONE measured
//                     all-reduce -- the kernel that lets a block Krylov
//                     iteration perform a single collective for all columns
//                     (dist_fused_dots_async: the pipelined form).
//
// Determinism: each column's results are computed with exactly the kernels,
// chunk grids, and summation orders of the shared-memory path (la::spmv,
// vector_ops.hpp), so every column is bitwise identical to its single-vector
// result, and a column's values never depend on which other columns share
// the block (fused all-reduce slots fold independently).
#pragma once

#include "device/arena.hpp"
#include "la/dist.hpp"

namespace frosch::la {

/// Per-rank packed block vector: `width` columns over the plan's local
/// column spaces, column-major within each rank (column c of rank r starts
/// at vals[r][c * cols[r].size()]).
template <class Scalar>
struct DistMultiVector {
  const HaloPlan* plan = nullptr;
  index_t width = 0;
  std::vector<std::vector<Scalar>> vals;  ///< per rank, cols[r].size()*width

  DistMultiVector() = default;
  DistMultiVector(const HaloPlan& p, index_t w) { init(p, w); }

  void init(const HaloPlan& p, index_t w) {
    plan = &p;
    width = w;
    vals.assign(static_cast<size_t>(p.nranks), {});
    for (int r = 0; r < p.nranks; ++r)
      vals[static_cast<size_t>(r)].assign(
          p.cols[static_cast<size_t>(r)].size() * static_cast<size_t>(w),
          Scalar(0));
  }

  index_t local_len(int r) const {
    return static_cast<index_t>(plan->cols[static_cast<size_t>(r)].size());
  }

  /// Copies each rank's OWNED entries of every column out of the replicated
  /// global columns (bookkeeping, not communication).  Pointer-based so
  /// solvers can hand in scattered columns without assembling a block.
  void scatter_owned(const std::vector<const std::vector<Scalar>*>& X,
                     const exec::ExecPolicy& policy = {}) {
    FROSCH_CHECK(static_cast<index_t>(X.size()) == width,
                 "DistMultiVector: scatter width mismatch");
    exec::parallel_for(
        policy, plan->nranks,
        [&](index_t r) {
          const auto& own = plan->owned[static_cast<size_t>(r)];
          const auto& slot = plan->owned_slot[static_cast<size_t>(r)];
          const size_t len = plan->cols[static_cast<size_t>(r)].size();
          auto& v = vals[static_cast<size_t>(r)];
          for (index_t c = 0; c < width; ++c) {
            Scalar* vc = v.data() + static_cast<size_t>(c) * len;
            const auto& xc = *X[static_cast<size_t>(c)];
            for (size_t q = 0; q < own.size(); ++q) vc[slot[q]] = xc[own[q]];
          }
        },
        /*grain=*/1);
  }

  void scatter_owned(const std::vector<std::vector<Scalar>>& X,
                     const exec::ExecPolicy& policy = {}) {
    std::vector<const std::vector<Scalar>*> xs(X.size());
    for (size_t c = 0; c < X.size(); ++c) xs[c] = &X[c];
    scatter_owned(xs, policy);
  }

  /// Writes each rank's OWNED entries of every column back into the
  /// replicated global columns (disjoint writes).  Every target column must
  /// be pre-sized to plan->n by the caller.
  void gather_owned(const std::vector<std::vector<Scalar>*>& X,
                    const exec::ExecPolicy& policy = {}) const {
    FROSCH_CHECK(static_cast<index_t>(X.size()) == width,
                 "DistMultiVector: gather width mismatch");
    for (const auto* xc : X)
      FROSCH_CHECK(static_cast<index_t>(xc->size()) == plan->n,
                   "DistMultiVector: gather target not sized to plan->n");
    exec::parallel_for(
        policy, plan->nranks,
        [&](index_t r) {
          const auto& own = plan->owned[static_cast<size_t>(r)];
          const auto& slot = plan->owned_slot[static_cast<size_t>(r)];
          const size_t len = plan->cols[static_cast<size_t>(r)].size();
          const auto& v = vals[static_cast<size_t>(r)];
          for (index_t c = 0; c < width; ++c) {
            const Scalar* vc = v.data() + static_cast<size_t>(c) * len;
            auto& xc = *X[static_cast<size_t>(c)];
            for (size_t q = 0; q < own.size(); ++q) xc[own[q]] = vc[slot[q]];
          }
        },
        /*grain=*/1);
  }

  void gather_owned(std::vector<std::vector<Scalar>>& X,
                    const exec::ExecPolicy& policy = {}) const {
    for (auto& xc : X) xc.resize(static_cast<size_t>(plan->n));
    std::vector<std::vector<Scalar>*> xs(X.size());
    for (size_t c = 0; c < X.size(); ++c) xs[c] = &X[c];
    gather_owned(xs, policy);
  }
};

namespace detail {

/// Message m's payload movement of a block ghost exchange: every column's
/// ghost entries, from the owning rank's storage into the destination
/// rank's ghost slots.
template <class Scalar>
auto ghost_copy(const HaloPlan& plan, DistMultiVector<Scalar>& x) {
  return [&plan, &x](size_t m) {
    const auto& t = plan.transfers[m];
    const auto& src = x.vals[static_cast<size_t>(t.src)];
    auto& dst = x.vals[static_cast<size_t>(t.dst)];
    const size_t slen = plan.cols[static_cast<size_t>(t.src)].size();
    const size_t dlen = plan.cols[static_cast<size_t>(t.dst)].size();
    for (index_t c = 0; c < x.width; ++c) {
      const Scalar* sc = src.data() + static_cast<size_t>(c) * slen;
      Scalar* dc = dst.data() + static_cast<size_t>(c) * dlen;
      for (size_t q = 0; q < t.ids.size(); ++q)
        dc[t.dst_slots[q]] = sc[t.src_slots[q]];
    }
  };
}

}  // namespace detail

/// The REAL ghost exchange: ONE message per transfer carries every column's
/// ghost entries, and the communicator records one message + the measured
/// payload per transfer on the importing rank.  `msgs` must be
/// plan.messages(sizeof(Scalar) * width) -- the width-scaled payload of the
/// fused import (cache it on the hot path).
template <class Scalar>
void halo_import(comm::Communicator& comm, const HaloPlan& plan,
                 const std::vector<comm::Message>& msgs,
                 DistMultiVector<Scalar>& x) {
  comm.exchange(msgs, detail::ghost_copy(plan, x));
}

/// Nonblocking ghost exchange: the copies of every column happen NOW (so
/// ghost slots hold their final values and results stay bitwise identical
/// to halo_import), the wire charging and the measured overlap window
/// happen at the returned handle's wait().
template <class Scalar>
comm::PendingExchange halo_import_async(comm::Communicator& comm,
                                        const HaloPlan& plan,
                                        const std::vector<comm::Message>& msgs,
                                        DistMultiVector<Scalar>& x) {
  return comm.exchange_async(msgs, detail::ghost_copy(plan, x));
}

namespace detail {

/// Width-scaled accounting of one rank's local kernel.
template <class Scalar>
OpProfile spmv_multi_local_profile(const CsrMatrix<Scalar>& Al, index_t w) {
  OpProfile p;
  p.flops =
      2.0 * static_cast<double>(Al.num_entries()) * static_cast<double>(w);
  // The matrix is streamed ONCE for the whole block; the vectors w times.
  p.bytes = Al.storage_bytes() +
            static_cast<double>(Al.num_rows() + Al.num_cols()) *
                static_cast<double>(w) * sizeof(Scalar);
  p.launches = 1;
  p.critical_path = 1;
  p.work_items = static_cast<double>(Al.num_rows()) * static_cast<double>(w);
  return p;
}

/// Per-rank shares into the communicator's profiles, the aggregate into
/// `prof`.  The same for both schedules BY DESIGN: the overlapped SpMV's
/// benefit enters solely through the comm-side ov_/window fields its wait()
/// records; the interior/boundary pass split is a host-side scheduling
/// detail below the launch-accounting granularity.
template <class Scalar>
void charge_spmv_multi(comm::Communicator& comm,
                       const DistCsrMatrix<Scalar>& A, index_t w,
                       OpProfile* prof) {
  device::DeviceArena* arena = device::arena_of(comm.policy());
  for (int r = 0; r < comm.size(); ++r) {
    const auto& Al = A.local[static_cast<size_t>(r)];
    comm.prof(r) += spmv_multi_local_profile(Al, w);
    if (arena != nullptr) {
      // The SpMV kernel reads the rank's local matrix on the device: a
      // stale mirror measures the staging it forces; the steady state of a
      // Krylov loop is a no-op here (the matrix was staged at setup).
      if (Al.num_entries() > 0)
        arena->to_device(r, Al.values().data(), Al.storage_bytes(),
                         device::Xfer::Matrix);
      arena->launch(r, 1);
    }
  }
  if (prof) {
    // Aggregate view: the per-rank shares summed, as ONE bulk-synchronous
    // launch (matching la::spmv's whole-matrix accounting).
    OpProfile agg;
    for (const auto& Al : A.local) {
      OpProfile p = spmv_multi_local_profile(Al, w);
      agg.flops += p.flops;
      agg.bytes += p.bytes;
      agg.work_items += p.work_items;
    }
    agg.launches = 1;
    agg.critical_path = 1;
    *prof += agg;
  }
}

}  // namespace detail

/// Rank-sharded Y = A X with the REAL ghost import (`msgs` as for
/// halo_import).  One pass over each rank's local matrix serves every
/// column, so the matrix is streamed once per block application; a single
/// vector is the width-1 block.  The import is posted, the INTERIOR rows --
/// which read no ghost column -- are computed, the import completes, then
/// the BOUNDARY rows follow.  `overlap` posts the import nonblocking, so
/// the wire operation is in flight behind the interior rows and its wait()
/// records the ov_ twins and the measured window; without it the import
/// completes before the interior rows and records neither.  Each row's
/// summation order is the global row's entry order, so every column is
/// bitwise identical to la::spmv at every (backend, ranks, threads, width)
/// and either schedule; the compute accounting is identical too.
template <class Scalar>
void dist_spmv_multi(comm::Communicator& comm, const DistCsrMatrix<Scalar>& A,
                     const std::vector<comm::Message>& msgs,
                     DistMultiVector<Scalar>& x, DistMultiVector<Scalar>& y,
                     bool overlap, OpProfile* prof = nullptr) {
  const HaloPlan& plan = *A.plan;
  const index_t w = x.width;
  FROSCH_CHECK(y.width == w, "dist_spmv_multi: width mismatch");
  // Row tasks: `sub` row-chunks per rank so the pool stays busy when there
  // are fewer virtual ranks than threads (per-row results are independent
  // of the chunking, so this cannot perturb the bitwise contract).
  const exec::ExecPolicy& pol = comm.policy();
  const int R = comm.size();
  index_t sub = 1;
  if (pol.parallel() && R < pol.threads)
    sub = (pol.threads + static_cast<index_t>(R) - 1) / R;
  auto run_rows = [&](const std::vector<IndexVector>& rows) {
    exec::parallel_for(
        pol, static_cast<index_t>(R) * sub,
        [&](index_t task) {
          const size_t r = static_cast<size_t>(task / sub);
          const auto& Al = A.local[r];
          const auto& xl = x.vals[r];
          auto& yl = y.vals[r];
          const auto& slot = plan.owned_slot[r];
          const size_t len = plan.cols[r].size();
          const auto& list = rows[r];
          const auto [b, e] = exec::chunk_range(
              static_cast<index_t>(list.size()), sub, task % sub);
          for (index_t c = 0; c < w; ++c) {
            const Scalar* xc = xl.data() + static_cast<size_t>(c) * len;
            Scalar* yc = yl.data() + static_cast<size_t>(c) * len;
            for (index_t q = b; q < e; ++q) {
              const index_t i = list[q];
              Scalar sum(0);
              for (index_t k = Al.row_begin(i); k < Al.row_end(i); ++k)
                sum += Al.val(k) * xc[Al.col(k)];
              yc[slot[i]] = sum;
            }
          }
        },
        /*grain=*/1);
  };
  comm::PendingExchange pending;
  if (overlap)
    pending = halo_import_async(comm, plan, msgs, x);
  else
    halo_import(comm, plan, msgs, x);
  run_rows(plan.interior);
  if (overlap) pending.wait();
  run_rows(plan.boundary);
  detail::charge_spmv_multi(comm, A, w, prof);
}

/// One dot product x . y inside a fused batch.
template <class Scalar>
struct DotJob {
  const std::vector<Scalar>* x = nullptr;
  const std::vector<Scalar>* y = nullptr;
};

namespace detail {

/// The body shared by both fused-dot forms: every job's chunk partials on
/// the problem-size-only chunk grid, then -- for an active context --
/// reduce(partials, nchunks, njobs) hands them to one all-reduce and each
/// rank is charged its owned share; an inactive context folds them locally
/// in chunk order, exactly la::dot.  `async` marks the aggregate reduction
/// as posted nonblocking (ov_reductions).  `scratch` (optional) is a
/// caller-owned, grow-only home for the chunk partials, so repeated calls
/// allocate nothing.
///
/// Charge: 2K flops per element, and bytes for K + (distinct y operands)
/// vectors, since a y shared by several jobs streams once.  That is dot's
/// 2n for one job, (k+1)n for k jobs against one vector, and 2Kn for K
/// independent pairs.
template <class Scalar, class ReduceFn>
void fused_dots(const DistContext& d, const std::vector<DotJob<Scalar>>& jobs,
                std::vector<Scalar>& out, OpProfile* prof,
                const exec::ExecPolicy& policy, bool async,
                std::vector<Scalar>* scratch, ReduceFn&& reduce) {
  const size_t K = jobs.size();
  out.assign(K, Scalar(0));
  if (K == 0) return;
  const index_t n = static_cast<index_t>(jobs[0].x->size());
  size_t ys = 0;  // distinct y operands; a run sharing one y is checked once
  for (size_t j = 0; j < K; ++j) {
    FROSCH_ASSERT(static_cast<index_t>(jobs[j].x->size()) == n &&
                      static_cast<index_t>(jobs[j].y->size()) == n,
                  "dist_fused_dots: size mismatch");
    if (j > 0 && jobs[j].y == jobs[j - 1].y) continue;
    size_t i = 0;
    while (i < j && jobs[i].y != jobs[j].y) ++i;
    ys += i == j;
  }
  const double vecs = static_cast<double>(K + ys);
  const index_t nc = exec::chunk_count(n);
  // Every chunk writes all K of its slots, so the buffer needs no zeroing.
  std::vector<Scalar> local;
  std::vector<Scalar>& partial = scratch ? *scratch : local;
  if (partial.size() < static_cast<size_t>(nc) * K)
    partial.resize(static_cast<size_t>(nc) * K);
  exec::parallel_for(
      policy, nc,
      [&](index_t c) {
        Scalar* pc = partial.data() + static_cast<size_t>(c) * K;
        const auto [b, e] = exec::chunk_range(n, nc, c);
        for (size_t j = 0; j < K; ++j) {
          const Scalar* xj = jobs[j].x->data();
          const Scalar* yj = jobs[j].y->data();
          Scalar s(0);
          for (index_t i = b; i < e; ++i) s += xj[i] * yj[i];
          pc[j] = s;
        }
      },
      /*grain=*/1);
  if (d.active()) {
    reduce(partial.data(), nc, static_cast<int>(K));
    attribute_elementwise(d, 2.0 * static_cast<double>(K), vecs,
                          sizeof(Scalar));
  } else {
    for (index_t c = 0; c < nc; ++c)
      for (size_t j = 0; j < K; ++j)
        out[j] += partial[static_cast<size_t>(c) * K + j];
    device::launches(policy, 1);
  }
  if (prof) {
    prof->flops += 2.0 * static_cast<double>(K) * static_cast<double>(n);
    prof->bytes += vecs * static_cast<double>(n) * sizeof(Scalar);
    prof->launches += 1;
    prof->critical_path += 1;
    prof->work_items += static_cast<double>(n);
    prof->reductions += 1;  // the whole batch travels in ONE all-reduce
    if (async) prof->ov_reductions += 1;
  }
}

}  // namespace detail

/// Fused batched dot products: every job's chunk partials are computed with
/// the problem-size-only chunk grid and ALL jobs travel in ONE measured
/// all-reduce (inactive context: folded locally in chunk order).  Job j's
/// result depends only on job j's vectors -- the slot-ordered fold keeps
/// each output bitwise identical to a solo dist_dot of the same vectors,
/// which is what makes every column of a block Krylov solve independent of
/// the batch it rides in.
template <class Scalar>
void dist_fused_dots(const DistContext& d,
                     const std::vector<DotJob<Scalar>>& jobs,
                     std::vector<Scalar>& out, OpProfile* prof = nullptr,
                     const exec::ExecPolicy& policy = {},
                     std::vector<Scalar>* scratch = nullptr) {
  detail::fused_dots(d, jobs, out, prof, policy, /*async=*/false, scratch,
                     [&](const Scalar* partial, index_t nc, int K) {
                       d.comm->allreduce_slots(partial, nc, K, out.data());
                     });
}

/// One in-flight fused dot batch from dist_fused_dots_async.  Holds the
/// communicator's pending reduce (inert for an inactive context, where the
/// results were already folded locally at post); wait() delivers the
/// results into the output vector passed at post time and charges the wire
/// event.  Exactly one wait() per pending batch.
template <class Scalar>
class PendingDots {
 public:
  PendingDots() = default;
  void wait() {
    FROSCH_CHECK(!waited_,
                 "PendingDots::wait: already completed (one wait per post)");
    waited_ = true;
    red_.wait();
  }
  bool done() const { return waited_; }

 private:
  template <class S>
  friend PendingDots<S> dist_fused_dots_async(
      const DistContext&, const std::vector<DotJob<S>>&, std::vector<S>&,
      OpProfile*, const exec::ExecPolicy&, std::vector<S>*);

  comm::PendingReduce<Scalar> red_;  ///< inert when the context is inactive
  bool waited_ = false;
};

/// Nonblocking dist_fused_dots: the chunk partials are computed and (for an
/// active context) the slot-order fold is taken at POST -- the pipelined
/// Krylov contract that lets the caller overlap the next operator
/// application with the all-reduce in flight -- while wait() delivers the
/// results into `out` and charges the wire event (counted in both the
/// reduction total and its async ov_ twin, window measured per rank).
/// `out` must not be resized between post and wait.  Inactive context:
/// folded locally in chunk order at post (bitwise identical to
/// dist_fused_dots), wait() is an inert no-op.  The aggregate `prof`
/// charges at post, marking the reduce async via ov_reductions, so the
/// one-async-all-reduce-per-iteration assertion holds at every rank count.
template <class Scalar>
PendingDots<Scalar> dist_fused_dots_async(
    const DistContext& d, const std::vector<DotJob<Scalar>>& jobs,
    std::vector<Scalar>& out, OpProfile* prof = nullptr,
    const exec::ExecPolicy& policy = {},
    std::vector<Scalar>* scratch = nullptr) {
  PendingDots<Scalar> pending;
  pending.waited_ = jobs.empty();
  detail::fused_dots(d, jobs, out, prof, policy, /*async=*/true, scratch,
                     [&](const Scalar* partial, index_t nc, int K) {
                       pending.red_ = d.comm->allreduce_slots_async(
                           partial, nc, K, out.data());
                     });
  return pending;
}

}  // namespace frosch::la
