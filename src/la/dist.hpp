// Rank-sharded linear algebra on the virtual distributed-memory runtime
// (src/comm): the Tpetra-map analogue of miniFROSch.
//
//   HaloPlan        row ownership + ghost-column dependency analysis of a
//                   matrix: which global ids each rank owns, which it must
//                   import, and the exact point-to-point messages (with
//                   their payloads) a ghost exchange moves.
//   DistCsrMatrix   per-rank local CSR of the rank's OWNED rows with
//                   columns renumbered into its local column space.
//   dist_dot / dist_norm2 / dist_axpy / dist_scale
//                   Krylov vector kernels on replicated vectors, sharded by
//                   rank for attribution, reductions routed through
//                   Communicator::allreduce_slots as measured events (fused
//                   batches of dots: dist_fused_dots, la/block.hpp).
//
// The per-rank vector storage, the REAL ghost import and the rank-sharded
// SpMV live in la/block.hpp: one kernel, dist_spmv_multi, serves every
// width (a single vector is a width-1 block) and both the blocking and the
// overlapped schedule.
//
// Determinism (DESIGN.md section 7).  Two representation choices make every
// distributed result BITWISE identical to the shared-memory path at every
// (ranks, threads) combination:
//
//  * Local column ids are ordered by GLOBAL id (owned and ghost ids merged
//    into one sorted map, not Tpetra's owned-then-ghost convention), so a
//    local CSR row is traversed in exactly the global row's entry order and
//    every per-row SpMV sum reproduces the global sum bit for bit.
//  * Reductions keep the exec layer's problem-size-only chunk grid as their
//    summation schedule (chunks block-distributed over ranks purely for
//    attribution) and fold partials in slot order inside the communicator.
//
// Krylov vector STATE is replicated across the virtual ranks' shared
// address space; ownership governs which rank computes (and is charged for)
// which share, and bytes move exactly where a real distributed run moves
// them: ghost imports, overlap imports, coarse gathers, all-reduces.  A
// real MPI run would shard the state too -- the replication is what lets
// the determinism contract extend across rank counts.
#pragma once

#include <array>
#include <cmath>

#include "comm/comm.hpp"
#include "device/arena.hpp"
#include "la/csr.hpp"
#include "la/vector_ops.hpp"

namespace frosch::la {

/// Row ownership, local column spaces, and the ghost-exchange message plan
/// of one square matrix distributed by rows over `nranks` virtual ranks.
struct HaloPlan {
  int nranks = 0;
  index_t n = 0;        ///< global size
  IndexVector rank_of;  ///< global id -> owning rank

  /// Per rank: owned global ids, ascending.
  std::vector<IndexVector> owned;
  /// Per rank: local column space = owned + ghost global ids, ascending by
  /// GLOBAL id (the bitwise-determinism ordering, see file comment).
  std::vector<IndexVector> cols;
  /// Per rank: slot in cols[r] of each owned id, aligned with owned[r].
  std::vector<IndexVector> owned_slot;

  /// One ghost-exchange transfer: `ids` (ascending) move from rank src's
  /// owned storage into rank dst's ghost slots.
  struct Transfer {
    int src = 0;
    int dst = 0;
    IndexVector ids;        ///< global ids transferred
    IndexVector src_slots;  ///< positions in cols[src] (owned there)
    IndexVector dst_slots;  ///< positions in cols[dst] (ghosts there)
  };
  std::vector<Transfer> transfers;  ///< ordered by (dst, src)

  /// Per rank: LOCAL row indices (into owned[r], ascending) split by ghost
  /// dependence.  A row is *boundary* iff it references any ghost column
  /// (a column owned by another rank); interior rows read only owned data
  /// and can be computed while the ghost import is in flight
  /// (dist_spmv_multi with overlap).  The split is by WHOLE row, so each row's
  /// summation schedule -- and hence the bitwise determinism contract --
  /// is untouched.
  std::vector<IndexVector> interior;
  std::vector<IndexVector> boundary;

  index_t owned_count(int r) const {
    return static_cast<index_t>(owned[static_cast<size_t>(r)].size());
  }
  index_t ghost_count(int r) const {
    return static_cast<index_t>(cols[static_cast<size_t>(r)].size() -
                                owned[static_cast<size_t>(r)].size());
  }
  index_t interior_count(int r) const {
    return static_cast<index_t>(interior[static_cast<size_t>(r)].size());
  }
  index_t boundary_count(int r) const {
    return static_cast<index_t>(boundary[static_cast<size_t>(r)].size());
  }

  /// The measured message list of one ghost exchange of `elem_bytes`-sized
  /// scalars (one comm::Message per transfer, payload = ids moved).
  std::vector<comm::Message> messages(double elem_bytes) const {
    std::vector<comm::Message> msgs;
    msgs.reserve(transfers.size());
    for (const auto& t : transfers) {
      comm::Message m;
      m.src = t.src;
      m.dst = t.dst;
      m.count = static_cast<index_t>(t.ids.size());
      m.bytes = static_cast<double>(t.ids.size()) * elem_bytes;
      msgs.push_back(m);
    }
    return msgs;
  }
};

/// Builds the HaloPlan of A under the row distribution `rank_of` (one
/// owning rank per global id).  Ghosts are the column dependencies of each
/// rank's owned rows that land on other ranks -- exactly the ids a
/// distributed SpMV must import.
///
/// `prof` (optional) records the measured plan-construction traffic (the
/// full adjacency classification scan, ghost sorts/merges, and transfer
/// slot lookups) -- base-layer work a numeric-only refresh reuses without
/// repeating (DESIGN.md section 9).
template <class Scalar>
HaloPlan build_halo_plan(const CsrMatrix<Scalar>& A, const IndexVector& rank_of,
                         int nranks, OpProfile* prof = nullptr) {
  const index_t n = A.num_rows();
  FROSCH_CHECK(A.num_cols() == n, "build_halo_plan: square matrix required");
  FROSCH_CHECK(static_cast<index_t>(rank_of.size()) == n,
               "build_halo_plan: rank_of size mismatch");
  FROSCH_CHECK(nranks >= 1, "build_halo_plan: need at least one rank");
  HaloPlan plan;
  plan.nranks = nranks;
  plan.n = n;
  plan.rank_of = rank_of;
  plan.owned.assign(static_cast<size_t>(nranks), {});
  plan.cols.assign(static_cast<size_t>(nranks), {});
  plan.owned_slot.assign(static_cast<size_t>(nranks), {});
  for (index_t i = 0; i < n; ++i) {
    FROSCH_CHECK(rank_of[i] >= 0 && rank_of[i] < nranks,
                 "build_halo_plan: bad owner rank");
    plan.owned[static_cast<size_t>(rank_of[i])].push_back(i);
  }

  // Ghosts per rank, then the merged (globally sorted) local column space.
  // The same scan classifies each owned row: boundary iff it references any
  // ghost column, interior otherwise (local row indices, ascending).
  plan.interior.assign(static_cast<size_t>(nranks), {});
  plan.boundary.assign(static_cast<size_t>(nranks), {});
  std::vector<IndexVector> ghosts(static_cast<size_t>(nranks));
  std::vector<char> mark(static_cast<size_t>(n), 0);
  for (int r = 0; r < nranks; ++r) {
    auto& g = ghosts[static_cast<size_t>(r)];
    const auto& own = plan.owned[static_cast<size_t>(r)];
    for (size_t q = 0; q < own.size(); ++q) {
      const index_t i = own[q];
      bool has_ghost = false;
      for (index_t k = A.row_begin(i); k < A.row_end(i); ++k) {
        const index_t c = A.col(k);
        if (rank_of[c] != r) {
          has_ghost = true;
          if (!mark[static_cast<size_t>(c)]) {
            mark[static_cast<size_t>(c)] = 1;
            g.push_back(c);
          }
        }
      }
      (has_ghost ? plan.boundary : plan.interior)[static_cast<size_t>(r)]
          .push_back(static_cast<index_t>(q));
    }
    std::sort(g.begin(), g.end());
    for (index_t c : g) mark[static_cast<size_t>(c)] = 0;

    // Merge owned (sorted) and ghosts (sorted) into the local column map.
    auto& cols = plan.cols[static_cast<size_t>(r)];
    auto& oslot = plan.owned_slot[static_cast<size_t>(r)];
    cols.resize(own.size() + g.size());
    std::merge(own.begin(), own.end(), g.begin(), g.end(), cols.begin());
    oslot.reserve(own.size());
    size_t q = 0;
    for (size_t s = 0; s < cols.size(); ++s) {
      if (q < own.size() && cols[s] == own[q]) {
        oslot.push_back(static_cast<index_t>(s));
        ++q;
      }
    }
  }

  // Transfers: each rank's ghosts grouped by source rank, (dst, src) order.
  for (int dst = 0; dst < nranks; ++dst) {
    const auto& g = ghosts[static_cast<size_t>(dst)];
    std::vector<HaloPlan::Transfer> per_src(static_cast<size_t>(nranks));
    for (index_t c : g)
      per_src[static_cast<size_t>(rank_of[c])].ids.push_back(c);
    for (int src = 0; src < nranks; ++src) {
      auto& t = per_src[static_cast<size_t>(src)];
      if (t.ids.empty()) continue;
      t.src = src;
      t.dst = dst;
      t.src_slots.reserve(t.ids.size());
      t.dst_slots.reserve(t.ids.size());
      for (index_t c : t.ids) {
        const auto& scols = plan.cols[static_cast<size_t>(src)];
        const auto& dcols = plan.cols[static_cast<size_t>(dst)];
        t.src_slots.push_back(static_cast<index_t>(
            std::lower_bound(scols.begin(), scols.end(), c) - scols.begin()));
        t.dst_slots.push_back(static_cast<index_t>(
            std::lower_bound(dcols.begin(), dcols.end(), c) - dcols.begin()));
      }
      plan.transfers.push_back(std::move(t));
    }
  }
  if (prof != nullptr) {
    // Classification scans every adjacency entry once (column read + owner
    // lookup + ghost mark); each merged local column space is written once;
    // each transfer id pays two binary searches over the local column maps.
    double merged = 0.0, lookups = 0.0;
    for (int r = 0; r < nranks; ++r) {
      const double m =
          static_cast<double>(plan.cols[static_cast<size_t>(r)].size());
      merged += m;
      if (m > 1.0) lookups += m;  // sort+merge height folded into the scan
    }
    double slot_searches = 0.0;
    for (const auto& t : plan.transfers) {
      const double ids = static_cast<double>(t.ids.size());
      const double height = std::log2(
          std::max(2.0, static_cast<double>(
                            plan.cols[static_cast<size_t>(t.src)].size())));
      slot_searches += 2.0 * ids * height;
    }
    OpProfile bp;
    bp.bytes = static_cast<double>(A.num_entries()) * (3.0 * sizeof(index_t)) +
               merged * (4.0 * sizeof(index_t)) +
               slot_searches * sizeof(index_t);
    bp.work_items =
        static_cast<double>(A.num_entries()) + merged + slot_searches;
    bp.launches = static_cast<count_t>(nranks) + 1;
    bp.critical_path = 2;
    *prof += bp;
  }
  return plan;
}

/// Per-rank local CSR: rank r's owned rows (ascending global id) with
/// columns renumbered into its local column space.  Because local col ids
/// ascend with global ids, each local row preserves the global row's entry
/// order -- per-row SpMV sums are bitwise identical to the global kernel's.
template <class Scalar>
struct DistCsrMatrix {
  const HaloPlan* plan = nullptr;
  std::vector<CsrMatrix<Scalar>> local;  ///< per rank

  DistCsrMatrix() = default;
  DistCsrMatrix(const CsrMatrix<Scalar>& A, const HaloPlan& p,
                const exec::ExecPolicy& policy = {}) {
    build(A, p, policy);
  }

  /// `prof` (optional) records the measured shard-construction traffic:
  /// every owned entry is read from the global CSR and rewritten with its
  /// column renumbered through a binary search of the rank's local column
  /// map.  Base-layer work -- refresh_values() below repeats none of it.
  void build(const CsrMatrix<Scalar>& A, const HaloPlan& p,
             const exec::ExecPolicy& policy = {}, OpProfile* prof = nullptr) {
    FROSCH_CHECK(A.num_rows() == p.n, "DistCsrMatrix: plan/matrix mismatch");
    plan = &p;
    local.assign(static_cast<size_t>(p.nranks), {});
    exec::parallel_for(
        policy, p.nranks,
        [&](index_t r) {
          const auto& own = p.owned[static_cast<size_t>(r)];
          const auto& cols = p.cols[static_cast<size_t>(r)];
          std::vector<index_t> rowptr(own.size() + 1, 0);
          for (size_t q = 0; q < own.size(); ++q)
            rowptr[q + 1] = rowptr[q] + A.row_nnz(own[q]);
          std::vector<index_t> colind(static_cast<size_t>(rowptr.back()));
          std::vector<Scalar> values(colind.size());
          index_t pos = 0;
          for (index_t i : own) {
            for (index_t k = A.row_begin(i); k < A.row_end(i); ++k) {
              colind[pos] = static_cast<index_t>(
                  std::lower_bound(cols.begin(), cols.end(), A.col(k)) -
                  cols.begin());
              values[pos] = A.val(k);
              ++pos;
            }
          }
          local[static_cast<size_t>(r)] = CsrMatrix<Scalar>(
              static_cast<index_t>(own.size()),
              static_cast<index_t>(cols.size()), std::move(rowptr),
              std::move(colind), std::move(values));
        },
        /*grain=*/1);
    if (prof != nullptr) {
      double searches = 0.0, moved = 0.0;
      for (int r = 0; r < p.nranks; ++r) {
        const auto& Al = local[static_cast<size_t>(r)];
        const double m = std::max(
            2.0, static_cast<double>(p.cols[static_cast<size_t>(r)].size()));
        searches +=
            static_cast<double>(Al.num_entries()) * std::log2(m);
        moved += Al.storage_bytes();
      }
      OpProfile bp;
      bp.bytes = moved * 2.0 + searches * sizeof(index_t);
      bp.work_items = static_cast<double>(A.num_entries()) + searches;
      bp.launches = static_cast<count_t>(p.nranks);
      bp.critical_path = 1;
      *prof += bp;
    }
  }

  /// Numeric overlay refresh: copies A's values into the existing local
  /// shards WITHOUT re-deriving the plan, the local column maps, or the
  /// rowptr/colind structure (those are base layers -- see DESIGN.md
  /// section 9).  Values land in the same sequential owned-row order build()
  /// wrote them, so the copy is positional.  Each rank's shard keeps its
  /// value-array address, leaving any device mirror keyed on it intact.
  /// `changed_bytes` (optional, resized to nranks) receives per rank the
  /// bytes of values that actually differed -- the overlay copy-up cost.
  void refresh_values(const CsrMatrix<Scalar>& A,
                      const exec::ExecPolicy& policy = {},
                      std::vector<double>* changed_bytes = nullptr) {
    FROSCH_CHECK(plan != nullptr, "DistCsrMatrix: refresh before build");
    FROSCH_CHECK(A.num_rows() == plan->n,
                 "DistCsrMatrix: refresh plan/matrix mismatch");
    if (changed_bytes)
      changed_bytes->assign(static_cast<size_t>(plan->nranks), 0.0);
    exec::parallel_for(
        policy, plan->nranks,
        [&](index_t r) {
          const auto& own = plan->owned[static_cast<size_t>(r)];
          auto& vals = local[static_cast<size_t>(r)].values();
          index_t pos = 0;
          count_t changed = 0;
          for (index_t i : own) {
            for (index_t k = A.row_begin(i); k < A.row_end(i); ++k) {
              if (vals[static_cast<size_t>(pos)] != A.val(k)) {
                vals[static_cast<size_t>(pos)] = A.val(k);
                ++changed;
              }
              ++pos;
            }
          }
          if (changed_bytes)
            (*changed_bytes)[static_cast<size_t>(r)] =
                static_cast<double>(changed) * sizeof(Scalar);
        },
        /*grain=*/1);
  }
};

// ---------------------------------------------------------------------------
// Distributed Krylov vector kernels.
//
// These operate on replicated global vectors (see the file comment).  Work
// is sharded over ranks by ownership for ATTRIBUTION (each rank is charged
// the exact share a distributed run would compute); the SUMMATION SCHEDULE
// of reductions is the exec layer's problem-size-only chunk grid, folded in
// slot order by the communicator, so results are bitwise identical to
// la::dot at every rank and thread count.  Every reduction
// is ONE measured all-reduce, however many values are fused into it.

/// Ties a communicator to the row-distribution plan the Krylov kernels
/// attribute by.  A default-constructed (inactive) context makes every
/// dist_* kernel fall through to its shared-memory twin.
struct DistContext {
  comm::Communicator* comm = nullptr;
  const HaloPlan* plan = nullptr;
  bool active() const { return comm != nullptr && plan != nullptr; }
};

namespace detail {

/// Charges each rank its owned share of an elementwise kernel touching
/// `vecs` vectors with `flops_per_elem` flops per element.
inline void attribute_elementwise(const DistContext& d, double flops_per_elem,
                                  double vecs, double elem_bytes) {
  device::DeviceArena* arena = device::arena_of(d.comm->policy());
  for (int r = 0; r < d.comm->size(); ++r) {
    const double share = static_cast<double>(d.plan->owned_count(r));
    OpProfile& p = d.comm->prof(r);
    p.flops += flops_per_elem * share;
    p.bytes += vecs * share * elem_bytes;
    p.launches += 1;
    p.critical_path += 1;
    p.work_items += share;
    // Elementwise vector kernels run device-resident: one launch, no
    // transfer (the operands never leave device memory between kernels).
    if (arena != nullptr) arena->launch(r, 1);
  }
}

}  // namespace detail

/// Distributed dot product: the global chunk partials are computed in
/// parallel, then folded in chunk order through ONE measured all-reduce.
template <class Scalar>
Scalar dist_dot(const DistContext& d, const std::vector<Scalar>& x,
                const std::vector<Scalar>& y, OpProfile* prof = nullptr,
                const exec::ExecPolicy& policy = {}) {
  if (!d.active()) return dot(x, y, prof, policy);
  FROSCH_ASSERT(x.size() == y.size(), "dist_dot: size mismatch");
  const index_t n = static_cast<index_t>(x.size());
  const index_t nc = exec::chunk_count(n);
  std::array<Scalar, exec::kMaxChunks> partial;
  exec::parallel_for(
      policy, nc,
      [&](index_t c) {
        const auto [b, e] = exec::chunk_range(n, nc, c);
        Scalar s(0);
        for (index_t i = b; i < e; ++i) s += x[i] * y[i];
        partial[static_cast<size_t>(c)] = s;
      },
      /*grain=*/1);
  Scalar out(0);
  d.comm->allreduce_slots(partial.data(), nc, 1, &out);
  detail::attribute_elementwise(d, 2.0, 2.0, sizeof(Scalar));
  if (prof) {
    prof->flops += 2.0 * static_cast<double>(n);
    prof->bytes += 2.0 * static_cast<double>(n) * sizeof(Scalar);
    prof->launches += 1;
    prof->critical_path += 1;
    prof->work_items += static_cast<double>(n);
    prof->reductions += 1;
  }
  return out;
}

template <class Scalar>
Scalar dist_norm2(const DistContext& d, const std::vector<Scalar>& x,
                  OpProfile* prof = nullptr,
                  const exec::ExecPolicy& policy = {}) {
  return std::sqrt(dist_dot(d, x, x, prof, policy));
}

/// Distributed axpy: elementwise (no communication), each rank charged its
/// owned share.
template <class Scalar>
void dist_axpy(const DistContext& d, Scalar alpha, const std::vector<Scalar>& x,
               std::vector<Scalar>& y, OpProfile* prof = nullptr,
               const exec::ExecPolicy& policy = {}) {
  if (!d.active()) {
    axpy(alpha, x, y, prof, policy);
    return;
  }
  FROSCH_ASSERT(x.size() == y.size(), "dist_axpy: size mismatch");
  exec::parallel_for(policy, static_cast<index_t>(x.size()),
                     [&](index_t i) { y[i] += alpha * x[i]; });
  detail::attribute_elementwise(d, 2.0, 3.0, sizeof(Scalar));
  if (prof) {
    prof->flops += 2.0 * static_cast<double>(x.size());
    prof->bytes += 3.0 * static_cast<double>(x.size()) * sizeof(Scalar);
    prof->launches += 1;
    prof->critical_path += 1;
    prof->work_items += static_cast<double>(x.size());
  }
}

/// Distributed scale: elementwise (no communication).
template <class Scalar>
void dist_scale(const DistContext& d, std::vector<Scalar>& x, Scalar alpha,
                OpProfile* prof = nullptr,
                const exec::ExecPolicy& policy = {}) {
  if (!d.active()) {
    scale(x, alpha, prof, policy);
    return;
  }
  exec::parallel_for(policy, static_cast<index_t>(x.size()),
                     [&](index_t i) { x[i] *= alpha; });
  detail::attribute_elementwise(d, 1.0, 2.0, sizeof(Scalar));
  if (prof) {
    prof->flops += static_cast<double>(x.size());
    prof->bytes += 2.0 * static_cast<double>(x.size()) * sizeof(Scalar);
    prof->launches += 1;
    prof->critical_path += 1;
    prof->work_items += static_cast<double>(x.size());
  }
}

}  // namespace frosch::la
