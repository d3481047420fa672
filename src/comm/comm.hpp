// The virtual distributed-memory runtime: P in-process "virtual ranks"
// whose communication is MEASURED from the actual calls, not estimated at
// scattered call sites.
//
// The paper's results are distributed-memory results (42+ MPI ranks per
// Summit node, halo exchanges in SpMV, one fused all-reduce per
// single-reduce GMRES iteration, coarse-problem gathers).  miniFROSch runs
// the same algorithms in one address space; this layer makes the
// distribution real enough to measure: every subsystem above it (la, dd,
// krylov) shards its work by rank and performs its data movement through a
// Communicator, which records per-rank operation profiles -- message
// counts, payload bytes, collective counts -- that the perf/ machine model
// replays.  Two implementations:
//
//   SelfComm  one rank, the degenerate communicator (collective calls
//             still record, remote traffic cannot exist);
//   SimComm   P virtual ranks driven by the exec-layer ThreadPool; rank
//             regions run in parallel, collectives combine contributions
//             in a deterministic canonical order.
//
// Determinism contract (DESIGN.md section 7): every collective combines
// floating-point contributions in a FIXED canonical order -- slot order for
// the slotted all-reduce (the slots are the exec layer's problem-size-only
// chunk grid), rank order for per-rank contributions -- so results are
// bitwise identical at every (ranks, threads) combination, including the
// shared-memory path (SelfComm / no communicator).  A real MPI runtime
// cannot promise this across rank counts; the virtual runtime can, and the
// repo's golden tests depend on it.
//
// Charging convention (the perf model's pricing rule, see summit.hpp):
// point-to-point messages charge the IMPORTING (destination) rank -- one
// neighbor message plus the payload bytes actually moved -- mirroring how
// the halo import is the blocking side of a ghost exchange.  Collectives
// charge every participating rank one reduction (they are bulk-synchronous)
// plus the payload each rank ships.
#pragma once

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/op_profile.hpp"
#include "common/timer.hpp"
#include "device/arena.hpp"
#include "exec/exec.hpp"

namespace frosch::comm {

/// One point-to-point transfer of an exchange: `count` items moving from
/// virtual rank `src` to virtual rank `dst`, `bytes` on the wire.  The
/// bytes are computed by the caller from the ACTUAL payload (scalar counts,
/// CSR row storage) -- the plan that builds messages is the measurement.
struct Message {
  int src = 0;
  int dst = 0;
  index_t count = 0;   ///< payload items (scalars, matrix rows, ...)
  double bytes = 0.0;  ///< payload size actually moved, in bytes
};

class Communicator;

/// One in-flight nonblocking exchange, returned by
/// Communicator::post_async / exchange_async.  The payload was already
/// moved at post time (the SimComm convention: copies at post, wire time
/// at wait), so results are bitwise identical to the blocking path;
/// wait() charges the wire event -- destination-rank messages and bytes,
/// counted in both the normal fields and their async ov_ twins -- plus
/// the measured post->wait window.  wait() must be called EXACTLY once;
/// SelfComm (and any all-self message list) completes inline: nothing is
/// charged and no window is recorded, because there is no wire operation
/// to overlap.  The handle refers to the caller's message list, which must
/// outlive wait() -- every caller passes a list it keeps as a member (a
/// cached exchange plan), so posting copies and allocates nothing.
class PendingExchange {
 public:
  PendingExchange() = default;
  PendingExchange(PendingExchange&& o) noexcept { *this = std::move(o); }
  PendingExchange& operator=(PendingExchange&& o) noexcept {
    comm_ = o.comm_;
    msgs_ = o.msgs_;
    timer_ = o.timer_;
    waited_ = o.waited_;
    o.comm_ = nullptr;
    o.waited_ = true;
    return *this;
  }
  PendingExchange(const PendingExchange&) = delete;
  PendingExchange& operator=(const PendingExchange&) = delete;

  /// Completes the exchange: charges wire time and the overlap window.
  void wait();
  bool done() const { return waited_; }

 private:
  friend class Communicator;
  PendingExchange(Communicator* c, const std::vector<Message>& msgs)
      : comm_(c), msgs_(&msgs) {}

  Communicator* comm_ = nullptr;  ///< null: default- or moved-from (inert)
  const std::vector<Message>* msgs_ = nullptr;  ///< the caller's list
  Timer timer_;  ///< started at post; read at wait
  bool waited_ = false;
};

/// One in-flight nonblocking fused all-reduce, returned by
/// Communicator::allreduce_slots_async.  The deterministic slot-order
/// fold happened at POST (so the result is bitwise identical to the
/// blocking allreduce_slots and later writes to the slot buffer cannot
/// change it); wait() delivers the folded values into the caller's out
/// pointer and charges the wire event plus the measured window.  Exactly
/// one wait() per pending reduce.
template <class Scalar>
class PendingReduce {
 public:
  PendingReduce() = default;
  PendingReduce(PendingReduce&& o) noexcept { *this = std::move(o); }
  PendingReduce& operator=(PendingReduce&& o) noexcept {
    comm_ = o.comm_;
    result_ = std::move(o.result_);
    out_ = o.out_;
    payload_ = o.payload_;
    timer_ = o.timer_;
    waited_ = o.waited_;
    o.comm_ = nullptr;
    o.waited_ = true;
    return *this;
  }
  PendingReduce(const PendingReduce&) = delete;
  PendingReduce& operator=(const PendingReduce&) = delete;

  /// Delivers the folded result and charges wire time + overlap window.
  void wait();
  bool done() const { return waited_; }

 private:
  friend class Communicator;
  PendingReduce(Communicator* c, std::vector<Scalar> result, Scalar* out,
                double payload)
      : comm_(c), result_(std::move(result)), out_(out), payload_(payload) {}

  Communicator* comm_ = nullptr;  ///< null: default- or moved-from (inert)
  std::vector<Scalar> result_;    ///< slot-order fold, held until wait()
  Scalar* out_ = nullptr;
  double payload_ = 0.0;
  Timer timer_;
  bool waited_ = false;
};

/// Abstract virtual-rank communicator: rank count, per-rank measured
/// profiles, parallel rank regions, and deterministic collectives.  All
/// combine logic is shared (it is identical for every implementation by
/// the determinism contract); concrete classes fix the rank count.
class Communicator {
 public:
  virtual ~Communicator();
  virtual const char* name() const = 0;

  int size() const { return nranks_; }

  const exec::ExecPolicy& policy() const { return policy_; }
  void set_policy(const exec::ExecPolicy& p) { policy_ = p; }

  /// Measured per-rank profile: communication events recorded by the
  /// collectives below, plus the rank-local compute the distributed kernels
  /// attribute while sharding (see la/dist.hpp).  Virtual so a SubComm can
  /// redirect every recording -- its own and its callers' -- into the
  /// PARENT communicator's profiles at the member world ranks: subset work
  /// stays attributed to the ranks that actually did it.
  virtual OpProfile& prof(int r) { return prof_[static_cast<size_t>(r)]; }
  virtual const OpProfile& prof(int r) const {
    return prof_[static_cast<size_t>(r)];
  }
  const std::vector<OpProfile>& rank_profiles() const { return prof_; }
  void reset_profiles() { prof_.assign(static_cast<size_t>(nranks_), {}); }

  /// The rank id in the ROOT communicator that local rank r maps to:
  /// identity here, the member list composed through any nesting for a
  /// SubComm.  Device transfers are attributed by world rank because the
  /// arena holds one device space per root-communicator rank.
  virtual int world_rank(int r) const { return r; }

  /// Subset-scoped sub-communicator over `members` (local rank ids,
  /// strictly increasing).  Collectives on the returned communicator span
  /// only the members: they record subset-reduction events (priced over
  /// log2(S), see OpProfile::sub_reductions) into the members' profiles
  /// HERE, and point-to-point traffic charges the member destination rank
  /// exactly like parent traffic.  The parent must outlive the child.
  std::unique_ptr<Communicator> split(std::vector<int> members);

  /// BSP rank region: fn(r) for every rank, in parallel on the exec pool
  /// (each rank is one task; nested kernels inside run inline).
  template <class Fn>
  void for_ranks(Fn&& fn) {
    exec::parallel_for(
        policy_, nranks_, [&](index_t r) { fn(static_cast<int>(r)); },
        /*grain=*/1);
  }

  /// Deterministic block map sharding `n` items over the ranks: rank r gets
  /// the half-open range rank_block(n, r).  Used for the global chunk grid
  /// of reductions and for mapping subdomains onto fewer ranks.
  std::pair<index_t, index_t> rank_block(index_t n, int r) const {
    return exec::chunk_range(n, nranks_, r);
  }

  /// Inverse of rank_block: the rank whose block contains item i.
  int block_owner(index_t n, index_t i) const {
    const index_t base = n / nranks_, rem = n % nranks_;
    // Blocks [0, rem) have base+1 items, the rest base items.
    if (base == 0) return static_cast<int>(i);
    const index_t head = rem * (base + 1);
    if (i < head) return static_cast<int>(i / (base + 1));
    return static_cast<int>(rem + (i - head) / base);
  }

  // ---- collectives: every call is one measured communication event ----

  /// Fused all-reduce over a fixed slot grid: `slots` holds nslots rows of
  /// k values (row-major); each row was produced by exactly one rank (the
  /// rank_block owner of the slot).  After the call out[j] holds the fold
  /// of slots[s*k + j] in SLOT order -- the same order the shared-memory
  /// exec::parallel_reduce folds its chunk partials, which is what makes
  /// distributed reductions bitwise identical to the global path.  Records
  /// one reduction on EVERY rank (bulk-synchronous) and the k-value fused
  /// payload each rank ships -- one call == one wire all-reduce, however
  /// many values are fused into it (the single-reduce GMRES contract).
  template <class Scalar>
  void allreduce_slots(const Scalar* slots, index_t nslots, int k,
                       Scalar* out) {
    fold_slots(slots, nslots, k, out);
    // Each rank's partial is dense in the k fused values: full payload
    // across PCIe each way (contrast gather/broadcast's sliced payloads).
    const double payload = static_cast<double>(k) * sizeof(Scalar);
    record_collective(payload, payload);
  }

  /// Fused all-reduce of per-rank contributions (contrib[r] has k values),
  /// combined in RANK order.  out[j] = sum_r contrib[r][j].
  template <class Scalar>
  void allreduce(const std::vector<std::vector<Scalar>>& contrib,
                 std::vector<Scalar>& out) {
    FROSCH_ASSERT(static_cast<int>(contrib.size()) == nranks_,
                  "Communicator::allreduce: one contribution per rank");
    const size_t k = contrib.empty() ? 0 : contrib[0].size();
    out.assign(k, Scalar(0));
    for (int r = 0; r < nranks_; ++r) {
      FROSCH_ASSERT(contrib[r].size() == k,
                    "Communicator::allreduce: ragged contributions");
      for (size_t j = 0; j < k; ++j) out[j] += contrib[r][j];
    }
    const double payload = static_cast<double>(k) * sizeof(Scalar);
    record_collective(payload, payload);
  }

  /// Point-to-point exchange: copy(m) performs message m's actual payload
  /// movement (pack -> ship -> unpack); the copies run in parallel (their
  /// destinations are disjoint by construction of any valid plan).  Each
  /// message charges its DESTINATION rank: one neighbor message + the
  /// measured payload bytes.  Self-messages (src == dst) are local copies,
  /// not communication: copied, never charged.
  template <class CopyFn>
  void exchange(const std::vector<Message>& msgs, CopyFn&& copy) {
    run_copies(msgs, copy);
    post(msgs);
  }

  /// Records an exchange whose payload the CALLER already moved (irregular
  /// payloads like CSR row imports).  Same charging rule as exchange().
  ///
  /// Device backend: ghost payloads live in device memory on both ends, so
  /// every wire message is ALSO a measured PCIe round trip -- D2H at the
  /// source, network, H2D at the destination (the paper's Summit nodes have
  /// no GPUDirect path in these runs).  An exchange is a host
  /// synchronization point: the launch queues drain.
  ///
  /// `family` is the ledger family the PCIe round trips charge to: Halo for
  /// solve-phase ghost traffic (the default), Xfer::Factor for the
  /// changed-value overlays of a numeric-only refresh (DESIGN.md section
  /// 9 -- the refresh-ledger gate counts Halo bytes as base-layer motion).
  void post(const std::vector<Message>& msgs,
            device::Xfer family = device::Xfer::Halo) {
    record_exchange(msgs, family, nullptr);
  }

  // ---- nonblocking semantics: post now, charge wire time at wait ----

  /// Nonblocking form of post(): records nothing yet, starts the overlap
  /// window, and returns a PendingExchange whose wait() performs post()'s
  /// charging (plus the ov_ async twins and the measured window).  The
  /// caller must have moved the payload already -- same contract as
  /// post() -- which is what keeps overlapped results bitwise identical
  /// to the blocking path.  `msgs` must outlive the handle's wait(); a
  /// temporary list is rejected at compile time.
  PendingExchange post_async(const std::vector<Message>& msgs) {
    return PendingExchange(this, msgs);
  }
  PendingExchange post_async(std::vector<Message>&&) = delete;

  /// Nonblocking form of exchange(): performs the copies NOW (in
  /// parallel, as exchange() does), then posts.  Between the returned
  /// handle's construction and its wait() the caller may compute
  /// anything that does not read the destinations -- the interior rows
  /// of an overlapped SpMV.
  template <class CopyFn>
  PendingExchange exchange_async(const std::vector<Message>& msgs,
                                 CopyFn&& copy) {
    run_copies(msgs, copy);
    return post_async(msgs);
  }
  template <class CopyFn>
  PendingExchange exchange_async(std::vector<Message>&&, CopyFn&&) = delete;

  /// Nonblocking form of allreduce_slots: the deterministic slot-order
  /// fold happens at POST (later writes to `slots` cannot change the
  /// result), the wire event is charged at wait(), when the folded
  /// values land in `out`.  `out` must stay valid until then.  One call
  /// == one wire all-reduce, counted exactly as the blocking form counts
  /// it (a subset reduction on a SubComm) plus its async ov_ twins, with
  /// the post->wait window measured on every participating rank
  /// (collectives are bulk-synchronous).
  template <class Scalar>
  PendingReduce<Scalar> allreduce_slots_async(const Scalar* slots,
                                              index_t nslots, int k,
                                              Scalar* out) {
    std::vector<Scalar> result(static_cast<size_t>(k));
    fold_slots(slots, nslots, k, result.data());
    return PendingReduce<Scalar>(this, std::move(result), out,
                                 static_cast<double>(k) * sizeof(Scalar));
  }

  /// Reduction-to-root collective (the coarse-problem gather): a dense
  /// reduce of per-rank PARTIAL contributions, each the full `bytes` of
  /// the object being assembled (the coarse restriction r0 = sum_r
  /// Phi_r^T x_r sums full-length partial vectors; the Galerkin gather
  /// sums locally supported coarse-matrix contributions).  Bulk-
  /// synchronous: one reduction + the full payload on every rank.  PCIe:
  /// each rank stages only the locally supported SLICE of the object it
  /// contributes (bytes/P each way) -- the full payload is a wire-side
  /// quantity assembled by the reduction tree, never one rank's transfer.
  void gather(double bytes) {
    record_collective(bytes, bytes / static_cast<double>(nranks_));
  }

  /// Root-to-all broadcast of `bytes` (the coarse-solution replication).
  void broadcast(double bytes) {
    record_collective(bytes, bytes / static_cast<double>(nranks_));
  }

 protected:
  Communicator(int nranks, exec::ExecPolicy policy)
      : nranks_(nranks < 1 ? 1 : nranks), policy_(policy) {
    prof_.assign(static_cast<size_t>(nranks_), {});
    windowed_.assign(static_cast<size_t>(nranks_), 0);
  }

  /// One bulk-synchronous collective: every rank participates, every rank
  /// ships `bytes` of payload on the wire.  Device backend: each rank's
  /// contribution must leave device memory and the combined result must
  /// return, so a WIRE collective is also a measured PCIe round trip of
  /// `pcie_bytes_per_rank` each way on every rank, and a host sync point.
  /// When nranks == 1 the "collective" degenerates to a host-side fold of
  /// local partials -- no wire message, no staging (matching the msg_bytes
  /// rule), which is what keeps a single-rank Krylov iteration's steady
  /// state transfer-free.  The event COUNT still records on a single rank,
  /// so profiles stay comparable across rank counts.
  ///
  /// `window` is the measured post->wait interval of an async collective
  /// (PendingReduce::wait): the payload is then also counted in its ov_
  /// twin and every rank records the window.  Blocking calls pass none and
  /// record no ov_ field.
  void record_collective(double bytes, double pcie_bytes_per_rank,
                         const double* window = nullptr) {
    device::DeviceArena* arena =
        nranks_ > 1 ? device::arena_of(policy_) : nullptr;
    for (int r = 0; r < nranks_; ++r) {
      OpProfile& p = prof(r);
      count_collective(p, window != nullptr);
      if (nranks_ > 1) {
        p.msg_bytes += bytes;
        if (window != nullptr) {
          p.ov_msg_bytes += bytes;
          p.overlap_windows += 1;
          p.overlap_s += *window;
        }
      }
      if (arena != nullptr) {
        arena->transfer(world_rank(r), device::Dir::D2H, pcie_bytes_per_rank,
                        device::Xfer::Collective);
        arena->transfer(world_rank(r), device::Dir::H2D, pcie_bytes_per_rank,
                        device::Xfer::Collective);
      }
    }
    if (arena != nullptr) arena->sync_all();
  }

  /// Per-rank event count of one collective: the global communicators
  /// count a full-fabric reduction (and its ov_ twin when posted async); a
  /// SubComm overrides this to count a subset reduction whose tree spans
  /// only its members.
  virtual void count_collective(OpProfile& p, bool async) {
    p.reductions += 1;
    if (async) p.ov_reductions += 1;
  }

 private:
  friend class PendingExchange;
  template <class S>
  friend class PendingReduce;

  /// The deterministic slot-order fold shared by both all-reduce forms.
  template <class Scalar>
  static void fold_slots(const Scalar* slots, index_t nslots, int k,
                         Scalar* out) {
    for (int j = 0; j < k; ++j) out[j] = Scalar(0);
    for (index_t s = 0; s < nslots; ++s)
      for (int j = 0; j < k; ++j) out[j] += slots[s * k + j];
  }

  /// The payload movement shared by both exchange forms: copy(m) for every
  /// message, in parallel.
  template <class CopyFn>
  void run_copies(const std::vector<Message>& msgs, CopyFn& copy) {
    exec::parallel_for(
        policy_, static_cast<index_t>(msgs.size()),
        [&](index_t m) { copy(static_cast<size_t>(m)); },
        /*grain=*/1);
  }

  /// The charging of post() and of PendingExchange::wait().  Each remote
  /// message charges its destination rank; self-messages are local copies,
  /// never charged.  `window` (async completion only) adds the ov_ twins
  /// and one measured window per destination rank that had remote traffic,
  /// so a SelfComm exchange completes with no window.  The per-rank
  /// window marks live in a reused member scratch, so a wait allocates
  /// nothing.
  void record_exchange(const std::vector<Message>& msgs, device::Xfer family,
                       const double* window) {
    device::DeviceArena* arena = device::arena_of(policy_);
    if (window != nullptr) std::fill(windowed_.begin(), windowed_.end(), 0);
    for (const auto& m : msgs) {
      if (m.src == m.dst) continue;
      auto& p = prof(m.dst);
      p.neighbor_msgs += 1;
      p.msg_bytes += m.bytes;
      if (window != nullptr) {
        p.ov_neighbor_msgs += 1;
        p.ov_msg_bytes += m.bytes;
        if (!windowed_[static_cast<size_t>(m.dst)]) {
          windowed_[static_cast<size_t>(m.dst)] = 1;
          p.overlap_windows += 1;
          p.overlap_s += *window;
        }
      }
      if (arena != nullptr) {
        arena->transfer(world_rank(m.src), device::Dir::D2H, m.bytes, family);
        arena->transfer(world_rank(m.dst), device::Dir::H2D, m.bytes, family);
      }
    }
    if (arena != nullptr) arena->sync_all();
  }

  int nranks_;
  exec::ExecPolicy policy_;
  std::vector<OpProfile> prof_;
  std::vector<char> windowed_;  ///< record_exchange's per-rank window marks
};

inline void PendingExchange::wait() {
  FROSCH_CHECK(!waited_,
               "PendingExchange::wait: already completed (the post/wait "
               "contract is exactly one wait per post)");
  waited_ = true;
  if (comm_ == nullptr) return;  // default-constructed or moved-from
  const double window = timer_.seconds();
  comm_->record_exchange(*msgs_, device::Xfer::Halo, &window);
}

template <class Scalar>
void PendingReduce<Scalar>::wait() {
  FROSCH_CHECK(!waited_,
               "PendingReduce::wait: already completed (the post/wait "
               "contract is exactly one wait per post)");
  waited_ = true;
  if (comm_ == nullptr) return;  // default-constructed or moved-from
  for (size_t j = 0; j < result_.size(); ++j) out_[j] = result_[j];
  const double window = timer_.seconds();
  comm_->record_collective(payload_, payload_, &window);
}

/// The one-rank communicator: the shared-memory path seen through the comm
/// interface.  Collectives still count (the profile stays comparable across
/// rank counts); point-to-point traffic cannot exist and records nothing.
class SelfComm final : public Communicator {
 public:
  explicit SelfComm(exec::ExecPolicy policy = {}) : Communicator(1, policy) {}
  const char* name() const override { return "self"; }
};

/// P in-process virtual ranks on the exec thread pool.
class SimComm final : public Communicator {
 public:
  explicit SimComm(int nranks, exec::ExecPolicy policy = {})
      : Communicator(nranks, policy) {
    FROSCH_CHECK(nranks >= 1, "SimComm: need at least one rank");
  }
  const char* name() const override { return "sim"; }
};

/// Subset-scoped communicator (the coarse-hierarchy comm): S member ranks
/// of a parent communicator seen as local ranks 0..S-1.  Nothing is
/// recorded here -- every profile access and every device transfer is
/// redirected to the parent at the member world ranks, so per-rank
/// attribution survives arbitrary nesting.  Collectives record
/// subset-reduction events (sub_reductions / sub_red_log2) instead of
/// full-fabric reductions: the perf model prices them over log2(S), not
/// log2(P) (DESIGN.md section 10).  Created via Communicator::split.
class SubComm final : public Communicator {
 public:
  SubComm(Communicator& parent, std::vector<int> members)
      : Communicator(static_cast<int>(members.size()), parent.policy()),
        parent_(&parent),
        members_(std::move(members)),
        red_log2_(std::log2(static_cast<double>(members_.size()))) {
    FROSCH_CHECK(!members_.empty(), "SubComm: need at least one member");
    for (size_t i = 0; i < members_.size(); ++i) {
      FROSCH_CHECK(members_[i] >= 0 && members_[i] < parent_->size(),
                   "SubComm: member rank out of parent range");
      FROSCH_CHECK(i == 0 || members_[i] > members_[i - 1],
                   "SubComm: member ranks must be strictly increasing");
    }
  }
  const char* name() const override { return "sub"; }

  OpProfile& prof(int r) override {
    return parent_->prof(members_[static_cast<size_t>(r)]);
  }
  const OpProfile& prof(int r) const override {
    return parent_->prof(members_[static_cast<size_t>(r)]);
  }
  int world_rank(int r) const override {
    return parent_->world_rank(members_[static_cast<size_t>(r)]);
  }
  const std::vector<int>& members() const { return members_; }

 protected:
  /// Subset reductions carry no ov_ count: ov_reductions is a subset of
  /// the full-fabric `reductions`, which a subset event never touches.
  /// An async subset collective is still marked by its ov_msg_bytes and
  /// its measured window.
  void count_collective(OpProfile& p, bool /*async*/) override {
    p.sub_reductions += 1;
    p.sub_red_log2 += red_log2_;
  }

 private:
  Communicator* parent_;
  std::vector<int> members_;
  double red_log2_;
};

inline std::unique_ptr<Communicator> Communicator::split(
    std::vector<int> members) {
  return std::make_unique<SubComm>(*this, std::move(members));
}

}  // namespace frosch::comm
