// Tests for the virtual distributed-memory runtime (src/comm + la/dist):
// OpProfile arithmetic, deterministic collectives and their measured
// recording, HaloPlan construction on known decompositions, and the
// determinism contract of the rank-sharded numeric stack -- SpMV, dot
// products, and whole GMRES solves bitwise identical to the shared-memory
// path at every (ranks, threads) combination, with the single-reduce
// variant recording exactly one measured all-reduce per iteration.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>

#include "comm/comm.hpp"
#include "krylov/operator.hpp"
#include "la/block.hpp"
#include "la/dist.hpp"
#include "la/vector_ops.hpp"
#include "solver/solver.hpp"
#include "support/matrices.hpp"
#include "support/problems.hpp"

namespace frosch {
namespace {

using test::laplace2d;
using test::random_vector;
using test::tridiag;

// ---------------------------------------------------------------------------
// OpProfile arithmetic (the perf model's input type).

TEST(OpProfileArithmetic, PlusAccumulatesEveryField) {
  OpProfile a, b;
  a.flops = 10.0; a.bytes = 20.0; a.launches = 3; a.critical_path = 2;
  a.work_items = 30.0; a.reductions = 1; a.neighbor_msgs = 4; a.msg_bytes = 64.0;
  a.ov_reductions = 1; a.ov_neighbor_msgs = 2; a.ov_msg_bytes = 32.0;
  a.overlap_windows = 1; a.overlap_s = 0.5;
  b.flops = 1.0; b.bytes = 2.0; b.launches = 1; b.critical_path = 1;
  b.work_items = 3.0; b.reductions = 2; b.neighbor_msgs = 1; b.msg_bytes = 8.0;
  b.ov_reductions = 2; b.ov_neighbor_msgs = 1; b.ov_msg_bytes = 8.0;
  b.overlap_windows = 2; b.overlap_s = 0.25;
  const OpProfile s = a + b;
  EXPECT_EQ(s.flops, 11.0);
  EXPECT_EQ(s.bytes, 22.0);
  EXPECT_EQ(s.launches, 4);
  EXPECT_EQ(s.critical_path, 3);
  EXPECT_EQ(s.work_items, 33.0);
  EXPECT_EQ(s.reductions, 3);
  EXPECT_EQ(s.neighbor_msgs, 5);
  EXPECT_EQ(s.msg_bytes, 72.0);
  EXPECT_EQ(s.ov_reductions, 3);
  EXPECT_EQ(s.ov_neighbor_msgs, 3);
  EXPECT_EQ(s.ov_msg_bytes, 40.0);
  EXPECT_EQ(s.overlap_windows, 3);
  EXPECT_EQ(s.overlap_s, 0.75);
}

TEST(OpProfileArithmetic, MinusClampsEveryFieldAtZero) {
  OpProfile a, b;
  a.flops = 5.0; a.launches = 2; a.reductions = 1; a.msg_bytes = 16.0;
  a.ov_reductions = 1; a.ov_msg_bytes = 4.0; a.overlap_s = 0.1;
  b.flops = 10.0; b.launches = 5; b.reductions = 3; b.msg_bytes = 32.0;
  b.bytes = 1.0; b.critical_path = 1; b.work_items = 1.0; b.neighbor_msgs = 1;
  b.ov_reductions = 2; b.ov_neighbor_msgs = 1; b.ov_msg_bytes = 8.0;
  b.overlap_windows = 1; b.overlap_s = 0.2;
  a -= b;
  EXPECT_EQ(a.flops, 0.0);
  EXPECT_EQ(a.bytes, 0.0);
  EXPECT_EQ(a.launches, 0);
  EXPECT_EQ(a.critical_path, 0);
  EXPECT_EQ(a.work_items, 0.0);
  EXPECT_EQ(a.reductions, 0);
  EXPECT_EQ(a.neighbor_msgs, 0);
  EXPECT_EQ(a.msg_bytes, 0.0);
  EXPECT_EQ(a.ov_reductions, 0);
  EXPECT_EQ(a.ov_neighbor_msgs, 0);
  EXPECT_EQ(a.ov_msg_bytes, 0.0);
  EXPECT_EQ(a.overlap_windows, 0);
  EXPECT_EQ(a.overlap_s, 0.0);
}

TEST(OpProfileArithmetic, MinusSubtractsContainedContribution) {
  OpProfile a, b;
  a.flops = 10.0; a.reductions = 5; a.neighbor_msgs = 7; a.msg_bytes = 100.0;
  a.ov_reductions = 4; a.ov_neighbor_msgs = 5; a.ov_msg_bytes = 80.0;
  a.overlap_windows = 3; a.overlap_s = 1.0;
  b.flops = 4.0; b.reductions = 2; b.neighbor_msgs = 3; b.msg_bytes = 60.0;
  b.ov_reductions = 1; b.ov_neighbor_msgs = 2; b.ov_msg_bytes = 30.0;
  b.overlap_windows = 1; b.overlap_s = 0.25;
  a -= b;
  EXPECT_EQ(a.flops, 6.0);
  EXPECT_EQ(a.reductions, 3);
  EXPECT_EQ(a.neighbor_msgs, 4);
  EXPECT_EQ(a.msg_bytes, 40.0);
  EXPECT_EQ(a.ov_reductions, 3);
  EXPECT_EQ(a.ov_neighbor_msgs, 3);
  EXPECT_EQ(a.ov_msg_bytes, 50.0);
  EXPECT_EQ(a.overlap_windows, 2);
  EXPECT_EQ(a.overlap_s, 0.75);
}

TEST(OpProfileArithmetic, MeanWidthIsZeroWithoutLaunches) {
  OpProfile p;
  p.work_items = 100.0;
  EXPECT_EQ(p.mean_width(), 0.0);  // no division by zero
  p.launches = 4;
  EXPECT_EQ(p.mean_width(), 25.0);
}

// ---------------------------------------------------------------------------
// Communicator basics.

TEST(Communicator, SelfCommIsOneRank) {
  comm::SelfComm c;
  EXPECT_EQ(c.size(), 1);
  EXPECT_STREQ(c.name(), "self");
  EXPECT_EQ(c.rank_profiles().size(), 1u);
}

TEST(Communicator, SimCommAllreduceCombinesInRankOrder) {
  comm::SimComm c(3);
  EXPECT_STREQ(c.name(), "sim");
  std::vector<std::vector<double>> contrib = {{1.0, 10.0}, {2.0, 20.0},
                                              {3.0, 30.0}};
  std::vector<double> out;
  c.allreduce(contrib, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], (1.0 + 2.0) + 3.0);
  EXPECT_EQ(out[1], (10.0 + 20.0) + 30.0);
  // One measured reduction on EVERY rank, payload = 2 fused doubles.
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(c.prof(r).reductions, 1);
    EXPECT_EQ(c.prof(r).msg_bytes, 2.0 * sizeof(double));
  }
}

TEST(Communicator, AllreduceSlotsFoldsInSlotOrder) {
  comm::SimComm c(2);
  // 3 slots x 2 fused values, row-major.
  const double slots[6] = {1.0, -1.0, 2.0, -2.0, 3.0, -3.0};
  double out[2];
  c.allreduce_slots(slots, 3, 2, out);
  EXPECT_EQ(out[0], (1.0 + 2.0) + 3.0);
  EXPECT_EQ(out[1], (-1.0 + -2.0) + -3.0);
  EXPECT_EQ(c.prof(0).reductions, 1);
  EXPECT_EQ(c.prof(1).reductions, 1);
}

TEST(Communicator, SelfCommCollectivesCountButShipNothing) {
  comm::SelfComm c;
  const double slots[2] = {1.0, 2.0};
  double out;
  c.allreduce_slots(slots, 2, 1, &out);
  EXPECT_EQ(out, 3.0);
  EXPECT_EQ(c.prof(0).reductions, 1);   // the collective still counts
  EXPECT_EQ(c.prof(0).msg_bytes, 0.0);  // but one rank has no wire
}

TEST(Communicator, ExchangeCopiesAndChargesDestination) {
  comm::SimComm c(3);
  std::vector<double> buf0 = {1.0, 2.0, 3.0}, buf1(3, 0.0), buf2(3, 0.0);
  std::vector<comm::Message> msgs(2);
  msgs[0] = {0, 1, 3, 24.0};
  msgs[1] = {0, 2, 2, 16.0};
  c.exchange(msgs, [&](size_t m) {
    if (m == 0) buf1 = buf0;
    else std::copy(buf0.begin(), buf0.begin() + 2, buf2.begin());
  });
  EXPECT_EQ(buf1, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(buf2, (std::vector<double>{1.0, 2.0, 0.0}));
  // Import convention: the DESTINATION is charged, the source is not.
  EXPECT_EQ(c.prof(0).neighbor_msgs, 0);
  EXPECT_EQ(c.prof(1).neighbor_msgs, 1);
  EXPECT_EQ(c.prof(1).msg_bytes, 24.0);
  EXPECT_EQ(c.prof(2).neighbor_msgs, 1);
  EXPECT_EQ(c.prof(2).msg_bytes, 16.0);
}

TEST(Communicator, SelfMessagesAreLocalCopiesNotCommunication) {
  comm::SimComm c(2);
  std::vector<comm::Message> msgs = {{1, 1, 5, 40.0}};
  bool copied = false;
  c.exchange(msgs, [&](size_t) { copied = true; });
  EXPECT_TRUE(copied);
  EXPECT_EQ(c.prof(1).neighbor_msgs, 0);
  EXPECT_EQ(c.prof(1).msg_bytes, 0.0);
}

TEST(Communicator, GatherBroadcastRecordOneCollectiveEach) {
  comm::SimComm c(4);
  c.gather(100.0);
  c.broadcast(50.0);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(c.prof(r).reductions, 2);
    EXPECT_EQ(c.prof(r).msg_bytes, 150.0);
  }
  c.reset_profiles();
  EXPECT_EQ(c.prof(0).reductions, 0);
}

TEST(Communicator, BlockOwnerInvertsRankBlock) {
  for (int R : {1, 3, 4, 7}) {
    comm::SimComm c(R);
    for (index_t n : {1, 5, 8, 29}) {
      for (int r = 0; r < R; ++r) {
        const auto [b, e] = c.rank_block(n, r);
        for (index_t i = b; i < e; ++i)
          EXPECT_EQ(c.block_owner(n, i), r) << "n=" << n << " R=" << R;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Nonblocking post/wait semantics: copies and folds happen at POST (bitwise
// identity with the blocking path), wire charging plus the measured overlap
// window at WAIT, recorded in both the normal fields and their ov_ twins.

TEST(AsyncExchange, ChargesDestinationAndOvTwinsAtWait) {
  comm::SimComm c(3);
  std::vector<double> buf0 = {1.0, 2.0, 3.0}, buf1(3, 0.0), buf2(3, 0.0);
  std::vector<comm::Message> msgs(2);
  msgs[0] = {0, 1, 3, 24.0};
  msgs[1] = {0, 2, 2, 16.0};
  auto pending = c.exchange_async(msgs, [&](size_t m) {
    if (m == 0) buf1 = buf0;
    else std::copy(buf0.begin(), buf0.begin() + 2, buf2.begin());
  });
  // The copies happened at post -- the window is open, nothing is charged
  // yet, and the caller may compute on anything but the destinations.
  EXPECT_EQ(buf1, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(buf2, (std::vector<double>{1.0, 2.0, 0.0}));
  EXPECT_EQ(c.prof(1).neighbor_msgs, 0);
  EXPECT_FALSE(pending.done());
  pending.wait();
  EXPECT_TRUE(pending.done());
  // Import convention as in the blocking path: the DESTINATION is charged,
  // in the normal fields AND the async ov_ twins, with exactly one measured
  // window per destination rank that had remote traffic.
  EXPECT_EQ(c.prof(0).neighbor_msgs, 0);
  EXPECT_EQ(c.prof(0).overlap_windows, 0);
  EXPECT_EQ(c.prof(1).neighbor_msgs, 1);
  EXPECT_EQ(c.prof(1).msg_bytes, 24.0);
  EXPECT_EQ(c.prof(1).ov_neighbor_msgs, 1);
  EXPECT_EQ(c.prof(1).ov_msg_bytes, 24.0);
  EXPECT_EQ(c.prof(1).overlap_windows, 1);
  EXPECT_GE(c.prof(1).overlap_s, 0.0);
  EXPECT_EQ(c.prof(2).neighbor_msgs, 1);
  EXPECT_EQ(c.prof(2).msg_bytes, 16.0);
  EXPECT_EQ(c.prof(2).ov_neighbor_msgs, 1);
  EXPECT_EQ(c.prof(2).ov_msg_bytes, 16.0);
  EXPECT_EQ(c.prof(2).overlap_windows, 1);
}

TEST(AsyncExchange, OneWindowPerDestinationNotPerMessage) {
  comm::SimComm c(2);
  // Two messages into the SAME destination: one wire event window.
  std::vector<comm::Message> msgs = {{0, 1, 1, 8.0}, {0, 1, 2, 16.0}};
  auto pending = c.exchange_async(msgs, [](size_t) {});
  pending.wait();
  EXPECT_EQ(c.prof(1).neighbor_msgs, 2);
  EXPECT_EQ(c.prof(1).ov_neighbor_msgs, 2);
  EXPECT_EQ(c.prof(1).msg_bytes, 24.0);
  EXPECT_EQ(c.prof(1).overlap_windows, 1);
}

TEST(AsyncExchange, AllSelfMessagesCompleteInlineChargingNothing) {
  comm::SimComm c(2);
  std::vector<comm::Message> msgs = {{1, 1, 5, 40.0}};
  bool copied = false;
  auto pending = c.exchange_async(msgs, [&](size_t) { copied = true; });
  EXPECT_TRUE(copied);  // the copy ran at post
  pending.wait();
  // Self-messages are local copies: no wire event, no window, no ov_ share.
  EXPECT_EQ(c.prof(1).neighbor_msgs, 0);
  EXPECT_EQ(c.prof(1).msg_bytes, 0.0);
  EXPECT_EQ(c.prof(1).ov_neighbor_msgs, 0);
  EXPECT_EQ(c.prof(1).ov_msg_bytes, 0.0);
  EXPECT_EQ(c.prof(1).overlap_windows, 0);
  EXPECT_EQ(c.prof(1).overlap_s, 0.0);
}

TEST(AsyncExchange, WaitIsExactlyOnce) {
  comm::SimComm c(2);
  std::vector<comm::Message> msgs = {{0, 1, 1, 8.0}};
  auto pending = c.post_async(msgs);
  pending.wait();
  EXPECT_THROW(pending.wait(), Error);
  // A default-constructed handle is inert: its one wait is a no-op.
  comm::PendingExchange idle;
  idle.wait();
  EXPECT_THROW(idle.wait(), Error);
}

TEST(AsyncExchange, MovedFromHandleIsInert) {
  comm::SimComm c(2);
  std::vector<comm::Message> msgs = {{0, 1, 1, 8.0}};
  auto pending = c.post_async(msgs);
  comm::PendingExchange taken = std::move(pending);
  EXPECT_TRUE(pending.done());             // moved-from: already "completed"
  EXPECT_THROW(pending.wait(), Error);     // ... so a second wait still throws
  taken.wait();                            // the charge moved with the handle
  EXPECT_EQ(c.prof(1).neighbor_msgs, 1);
  EXPECT_EQ(c.prof(1).ov_neighbor_msgs, 1);
}

TEST(AsyncReduce, MatchesBlockingBitwiseAndChargesOvTwins) {
  // Same fold as AllreduceSlotsFoldsInSlotOrder, through the async path.
  comm::SimComm blocking(2), async(2);
  const double slots[6] = {1.0, -1.0, 2.0, -2.0, 3.0, -3.0};
  double out_b[2], out_a[2];
  blocking.allreduce_slots(slots, 3, 2, out_b);
  auto pending = async.allreduce_slots_async(slots, 3, 2, out_a);
  pending.wait();
  EXPECT_EQ(std::memcmp(out_a, out_b, sizeof(out_a)), 0);
  for (int r = 0; r < 2; ++r) {
    // One reduction in the totals AND the ov_ twin; payload on the wire,
    // one measured window per rank (collectives are bulk-synchronous).
    EXPECT_EQ(async.prof(r).reductions, 1);
    EXPECT_EQ(async.prof(r).ov_reductions, 1);
    EXPECT_EQ(async.prof(r).msg_bytes, 2.0 * sizeof(double));
    EXPECT_EQ(async.prof(r).ov_msg_bytes, 2.0 * sizeof(double));
    EXPECT_EQ(async.prof(r).overlap_windows, 1);
    EXPECT_GE(async.prof(r).overlap_s, 0.0);
    // The blocking path records no async share.
    EXPECT_EQ(blocking.prof(r).ov_reductions, 0);
    EXPECT_EQ(blocking.prof(r).overlap_windows, 0);
  }
}

TEST(AsyncReduce, FoldHappensAtPostSoLaterSlotWritesCannotChangeIt) {
  comm::SimComm c(2);
  double slots[4] = {1.0, 10.0, 2.0, 20.0};
  double out[2] = {0.0, 0.0};
  auto pending = c.allreduce_slots_async(slots, 2, 2, out);
  slots[0] = 1e9;  // the overlapped compute may reuse the slot buffer
  slots[3] = -1e9;
  EXPECT_EQ(out[0], 0.0);  // nothing delivered before wait
  pending.wait();
  EXPECT_EQ(out[0], 3.0);
  EXPECT_EQ(out[1], 30.0);
  EXPECT_THROW(pending.wait(), Error);  // exactly one wait per post
}

TEST(AsyncReduce, SelfCommCountsTheReductionButShipsNothing) {
  comm::SelfComm c;
  const double slots[2] = {1.0, 2.0};
  double out;
  auto pending = c.allreduce_slots_async(slots, 2, 1, &out);
  pending.wait();
  EXPECT_EQ(out, 3.0);
  // The posted collective counts on one rank -- in the total AND the ov_
  // twin, keeping per-iteration pins rank-count independent -- but with no
  // wire there is no payload and no overlap window.
  EXPECT_EQ(c.prof(0).reductions, 1);
  EXPECT_EQ(c.prof(0).ov_reductions, 1);
  EXPECT_EQ(c.prof(0).msg_bytes, 0.0);
  EXPECT_EQ(c.prof(0).ov_msg_bytes, 0.0);
  EXPECT_EQ(c.prof(0).overlap_windows, 0);
  EXPECT_EQ(c.prof(0).overlap_s, 0.0);
}

TEST(AsyncReduce, BitwiseVsBlockingAcrossRanksAndThreads) {
  // The async fold is the same slot-order fold as the blocking one at every
  // (ranks, threads): P and T only change who measures, never the bits.
  const index_t nslots = 37;
  const int k = 3;
  std::vector<double> slots(static_cast<size_t>(nslots) * k);
  for (size_t i = 0; i < slots.size(); ++i)
    slots[i] = std::sin(0.37 * static_cast<double>(i + 1)) * 1e3;
  std::vector<double> ref(k);
  {
    comm::SelfComm c;
    c.allreduce_slots(slots.data(), nslots, k, ref.data());
  }
  for (int R : {1, 4, 8}) {
    for (int T : {1, 4}) {
      comm::SimComm c(R, exec::ExecPolicy::with_threads(T));
      std::vector<double> out(k);
      auto pending =
          c.allreduce_slots_async(slots.data(), nslots, k, out.data());
      pending.wait();
      EXPECT_EQ(std::memcmp(out.data(), ref.data(), k * sizeof(double)), 0)
          << "R=" << R << " T=" << T;
    }
  }
}

// ---------------------------------------------------------------------------
// HaloPlan construction.

TEST(HaloPlan, OneDTwoRankPlanIsExact) {
  auto A = tridiag(6);
  const IndexVector rank_of = {0, 0, 0, 1, 1, 1};
  const auto plan = la::build_halo_plan(A, rank_of, 2);
  EXPECT_EQ(plan.nranks, 2);
  EXPECT_EQ(plan.n, 6);
  EXPECT_EQ(plan.owned[0], (IndexVector{0, 1, 2}));
  EXPECT_EQ(plan.owned[1], (IndexVector{3, 4, 5}));
  // Ghosts: rank 0 reads column 3 (row 2), rank 1 reads column 2 (row 3);
  // local column maps stay sorted by GLOBAL id.
  EXPECT_EQ(plan.cols[0], (IndexVector{0, 1, 2, 3}));
  EXPECT_EQ(plan.cols[1], (IndexVector{2, 3, 4, 5}));
  EXPECT_EQ(plan.owned_slot[0], (IndexVector{0, 1, 2}));
  EXPECT_EQ(plan.owned_slot[1], (IndexVector{1, 2, 3}));
  ASSERT_EQ(plan.transfers.size(), 2u);
  const auto& t0 = plan.transfers[0];  // (dst, src) order: dst 0 first
  EXPECT_EQ(t0.src, 1);
  EXPECT_EQ(t0.dst, 0);
  EXPECT_EQ(t0.ids, (IndexVector{3}));
  EXPECT_EQ(t0.src_slots, (IndexVector{1}));
  EXPECT_EQ(t0.dst_slots, (IndexVector{3}));
  const auto& t1 = plan.transfers[1];
  EXPECT_EQ(t1.src, 0);
  EXPECT_EQ(t1.dst, 1);
  EXPECT_EQ(t1.ids, (IndexVector{2}));
  EXPECT_EQ(t1.src_slots, (IndexVector{2}));
  EXPECT_EQ(t1.dst_slots, (IndexVector{0}));
  // Measured payload: one scalar per transferred id.
  const auto msgs = plan.messages(sizeof(double));
  ASSERT_EQ(msgs.size(), 2u);
  EXPECT_EQ(msgs[0].count, 1);
  EXPECT_EQ(msgs[0].bytes, 1.0 * sizeof(double));
}

TEST(HaloPlan, Box221LaplaceDecomposition) {
  // 2x2x1 box decomposition of the 4^3 Laplace problem: 4 ranks, undivided
  // z axis; every rank borders the other three (edge-adjacent boxes share
  // matrix entries through the 27-point brick stencil).
  auto p = test::laplace_problem(4, 2, 2, 1);
  ASSERT_EQ(p.num_parts, 4);
  const index_t n = p.A.num_rows();
  const auto plan = la::build_halo_plan(p.A, p.owner, 4);

  // Ownership partitions [0, n).
  index_t owned_total = 0;
  for (int r = 0; r < 4; ++r) {
    owned_total += plan.owned_count(r);
    for (index_t i : plan.owned[r]) EXPECT_EQ(p.owner[i], r);
    EXPECT_TRUE(std::is_sorted(plan.cols[r].begin(), plan.cols[r].end()));
    // Owned slots point at the owned ids inside the merged column map.
    for (size_t q = 0; q < plan.owned[r].size(); ++q)
      EXPECT_EQ(plan.cols[r][plan.owned_slot[r][q]], plan.owned[r][q]);
    EXPECT_GT(plan.ghost_count(r), 0);
  }
  EXPECT_EQ(owned_total, n);

  // All 4*3 ordered rank pairs exchange (the 2x2 boxes all touch).
  EXPECT_EQ(plan.transfers.size(), 12u);
  for (const auto& t : plan.transfers) {
    EXPECT_NE(t.src, t.dst);
    EXPECT_FALSE(t.ids.empty());
    for (index_t g : t.ids) EXPECT_EQ(p.owner[g], t.src);
    // Every transferred id is exactly the ghost the destination's rows
    // reference: present in dst's column map but not owned there.
    for (size_t q = 0; q < t.ids.size(); ++q)
      EXPECT_EQ(plan.cols[t.dst][t.dst_slots[q]], t.ids[q]);
  }
}

// ---------------------------------------------------------------------------
// Distributed kernels: bitwise equivalence with the shared-memory path at
// every (ranks, threads) combination -- the determinism contract.

IndexVector block_ranks(index_t n, int R) {
  comm::SimComm c(R);
  IndexVector rank_of(static_cast<size_t>(n));
  for (index_t i = 0; i < n; ++i) rank_of[i] = c.block_owner(n, i);
  return rank_of;
}

IndexVector scattered_ranks(index_t n, int R) {
  IndexVector rank_of(static_cast<size_t>(n));
  for (index_t i = 0; i < n; ++i) rank_of[i] = i % R;  // worst-case layout
  return rank_of;
}

TEST(DistKernels, SpmvBitwiseAcrossRanksAndThreads) {
  auto A = laplace2d(40, 35);  // n = 1400: several chunks, several ranks
  const index_t n = A.num_rows();
  const auto x = random_vector(n, 123);
  std::vector<double> y_ref;
  la::spmv(A, x, y_ref);
  for (int R : {1, 4, 8}) {
    for (int T : {1, 4}) {
      for (bool scattered : {false, true}) {
        const auto rank_of =
            scattered ? scattered_ranks(n, R) : block_ranks(n, R);
        comm::SimComm comm(R, exec::ExecPolicy::with_threads(T));
        const auto plan = la::build_halo_plan(A, rank_of, R);
        la::DistCsrMatrix<double> Ad(A, plan);
        krylov::DistCsrOperator<double> op(Ad, comm,
                                           exec::ExecPolicy::with_threads(T));
        std::vector<double> y(x.size());
        OpProfile prof;
        op.apply(x, y, &prof);
        ASSERT_EQ(y.size(), y_ref.size());
        EXPECT_EQ(std::memcmp(y.data(), y_ref.data(), n * sizeof(double)), 0)
            << "R=" << R << " T=" << T << " scattered=" << scattered;
        // The ghost import is measured: remote ranks exchange real payload.
        if (R > 1) {
          count_t msgs = 0;
          for (const auto& p : comm.rank_profiles()) msgs += p.neighbor_msgs;
          EXPECT_GT(msgs, 0) << "R=" << R;
        }
        EXPECT_EQ(prof.flops, 2.0 * static_cast<double>(A.num_entries()));
      }
    }
  }
}

TEST(DistKernels, DotAndMultiDotBitwiseAcrossRanksAndThreads) {
  const index_t n = 5000;  // several reduction chunks
  const auto x = random_vector(n, 1);
  const auto y = random_vector(n, 2);
  std::vector<std::vector<double>> vs = {random_vector(n, 3),
                                         random_vector(n, 4),
                                         random_vector(n, 5)};
  const double dref = la::dot(x, y);
  // A multi-dot group: every vs[j] against x in one fused reduction.
  std::vector<la::DotJob<double>> jobs;
  for (const auto& v : vs) jobs.push_back({&v, &x});
  std::vector<double> mref;
  la::dist_fused_dots(la::DistContext{}, jobs, mref);
  auto A = tridiag(n);  // ownership carrier for the plan
  for (int R : {1, 4, 8}) {
    for (int T : {1, 4}) {
      comm::SimComm comm(R, exec::ExecPolicy::with_threads(T));
      const auto plan = la::build_halo_plan(A, scattered_ranks(n, R), R);
      la::DistContext dc{&comm, &plan};
      const auto policy = exec::ExecPolicy::with_threads(T);
      OpProfile prof;
      const double d = la::dist_dot(dc, x, y, &prof, policy);
      EXPECT_EQ(d, dref) << "R=" << R << " T=" << T;
      std::vector<double> m;
      la::dist_fused_dots(dc, jobs, m, &prof, policy);
      ASSERT_EQ(m.size(), mref.size());
      for (size_t j = 0; j < m.size(); ++j) EXPECT_EQ(m[j], mref[j]);
      EXPECT_EQ(la::dist_norm2(dc, x, &prof, policy), la::norm2(x));
      // dot + multi-dot group + norm: three measured all-reduces on every rank.
      for (int r = 0; r < R; ++r)
        EXPECT_EQ(comm.prof(r).reductions, 3) << "R=" << R;
      // Attribution covers the whole vector: per-rank flop shares sum to
      // the aggregate count.
      double fsum = 0.0;
      for (int r = 0; r < R; ++r) fsum += comm.prof(r).flops;
      EXPECT_DOUBLE_EQ(fsum, prof.flops);
    }
  }
}

TEST(DistKernels, FusedDotChargesMatchDotMultiDotAndBlockCgForms) {
  // A fused batch charges 2K flops per element and K + (distinct y) vectors
  // of traffic, in aggregate and per rank by ownership -- exactly what a
  // dist_dot (2 vectors), a k-vector multi-dot against one vector (k + 1)
  // and block CG's K independent pairs (2K) charge.
  const index_t n = 5000;
  auto A = tridiag(n);
  const int R = 4;
  const auto plan = la::build_halo_plan(A, scattered_ranks(n, R), R);
  std::vector<std::vector<double>> v;
  for (unsigned s = 1; s <= 7; ++s) v.push_back(random_vector(n, s));
  using Jobs = std::vector<la::DotJob<double>>;
  const std::pair<Jobs, double> shapes[] = {
      {{{&v[0], &v[1]}}, 2.0},                                  // dist_dot
      {{{&v[0], &v[3]}, {&v[1], &v[3]}, {&v[2], &v[3]}}, 4.0},  // multi-dot
      {{{&v[0], &v[3]}, {&v[1], &v[3]}, {&v[3], &v[3]}}, 4.0},  // + w^T w
      {{{&v[0], &v[1]}, {&v[2], &v[3]}, {&v[4], &v[5]}}, 6.0},  // block CG
  };
  for (const auto& [jobs, vecs] : shapes) {
    comm::SimComm comm(R);
    la::DistContext dc{&comm, &plan};
    OpProfile prof;
    std::vector<double> out;
    la::dist_fused_dots(dc, jobs, out, &prof);
    const std::string what = "K=" + std::to_string(jobs.size());
    EXPECT_EQ(prof.bytes, vecs * n * sizeof(double)) << what;
    EXPECT_EQ(prof.flops, 2.0 * static_cast<double>(jobs.size()) * n) << what;
    EXPECT_EQ(prof.reductions, 1) << what;
    for (int r = 0; r < R; ++r)
      EXPECT_EQ(comm.prof(r).bytes,
                vecs * static_cast<double>(plan.owned_count(r)) *
                    sizeof(double))
          << what << " rank " << r;
  }
}

// ---------------------------------------------------------------------------
// Whole-solver determinism: the facade (rank-sharded operator, measured
// reductions, Schwarz overlap halos) against the hand-wired shared-memory
// path, bitwise, at ranks {1, 4, 8} x threads {1, 4}.

struct Trajectory {
  index_t iterations = 0;
  std::vector<double> history;
  std::vector<double> x;
};

Trajectory reference_run(const test::MeshProblem& p, SolverConfig cfg) {
  auto decomp =
      dd::build_decomposition(p.A, p.owner, p.num_parts, cfg.schwarz.overlap);
  comm::SimComm comm(decomp.num_parts, cfg.schwarz.exec);
  cfg.schwarz.comm = &comm;
  dd::SchwarzPreconditioner<double> prec(cfg.schwarz, decomp);
  prec.symbolic_setup(p.A);
  prec.numeric_setup(p.A, p.Z);
  krylov::CsrOperator<double> op(p.A);
  std::vector<double> b(static_cast<size_t>(p.A.num_rows()), 1.0);
  Trajectory t;
  auto res = krylov::gmres<double>(op, &prec, b, t.x,
                                   cfg.krylov.gmres_options());
  t.iterations = res.iterations;
  t.history = std::move(res.residual_history);
  return t;
}

Trajectory facade_run(const test::MeshProblem& p, SolverConfig cfg,
                      index_t ranks, index_t threads) {
  cfg.ranks = ranks;
  cfg.threads = threads;
  Solver solver(cfg);
  solver.setup(p.A, p.Z, p.owner, p.num_parts);
  std::vector<double> b(static_cast<size_t>(p.A.num_rows()), 1.0);
  Trajectory t;
  auto rep = solver.solve(b, t.x);
  EXPECT_EQ(rep.ranks, ranks == 0 ? p.num_parts : ranks);
  t.iterations = rep.iterations;
  t.history = std::move(rep.residual_history);
  return t;
}

void expect_bitwise_equal(const Trajectory& got, const Trajectory& ref,
                          const std::string& what) {
  EXPECT_EQ(got.iterations, ref.iterations) << what;
  ASSERT_EQ(got.history.size(), ref.history.size()) << what;
  for (size_t i = 0; i < ref.history.size(); ++i)
    EXPECT_EQ(got.history[i], ref.history[i]) << what << " history[" << i << "]";
  ASSERT_EQ(got.x.size(), ref.x.size()) << what;
  EXPECT_EQ(std::memcmp(got.x.data(), ref.x.data(),
                        ref.x.size() * sizeof(double)),
            0)
      << what;
}

TEST(DistGmres, Laplace16BitwiseAcrossRanksAndThreads) {
  auto p = test::laplace_problem(16, 2, 2, 2);
  SolverConfig cfg;  // paper defaults: two-level rGDSW, single-reduce GMRES
  const Trajectory ref = reference_run(p, cfg);
  EXPECT_GT(ref.iterations, 0);
  for (index_t R : {1, 4, 8}) {
    for (index_t T : {1, 4}) {
      const Trajectory got = facade_run(p, cfg, R, T);
      expect_bitwise_equal(got, ref,
                           "laplace16 ranks=" + std::to_string(R) +
                               " threads=" + std::to_string(T));
    }
  }
}

TEST(DistGmres, Elasticity16BitwiseAcrossRanksAndThreads) {
  auto p = test::elasticity_problem(16, 2, 2, 2);
  SolverConfig cfg;
  cfg.schwarz.subdomain.dof_block_size = 3;
  cfg.schwarz.extension.dof_block_size = 3;
  // Fixed-length trajectories: determinism needs identical ITERATES, not
  // convergence, and 12 iterations keep the 14k-dof problem fast.
  cfg.krylov.max_iters = 12;
  cfg.krylov.tol = 1e-30;
  const Trajectory ref = reference_run(p, cfg);
  EXPECT_EQ(ref.iterations, 12);
  for (index_t R : {1, 4, 8}) {
    for (index_t T : {1, 4}) {
      const Trajectory got = facade_run(p, cfg, R, T);
      expect_bitwise_equal(got, ref,
                           "elasticity16 ranks=" + std::to_string(R) +
                               " threads=" + std::to_string(T));
    }
  }
}

// ---------------------------------------------------------------------------
// Measured collective counts and the per-rank report.

/// GMRES-side measured all-reduce count of a solve: every rank's total
/// minus the coarse problem's gather+broadcast pair per application (also
/// measured; the preconditioner keeps convergence fast enough that the
/// single-reduce cancellation safeguard never fires).
count_t gmres_side_reductions(const SolveReport& rep, size_t r) {
  return rep.rank_krylov[r].reductions - 2 * rep.schwarz.apply_count;
}

TEST(DistGmres, SingleReduceRecordsExactlyOneAllreducePerIteration) {
  auto p = test::laplace_problem(16, 2, 2, 2);
  SolverConfig cfg;
  cfg.ranks = 4;
  cfg.krylov.ortho = krylov::OrthoKind::SingleReduce;
  // Fixed 15-iteration trajectory: while the residual is actively falling
  // the Pythagorean norm estimate is healthy, so the "twice is enough"
  // cancellation safeguard (which adds a second, equally measured
  // all-reduce) never fires -- the count is exact.
  cfg.krylov.max_iters = 15;
  cfg.krylov.tol = 1e-30;
  Solver solver(cfg);
  solver.setup(p.A, p.Z, p.owner, p.num_parts);
  std::vector<double> b(static_cast<size_t>(p.A.num_rows()), 1.0), x;
  auto rep = solver.solve(b, x);
  ASSERT_EQ(rep.iterations, 15);
  ASSERT_EQ(rep.rank_krylov.size(), 4u);
  // One fused all-reduce per iteration + the initial residual norm + the
  // end-of-cycle true-residual norm -- measured identically on EVERY rank.
  for (size_t r = 0; r < 4; ++r)
    EXPECT_EQ(gmres_side_reductions(rep, r), rep.iterations + 2);
  // ... and the measurement agrees with the aggregate call count (whose
  // coarse-collective share lives in the Schwarz profiles, not here).
  EXPECT_EQ(rep.krylov.reductions, rep.iterations + 2);
}

TEST(DistGmres, MgsRecordsManyMoreAllreducesThanSingleReduce) {
  auto p = test::laplace_problem(8, 2, 2, 1);
  SolverConfig cfg;
  cfg.ranks = 4;
  cfg.krylov.max_iters = 12;  // fixed trajectory, as above
  cfg.krylov.tol = 1e-30;
  cfg.krylov.ortho = krylov::OrthoKind::SingleReduce;
  Solver s1(cfg);
  s1.setup(p.A, p.Z, p.owner, p.num_parts);
  std::vector<double> b(static_cast<size_t>(p.A.num_rows()), 1.0), x;
  auto rep_sr = s1.solve(b, x);
  cfg.krylov.ortho = krylov::OrthoKind::MGS;
  Solver s2(cfg);
  s2.setup(p.A, p.Z, p.owner, p.num_parts);
  auto rep_mgs = s2.solve(b, x);
  ASSERT_EQ(rep_sr.iterations, 12);
  ASSERT_EQ(rep_mgs.iterations, 12);
  // MGS pays j+2 all-reduces at Arnoldi step j; single-reduce pays one.
  EXPECT_GT(gmres_side_reductions(rep_mgs, 0),
            2 * gmres_side_reductions(rep_sr, 0));
}

TEST(Report, PerRankProfilesAndImbalance) {
  auto p = test::algebraic_laplace(8, 8, 1);
  SolverConfig cfg;
  cfg.ranks = 4;  // two subdomains per virtual rank
  Solver solver(cfg);
  solver.setup(p.A, p.Z, p.decomp);
  ASSERT_NE(solver.communicator(), nullptr);
  EXPECT_EQ(solver.communicator()->size(), 4);
  std::vector<double> b(static_cast<size_t>(p.A.num_rows()), 1.0), x;
  auto rep = solver.solve(b, x);
  ASSERT_TRUE(rep.converged);
  EXPECT_EQ(rep.ranks, 4);
  ASSERT_EQ(rep.rank_krylov.size(), 4u);
  ASSERT_EQ(rep.rank_setup_comm.size(), 4u);
  EXPECT_EQ(rep.schwarz.ranks.size(), 4u);
  // Collectives are bulk-synchronous: every rank measured the same count.
  for (const auto& pr : rep.rank_krylov)
    EXPECT_EQ(pr.reductions, rep.rank_krylov[0].reductions);
  EXPECT_GT(rep.rank_krylov[0].reductions, 0);
  // Setup moved real bytes: the overlap-matrix row import.
  count_t setup_msgs = 0;
  double setup_bytes = 0.0;
  for (const auto& pr : rep.rank_setup_comm) {
    setup_msgs += pr.neighbor_msgs;
    setup_bytes += pr.msg_bytes;
  }
  EXPECT_GT(setup_msgs, 0);
  EXPECT_GT(setup_bytes, 0.0);
  // The solve's halo traffic (SpMV ghost imports + Schwarz overlap halo).
  EXPECT_GT(rep.rank_krylov[0].neighbor_msgs, 0);
  EXPECT_GE(rep.solve_imbalance, 1.0);
  // Per-rank Krylov compute shares are real and positive.
  for (const auto& pr : rep.rank_krylov) EXPECT_GT(pr.flops, 0.0);
}

// The ThreadSanitizer CI case: virtual ranks on real pool threads, small
// enough to run under TSan's ~10x slowdown (the big bitwise matrices above
// are filtered out there; see .github/workflows/ci.yml).
TEST(DistGmres, Ranks4Threads2UnderThreadPool) {
  auto p = test::laplace_problem(8, 2, 2, 2);
  SolverConfig cfg;
  cfg.krylov.max_iters = 10;
  cfg.krylov.tol = 1e-30;
  const Trajectory ref = reference_run(p, cfg);
  const Trajectory got = facade_run(p, cfg, /*ranks=*/4, /*threads=*/2);
  expect_bitwise_equal(got, ref, "ranks=4 threads=2");
}

TEST(Report, FewerRanksThanPartsIsBitwiseIdentical) {
  auto p = test::laplace_problem(8, 2, 2, 2);
  SolverConfig cfg;
  const Trajectory r1 = facade_run(p, cfg, 1, 1);
  const Trajectory r3 = facade_run(p, cfg, 3, 2);  // uneven part blocks
  const Trajectory r8 = facade_run(p, cfg, 8, 4);
  expect_bitwise_equal(r3, r1, "ranks=3 vs ranks=1");
  expect_bitwise_equal(r8, r1, "ranks=8 vs ranks=1");
}

// ---------------------------------------------------------------------------
// Batched multi-RHS (block) solves: the fused-collective contract and the
// width-1 / any-composition bitwise guarantees of krylov/block.hpp.

TEST(BlockGmres, OneAllreducePerIterationAtAnyWidth) {
  auto p = test::laplace_problem(16, 2, 2, 2);
  const index_t n = p.A.num_rows();
  // Unpreconditioned, fixed 15-iteration trajectory (as in the scalar
  // count test: an actively falling residual keeps the cancellation
  // safeguard quiet, and tol=1e-30 keeps every column active to the cap,
  // so no deflation perturbs the count).
  SolverConfig cfg;
  cfg.preconditioner = "none";
  cfg.ranks = 4;
  cfg.krylov.max_iters = 15;
  cfg.krylov.tol = 1e-30;
  for (size_t w : {size_t(1), size_t(4)}) {
    Solver solver(cfg);
    solver.setup(p.A, p.Z, p.owner, p.num_parts);
    std::vector<std::vector<double>> B(w), X;
    for (size_t c = 0; c < w; ++c) {
      B[c].resize(static_cast<size_t>(n));
      for (index_t i = 0; i < n; ++i)
        B[c][static_cast<size_t>(i)] =
            1.0 + 0.25 * static_cast<double>(c) * std::cos(0.01 * i);
    }
    auto reps = solver.solve_batch(B, X);
    ASSERT_EQ(reps.size(), w);
    for (size_t c = 0; c < w; ++c)
      ASSERT_EQ(reps[c].iterations, 15) << "width " << w << " column " << c;
    // Exactly ONE measured all-reduce per lockstep iteration -- regardless
    // of the width, every column's orthogonalization slots travel in the
    // same collective -- plus the fused initial norms and the fused
    // end-of-cycle true-residual norms.  Identical on every rank.
    ASSERT_EQ(reps[0].rank_krylov.size(), 4u);
    for (size_t r = 0; r < 4; ++r)
      EXPECT_EQ(reps[0].rank_krylov[r].reductions, count_t(15 + 2))
          << "width " << w << " rank " << r;
    EXPECT_EQ(reps[0].krylov.reductions, count_t(15 + 2)) << "width " << w;
  }
}

TEST(BlockGmres, Width1BitwiseIdenticalToScalarAcrossRanksAndThreads) {
  auto p = test::laplace_problem(16, 2, 2, 2);
  SolverConfig cfg;  // paper defaults: two-level rGDSW, single-reduce GMRES
  std::vector<double> b(static_cast<size_t>(p.A.num_rows()), 1.0);
  for (index_t R : {1, 4}) {
    for (index_t T : {1, 4}) {
      cfg.ranks = R;
      cfg.threads = T;
      Solver s1(cfg);
      s1.setup(p.A, p.Z, p.owner, p.num_parts);
      std::vector<double> x1;
      auto rep1 = s1.solve(b, x1);
      Solver s2(cfg);
      s2.setup(p.A, p.Z, p.owner, p.num_parts);
      std::vector<std::vector<double>> B{b}, X;
      auto reps = s2.solve_batch(B, X);
      ASSERT_EQ(reps.size(), 1u);
      const std::string what =
          "ranks=" + std::to_string(R) + " threads=" + std::to_string(T);
      Trajectory got{reps[0].iterations, reps[0].residual_history, X[0]};
      Trajectory ref{rep1.iterations, rep1.residual_history, x1};
      EXPECT_TRUE(reps[0].converged) << what;
      expect_bitwise_equal(got, ref, "block width 1 vs scalar, " + what);
    }
  }
}

/// FNV-1a over the bytes of a trajectory's residual history and iterate:
/// the fingerprint the golden digests below pin.
template <class Scalar>
std::uint64_t trajectory_digest(const std::vector<double>& history,
                                const std::vector<Scalar>& x) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* p, size_t bytes) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < bytes; ++i) {
      h ^= c[i];
      h *= 1099511628211ull;
    }
  };
  mix(history.data(), history.size() * sizeof(double));
  mix(x.data(), x.size() * sizeof(Scalar));
  return h;
}

// Golden trajectories recorded from the scalar GMRES/CG loops that preceded
// the single block engine: fixed-length solves (tol 1e-30, 12 iterations)
// whose iteration count and digest must never move.  The ranks-4 facade
// runs take the measured distributed reductions; the float runs cover the
// shared-memory (inactive-context) reductions and a 4-rank context.
TEST(KrylovGolden, FixedTrajectoriesMatchRecordedDigests) {
  auto p = test::laplace_problem(8, 2, 2, 1);
  const index_t n = p.A.num_rows();
  SolverConfig cfg;
  cfg.ranks = 4;
  cfg.krylov.max_iters = 12;
  cfg.krylov.tol = 1e-30;
  struct Case {
    const char* name;
    krylov::KrylovMethod method;
    krylov::OrthoKind ortho;
    index_t restart;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {"gmres-sr", krylov::KrylovMethod::Gmres,
       krylov::OrthoKind::SingleReduce, 30, 0x4d540b5412e4ad87ull},
      {"gmres-sr-restart5", krylov::KrylovMethod::Gmres,
       krylov::OrthoKind::SingleReduce, 5, 0x8c3c4dcadfd58a82ull},
      {"gmres-mgs", krylov::KrylovMethod::Gmres, krylov::OrthoKind::MGS, 30,
       0xca899e38527b39d6ull},
      {"gmres-cgs2", krylov::KrylovMethod::Gmres, krylov::OrthoKind::CGS2, 30,
       0x683d8940e2c373c4ull},
      {"gmres-mgs-restart5", krylov::KrylovMethod::Gmres,
       krylov::OrthoKind::MGS, 5, 0x97aa8d96c31b532cull},
      {"gmres-cgs2-restart5", krylov::KrylovMethod::Gmres,
       krylov::OrthoKind::CGS2, 5, 0xdc96b2295428ad84ull},
      {"cg", krylov::KrylovMethod::Cg, krylov::OrthoKind::SingleReduce, 30,
       0x13de9fd1f2cef248ull},
  };
  for (const Case& c : cases) {
    cfg.krylov.method = c.method;
    cfg.krylov.ortho = c.ortho;
    cfg.krylov.restart = c.restart;
    Solver s(cfg);
    s.setup(p.A, p.Z, p.owner, p.num_parts);
    std::vector<double> b(static_cast<size_t>(n), 1.0), x;
    auto rep = s.solve(b, x);
    EXPECT_EQ(rep.iterations, 12) << c.name;
    EXPECT_EQ(trajectory_digest(rep.residual_history, x), c.digest)
        << c.name << " digest 0x" << std::hex
        << trajectory_digest(rep.residual_history, x);
  }

  // Float GMRES, unpreconditioned: shared-memory and 4-rank contexts.
  const auto Af = p.A.convert<float>();
  krylov::CsrOperator<float> opf(Af);
  const std::vector<float> bf(static_cast<size_t>(n), 1.0f);
  comm::SimComm comm(4);
  const auto plan = la::build_halo_plan(p.A, scattered_ranks(n, 4), 4);
  const std::pair<const char*, std::uint64_t> float_cases[] = {
      {"float-gmres", 0xaf7c4af7a85b1e45ull},
      {"float-gmres-ranks4", 0xaf7c4af7a85b1e45ull}};
  for (const auto& [name, digest] : float_cases) {
    krylov::GmresOptions o;
    o.max_iters = 12;
    o.tol = 1e-30;
    if (std::string(name) == "float-gmres-ranks4")
      o.dist = la::DistContext{&comm, &plan};
    std::vector<float> x;
    auto res = krylov::gmres<float>(opf, nullptr, bf, x, o);
    EXPECT_EQ(res.iterations, 12) << name;
    EXPECT_EQ(trajectory_digest(res.residual_history, x), digest)
        << name << " digest 0x" << std::hex
        << trajectory_digest(res.residual_history, x);
  }
}

/// One batch solve of B against solo solves of each column, each on a
/// fresh identically-set-up solver: columns converging earlier DEFLATE out
/// of the lockstep, and each column still reproduces its solo trajectory
/// bit for bit -- results are independent of the batch composition.
void expect_batch_matches_solo_solves(const test::MeshProblem& p,
                                      const SolverConfig& cfg,
                                      const std::vector<std::vector<double>>& B,
                                      const std::string& what) {
  std::vector<Trajectory> refs(B.size());
  for (size_t c = 0; c < B.size(); ++c) {
    Solver s(cfg);
    s.setup(p.A, p.Z, p.owner, p.num_parts);
    auto rep = s.solve(B[c], refs[c].x);
    refs[c].iterations = rep.iterations;
    refs[c].history = rep.residual_history;
  }
  Solver sb(cfg);
  sb.setup(p.A, p.Z, p.owner, p.num_parts);
  std::vector<std::vector<double>> X;
  auto reps = sb.solve_batch(B, X);
  ASSERT_EQ(reps.size(), B.size()) << what;
  for (size_t c = 0; c < B.size(); ++c) {
    EXPECT_TRUE(reps[c].converged) << what << " column " << c;
    Trajectory got{reps[c].iterations, reps[c].residual_history, X[c]};
    expect_bitwise_equal(got, refs[c],
                         what + " batch column " + std::to_string(c) +
                             " vs solo");
  }
}

std::vector<std::vector<double>> sine_block(index_t n, size_t w) {
  std::vector<std::vector<double>> B(w);
  for (size_t c = 0; c < w; ++c) {
    B[c].resize(static_cast<size_t>(n));
    for (index_t i = 0; i < n; ++i)
      B[c][static_cast<size_t>(i)] =
          std::sin(0.1 * (i + 1) * static_cast<double>(c + 1));
  }
  return B;
}

constexpr krylov::OrthoKind kOrthoKinds[] = {krylov::OrthoKind::SingleReduce,
                                             krylov::OrthoKind::MGS,
                                             krylov::OrthoKind::CGS2};

TEST(BlockGmres, ColumnsMatchSoloSolvesAtAnyBatchComposition) {
  auto p = test::laplace_problem(16, 2, 2, 2);
  SolverConfig cfg;
  cfg.ranks = 4;
  const auto B = sine_block(p.A.num_rows(), 4);
  for (krylov::OrthoKind k : kOrthoKinds) {
    cfg.krylov.ortho = k;
    expect_batch_matches_solo_solves(p, cfg, B,
                                     std::string("ortho=") + to_string(k));
  }
}

// The ThreadSanitizer CI case of the fused block orthogonalizations: the
// per-column MGS / CGS2 / single-reduce reductions on real pool threads.
TEST(BlockGmres, OrthoCompositionRanks4Threads2UnderThreadPool) {
  auto p = test::laplace_problem(8, 2, 2, 2);
  SolverConfig cfg;
  cfg.ranks = 4;
  cfg.threads = 2;
  const auto B = sine_block(p.A.num_rows(), 3);
  for (krylov::OrthoKind k : kOrthoKinds) {
    cfg.krylov.ortho = k;
    expect_batch_matches_solo_solves(p, cfg, B,
                                     std::string("ortho=") + to_string(k));
  }
}

TEST(BlockGmres, FusedCollectivesPerLockstepIterationForEveryOrtho) {
  // Unpreconditioned fixed 12-iteration trajectories in one restart cycle,
  // so each lockstep iteration's measured all-reduces are its
  // orthogonalization's alone: 1 for single-reduce, j + 2 for MGS at step
  // j, 3 for CGS2 -- whatever the width.  Read on rank 0 at the first
  // callback of each iteration.
  auto p = test::laplace_problem(16, 2, 2, 2);
  SolverConfig cfg;
  cfg.preconditioner = "none";
  cfg.ranks = 4;
  cfg.krylov.max_iters = 12;
  cfg.krylov.tol = 1e-30;
  const Solver* live = nullptr;
  std::vector<count_t> at;  // rank-0 reductions at iteration i's first call
  cfg.krylov.on_iteration = [&](index_t it, double) {
    if (static_cast<size_t>(it) == at.size() + 1)
      at.push_back(live->communicator()->prof(0).reductions);
  };
  for (krylov::OrthoKind k : kOrthoKinds) {
    for (size_t w : {size_t(1), size_t(4)}) {
      cfg.krylov.ortho = k;
      Solver solver(cfg);
      live = &solver;
      solver.setup(p.A, p.Z, p.owner, p.num_parts);
      at.clear();
      std::vector<std::vector<double>> X;
      auto reps = solver.solve_batch(sine_block(p.A.num_rows(), w), X);
      const std::string what =
          std::string("ortho=") + to_string(k) + " width " + std::to_string(w);
      ASSERT_EQ(at.size(), 12u) << what;
      count_t sum = 1;  // the fused initial norms
      for (size_t i = 0; i < 12; ++i) {
        const count_t expected = k == krylov::OrthoKind::MGS
                                     ? static_cast<count_t>(i) + 2
                                 : k == krylov::OrthoKind::CGS2 ? 3
                                                                : 1;
        if (i > 0) {
          EXPECT_EQ(at[i] - at[i - 1], expected) << what << " step " << i;
        }
        sum += expected;
      }
      // Plus the fused end-of-cycle true-residual norms.
      EXPECT_EQ(reps[0].rank_krylov[0].reductions, sum + 1) << what;
      EXPECT_EQ(reps[0].krylov.reductions, sum + 1) << what;
    }
  }
}

TEST(BlockGmres, ColumnsMatchSoloSolvesUnderEveryExecBackend) {
  // The fused Schwarz block apply (one local block solve per part, one halo
  // set and one coarse collective pair per block) under the serial,
  // threaded and device backends: each batch column reproduces its solo
  // solve bit for bit, deflation included.
  auto p = test::elasticity_problem(6, 2, 2, 1);
  const index_t n = p.A.num_rows();
  SolverConfig cfg;
  cfg.schwarz.subdomain.dof_block_size = 3;
  cfg.schwarz.extension.dof_block_size = 3;
  cfg.ranks = 4;
  const size_t w = 3;
  std::vector<std::vector<double>> B(w);
  for (size_t c = 0; c < w; ++c) {
    B[c].resize(static_cast<size_t>(n));
    for (index_t i = 0; i < n; ++i)
      B[c][static_cast<size_t>(i)] =
          std::cos(0.07 * (i + 1) * static_cast<double>(c + 2));
  }
  for (auto mode : {ExecMode::Serial, ExecMode::Threads, ExecMode::Device}) {
    cfg.exec_mode = mode;
    cfg.threads = mode == ExecMode::Serial ? 1 : 2;
    const std::string what = std::string("exec=") + to_string(mode);
    Solver sb(cfg);
    sb.setup(p.A, p.Z, p.owner, p.num_parts);
    std::vector<std::vector<double>> X;
    auto reps = sb.solve_batch(B, X);
    ASSERT_EQ(reps.size(), w) << what;
    for (size_t c = 0; c < w; ++c) {
      Solver s(cfg);
      s.setup(p.A, p.Z, p.owner, p.num_parts);
      Trajectory ref;
      auto rep = s.solve(B[c], ref.x);
      ref.iterations = rep.iterations;
      ref.history = rep.residual_history;
      EXPECT_TRUE(reps[c].converged) << what << " column " << c;
      Trajectory got{reps[c].iterations, reps[c].residual_history, X[c]};
      expect_bitwise_equal(got, ref,
                           what + " batch column " + std::to_string(c));
    }
  }
}

// ---------------------------------------------------------------------------
// Pipelined solvers (cg-pipe / gmres-pipe): ONE async fused all-reduce per
// iteration, posted before and waited after the next operator application.
// Their recurrences differ from cg/gmres, so iteration counts are pinned
// against THEIR OWN trajectories -- bitwise identical across every (ranks,
// threads) combination, like every other solve in this suite.

Trajectory pipe_run(const test::MeshProblem& p, SolverConfig cfg,
                    index_t ranks, index_t threads,
                    SolveReport* out = nullptr) {
  cfg.ranks = ranks;
  cfg.threads = threads;
  Solver solver(cfg);
  solver.setup(p.A, p.Z, p.owner, p.num_parts);
  std::vector<double> b(static_cast<size_t>(p.A.num_rows()), 1.0);
  Trajectory t;
  auto rep = solver.solve(b, t.x);
  t.iterations = rep.iterations;
  t.history = rep.residual_history;
  if (out != nullptr) *out = rep;
  return t;
}

TEST(PipelinedSolvers, Laplace16CgPipeBitwiseAcrossRanksAndThreads) {
  auto p = test::laplace_problem(16, 2, 2, 2);
  SolverConfig cfg;
  cfg.preconditioner = "none";  // unpreconditioned SPD: cg-pipe's home turf
  cfg.krylov.method = krylov::KrylovMethod::CgPipe;
  SolveReport rep;
  const Trajectory ref = pipe_run(p, cfg, 1, 1, &rep);
  EXPECT_TRUE(rep.converged);
  EXPECT_GT(ref.iterations, 0);
  for (index_t R : {1, 4}) {
    for (index_t T : {1, 4}) {
      SolveReport r;
      const Trajectory got = pipe_run(p, cfg, R, T, &r);
      expect_bitwise_equal(got, ref,
                           "cg-pipe laplace16 ranks=" + std::to_string(R) +
                               " threads=" + std::to_string(T));
      // Exactly one POSTED fused all-reduce per pass: iterations + 1 passes
      // (the pipeline is one overlap deep, pass 0 reports no iteration) --
      // measured identically on every rank, at every rank count.
      ASSERT_EQ(r.rank_krylov.size(), static_cast<size_t>(R));
      for (index_t rr = 0; rr < R; ++rr)
        EXPECT_EQ(r.rank_krylov[static_cast<size_t>(rr)].ov_reductions,
                  static_cast<count_t>(r.iterations + 1))
            << "ranks=" << R << " rank " << rr;
    }
  }
}

TEST(PipelinedSolvers, Laplace16GmresPipeBitwiseAcrossRanksAndThreads) {
  auto p = test::laplace_problem(16, 2, 2, 2);
  SolverConfig cfg;  // two-level rGDSW Schwarz, as the paper runs GMRES
  cfg.krylov.method = krylov::KrylovMethod::GmresPipe;
  SolveReport rep;
  const Trajectory ref = pipe_run(p, cfg, 1, 1, &rep);
  EXPECT_TRUE(rep.converged);
  EXPECT_GT(ref.iterations, 0);
  // One virtual rank: the posted collectives still count (ov_reductions is
  // rank-count independent) but there is no wire and no measured window.
  ASSERT_EQ(rep.rank_overlap.size(), 1u);
  EXPECT_EQ(rep.rank_overlap[0], 0.0);
  for (index_t R : {1, 4}) {
    for (index_t T : {1, 4}) {
      SolveReport r;
      const Trajectory got = pipe_run(p, cfg, R, T, &r);
      expect_bitwise_equal(got, ref,
                           "gmres-pipe laplace16 ranks=" + std::to_string(R) +
                               " threads=" + std::to_string(T));
      // One posted reduce per pass, one pass per iteration.
      ASSERT_EQ(r.rank_krylov.size(), static_cast<size_t>(R));
      for (index_t rr = 0; rr < R; ++rr)
        EXPECT_EQ(r.rank_krylov[static_cast<size_t>(rr)].ov_reductions,
                  static_cast<count_t>(r.iterations))
            << "ranks=" << R << " rank " << rr;
      if (R > 1) {
        // Multi-rank: the post->wait windows are real measured time, and
        // the overlapped ghost imports recorded their async share.
        ASSERT_EQ(r.rank_overlap.size(), static_cast<size_t>(R));
        for (index_t rr = 0; rr < R; ++rr) {
          EXPECT_GT(r.rank_overlap[static_cast<size_t>(rr)], 0.0)
              << "ranks=" << R << " rank " << rr;
          EXPECT_GT(r.rank_krylov[static_cast<size_t>(rr)].ov_neighbor_msgs,
                    0)
              << "ranks=" << R << " rank " << rr;
        }
      }
    }
  }
}

TEST(PipelinedSolvers, Elasticity16GmresPipeFixedTrajectoryBitwise) {
  auto p = test::elasticity_problem(16, 2, 2, 2);
  SolverConfig cfg;
  cfg.schwarz.subdomain.dof_block_size = 3;
  cfg.schwarz.extension.dof_block_size = 3;
  cfg.krylov.method = krylov::KrylovMethod::GmresPipe;
  // Fixed-length trajectory, as in the non-pipelined elasticity golden.
  cfg.krylov.max_iters = 12;
  cfg.krylov.tol = 1e-30;
  SolveReport rep;
  const Trajectory ref = pipe_run(p, cfg, 1, 1, &rep);
  EXPECT_EQ(ref.iterations, 12);
  for (index_t R : {1, 4}) {
    for (index_t T : {1, 4}) {
      SolveReport r;
      const Trajectory got = pipe_run(p, cfg, R, T, &r);
      expect_bitwise_equal(got, ref,
                           "gmres-pipe elasticity16 ranks=" +
                               std::to_string(R) +
                               " threads=" + std::to_string(T));
      for (const auto& pr : r.rank_krylov)
        EXPECT_EQ(pr.ov_reductions, count_t(12));
    }
  }
}

// The pipelined ThreadSanitizer CI case: small enough for TSan, with real
// pool threads under the async post/wait traffic (the 16^3 goldens above
// are filtered out there; see .github/workflows/ci.yml).
TEST(PipelinedSolvers, Ranks4Threads2UnderThreadPool) {
  auto p = test::laplace_problem(8, 2, 2, 2);
  SolverConfig cfg;
  cfg.krylov.max_iters = 10;
  cfg.krylov.tol = 1e-30;
  for (auto method :
       {krylov::KrylovMethod::GmresPipe, krylov::KrylovMethod::CgPipe}) {
    cfg.krylov.method = method;
    cfg.preconditioner =
        method == krylov::KrylovMethod::CgPipe ? "none" : "schwarz";
    const Trajectory ref = pipe_run(p, cfg, 1, 1);
    const Trajectory got = pipe_run(p, cfg, 4, 2);
    expect_bitwise_equal(got, ref,
                         std::string("pipelined ranks=4 threads=2 ") +
                             krylov::to_string(method));
  }
}

}  // namespace
}  // namespace frosch
