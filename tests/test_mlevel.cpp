// Tests for the multilevel coarse hierarchy (src/mlevel) and the subset
// communicator underneath it (comm::SubComm):
//   * coarse_members subset construction and the CoarseRanks enum;
//   * SubComm accounting: subset-scoped collectives recorded into the
//     PARENT profiles at member world ranks, composition under nesting;
//   * the facade goldens: levels=2 with any coarse_ranks is bitwise
//     identical to the replicated-root default (the subset is an
//     accounting choice, not a numerical one), and levels=3 is bitwise
//     deterministic across every (backend, ranks, threads) combination on
//     Laplace, elasticity, AND the nonsymmetric convection-diffusion
//     workload, with iteration counts inside the documented <= 2x drift
//     bound of the inexact multilevel coarse solve;
//   * per-level SolveReport pins and the subset-aware coarse pricing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "frosch.hpp"
#include "perf/summit.hpp"
#include "support/problems.hpp"

namespace frosch {
namespace {

// ---------------------------------------------------------------------------
// CoarseRanks / coarse_members.

TEST(CoarseMembers, EnumRoundTripsEveryName) {
  for (dd::CoarseRanks k : EnumTraits<dd::CoarseRanks>::all)
    EXPECT_EQ(from_string<dd::CoarseRanks>(to_string(k)), k);
  EXPECT_THROW(from_string<dd::CoarseRanks>("every-3rd"), Error);
}

TEST(CoarseMembers, SubsetsAreStrictlyIncreasingAndContainRoot) {
  using dd::CoarseRanks;
  const std::vector<int> root8 = dd::coarse_members(8, CoarseRanks::Root);
  EXPECT_EQ(root8, std::vector<int>({0}));
  EXPECT_EQ(dd::coarse_members(8, CoarseRanks::Every2nd),
            std::vector<int>({0, 2, 4, 6}));
  EXPECT_EQ(dd::coarse_members(8, CoarseRanks::Every4th),
            std::vector<int>({0, 4}));
  EXPECT_EQ(dd::coarse_members(8, CoarseRanks::Every8th),
            std::vector<int>({0}));
  EXPECT_EQ(dd::coarse_members(8, CoarseRanks::All),
            std::vector<int>({0, 1, 2, 3, 4, 5, 6, 7}));
  // Every subset kind degrades to {0} on one rank.
  for (CoarseRanks k : EnumTraits<CoarseRanks>::all)
    EXPECT_EQ(dd::coarse_members(1, k), std::vector<int>({0})) << to_string(k);
  // Subsets of non-power-of-two communicators stay in range.
  EXPECT_EQ(dd::coarse_members(7, CoarseRanks::Every2nd),
            std::vector<int>({0, 2, 4, 6}));
  EXPECT_EQ(dd::coarse_members(3, CoarseRanks::Every8th),
            std::vector<int>({0}));
}

// ---------------------------------------------------------------------------
// SubComm accounting.

TEST(SubComm, CollectiveChargesSubsetFieldsAtMemberRanks) {
  comm::SimComm parent(8);
  auto sub = parent.split({0, 2, 4, 6});
  ASSERT_EQ(sub->size(), 4);
  sub->gather(800.0);
  const auto& prof = parent.rank_profiles();
  for (int r = 0; r < 8; ++r) {
    const bool member = (r % 2 == 0);
    EXPECT_EQ(prof[r].sub_reductions, member ? 1u : 0u) << "rank " << r;
    EXPECT_DOUBLE_EQ(prof[r].sub_red_log2, member ? std::log2(4.0) : 0.0)
        << "rank " << r;
    EXPECT_DOUBLE_EQ(prof[r].msg_bytes, member ? 800.0 : 0.0) << "rank " << r;
    // The GLOBAL collective counter stays untouched: subset events carry
    // their own fields so legacy log2(P) pricing never sees them.
    EXPECT_EQ(prof[r].reductions, 0u) << "rank " << r;
  }
}

TEST(SubComm, SingletonSubsetMovesNoWireBytes) {
  comm::SimComm parent(4);
  auto sub = parent.split({0});
  sub->broadcast(512.0);
  const auto& prof = parent.rank_profiles();
  EXPECT_EQ(prof[0].sub_reductions, 1u);
  EXPECT_DOUBLE_EQ(prof[0].sub_red_log2, 0.0);  // log2(1)
  EXPECT_DOUBLE_EQ(prof[0].msg_bytes, 0.0);     // nothing crosses a wire
  for (int r = 1; r < 4; ++r) EXPECT_EQ(prof[r].sub_reductions, 0u);
}

TEST(SubComm, NestedSplitComposesWorldRanks) {
  comm::SimComm parent(8);
  auto sub = parent.split({0, 2, 4, 6});
  auto subsub = sub->split({0, 2});  // world ranks {0, 4}
  EXPECT_EQ(subsub->world_rank(0), 0);
  EXPECT_EQ(subsub->world_rank(1), 4);
  subsub->gather(100.0);
  const auto& prof = parent.rank_profiles();
  for (int r = 0; r < 8; ++r) {
    const bool member = (r == 0 || r == 4);
    EXPECT_EQ(prof[r].sub_reductions, member ? 1u : 0u) << "rank " << r;
    EXPECT_DOUBLE_EQ(prof[r].sub_red_log2, member ? 1.0 : 0.0) << "rank " << r;
  }
}

TEST(SubComm, PostChargesDestinationAtWorldRank) {
  comm::SimComm parent(8);
  auto sub = parent.split({0, 3, 6});
  comm::Message m;
  m.src = 0;
  m.dst = 2;  // world rank 6
  m.count = 4;
  m.bytes = 64.0;
  sub->post({m});
  const auto& prof = parent.rank_profiles();
  EXPECT_EQ(prof[6].neighbor_msgs, 1u);
  EXPECT_DOUBLE_EQ(prof[6].msg_bytes, 64.0);
  for (int r : {0, 1, 2, 3, 4, 5, 7})
    EXPECT_EQ(prof[r].neighbor_msgs, 0u) << "rank " << r;
}

TEST(SubComm, AsyncCollectiveChargesSubsetFieldsPlusWindow) {
  // The nonblocking all-reduce on a subset counts exactly what the blocking
  // one counts -- a subset reduction at the member ranks -- plus the async
  // payload twin and the measured window.  It never touches the full-fabric
  // `reductions`, so `ov_reductions` (a subset of it) stays zero too.
  comm::SimComm bparent(8), aparent(8);
  auto bsub = bparent.split({0, 2, 4, 6});
  auto asub = aparent.split({0, 2, 4, 6});
  const double slots[] = {1.0, 2.0, 3.0, 4.0};
  double out_b[2] = {0.0, 0.0}, out_a[2] = {0.0, 0.0};
  bsub->allreduce_slots(slots, 2, 2, out_b);
  asub->allreduce_slots_async(slots, 2, 2, out_a).wait();
  EXPECT_EQ(std::memcmp(out_a, out_b, sizeof(out_b)), 0);
  for (int r = 0; r < 8; ++r) {
    const bool member = (r % 2 == 0);
    const auto& pb = bparent.rank_profiles()[r];
    const auto& pa = aparent.rank_profiles()[r];
    EXPECT_EQ(pb.sub_reductions, member ? 1u : 0u) << "rank " << r;
    EXPECT_EQ(pa.sub_reductions, pb.sub_reductions) << "rank " << r;
    EXPECT_EQ(pa.sub_red_log2, pb.sub_red_log2) << "rank " << r;
    EXPECT_EQ(pa.msg_bytes, pb.msg_bytes) << "rank " << r;
    EXPECT_EQ(pa.reductions, 0u) << "rank " << r;
    EXPECT_EQ(pa.ov_reductions, 0u) << "rank " << r;
    EXPECT_EQ(pa.ov_msg_bytes, pa.msg_bytes) << "rank " << r;
    EXPECT_EQ(pa.overlap_windows, member ? 1u : 0u) << "rank " << r;
    // The blocking form records no async field at all.
    EXPECT_EQ(pb.ov_msg_bytes, 0.0) << "rank " << r;
    EXPECT_EQ(pb.overlap_windows, 0u) << "rank " << r;
  }
}

TEST(SubComm, SplitValidatesMembers) {
  comm::SimComm parent(4);
  EXPECT_THROW(parent.split({}), Error);
  EXPECT_THROW(parent.split({0, 4}), Error);     // out of range
  EXPECT_THROW(parent.split({0, 2, 2}), Error);  // not strictly increasing
  EXPECT_THROW(parent.split({2, 0}), Error);
}

// ---------------------------------------------------------------------------
// Facade goldens.

struct RunResult {
  SolveReport rep;
  std::vector<double> x;
};

RunResult run_facade(const test::MeshProblem& p, ParameterList params) {
  Solver solver(params);
  solver.setup(p.A, p.Z, p.owner, p.num_parts);
  std::vector<double> b(static_cast<size_t>(p.A.num_rows()), 1.0);
  RunResult r;
  r.rep = solver.solve(b, r.x);
  return r;
}

ParameterList hierarchy_params(index_t levels, const char* coarse_ranks,
                               index_t ranks, index_t threads = 1,
                               const char* exec = "auto") {
  ParameterList params;
  params.set("levels", levels)
      .set("coarse_ranks", coarse_ranks)
      .set("ranks", ranks)
      .set("threads", threads)
      .set("exec", exec)
      .set("coarse-space", "gdsw")
      .set("krylov", "gmres");
  return params;
}

TEST(Hierarchy, WideningTheSubsetIsBitwiseInvisible) {
  // The coarse correction is the SAME exact direct solve no matter how many
  // ranks hold the factored operator: coarse_ranks is an accounting and
  // pricing choice.  levels=2 at every subset width must match the
  // replicated-root default bit for bit.
  const auto p = test::laplace_problem(8, 2, 2, 2);
  const auto gold = run_facade(p, hierarchy_params(2, "root", 4));
  EXPECT_TRUE(gold.rep.converged);
  for (const char* cr : {"every-2nd", "all"}) {
    const auto wide = run_facade(p, hierarchy_params(2, cr, 4));
    EXPECT_EQ(wide.rep.iterations, gold.rep.iterations) << cr;
    ASSERT_EQ(wide.x.size(), gold.x.size());
    EXPECT_EQ(std::memcmp(wide.x.data(), gold.x.data(),
                          gold.x.size() * sizeof(double)),
              0)
        << cr;
  }
}

TEST(Hierarchy, SubsetRunRecordsSubsetCollectives) {
  const auto p = test::laplace_problem(8, 2, 2, 2);
  const auto root = run_facade(p, hierarchy_params(2, "root", 4));
  const auto all = run_facade(p, hierarchy_params(2, "all", 4));
  // Replicated root: no subset communicator exists, nothing subset-scoped.
  count_t root_subset = 0;
  for (const auto& pr : root.rep.rank_setup_comm)
    root_subset += pr.sub_reductions;
  for (const auto& pr : root.rep.rank_krylov) root_subset += pr.sub_reductions;
  EXPECT_EQ(root_subset, 0u);
  // Subset run: the setup redistribution plus one exchange per coarse
  // solve, on every member rank.
  count_t setup_subset = 0, solve_subset = 0;
  for (const auto& pr : all.rep.rank_setup_comm)
    setup_subset += pr.sub_reductions;
  for (const auto& pr : all.rep.rank_krylov) solve_subset += pr.sub_reductions;
  EXPECT_EQ(setup_subset, 4u);  // one setup collective x 4 member ranks
  EXPECT_EQ(solve_subset, 4u * static_cast<count_t>(all.rep.schwarz.apply_count));
}

TEST(Hierarchy, DefaultReportPinsDegenerateLevel) {
  const auto p = test::laplace_problem(8, 2, 2, 2);
  const auto r = run_facade(p, hierarchy_params(2, "root", 4));
  ASSERT_EQ(r.rep.schwarz.coarse_levels.size(), 1u);
  const auto& lv = r.rep.schwarz.coarse_levels[0];
  EXPECT_EQ(lv.level, 2);
  EXPECT_EQ(lv.dim, r.rep.coarse_dim);
  EXPECT_EQ(lv.subset_size, 1);
  EXPECT_EQ(lv.parts, 0);  // terminal direct solve
  ASSERT_EQ(lv.rank_numeric.size(), 1u);
  ASSERT_EQ(lv.rank_solve.size(), 1u);
  EXPECT_GT(lv.rank_numeric[0].flops, 0.0);
  EXPECT_GT(lv.rank_solve[0].flops, 0.0);
}

TEST(Hierarchy, ThreeLevelReportPinsBothLevels) {
  const auto p = test::laplace_problem(12, 4, 4, 2);
  const auto two = run_facade(p, hierarchy_params(2, "root", 8));
  const auto three = run_facade(p, hierarchy_params(3, "all", 8));
  EXPECT_TRUE(three.rep.converged);
  // Documented drift bound: the inexact multilevel coarse solve may cost
  // iterations, but no more than 2x the exact-coarse baseline.
  EXPECT_LE(three.rep.iterations, 2 * two.rep.iterations);
  ASSERT_EQ(three.rep.schwarz.coarse_levels.size(), 2u);
  const auto& l2 = three.rep.schwarz.coarse_levels[0];
  const auto& l3 = three.rep.schwarz.coarse_levels[1];
  EXPECT_EQ(l2.level, 2);
  EXPECT_EQ(l2.dim, three.rep.coarse_dim);
  EXPECT_EQ(l2.subset_size, 8);
  EXPECT_GT(l2.parts, 1);  // a real Schwarz level with subdomains
  ASSERT_EQ(l2.rank_numeric.size(), 8u);
  EXPECT_EQ(l3.level, 3);
  EXPECT_GT(l3.dim, 0);
  EXPECT_LT(l3.dim, l2.dim);  // the hierarchy coarsens
  // The second coarse matrix is re-gathered onto ITS subset of the level-2
  // subcomm; the terminal level reports that subset.
  EXPECT_EQ(l3.subset_size, 8);
  EXPECT_EQ(l3.parts, 0);  // terminal direct at the top
}

TEST(Hierarchy, TinyCoarseProblemFallsBackToDirect) {
  // rGDSW on a small box partition yields a coarse dim far below the
  // recursion threshold: levels=3 must silently terminate in the direct
  // solve (one reported level) and stay bitwise equal to levels=2.
  const auto p = test::laplace_problem(8, 2, 2, 2);
  ParameterList two, three;
  two.set("levels", 2).set("ranks", 4).set("coarse-space", "rgdsw");
  three.set("levels", 3).set("ranks", 4).set("coarse-space", "rgdsw");
  const auto r2 = run_facade(p, two);
  const auto r3 = run_facade(p, three);
  ASSERT_EQ(r3.rep.schwarz.coarse_levels.size(), 1u);
  EXPECT_EQ(r3.rep.schwarz.coarse_levels[0].parts, 0);
  EXPECT_EQ(r3.rep.iterations, r2.rep.iterations);
  EXPECT_EQ(std::memcmp(r3.x.data(), r2.x.data(), r2.x.size() * sizeof(double)),
            0);
}

/// Bitwise determinism of a hierarchy config across every (backend, ranks,
/// threads) combination: the multilevel partition depends only on the
/// coarse pattern, never on the runtime topology.
void sweep_bitwise(const test::MeshProblem& p, index_t levels,
                   const char* coarse_ranks) {
  std::vector<double> gold;
  index_t gold_iters = 0;
  for (index_t ranks : {index_t(1), index_t(4), index_t(8)}) {
    for (index_t threads : {index_t(1), index_t(4)}) {
      for (const char* exec : {"auto", "device"}) {
        const auto r = run_facade(
            p, hierarchy_params(levels, coarse_ranks, ranks, threads, exec));
        EXPECT_TRUE(r.rep.converged)
            << "ranks=" << ranks << " threads=" << threads << " " << exec;
        if (gold.empty()) {
          gold = r.x;
          gold_iters = r.rep.iterations;
          continue;
        }
        EXPECT_EQ(r.rep.iterations, gold_iters)
            << "ranks=" << ranks << " threads=" << threads << " " << exec;
        ASSERT_EQ(r.x.size(), gold.size());
        EXPECT_EQ(std::memcmp(r.x.data(), gold.data(),
                              gold.size() * sizeof(double)),
                  0)
            << "ranks=" << ranks << " threads=" << threads << " " << exec;
      }
    }
  }
}

TEST(Hierarchy, ThreeLevelLaplaceBitwiseAcrossRanksThreadsBackends) {
  sweep_bitwise(test::laplace_problem(12, 4, 4, 2), 3, "all");
}

TEST(Hierarchy, ThreeLevelElasticityBitwiseAcrossRanksThreadsBackends) {
  sweep_bitwise(test::elasticity_problem(8, 2, 2, 2), 3, "every-2nd");
}

TEST(Hierarchy, ThreeLevelConvectionDiffusionBitwiseAcrossRanksThreadsBackends) {
  sweep_bitwise(test::convection_problem(12, 3, 3, 3), 3, "all");
}

TEST(Hierarchy, ConvectionDiffusionDriftStaysBounded) {
  const auto p = test::convection_problem(12, 3, 3, 3);
  const auto two = run_facade(p, hierarchy_params(2, "root", 4));
  const auto three = run_facade(p, hierarchy_params(3, "all", 4));
  EXPECT_TRUE(two.rep.converged);
  EXPECT_TRUE(three.rep.converged);
  EXPECT_LE(three.rep.iterations, 2 * two.rep.iterations);
}

void expect_same_profile(const OpProfile& a, const OpProfile& b,
                         const std::string& what) {
  EXPECT_EQ(a.flops, b.flops) << what;
  EXPECT_EQ(a.bytes, b.bytes) << what;
  EXPECT_EQ(a.launches, b.launches) << what;
  EXPECT_EQ(a.critical_path, b.critical_path) << what;
  EXPECT_EQ(a.work_items, b.work_items) << what;
  EXPECT_EQ(a.reductions, b.reductions) << what;
  EXPECT_EQ(a.neighbor_msgs, b.neighbor_msgs) << what;
  EXPECT_EQ(a.msg_bytes, b.msg_bytes) << what;
  EXPECT_EQ(a.sub_reductions, b.sub_reductions) << what;
  EXPECT_EQ(a.sub_red_log2, b.sub_red_log2) << what;
}

/// The coarse side of two preconditioners agrees exactly: the
/// coarse-factorization bar, the coarse PhaseProfile, and the one direct
/// level's report.
void expect_same_coarse(const dd::SchwarzProfiles& a,
                        const dd::SchwarzProfiles& b, const std::string& what) {
  expect_same_profile(a.numeric_breakdown.at("coarse-factorization"),
                      b.numeric_breakdown.at("coarse-factorization"),
                      what + " coarse-factorization");
  expect_same_profile(a.coarse.symbolic, b.coarse.symbolic,
                      what + " coarse.symbolic");
  expect_same_profile(a.coarse.numeric, b.coarse.numeric,
                      what + " coarse.numeric");
  expect_same_profile(a.coarse.solve, b.coarse.solve, what + " coarse.solve");
  ASSERT_EQ(a.coarse_levels.size(), 1u) << what;
  ASSERT_EQ(b.coarse_levels.size(), 1u) << what;
  const auto& la = a.coarse_levels[0];
  const auto& lb = b.coarse_levels[0];
  EXPECT_EQ(la.level, lb.level) << what;
  EXPECT_EQ(la.dim, lb.dim) << what;
  EXPECT_EQ(la.subset_size, lb.subset_size) << what;
  EXPECT_EQ(la.parts, lb.parts) << what;
  ASSERT_EQ(la.rank_numeric.size(), lb.rank_numeric.size()) << what;
  ASSERT_EQ(la.rank_solve.size(), lb.rank_solve.size()) << what;
  for (size_t r = 0; r < la.rank_numeric.size(); ++r) {
    expect_same_profile(la.rank_numeric[r], lb.rank_numeric[r],
                        what + " rank_numeric " + std::to_string(r));
    expect_same_profile(la.rank_solve[r], lb.rank_solve[r],
                        what + " rank_solve " + std::to_string(r));
  }
}

/// A SchwarzPreconditioner with no coarse solver installed (the dd default,
/// dd::DirectCoarseSolver) against one holding mlevel::CoarseHierarchy at
/// levels=2: applies memcmp-equal and coarse profiles identical, after the
/// cold setup and after a value refresh.
void expect_default_matches_hierarchy(dd::CoarseRanks ranks, int nranks,
                                      int subset) {
  const auto p = test::laplace_problem(8, 2, 2, 2);
  auto decomp = dd::build_decomposition(p.A, p.owner, p.num_parts, 1);
  dd::SchwarzConfig cfg;
  cfg.hierarchy.coarse_ranks = ranks;
  comm::SimComm dcomm(nranks, cfg.exec), hcomm(nranks, cfg.exec);
  dd::SchwarzConfig dcfg = cfg, hcfg = cfg;
  dcfg.comm = &dcomm;
  hcfg.comm = &hcomm;
  dd::SchwarzPreconditioner<double> dflt(dcfg, decomp);
  dd::SchwarzPreconditioner<double> hier(hcfg, decomp);
  hier.set_coarse_solver(
      std::make_unique<mlevel::CoarseHierarchy<double>>(hcfg,
                                                        decomp.num_parts));
  dflt.symbolic_setup(p.A);
  hier.symbolic_setup(p.A);
  dflt.numeric_setup(p.A, p.Z);
  hier.numeric_setup(p.A, p.Z);

  const std::string tag = to_string(ranks);
  const size_t n = static_cast<size_t>(p.A.num_rows());
  std::vector<double> x(n), yd(n), yh(n);
  for (size_t i = 0; i < n; ++i) x[i] = std::sin(0.37 * double(i + 1));
  auto check = [&](const std::string& what) {
    dflt.apply(x, yd, nullptr);
    hier.apply(x, yh, nullptr);
    EXPECT_EQ(std::memcmp(yd.data(), yh.data(), n * sizeof(double)), 0)
        << what;
    expect_same_coarse(dflt.profiles(), hier.profiles(), what);
    EXPECT_EQ(dflt.profiles().coarse_levels[0].subset_size, subset) << what;
    for (int r = 0; r < nranks; ++r)
      expect_same_profile(dcomm.prof(r), hcomm.prof(r),
                          what + " comm rank " + std::to_string(r));
  };
  check(tag + " setup");

  auto A2 = p.A;
  for (index_t i = 0; i < A2.num_rows(); ++i)
    for (index_t k = A2.row_begin(i); k < A2.row_end(i); ++k)
      A2.val(k) *= (1.0 + 0.25 * (i % 3)) * (1.0 + 0.25 * (A2.col(k) % 3));
  ASSERT_TRUE(dflt.numeric_refresh(A2, p.Z));
  ASSERT_TRUE(hier.numeric_refresh(A2, p.Z));
  check(tag + " refresh");
}

TEST(Hierarchy, DefaultDirectSolverMatchesHierarchyAtDefaults) {
  expect_default_matches_hierarchy(dd::CoarseRanks::Root, 8, 1);
}

TEST(Hierarchy, DefaultDirectSolverMatchesHierarchyOnEverySecondRank) {
  expect_default_matches_hierarchy(dd::CoarseRanks::Every2nd, 4, 2);
}

// ---------------------------------------------------------------------------
// Subset-aware pricing.

TEST(Pricing, SubsetCollectivesPriceOverSubsetSizeNotP) {
  perf::SummitModel m;
  const int P = 64;
  // One global collective vs one subset collective over 4 of the 64 ranks:
  // the global one pays log2(64), the subset one log2(4).
  std::vector<OpProfile> global(P), subset(P);
  for (auto& pr : global) pr.reductions = 1;
  for (int r = 0; r < 4; ++r) subset[r].sub_red_log2 = std::log2(4.0);
  const double alpha = m.config().net.allreduce_alpha;
  EXPECT_DOUBLE_EQ(m.network_time(global, P), alpha * 6.0);
  EXPECT_DOUBLE_EQ(m.network_time(subset, P), alpha * 2.0);
}

TEST(Pricing, ModeledCoarseTimeFallsAsSubsetWidens) {
  // Terminal coarse factorization of fixed total work, held by S subset
  // ranks: the modeled wall time must fall monotonically as the subset
  // widens (S=1 is the replicated-root serial cliff).
  perf::SummitModel m;
  OpProfile total;
  total.flops = 4e9;
  total.bytes = 2e9;
  total.work_items = 1e7;
  total.launches = 40;
  total.critical_path = 40;
  perf::ExperimentResult r;
  r.ranks = 64;
  r.schwarz.coarse.numeric = total;
  r.schwarz.coarse.solve = total;
  double prev_setup = 0.0, prev_solve = 0.0;
  for (int s : {1, 2, 8, 64}) {
    dd::CoarseLevelReport lv;
    lv.level = 2;
    lv.subset_size = s;
    OpProfile share = total;
    share.flops /= s;
    share.bytes /= s;
    share.work_items /= s;
    lv.rank_numeric.assign(static_cast<size_t>(s), share);
    lv.rank_solve.assign(static_cast<size_t>(s), share);
    r.schwarz.coarse_levels = {lv};
    const auto mc = perf::model_coarse(r, m, perf::Execution::CpuCores, 1);
    if (s > 1) {
      EXPECT_LT(mc.setup, prev_setup) << "S=" << s;
      EXPECT_LT(mc.solve, prev_solve) << "S=" << s;
    }
    prev_setup = mc.setup;
    prev_solve = mc.solve;
  }
}

// ---------------------------------------------------------------------------
// Semi-definite coarse matrix through the pivoting coarse solver.

TEST(CoarseFactor, SemiDefiniteElasticityCoarseMatrixSolvesInRange) {
  // 10^3 clamped elasticity on 27 algebraic parts with rGDSW: rotations
  // restricted to small interface components are nearly dependent on the
  // translations, so Phi is nearly rank deficient and A0 = Phi^T A Phi only
  // semi-definite.  The factor must still solve consistently in range(A0).
  const index_t e = 10;
  fem::BrickMesh mesh(e, e, e, double(e), double(e), double(e));
  auto sys = fem::apply_dirichlet(fem::assemble_elasticity(mesh),
                                  fem::clamped_x0_dofs(mesh));
  auto Z = fem::restrict_nullspace(fem::elasticity_nullspace(mesh), sys.keep);
  ParameterList params;
  params.set("preconditioner", "schwarz")
      .set("coarse-space", "rgdsw")
      .set("num-parts", index_t{27})
      .set("dof-block-size", "3");
  Solver solver(params);
  solver.setup(sys.A, Z);
  const auto* prec = dynamic_cast<const dd::SchwarzPreconditioner<double>*>(
      solver.preconditioner());
  ASSERT_NE(prec, nullptr);
  const la::CsrMatrix<double>& A0 = prec->coarse_matrix();
  const la::CsrMatrix<double>& phi = prec->coarse_basis();
  const index_t n0 = A0.num_rows();

  // The premise: pivots near zero relative to the largest, and a factor
  // that runs through the dense tail.
  direct::GilbertPeierlsLu<double> lu;
  lu.symbolic(A0);
  lu.numeric(A0);
  EXPECT_LT(lu.dense_tail_start(), n0);
  const auto& U = lu.factorization().U;
  double dmax = 0.0, dmin = std::numeric_limits<double>::infinity();
  for (index_t i = 0; i < n0; ++i) {
    const double d = std::abs(U.at(i, i));
    dmax = std::max(dmax, d);
    dmin = std::min(dmin, d);
  }
  EXPECT_LT(dmin, 1e-10 * dmax);

  // r0 = Phi^T b lies in range(Phi^T) = range(A0).
  std::vector<double> b(static_cast<size_t>(phi.num_rows())), r0, z0, x, Az;
  for (size_t i = 0; i < b.size(); ++i) b[i] = std::sin(0.37 * double(i) + 1.0);
  la::spmv(la::transpose(phi), b, r0);
  dd::LocalSolver<double> coarse(prec->config().coarse);
  coarse.symbolic(A0);
  coarse.numeric(A0);
  coarse.solve(r0, z0);
  la::spmv(phi, z0, x);
  for (size_t i = 0; i < x.size(); ++i)
    ASSERT_TRUE(std::isfinite(x[i])) << "Phi z0 at " << i;
  la::spmv(A0, z0, Az);
  double res = 0.0, rn = 0.0;
  for (index_t i = 0; i < n0; ++i) {
    res += (Az[i] - r0[i]) * (Az[i] - r0[i]);
    rn += r0[i] * r0[i];
  }
  EXPECT_LT(std::sqrt(res / rn), 1e-8);
}

}  // namespace
}  // namespace frosch
