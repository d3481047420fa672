// Unit tests for graph algorithms (src/graph): traversal, RCM, nested
// dissection, and the partitioners that create the DD subdomains.
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "graph/graph.hpp"
#include "graph/nested_dissection.hpp"
#include "graph/partition.hpp"
#include "graph/rcm.hpp"
#include "la/csr.hpp"
#include "support/compare.hpp"
#include "support/matrices.hpp"

namespace frosch::graph {
namespace {

using test::is_permutation;
using test::laplace2d;

index_t bandwidth(const Graph& g, const IndexVector& perm) {
  IndexVector inv(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) inv[perm[i]] = index_t(i);
  index_t bw = 0;
  for (index_t v = 0; v < g.n; ++v)
    for (index_t k = g.xadj[v]; k < g.xadj[v + 1]; ++k)
      bw = std::max(bw, index_t(std::abs(inv[v] - inv[g.adj[k]])));
  return bw;
}

TEST(Graph, BuildSymmetrizesAndDropsDiagonal) {
  la::TripletBuilder<double> b(3, 3);
  b.add(0, 0, 1.0);
  b.add(0, 1, 1.0);  // only upper entry given
  b.add(2, 1, 1.0);
  auto g = build_graph(b.build());
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(1), 2);  // symmetrized: sees 0 and 2
  EXPECT_EQ(g.degree(2), 1);
}

TEST(Graph, BfsLevelsOnPath) {
  la::TripletBuilder<double> b(5, 5);
  for (index_t i = 0; i + 1 < 5; ++i) b.add(i, i + 1, 1.0);
  auto g = build_graph(b.build());
  IndexVector level, mask;
  auto order = bfs_levels(g, 0, mask, 0, level);
  EXPECT_EQ(order.size(), 5u);
  for (index_t i = 0; i < 5; ++i) EXPECT_EQ(level[i], i);
}

TEST(Graph, PseudoPeripheralOnPathFindsEndpoint) {
  la::TripletBuilder<double> b(9, 9);
  for (index_t i = 0; i + 1 < 9; ++i) b.add(i, i + 1, 1.0);
  auto g = build_graph(b.build());
  IndexVector mask;
  const index_t p = pseudo_peripheral(g, 4, mask, 0);
  EXPECT_TRUE(p == 0 || p == 8);
}

TEST(Graph, ConnectedComponentsCountsIslands) {
  la::TripletBuilder<double> b(6, 6);
  b.add(0, 1, 1.0);
  b.add(2, 3, 1.0);
  // 4 and 5 isolated
  auto g = build_graph(b.build());
  IndexVector comp;
  EXPECT_EQ(connected_components(g, comp), 4);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_NE(comp[0], comp[2]);
}

TEST(Graph, SubsetComponentsSplitsDisjointRuns) {
  la::TripletBuilder<double> b(10, 10);
  for (index_t i = 0; i + 1 < 10; ++i) b.add(i, i + 1, 1.0);
  auto g = build_graph(b.build());
  IndexVector subset{0, 1, 2, 6, 7};  // two runs on the path
  IndexVector comp;
  EXPECT_EQ(subset_components(g, subset, comp), 2);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[1], comp[2]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[3]);
}

TEST(Rcm, ProducesValidPermutationAndReducesBandwidth) {
  auto A = laplace2d(12, 12);
  auto g = build_graph(A);
  auto perm = rcm_ordering(g);
  ASSERT_TRUE(is_permutation(perm, g.n));
  IndexVector natural(size_t(g.n));
  std::iota(natural.begin(), natural.end(), 0);
  EXPECT_LE(bandwidth(g, perm), bandwidth(g, natural));
}

TEST(NestedDissection, ValidPermutationOnGrid) {
  auto g = build_graph(laplace2d(15, 15));
  auto perm = nested_dissection(g);
  EXPECT_TRUE(is_permutation(perm, g.n));
}

TEST(NestedDissection, HandlesDisconnectedGraphs) {
  la::TripletBuilder<double> b(8, 8);
  b.add(0, 1, 1.0);
  b.add(1, 2, 1.0);
  b.add(4, 5, 1.0);
  b.add(6, 7, 1.0);
  auto g = build_graph(b.build());
  auto perm = nested_dissection(g);
  EXPECT_TRUE(is_permutation(perm, g.n));
}

TEST(NestedDissection, TinyGraphsAreLeaves) {
  la::TripletBuilder<double> b(3, 3);
  b.add(0, 1, 1.0);
  b.add(1, 2, 1.0);
  auto g = build_graph(b.build());
  auto perm = nested_dissection(g);
  EXPECT_TRUE(is_permutation(perm, g.n));
}

TEST(NestedDissection, ProfileRecordsTraversalWithoutChangingTheOrder) {
  auto g = build_graph(laplace2d(15, 15));
  OpProfile prof;
  EXPECT_EQ(nested_dissection(g, {}, &prof), nested_dissection(g));
  // At least the component pass plus two sweeps of the first bisection
  // over the whole adjacency, priced like recursive_bisection.
  const double adj = static_cast<double>(g.xadj[g.n]);
  EXPECT_GE(prof.work_items, 3.0 * adj);
  EXPECT_DOUBLE_EQ(prof.bytes, prof.work_items * 3.0 * sizeof(index_t));
  EXPECT_GE(prof.launches, 3);  // one split at least
  EXPECT_EQ(prof.launches % 2, 1);
  EXPECT_GE(prof.critical_path, 2);
  EXPECT_EQ(prof.flops, 0.0);
}

TEST(BalancedFactors, FactorsCommonRankCounts) {
  auto f42 = balanced_factors_3d(42, 100, 100, 100);
  EXPECT_EQ(f42[0] * f42[1] * f42[2], 42);
  auto f6 = balanced_factors_3d(6, 100, 100, 100);
  EXPECT_EQ(f6[0] * f6[1] * f6[2], 6);
  auto f1 = balanced_factors_3d(1, 4, 4, 4);
  EXPECT_EQ(f1[0], 1);
}

TEST(BalancedFactors, PrefersNearCubicOverPencil) {
  // Regression: the scoring must actually run (an init bug once made every
  // decomposition a (np,1,1) pencil).  42 = 7*3*2 on a cubic grid.
  auto f = balanced_factors_3d(42, 1 << 20, 1 << 20, 1 << 20);
  std::array<index_t, 3> s{f[0], f[1], f[2]};
  std::sort(s.begin(), s.end());
  EXPECT_EQ(s[0], 2);
  EXPECT_EQ(s[1], 3);
  EXPECT_EQ(s[2], 7);
  auto f84 = balanced_factors_3d(84, 1 << 20, 1 << 20, 1 << 20);
  EXPECT_LT(std::max({f84[0], f84[1], f84[2]}), 84);
}

TEST(BoxPartition, CoversGridWithBalancedParts) {
  const index_t nx = 10, ny = 8, nz = 6;
  auto part = box_partition_3d(nx, ny, nz, 2, 2, 3);
  auto sizes = partition_sizes(part, 12);
  index_t total = 0;
  for (index_t s : sizes) {
    EXPECT_GT(s, 0);
    total += s;
  }
  EXPECT_EQ(total, nx * ny * nz);
  // Max/min imbalance stays small for near-divisible grids.
  const auto [mn, mx] = std::minmax_element(sizes.begin(), sizes.end());
  EXPECT_LE(*mx - *mn, (*mn));
}

TEST(BoxPartition, PartsAreContiguousBoxes) {
  const index_t nx = 6, ny = 6, nz = 6;
  auto part = box_partition_3d(nx, ny, nz, 2, 2, 2);
  // Each part's vertex set must be connected in the grid graph.
  la::TripletBuilder<double> b(nx * ny * nz, nx * ny * nz);
  auto id = [&](index_t x, index_t y, index_t z) {
    return x + nx * (y + ny * z);
  };
  for (index_t z = 0; z < nz; ++z)
    for (index_t y = 0; y < ny; ++y)
      for (index_t x = 0; x < nx; ++x) {
        if (x + 1 < nx) b.add(id(x, y, z), id(x + 1, y, z), 1.0);
        if (y + 1 < ny) b.add(id(x, y, z), id(x, y + 1, z), 1.0);
        if (z + 1 < nz) b.add(id(x, y, z), id(x, y, z + 1), 1.0);
      }
  auto g = build_graph(b.build());
  for (index_t p = 0; p < 8; ++p) {
    IndexVector verts;
    for (index_t v = 0; v < g.n; ++v)
      if (part[v] == p) verts.push_back(v);
    IndexVector comp;
    EXPECT_EQ(subset_components(g, verts, comp), 1) << "part " << p;
  }
}

class BisectionSweep : public ::testing::TestWithParam<index_t> {};

TEST_P(BisectionSweep, AllPartsNonEmptyAndBalanced) {
  const index_t k = GetParam();
  auto g = build_graph(laplace2d(16, 16));
  auto part = recursive_bisection(g, k);
  auto sizes = partition_sizes(part, k);
  const index_t ideal = g.n / k;
  for (index_t s : sizes) {
    EXPECT_GT(s, 0);
    EXPECT_LE(s, 2 * ideal + 2);
  }
}

INSTANTIATE_TEST_SUITE_P(KSweep, BisectionSweep,
                         ::testing::Values(2, 3, 4, 6, 7, 8, 13, 16, 42));

}  // namespace
}  // namespace frosch::graph
