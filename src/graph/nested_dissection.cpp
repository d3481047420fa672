#include "graph/nested_dissection.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace frosch::graph {
namespace {

/// Recursive worker.  `mask[v] == region` marks the vertices of the current
/// subgraph.  Appends the subgraph's ordering (old vertex ids) to `out`.
///
/// Bisection: BFS level structure from a pseudo-peripheral vertex; split at
/// the median level; the separator is the set of "left" vertices adjacent to
/// "right" vertices.  Left and right halves recurse; separator vertices are
/// emitted last.  The traversal volume (adjacency entries and leaf
/// vertices visited), the number of bisections and the recursion depth are
/// tallied for the profile.
class Dissector {
 public:
  Dissector(const Graph& g, const NestedDissectionOptions& opts)
      : g_(g), opts_(opts), mask_(static_cast<size_t>(g.n), 0) {}

  IndexVector run() {
    IndexVector out;
    out.reserve(static_cast<size_t>(g_.n));
    // Handle disconnected graphs: dissect each component independently.
    IndexVector comp;
    const index_t ncomp = connected_components(g_, comp);
    scanned_ += static_cast<double>(g_.xadj[g_.n]);
    next_region_ = 1;
    for (index_t c = 0; c < ncomp; ++c) {
      IndexVector verts;
      for (index_t v = 0; v < g_.n; ++v)
        if (comp[v] == c) verts.push_back(v);
      const index_t region = next_region_++;
      for (index_t v : verts) mask_[v] = region;
      dissect(verts, region, 0, out);
    }
    FROSCH_CHECK(static_cast<index_t>(out.size()) == g_.n,
                 "nested_dissection: lost vertices");
    return out;
  }

  double scanned() const { return scanned_; }
  count_t splits() const { return splits_; }
  int max_depth() const { return max_depth_; }

 private:
  void order_leaf(const IndexVector& verts, IndexVector& out) {
    // Order leaf vertices by degree within the subgraph (cheap approximation
    // of minimum degree); ties by id for determinism.
    scanned_ += static_cast<double>(verts.size());
    IndexVector sorted = verts;
    std::sort(sorted.begin(), sorted.end(), [&](index_t a, index_t b) {
      const index_t da = g_.degree(a), db = g_.degree(b);
      return da != db ? da < db : a < b;
    });
    out.insert(out.end(), sorted.begin(), sorted.end());
  }

  void dissect(const IndexVector& verts, index_t region, int depth,
               IndexVector& out) {
    max_depth_ = std::max(max_depth_, depth);
    if (static_cast<index_t>(verts.size()) <= opts_.leaf_size ||
        depth >= opts_.max_depth) {
      order_leaf(verts, out);
      return;
    }
    // Level structure from a pseudo-peripheral vertex of this region.
    index_t passes = 0;
    const index_t root =
        pseudo_peripheral(g_, verts.front(), mask_, region, &passes);
    IndexVector level;
    IndexVector order = bfs_levels(g_, root, mask_, region, level);
    // The BFS sweeps plus the separator scan each visit (at most) the
    // region's adjacency.
    double region_adj = 0.0;
    for (index_t v : verts) region_adj += static_cast<double>(g_.degree(v));
    scanned_ += region_adj * static_cast<double>(passes + 2);
    ++splits_;
    if (order.size() != verts.size()) {
      // Region became disconnected (shouldn't happen for a component, but be
      // safe): order the stragglers as a leaf.
      order_leaf(verts, out);
      return;
    }
    const index_t max_level = level[order.back()];
    if (max_level < 2) {
      order_leaf(verts, out);
      return;
    }
    // Split at the level that balances the halves best.
    IndexVector level_count(static_cast<size_t>(max_level) + 1, 0);
    for (index_t v : order) level_count[level[v]]++;
    index_t cut = 1, acc = 0;
    const index_t half = static_cast<index_t>(verts.size()) / 2;
    for (index_t l = 0; l <= max_level; ++l) {
      acc += level_count[l];
      if (acc >= half) {
        cut = std::min<index_t>(std::max<index_t>(l, 1), max_level - 1);
        break;
      }
    }
    // Left = levels <= cut, right = levels > cut; separator = left vertices
    // adjacent to right vertices.
    const index_t left_region = next_region_++;
    const index_t right_region = next_region_++;
    for (index_t v : order)
      mask_[v] = (level[v] <= cut) ? left_region : right_region;
    IndexVector sep;
    for (index_t v : order) {
      if (mask_[v] != left_region) continue;
      for (index_t k = g_.xadj[v]; k < g_.xadj[v + 1]; ++k) {
        if (mask_[g_.adj[k]] == right_region) {
          sep.push_back(v);
          break;
        }
      }
    }
    const index_t sep_region = next_region_++;
    for (index_t v : sep) mask_[v] = sep_region;

    IndexVector left, right;
    for (index_t v : order) {
      if (mask_[v] == left_region) left.push_back(v);
      else if (mask_[v] == right_region) right.push_back(v);
    }
    if (left.empty() || right.empty()) {
      // Degenerate split; stop recursing.
      for (index_t v : order) mask_[v] = region;
      order_leaf(verts, out);
      return;
    }
    dissect(left, left_region, depth + 1, out);
    dissect(right, right_region, depth + 1, out);
    order_leaf(sep, out);  // separator ordered last
  }

  const Graph& g_;
  NestedDissectionOptions opts_;
  IndexVector mask_;
  index_t next_region_ = 1;
  double scanned_ = 0.0;
  count_t splits_ = 0;
  int max_depth_ = 0;
};

}  // namespace

IndexVector nested_dissection(const Graph& g,
                              const NestedDissectionOptions& opts,
                              OpProfile* prof) {
  if (g.n == 0) return {};
  Dissector d(g, opts);
  IndexVector perm = d.run();
  if (prof != nullptr) {
    // Priced like recursive_bisection: each scanned entry reads the
    // neighbor id, its mask and its BFS level slot.
    OpProfile bp;
    bp.bytes = d.scanned() * (3.0 * sizeof(index_t));
    bp.work_items = d.scanned();
    bp.launches = 2 * d.splits() + 1;  // BFS fronts per split + components
    bp.critical_path = static_cast<count_t>(d.max_depth()) + 1;
    *prof += bp;
  }
  return perm;
}

}  // namespace frosch::graph
