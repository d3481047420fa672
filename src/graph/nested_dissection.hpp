// Nested-dissection fill-reducing ordering (George 1973), built on BFS
// level-structure bisection with a vertex separator.
//
// The paper orders every local overlapping subdomain matrix with METIS nested
// dissection before factorization (Section VIII-A); ND both reduces fill and
// -- critically for the GPU story -- produces a wide, shallow elimination
// tree whose levels expose parallelism to the multifrontal (Tacho-like)
// factorization.
#pragma once

#include "common/op_profile.hpp"
#include "graph/graph.hpp"

namespace frosch::graph {

struct NestedDissectionOptions {
  /// Subgraphs at or below this size are ordered by minimum-degree-flavoured
  /// RCM instead of further dissection.
  index_t leaf_size = 32;
  /// Maximum recursion depth guard.
  int max_depth = 64;
};

/// Returns a permutation p (new -> old): leaves first, separators last,
/// recursively.  Applying permute_symmetric(A, p) yields the ND-ordered
/// matrix ready for (multifrontal) factorization.  `prof` (optional)
/// records the measured traversal volume -- the component pass, every BFS
/// sweep and separator scan of every bisection, and the leaf sorts -- as
/// recursive_bisection does for the partition.
IndexVector nested_dissection(const Graph& g,
                              const NestedDissectionOptions& opts = {},
                              OpProfile* prof = nullptr);

}  // namespace frosch::graph
