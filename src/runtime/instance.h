// The paper's notion of an instance (G, x): a topology plus, for each node,
// a unique identity Id(v) and an input bit-string x(v) (here: a vector of
// int64 values). Identity assignment schemes let the tests and benches probe
// both benign (random) and adversarial (sorted-along-a-path) orderings.
#pragma once

#include <cstdint>
#include <vector>

#include "src/graph/graph.h"
#include "src/graph/subgraph.h"
#include "src/util/rng.h"

namespace unilocal {

using Input = std::vector<std::int64_t>;

struct Instance {
  Graph graph;
  /// Unique identities; the library keeps them in [0, 2^31) so identity
  /// pairs can be packed into a single int64 output value (matching).
  std::vector<std::int64_t> identities;
  /// Per-node input vector x(v) (possibly empty).
  std::vector<Input> inputs;

  NodeId num_nodes() const noexcept { return graph.num_nodes(); }

  /// The topology; kept only for perfbench/perfbench.cpp's two callers.
  const Graph& csr() const { return graph; }

  /// Maximum identity m(G, x) — a non-decreasing graph parameter.
  std::int64_t max_identity() const;

  /// True when identities are unique, in range, and vectors are sized
  /// consistently with the graph.
  bool valid() const;
};

enum class IdentityScheme {
  kSequential,       // Id(v) = v + 1
  kRandomPermuted,   // random permutation of [1, n]
  kRandomSparse,     // n distinct random values in [1, 2^31)
};

/// Builds an instance over g with empty inputs and the chosen identities.
Instance make_instance(Graph g, IdentityScheme scheme = IdentityScheme::kRandomPermuted,
                       std::uint64_t seed = 1);

/// Restricts an instance to the kept nodes; identities are preserved
/// (paper: subinstances keep their identities), inputs are replaced by
/// `new_inputs` entries of the kept nodes (indexed by OLD node id). The
/// result takes `sub.graph` over: pass an rvalue to move it instead of
/// copying.
Instance restrict_instance(const Instance& instance, InducedSubgraph sub,
                           const std::vector<Input>& new_inputs);

}  // namespace unilocal
