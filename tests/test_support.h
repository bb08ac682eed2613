// Shared helpers for the test suite: a standard sweep of instance families
// and centralized reference solvers used to exercise the gluing property.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "src/graph/generators.h"
#include "src/problems/matching.h"
#include "src/runtime/instance.h"
#include "src/runtime/runner.h"

namespace unilocal {
namespace testing_support {

/// The basis the frozen golden fixtures (kernel-blocks.json,
/// delayed-runs.json) were written with: the FNV-1a 64-bit offset basis
/// missing its last digit. Changing it would rewrite every stored digest.
inline constexpr std::uint64_t kGoldenHashBasis = 1469598103934665603ULL;

/// FNV-1a over the little-endian bytes of `values`. The default basis is
/// the standard offset basis, which CellResult::output_hash uses; the golden
/// fixtures pass kGoldenHashBasis.
inline std::uint64_t fnv1a(const std::vector<std::int64_t>& values,
                           std::uint64_t basis = 14695981039346656037ULL) {
  std::uint64_t hash = basis;
  for (const std::int64_t value : values) {
    auto word = static_cast<std::uint64_t>(value);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= word & 0xff;
      hash *= 1099511628211ULL;
      word >>= 8;
    }
  }
  return hash;
}

/// An EngineStats whose k-th table row (1-based) holds base * k, plus 1/3
/// on floating-point rows: every row distinct and non-zero, so a dropped,
/// swapped or rounded field shows up in a round trip.
inline EngineStats distinct_engine_stats(int base) {
  EngineStats stats;
  int row = 0;
  for_each_engine_stat([&](const EngineStatField&, auto member) {
    ++row;
    using T = std::remove_reference_t<decltype(stats.*member)>;
    stats.*member = static_cast<T>(base * row);
    if constexpr (std::is_floating_point_v<T>) stats.*member += 1.0 / 3.0;
  });
  return stats;
}

struct NamedInstance {
  std::string name;
  Instance instance;
};

/// A diverse sweep of small/medium instances across the families the paper's
/// Table 1 targets (general, bounded-degree, bounded-arboricity, adversarial
/// identity orderings).
inline std::vector<NamedInstance> standard_instances(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<NamedInstance> result;
  auto add = [&result](std::string name, Graph g, IdentityScheme scheme,
                       std::uint64_t s) {
    result.push_back({std::move(name), make_instance(std::move(g), scheme, s)});
  };
  add("path-sorted-ids", path_graph(40), IdentityScheme::kSequential, 1);
  add("path-random-ids", path_graph(40), IdentityScheme::kRandomPermuted, 2);
  add("cycle", cycle_graph(41), IdentityScheme::kRandomPermuted, 3);
  add("clique", complete_graph(12), IdentityScheme::kRandomPermuted, 4);
  add("bipartite", complete_bipartite(6, 9), IdentityScheme::kRandomSparse, 5);
  add("grid", grid_graph(8, 7), IdentityScheme::kRandomPermuted, 6);
  add("hypercube", hypercube(5), IdentityScheme::kRandomPermuted, 7);
  add("gnp-sparse", gnp(90, 0.04, rng), IdentityScheme::kRandomPermuted, 8);
  add("gnp-dense", gnp(40, 0.25, rng), IdentityScheme::kRandomSparse, 9);
  add("bounded-deg-4", random_bounded_degree(100, 4, 0.9, rng),
      IdentityScheme::kRandomPermuted, 10);
  add("tree", random_tree(80, rng), IdentityScheme::kRandomPermuted, 11);
  add("forest", random_forest(70, 5, rng), IdentityScheme::kRandomSparse, 12);
  add("layered-forest-2", random_layered_forest(70, 2, rng),
      IdentityScheme::kRandomPermuted, 13);
  add("caterpillar", caterpillar(25, 30, rng), IdentityScheme::kRandomPermuted,
      14);
  add("isolated", Graph(7), IdentityScheme::kRandomPermuted, 15);
  add("singleton", Graph(1), IdentityScheme::kSequential, 16);
  add("empty", Graph(0), IdentityScheme::kSequential, 17);
  return result;
}

/// Centralized greedy MIS (reference solver for gluing tests).
inline std::vector<std::int64_t> central_mis(const Graph& g) {
  std::vector<std::int64_t> out(static_cast<std::size_t>(g.num_nodes()), 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    bool blocked = false;
    for (NodeId u : g.neighbors(v)) {
      if (out[static_cast<std::size_t>(u)] != 0) blocked = true;
    }
    if (!blocked) out[static_cast<std::size_t>(v)] = 1;
  }
  return out;
}

/// Centralized greedy maximal matching in the paper's value encoding.
inline std::vector<std::int64_t> central_matching(const Instance& instance) {
  const Graph& g = instance.graph;
  std::vector<std::int64_t> out(static_cast<std::size_t>(g.num_nodes()));
  std::vector<bool> matched(static_cast<std::size_t>(g.num_nodes()), false);
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    out[static_cast<std::size_t>(v)] =
        unmatched_value(instance.identities[static_cast<std::size_t>(v)]);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (matched[static_cast<std::size_t>(v)]) continue;
    for (NodeId u : g.neighbors(v)) {
      if (u > v && !matched[static_cast<std::size_t>(u)]) {
        const std::int64_t value =
            match_value(instance.identities[static_cast<std::size_t>(v)],
                        instance.identities[static_cast<std::size_t>(u)]);
        out[static_cast<std::size_t>(v)] = value;
        out[static_cast<std::size_t>(u)] = value;
        matched[static_cast<std::size_t>(v)] = true;
        matched[static_cast<std::size_t>(u)] = true;
        break;
      }
    }
  }
  return out;
}

}  // namespace testing_support
}  // namespace unilocal
