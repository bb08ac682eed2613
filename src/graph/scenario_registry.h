// Scenario registry: string-keyed workload factories over the generators.
//
// The paper's headline results (Theorem 4 / Corollary 1) are statements
// about *families* of instances with unknown parameters, so the harness
// needs a first-class way to name a family, turn two knobs, and get a
// deterministic topology. Every factory is a pure function of
// (params, rng); the registry derives the Rng from the caller's seed, so a
// scenario cell (name, params, seed) always yields the same graph — the
// property the campaign layer's bit-identical guarantee builds on.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/graph/generators.h"

namespace unilocal {

/// Knobs of one scenario; a and b are interpreted per family (see the
/// describe() string of each built-in) and 0 means "use the family
/// default".
struct ScenarioParams {
  NodeId n = 100;
  double a = 0.0;
  double b = 0.0;
};

/// Largest accepted a or b: factories cast them to NodeId, which must not
/// overflow.
inline constexpr double kMaxScenarioKnob = 1e6;

/// Throws std::runtime_error naming the field unless n >= 0 and a, b lie in
/// [0, kMaxScenarioKnob]. Documents read from outside (shard manifests)
/// call this before any factory sees the params.
void validate_scenario_params(const ScenarioParams& params);

class ScenarioRegistry {
 public:
  using Factory = std::function<Graph(const ScenarioParams&, Rng&)>;

  /// Registers (or replaces) a family under `name`.
  void add(std::string name, std::string describe, Factory factory);

  bool contains(const std::string& name) const;
  /// Registered family names, sorted.
  std::vector<std::string> names() const;
  /// One-line knob documentation; throws std::runtime_error on unknown
  /// names.
  const std::string& describe(const std::string& name) const;

  /// Builds the family's graph. Deterministic: depends only on
  /// (name, params, seed). Throws std::runtime_error on unknown names.
  Graph build(const std::string& name, const ScenarioParams& params,
              std::uint64_t seed) const;

 private:
  struct Entry {
    std::string describe;
    Factory factory;
  };
  std::map<std::string, Entry> entries_;
};

/// The built-in families over src/graph/generators.h: path, cycle, clique,
/// bipartite, grid, hypercube, gnp, bounded-degree, tree, forest,
/// layered-forest, power-law, geometric, caterpillar.
const ScenarioRegistry& default_scenarios();

}  // namespace unilocal
