#include "src/graph/scenario_registry.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "src/util/math.h"

namespace unilocal {

void ScenarioRegistry::add(std::string name, std::string describe,
                           Factory factory) {
  entries_[std::move(name)] = Entry{std::move(describe), std::move(factory)};
}

bool ScenarioRegistry::contains(const std::string& name) const {
  return entries_.count(name) != 0;
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::vector<std::string> result;
  result.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) result.push_back(name);
  return result;
}

const std::string& ScenarioRegistry::describe(const std::string& name) const {
  const auto it = entries_.find(name);
  if (it == entries_.end())
    throw std::runtime_error("unknown scenario: " + name);
  return it->second.describe;
}

void validate_scenario_params(const ScenarioParams& params) {
  if (params.n < 0)
    throw std::runtime_error("ScenarioParams::n must be >= 0, got " +
                             std::to_string(params.n));
  const auto check_knob = [](const char* name, double value) {
    if (value >= 0.0 && value <= kMaxScenarioKnob) return;
    std::ostringstream message;
    message << "ScenarioParams::" << name << " must be in [0, "
            << kMaxScenarioKnob << "], got " << value;
    throw std::runtime_error(message.str());
  };
  check_knob("a", params.a);
  check_knob("b", params.b);
}

Graph ScenarioRegistry::build(const std::string& name,
                              const ScenarioParams& params,
                              std::uint64_t seed) const {
  const auto it = entries_.find(name);
  if (it == entries_.end())
    throw std::runtime_error("unknown scenario: " + name);
  Rng rng(seed);
  return it->second.factory(params, rng);
}

namespace {

NodeId at_least(NodeId n, NodeId floor) { return n < floor ? floor : n; }

ScenarioRegistry make_default_scenarios() {
  ScenarioRegistry registry;
  registry.add("path", "path on n nodes (a, b unused)",
               [](const ScenarioParams& p, Rng&) {
                 return path_graph(at_least(p.n, 1));
               });
  registry.add("cycle", "cycle on max(n, 3) nodes (a, b unused)",
               [](const ScenarioParams& p, Rng&) {
                 return cycle_graph(at_least(p.n, 3));
               });
  registry.add("clique", "complete graph K_n (a, b unused)",
               [](const ScenarioParams& p, Rng&) {
                 return complete_graph(at_least(p.n, 1));
               });
  registry.add("bipartite",
               "complete bipartite K_{a*n, (1-a)*n}; a = left fraction "
               "(default 0.5)",
               [](const ScenarioParams& p, Rng&) {
                 const NodeId n = at_least(p.n, 2);
                 const double fraction = p.a > 0.0 ? p.a : 0.5;
                 NodeId left = static_cast<NodeId>(
                     static_cast<double>(n) * fraction);
                 left = std::min(at_least(left, 1),
                                 static_cast<NodeId>(n - 1));
                 return complete_bipartite(left, n - left);
               });
  registry.add("grid",
               "~n-node 2D grid; a = width (default ~sqrt(n)); arboricity "
               "<= 2",
               [](const ScenarioParams& p, Rng&) {
                 const NodeId n = at_least(p.n, 1);
                 const NodeId width =
                     p.a > 0.0
                         ? at_least(static_cast<NodeId>(p.a), 1)
                         : at_least(static_cast<NodeId>(std::lround(
                                        std::sqrt(static_cast<double>(n)))),
                                    1);
                 const NodeId height = static_cast<NodeId>(
                     ceil_div(n, width));
                 return grid_graph(width, at_least(height, 1));
               });
  registry.add("hypercube",
               "hypercube on 2^floor(log2 n) nodes (a, b unused)",
               [](const ScenarioParams& p, Rng&) {
                 return hypercube(ilog2(
                     static_cast<std::uint64_t>(at_least(p.n, 1))));
               });
  registry.add("gnp",
               "Erdos-Renyi G(n, p); a = p (default b/n), b = target "
               "average degree (default 8)",
               [](const ScenarioParams& p, Rng& rng) {
                 const NodeId n = at_least(p.n, 1);
                 const double avg = p.b > 0.0 ? p.b : 8.0;
                 const double prob =
                     p.a > 0.0 ? p.a
                               : std::min(1.0, avg / static_cast<double>(n));
                 return gnp(n, prob, rng);
               });
  registry.add("bounded-degree",
               "random graph with max degree <= a (default 4), fill "
               "fraction b (default 0.9)",
               [](const ScenarioParams& p, Rng& rng) {
                 const NodeId max_deg =
                     p.a > 0.0 ? at_least(static_cast<NodeId>(p.a), 1) : 4;
                 const double fill = p.b > 0.0 ? p.b : 0.9;
                 return random_bounded_degree(at_least(p.n, 1), max_deg,
                                              fill, rng);
               });
  registry.add("tree", "uniform random labelled tree (a, b unused)",
               [](const ScenarioParams& p, Rng& rng) {
                 return random_tree(at_least(p.n, 1), rng);
               });
  registry.add("forest",
               "forest of a random trees (default n/16) on n nodes",
               [](const ScenarioParams& p, Rng& rng) {
                 const NodeId n = at_least(p.n, 1);
                 const NodeId trees =
                     p.a > 0.0 ? at_least(static_cast<NodeId>(p.a), 1)
                               : at_least(n / 16, 1);
                 return random_forest(n, std::min(trees, n), rng);
               });
  registry.add("layered-forest",
               "union of a random spanning forests (default 2): arboricity "
               "<= a by construction",
               [](const ScenarioParams& p, Rng& rng) {
                 const int layers =
                     p.a > 0.0 ? std::max(static_cast<int>(p.a), 1) : 2;
                 return random_layered_forest(at_least(p.n, 1), layers, rng);
               });
  registry.add("power-law",
               "Chung-Lu power law; a = exponent beta (default 2.5), b = "
               "average degree (default 8)",
               [](const ScenarioParams& p, Rng& rng) {
                 const double beta = p.a > 0.0 ? p.a : 2.5;
                 const double avg = p.b > 0.0 ? p.b : 8.0;
                 return power_law(at_least(p.n, 1), beta, avg, rng);
               });
  registry.add("geometric",
               "random geometric graph on the unit square; a = radius "
               "(default targets average degree b, default 8)",
               [](const ScenarioParams& p, Rng& rng) {
                 const NodeId n = at_least(p.n, 1);
                 const double avg = p.b > 0.0 ? p.b : 8.0;
                 const double radius =
                     p.a > 0.0
                         ? p.a
                         : std::sqrt(avg / (3.14159265358979323846 *
                                            static_cast<double>(n)));
                 return random_geometric(n, std::min(radius, 1.5), rng);
               });
  registry.add("caterpillar",
               "spine path with pendant legs; a = spine fraction of n "
               "(default 0.5); arboricity 1",
               [](const ScenarioParams& p, Rng& rng) {
                 const NodeId n = at_least(p.n, 2);
                 const double fraction = p.a > 0.0 ? p.a : 0.5;
                 NodeId spine = static_cast<NodeId>(
                     static_cast<double>(n) * fraction);
                 spine = std::min(at_least(spine, 1),
                                  static_cast<NodeId>(n - 1));
                 return caterpillar(spine, n - spine, rng);
               });
  return registry;
}

}  // namespace

const ScenarioRegistry& default_scenarios() {
  static const ScenarioRegistry registry = make_default_scenarios();
  return registry;
}

}  // namespace unilocal
