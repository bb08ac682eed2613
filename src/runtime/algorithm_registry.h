// First-class algorithm registry: the string-keyed table of runnable paper
// pipelines, symmetric with the scenario registry
// (src/graph/scenario_registry.h).
//
// An AlgorithmSpec names one pipeline, the problem key its outputs are
// scored against (src/problems/registry.h), the knob values baked into it
// (e.g. ruling-set beta, coloring slack lambda), the scenario families its
// Table 1 row is stated over, and the factory that actually runs it. Every
// factory must be deterministic in (instance, seed), run its engine with
// the thread count the context prescribes (the engine is thread-count
// invariant, so outputs never depend on it), and honor the lent workspace —
// that is what makes campaign results bit-identical for any worker count.
//
// Note on layering: like src/runtime/campaign.*, this is the orchestration
// layer of the library — its default table wires up core/algo/prune — so
// nothing below it may include it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/problems/problem.h"
#include "src/runtime/instance.h"
#include "src/runtime/runner.h"

namespace unilocal {

/// What one registry entry produced on an instance.
struct CellOutcome {
  std::vector<std::int64_t> outputs;
  std::int64_t rounds = 0;
  bool solved = false;
  EngineStats stats;
  /// Guess-doubling iterations (UniformRunResult::iterations_used); 0 for
  /// pipelines that do not double guesses.
  int iterations = 0;
};

/// An entry's non-uniform original run once with the correct guesses — the
/// paper's reference configuration — and its bound f* there.
struct BaselineOutcome {
  CellOutcome outcome;
  double f_star = 0.0;
};

/// Everything a factory run needs beyond the instance.
struct AlgorithmRunContext {
  std::uint64_t seed = 1;
  /// Lent engine workspace (campaigns lend a pool workspace); may be null.
  EngineWorkspace* workspace = nullptr;
  /// RunOptions::num_threads for the entry's engine runs (thread-count
  /// invariant — affects latency only, never outputs).
  int engine_threads = 1;
  /// RunOptions::network for the entry's engine runs (synchronous arena vs
  /// the seeded delayed network with latency/fault injection).
  NetworkOptions network;
};

struct AlgorithmSpec {
  /// Registry key (unique; duplicates are registration errors).
  std::string name;
  /// Problem key for the centralized checker, in make_problem() syntax
  /// (src/problems/registry.h), e.g. "mis", "coloring:deg+1".
  std::string problem;
  /// One-line documentation (theorem/pipeline provenance).
  std::string describe;
  /// Named knob values baked into the factory (ruling-set beta, transformer
  /// slack lambda, ...); introspection for listings and sweeps.
  std::map<std::string, double> knobs;
  /// Scenario-registry keys of the families this entry's Table 1 row is
  /// stated over — what `unilocal_cli table1` pairs it with.
  std::vector<std::string> table1_scenarios;
  std::function<CellOutcome(const Instance&, const AlgorithmRunContext&)> run;
  /// Set on entries that transform a non-uniform original: runs that
  /// original with the correct guesses (the denominator of Table 1's ratio,
  /// src/runtime/paper_ledger.h). Null for entries that are their own
  /// baseline.
  std::function<BaselineOutcome(const Instance&, const AlgorithmRunContext&)>
      baseline = nullptr;
};

/// Simple key glob: '*' matches any run (including empty), '?' any one
/// character; everything else is literal.
bool algorithm_key_glob_match(const std::string& pattern,
                              const std::string& name);

class AlgorithmRegistry {
 public:
  /// Registers a spec. Throws std::runtime_error on duplicate names, empty
  /// names, missing factories, and problem keys make_problem() rejects (the
  /// validator is resolved eagerly so a bad key fails at registration, not
  /// mid-campaign).
  void add(AlgorithmSpec spec);

  bool contains(const std::string& name) const;
  /// Registered keys, sorted.
  std::vector<std::string> names() const;
  /// Throws std::runtime_error on unknown names.
  const AlgorithmSpec& spec(const std::string& name) const;
  /// The entry's validator (never null); throws on unknown names.
  const Problem& problem(const std::string& name) const;
  CellOutcome run(const std::string& name, const Instance& instance,
                  const AlgorithmRunContext& context) const;

  /// Expands selection patterns into sorted, deduplicated keys: "all"
  /// selects everything, '*'/'?' glob against the keys, anything else must
  /// match a key exactly. Throws one std::runtime_error naming every
  /// pattern that selected nothing.
  std::vector<std::string> resolve(
      const std::vector<std::string>& patterns) const;

 private:
  struct Entry {
    AlgorithmSpec spec;
    std::shared_ptr<const Problem> problem;
  };
  std::map<std::string, Entry> entries_;
};

/// The built-in table — the full pipeline zoo (>= 18 entries):
///
///   MIS        mis-uniform, mis-global-uniform, arb-mis, mis-fastest,
///              mis-fastest-arb, mis-lv, luby-mis
///   coloring   coloring-theorem5, coloring-theorem5-lambda4, arb-coloring,
///              product-coloring, linial-coloring, dplus1-coloring,
///              lambda4-coloring, color-reduce, cole-vishkin
///   matching   matching-uniform
///   ruling set rulingset2-lv, rulingset3-lv
///
/// See each entry's describe() for the theorem/pipeline provenance.
const AlgorithmRegistry& default_algorithm_registry();

}  // namespace unilocal
