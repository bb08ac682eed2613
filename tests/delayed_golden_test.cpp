// Frozen delayed-network runs: every RunResult field the delayed mode
// produces — outputs, local and global finish rounds, global rounds, the
// finish verdict and every EngineStats row except the timing- and
// capacity-dependent ones (elapsed_seconds, steps_per_second,
// arena_bytes) — must equal tests/golden/delayed-runs.json byte for byte.
//
// The grid crosses the three latency presets with one fault mix each of
// crashes, late joiners on explicit wake rounds, duplicates, moderate drops,
// drop 0.95 (some pulses abandoned after the retransmission cap), drop 1.0
// (a full stall) and a max_rounds cut-off, over three instance families and
// three workloads: a plain kernel (Luby), a composite chain kernel, and the
// coloring-theorem5 pipeline (many alternation runs per cell; its rows are
// the pipeline's CellOutcome, whose stats merge every run's).
//
// After the delayed grid come the synchronizer's runs: staggered
// RunOptions::wake_rounds on the synchronous network, frozen from the
// synchronizer's own scheduler before it was folded into the delayed
// network's loop. They cross four wake mixes (staggered, negative entries, late
// wakers at 40 + v, and a max_rounds cut-off) with the three families, a
// path beside an isolated node, and the empty graph, for Luby and the
// chain. Their rows carry every field but the two batch counters, which
// only say how the engine dispatched the kernel.
//
// To regenerate after an intended change in the delayed mode, copy the
// delayed-runs.json this test writes into its working directory on a
// mismatch over tests/golden/delayed-runs.json.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "src/algo/greedy_mis.h"
#include "src/algo/luby.h"
#include "src/graph/graph.h"
#include "src/graph/scenario_registry.h"
#include "src/runtime/algorithm_registry.h"
#include "src/runtime/chain.h"
#include "src/runtime/runner.h"
#include "src/util/json.h"
#include "tests/test_support.h"

namespace unilocal {
namespace {

using testing_support::fnv1a;
using testing_support::kGoldenHashBasis;

json::Value int_array(const std::vector<std::int64_t>& values) {
  json::Value out = json::Value::array();
  for (const std::int64_t value : values)
    out.push_back(json::Value::number(value));
  return out;
}

void add_stats(json::Value& row, const EngineStats& stats,
               bool batch_counters = true) {
  for_each_engine_stat([&](const EngineStatField& field, auto member) {
    if constexpr (std::is_integral_v<
                      std::remove_reference_t<decltype(stats.*member)>>) {
      if (field.id == EngineStat::arena_bytes) return;
      if (!batch_counters && (field.id == EngineStat::kernel_batched_steps ||
                              field.id == EngineStat::kernel_batch_calls))
        return;
      row.set(field.name, json::Value::number(
                              static_cast<std::int64_t>(stats.*member)));
    }
  });
}

struct FaultMix {
  std::string name;
  NetworkOptions network;
  bool wake_rounds = false;       // staggered RunOptions::wake_rounds
  std::int64_t max_rounds = 0;    // 0 = the default cap
};

std::vector<FaultMix> fault_mixes(DelayPreset preset) {
  NetworkOptions base;
  base.kind = NetworkKind::kDelayed;
  base.preset = preset;
  std::vector<FaultMix> mixes;
  const auto add = [&](std::string name, auto tweak) {
    FaultMix mix{std::move(name), base};
    tweak(mix);
    mixes.push_back(mix);
  };
  add("clean", [](FaultMix&) {});
  add("crash", [](FaultMix& m) { m.network.crash = 0.1; });
  add("late", [](FaultMix& m) {
    m.network.late = 0.4;
    m.network.late_by = 30;
    m.wake_rounds = true;
  });
  add("dup", [](FaultMix& m) { m.network.duplicate = 0.3; });
  add("drop0.3", [](FaultMix& m) { m.network.drop = 0.3; });
  add("drop0.95", [](FaultMix& m) {
    m.network.drop = 0.95;
    m.network.max_delay = 3;
  });
  add("drop1", [](FaultMix& m) { m.network.drop = 1.0; });
  add("cutoff", [](FaultMix& m) {
    m.network.duplicate = 0.2;
    m.network.drop = 0.1;
    m.max_rounds = 5;
  });
  return mixes;
}

json::Value run_row(const std::string& run, const RunResult& result,
                    bool batch_counters = true) {
  json::Value row = json::Value::object();
  row.set("run", json::Value::string(run));
  row.set("output_hash",
          json::Value::number(fnv1a(result.outputs, kGoldenHashBasis)));
  row.set("finish_rounds", int_array(result.finish_rounds));
  row.set("global_finish_rounds", int_array(result.global_finish_rounds));
  row.set("rounds_used", json::Value::number(result.rounds_used));
  row.set("global_rounds", json::Value::number(result.global_rounds));
  row.set("all_finished", json::Value::boolean(result.all_finished));
  row.set("max_message_words", json::Value::number(result.max_message_words));
  add_stats(row, result.stats, batch_counters);
  return row;
}

struct WakeMix {
  std::string name;
  std::int64_t (*wake)(NodeId v);
  std::int64_t max_rounds = 0;  // 0 = the default cap
};

std::vector<WakeMix> wake_mixes() {
  return {
      {"stagger", [](NodeId v) -> std::int64_t { return (v * 7) % 11; }},
      {"negative", [](NodeId v) -> std::int64_t { return (v * 5) % 9 - 4; }},
      {"late", [](NodeId v) -> std::int64_t { return 40 + v; }},
      {"cutoff", [](NodeId v) -> std::int64_t { return (v * 7) % 11; }, 3},
  };
}

/// The synchronizer's instances: the three families at n = 40, a path of
/// nine nodes beside an isolated node, and the empty graph.
std::vector<std::pair<std::string, Instance>> sync_instances() {
  std::vector<std::pair<std::string, Instance>> out;
  std::uint64_t seed = 3;
  for (const std::string family : {"gnp", "bounded-degree", "power-law"}) {
    ScenarioParams params;
    params.n = 40;
    out.emplace_back(family, make_instance(default_scenarios().build(
                                               family, params, seed),
                                           IdentityScheme::kRandomPermuted,
                                           seed));
    ++seed;
  }
  GraphBuilder builder(10);
  for (NodeId v = 0; v + 1 < 9; ++v) builder.add_edge(v, v + 1);
  out.emplace_back("isolated", make_instance(builder.build(),
                                             IdentityScheme::kRandomPermuted,
                                             seed++));
  out.emplace_back("empty", make_instance(Graph(0),
                                          IdentityScheme::kSequential, seed));
  return out;
}

std::string compute_document() {
  const std::vector<std::string> families = {"gnp", "bounded-degree",
                                             "power-law"};
  const auto luby = std::make_shared<LubyMis>();
  const ChainAlgorithm chain(
      "luby-then-greedy",
      {{luby, 6}, {std::make_shared<GreedyMis>(), 40}});
  const AlgorithmRegistry& registry = default_algorithm_registry();

  std::string doc = "[\n";
  bool first = true;
  const auto emit = [&](const json::Value& row) {
    if (!first) doc += ",\n";
    first = false;
    doc += row.dump();
  };
  for (const DelayPreset preset : {DelayPreset::kUniform,
                                   DelayPreset::kWeighted,
                                   DelayPreset::kHeavyTail}) {
    for (const FaultMix& mix : fault_mixes(preset)) {
      std::uint64_t seed = 3;
      for (const std::string& family : families) {
        ScenarioParams params;
        params.n = 40;
        const Instance instance = make_instance(
            default_scenarios().build(family, params, seed),
            IdentityScheme::kRandomPermuted, seed);
        const std::string label = std::string(delay_preset_name(preset)) +
                                  '/' + mix.name + '/' + family;
        RunOptions options;
        options.seed = seed;
        options.network = mix.network;
        if (mix.max_rounds > 0) options.max_rounds = mix.max_rounds;
        if (mix.wake_rounds)
          for (NodeId v = 0; v < instance.num_nodes(); ++v)
            options.wake_rounds.push_back((v * 7) % 11);
        const std::vector<std::pair<std::string, const Algorithm*>> runs = {
            {"luby", luby.get()}, {"chain", &chain}};
        for (const auto& [name, algorithm] : runs) {
          emit(run_row(label + '/' + name,
                       run_local(instance, *algorithm, options)));
        }
        // The pipeline takes its network from the run context; staggered
        // wake rounds and the cut-off are RunOptions the registry does not
        // expose, so those mixes run it on their network knobs alone.
        AlgorithmRunContext context;
        context.seed = seed;
        context.network = mix.network;
        const CellOutcome outcome =
            registry.run("coloring-theorem5", instance, context);
        json::Value row = json::Value::object();
        row.set("run", json::Value::string(label + "/coloring-theorem5"));
        row.set("output_hash",
                json::Value::number(fnv1a(outcome.outputs, kGoldenHashBasis)));
        row.set("rounds", json::Value::number(outcome.rounds));
        row.set("solved", json::Value::boolean(outcome.solved));
        row.set("iterations",
                json::Value::number(static_cast<std::int64_t>(
                    outcome.iterations)));
        add_stats(row, outcome.stats);
        emit(row);
        ++seed;
      }
    }
  }
  const std::vector<std::pair<std::string, Instance>> instances =
      sync_instances();
  for (const WakeMix& mix : wake_mixes()) {
    for (const auto& [family, instance] : instances) {
      RunOptions options;
      options.seed = 11;
      if (mix.max_rounds > 0) options.max_rounds = mix.max_rounds;
      for (NodeId v = 0; v < instance.num_nodes(); ++v)
        options.wake_rounds.push_back(mix.wake(v));
      const std::string label = "sync/" + mix.name + '/' + family;
      emit(run_row(label + "/luby", run_local(instance, *luby, options),
                   /*batch_counters=*/false));
      emit(run_row(label + "/chain", run_local(instance, chain, options),
                   /*batch_counters=*/false));
    }
  }
  return doc + "\n]\n";
}

/// Names the first field where two rows (one JSON object per line, with a
/// trailing comma between rows) differ.
std::string first_difference(std::string computed_line,
                             std::string golden_line) {
  json::Value computed, golden;
  try {
    for (std::string* line : {&computed_line, &golden_line})
      if (!line->empty() && line->back() == ',') line->pop_back();
    computed = json::Value::parse(computed_line);
    golden = json::Value::parse(golden_line);
  } catch (const std::exception&) {
    return "unparsable line";
  }
  if (!computed.is_object() || !golden.is_object()) return "not an object";
  const json::Value* run = golden.find("run");
  const std::string name = run != nullptr && run->is_string()
                               ? run->as_string()
                               : std::string("?");
  for (const auto& [key, value] : computed.as_object()) {
    const json::Value* other = golden.find(key);
    if (other == nullptr)
      return "run " + name + ": field " + key + " missing from the golden";
    if (*other != value)
      return "run " + name + ": field " + key + " computed " + value.dump() +
             ", golden " + other->dump();
  }
  return "run " + name + ": golden has fields the run does not";
}

TEST(DelayedGolden, RunsMatchCheckedInFile) {
  const std::string path =
      std::string(UNILOCAL_SOURCE_DIR) + "/tests/golden/delayed-runs.json";
  std::ifstream in(path, std::ios::binary);
  std::ostringstream file;
  if (in) file << in.rdbuf();
  const std::string computed = compute_document();
  if (computed == file.str()) return;
  std::ofstream("delayed-runs.json", std::ios::binary) << computed;
  std::istringstream a(computed), b(file.str());
  std::string line_a, line_b;
  int line = 1;
  while (std::getline(a, line_a) && std::getline(b, line_b) &&
         line_a == line_b)
    ++line;
  ADD_FAILURE() << path << " differs at line " << line << ": "
                << first_difference(line_a, line_b)
                << "\nthe computed document was written to "
                   "delayed-runs.json in the test's working directory";
}

}  // namespace
}  // namespace unilocal
