// The algorithm registry: the full pipeline zoo is registered with valid
// problem keys and scenario hints, every entry solves + validates on its
// own Table 1 families, per-cell outputs stay bit-identical across campaign
// worker counts and when a direct registry run raises
// AlgorithmRunContext::engine_threads, every engine run of every pipeline
// uses the cell's network, and the registration / selection error paths
// fire.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "src/runtime/algorithm_registry.h"
#include "src/runtime/campaign.h"
#include "src/runtime/telemetry.h"
#include "src/util/json.h"

namespace unilocal {
namespace {

TEST(AlgorithmRegistry, ExposesThePipelineZoo) {
  const AlgorithmRegistry& registry = default_algorithm_registry();
  EXPECT_GE(registry.names().size(), 18u);
  for (const char* name :
       {"mis-uniform", "mis-global-uniform", "mis-fastest",
        "mis-fastest-arb", "arb-mis", "mis-lv", "luby-mis",
        "coloring-theorem5", "coloring-theorem5-lambda4", "arb-coloring",
        "product-coloring", "linial-coloring", "dplus1-coloring",
        "lambda4-coloring", "color-reduce", "cole-vishkin",
        "matching-uniform", "rulingset2-lv", "rulingset3-lv"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
  }
  const ScenarioRegistry& scenarios = default_scenarios();
  for (const std::string& name : registry.names()) {
    const AlgorithmSpec& spec = registry.spec(name);
    EXPECT_EQ(spec.name, name);
    EXPECT_FALSE(spec.describe.empty()) << name;
    EXPECT_FALSE(spec.problem.empty()) << name;
    // The validator resolved at registration time.
    EXPECT_FALSE(registry.problem(name).name().empty()) << name;
    // Every Table 1 scenario hint is a real scenario-registry key.
    EXPECT_FALSE(spec.table1_scenarios.empty()) << name;
    for (const std::string& scenario : spec.table1_scenarios)
      EXPECT_TRUE(scenarios.contains(scenario)) << name << '/' << scenario;
  }
}

TEST(AlgorithmRegistry, KnobsAreRecorded) {
  const AlgorithmRegistry& registry = default_algorithm_registry();
  EXPECT_EQ(registry.spec("rulingset2-lv").knobs.at("beta"), 2.0);
  EXPECT_EQ(registry.spec("rulingset3-lv").knobs.at("beta"), 3.0);
  EXPECT_EQ(registry.spec("coloring-theorem5").knobs.at("lambda"), 1.0);
  EXPECT_EQ(registry.spec("coloring-theorem5-lambda4").knobs.at("lambda"),
            4.0);
}

TEST(AlgorithmRegistry, RejectsBadRegistrations) {
  AlgorithmRegistry registry;
  const auto noop = [](const Instance& instance,
                       const AlgorithmRunContext&) {
    return CellOutcome{
        std::vector<std::int64_t>(
            static_cast<std::size_t>(instance.num_nodes()), 0),
        0, false, EngineStats{}};
  };
  registry.add({"ok", "mis", "fine", {}, {}, noop});
  // Duplicate names, unknown problem keys, empty names, and missing
  // factories are registration errors, not latent campaign failures.
  EXPECT_THROW(registry.add({"ok", "mis", "", {}, {}, noop}),
               std::runtime_error);
  EXPECT_THROW(registry.add({"bad-problem", "no-such-problem", "", {}, {},
                             noop}),
               std::runtime_error);
  EXPECT_THROW(registry.add({"", "mis", "", {}, {}, noop}),
               std::runtime_error);
  EXPECT_THROW(registry.add({"no-factory", "mis", "", {}, {}, nullptr}),
               std::runtime_error);
}

TEST(AlgorithmRegistry, UnknownKeysThrow) {
  const AlgorithmRegistry& registry = default_algorithm_registry();
  EXPECT_FALSE(registry.contains("no-such-algorithm"));
  EXPECT_THROW(registry.spec("no-such-algorithm"), std::runtime_error);
  EXPECT_THROW(registry.problem("no-such-algorithm"), std::runtime_error);
  Instance instance;
  EXPECT_THROW(registry.run("no-such-algorithm", instance, {}),
               std::runtime_error);
}

TEST(AlgorithmRegistry, GlobMatching) {
  EXPECT_TRUE(algorithm_key_glob_match("mis-*", "mis-uniform"));
  EXPECT_TRUE(algorithm_key_glob_match("*-lv", "rulingset2-lv"));
  EXPECT_TRUE(algorithm_key_glob_match("*", ""));
  EXPECT_TRUE(algorithm_key_glob_match("rulingset?-lv", "rulingset3-lv"));
  EXPECT_FALSE(algorithm_key_glob_match("mis-*", "luby-mis"));
  EXPECT_FALSE(algorithm_key_glob_match("rulingset?-lv", "rulingset22-lv"));
}

TEST(AlgorithmRegistry, ResolvesPatterns) {
  const AlgorithmRegistry& registry = default_algorithm_registry();
  EXPECT_EQ(registry.resolve({"all"}), registry.names());
  const auto mis = registry.resolve({"mis-*"});
  EXPECT_GE(mis.size(), 5u);
  for (const std::string& name : mis)
    EXPECT_EQ(name.rfind("mis-", 0), 0u) << name;
  // Duplicates collapse; exact names pass through.
  EXPECT_EQ(registry.resolve({"mis-uniform", "mis-uniform"}),
            std::vector<std::string>{"mis-uniform"});
  // Every pattern that selects nothing lands in one error.
  try {
    registry.resolve({"mis-uniform", "nope-*", "also-missing"});
    FAIL() << "expected resolve to throw";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("nope-*"), std::string::npos) << message;
    EXPECT_NE(message.find("also-missing"), std::string::npos) << message;
  }
}

TEST(MakeGrid, ReportsAllUnknownKeysInOneError) {
  ScenarioParams params;
  params.n = 20;
  try {
    make_grid({"gnp", "no-such-family", "also-bad"}, params,
              {"mis-uniform", "no-such-algo"}, 1);
    FAIL() << "expected make_grid to throw";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("no-such-family"), std::string::npos) << message;
    EXPECT_NE(message.find("also-bad"), std::string::npos) << message;
    EXPECT_NE(message.find("no-such-algo"), std::string::npos) << message;
  }
  // Opt-out for grids aimed at a registry assembled later.
  GridOptions no_validation;
  no_validation.validate = false;
  EXPECT_EQ(make_grid({"no-such-family"}, params, {"no-such-algo"}, 1,
                      no_validation)
                .size(),
            1u);
}

TEST(MakeGrid, ValidateCellsCollectsUnknownKeys) {
  CampaignCell good;
  good.scenario = "gnp";
  good.algorithm = "mis-uniform";
  CampaignCell bad;
  bad.scenario = "no-such-family";
  bad.algorithm = "no-such-algo";
  EXPECT_NO_THROW(validate_cells({good}, default_scenarios(),
                                 default_algorithm_registry()));
  try {
    validate_cells({good, bad}, default_scenarios(),
                   default_algorithm_registry());
    FAIL() << "expected validate_cells to throw";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("no-such-family"), std::string::npos) << message;
    EXPECT_NE(message.find("no-such-algo"), std::string::npos) << message;
  }
}

TEST(MakeTable1Grid, CrossesEveryEntryWithItsOwnFamilies) {
  ScenarioParams params;
  params.n = 30;
  const auto cells = make_table1_grid(params, 2);
  const AlgorithmRegistry& registry = default_algorithm_registry();
  std::size_t expected = 0;
  for (const std::string& name : registry.names())
    expected += 2 * registry.spec(name).table1_scenarios.size();
  EXPECT_EQ(cells.size(), expected);
  for (const CampaignCell& cell : cells) {
    const auto& hints = registry.spec(cell.algorithm).table1_scenarios;
    EXPECT_NE(std::find(hints.begin(), hints.end(), cell.scenario),
              hints.end())
        << cell.algorithm << '/' << cell.scenario;
  }
}

// The edge sweep: every entry and every baseline hook on its own Table 1
// families at n = 0, 1 and 2 solves and passes its checker. The families
// round n = 0 up to a node or two, so n = 0 runs the empty graph itself.
TEST(AlgorithmRegistry, TinyGraphsSolveOnEveryFamily) {
  const AlgorithmRegistry& registry = default_algorithm_registry();
  for (const std::string& name : registry.names()) {
    const AlgorithmSpec& spec = registry.spec(name);
    for (const std::string& scenario : spec.table1_scenarios) {
      for (const NodeId n : {0, 1, 2}) {
        const Instance instance = make_instance(
            n == 0 ? Graph(0)
                   : default_scenarios().build(scenario, {.n = n}, 1),
            IdentityScheme::kRandomPermuted, 1);
        const std::string cell =
            name + '/' + scenario + " n=" + std::to_string(n);
        const CellOutcome outcome = spec.run(instance, {});
        EXPECT_TRUE(outcome.solved) << cell;
        EXPECT_TRUE(registry.problem(name).check(instance, outcome.outputs))
            << cell;
        if (!spec.baseline) continue;
        const CellOutcome baseline = spec.baseline(instance, {}).outcome;
        EXPECT_TRUE(baseline.solved) << cell << " baseline";
        EXPECT_TRUE(registry.problem(name).check(instance, baseline.outputs))
            << cell << " baseline";
      }
    }
  }
}

// The conformance sweep: every registered algorithm, on its own Table 1
// families, solves, passes its centralized checker, and produces
// bit-identical per-cell outputs for 1 vs 4 campaign workers.
TEST(AlgorithmRegistry, ConformanceAcrossWorkerCounts) {
  ScenarioParams params;
  params.n = 48;
  const auto cells = make_table1_grid(params, 1, {.base_seed = 5});
  ASSERT_GE(cells.size(), default_algorithm_registry().names().size());

  CampaignOptions options;
  options.keep_outputs = true;
  options.workers = 1;
  const CampaignResult sequential = run_campaign(cells, options);
  ASSERT_EQ(sequential.cells.size(), cells.size());
  for (const CellResult& cell : sequential.cells) {
    EXPECT_TRUE(cell.error.empty())
        << cell.cell.algorithm << '/' << cell.cell.scenario << ": "
        << cell.error;
    EXPECT_TRUE(cell.solved)
        << cell.cell.algorithm << '/' << cell.cell.scenario;
    EXPECT_TRUE(cell.valid)
        << cell.cell.algorithm << '/' << cell.cell.scenario;
  }

  options.workers = 4;
  const CampaignResult parallel = run_campaign(cells, options);
  ASSERT_EQ(parallel.cells.size(), sequential.cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(parallel.cells[i].outputs, sequential.cells[i].outputs)
        << cells[i].algorithm << '/' << cells[i].scenario;
    EXPECT_EQ(parallel.cells[i].output_hash, sequential.cells[i].output_hash);
    EXPECT_EQ(parallel.cells[i].rounds, sequential.cells[i].rounds);
  }
}

TEST(AlgorithmRegistry, EngineThreadsPreserveOutputs) {
  // Every engine run inside a pipeline steps on 4 threads; thread-count
  // invariance keeps the outputs bit-identical to the 1-thread run.
  ScenarioParams params;
  params.n = 64;
  const auto cells =
      make_grid({"gnp", "layered-forest"}, params,
                {"mis-uniform", "arb-mis", "coloring-theorem5", "luby-mis"},
                1, 3);
  const AlgorithmRegistry& registry = default_algorithm_registry();
  for (const CampaignCell& cell : cells) {
    const Instance instance = make_instance(
        default_scenarios().build(cell.scenario, cell.params, cell.seed),
        cell.identities, cell.seed);
    AlgorithmRunContext context;
    context.seed = cell.seed;
    const CellOutcome plain = registry.run(cell.algorithm, instance, context);
    context.engine_threads = 4;
    const CellOutcome threaded =
        registry.run(cell.algorithm, instance, context);
    const std::string tag = cell.algorithm + '/' + cell.scenario;
    EXPECT_EQ(threaded.outputs, plain.outputs) << tag;
    EXPECT_EQ(threaded.rounds, plain.rounds) << tag;
    EXPECT_EQ(threaded.solved, plain.solved) << tag;
  }
}

TEST(AlgorithmRegistry, EveryEngineRunUsesTheCellNetwork) {
  // The cell's network must reach every engine run of every pipeline, the
  // nested ones too (Theorem 4's executables, both Theorem 5 phases): a
  // layer that drops it runs its stage on the synchronous arena instead.
  NetworkOptions network;
  network.kind = NetworkKind::kDelayed;
  network.preset = DelayPreset::kUniform;
  GridOptions grid;
  grid.networks = {network};
  ScenarioParams params;
  params.n = 48;
  const auto cells = make_table1_grid(params, 1, grid);
  telemetry::TraceRecorder recorder;
  CampaignOptions options;
  options.workers = 2;
  options.trace = &recorder;
  const CampaignResult result = run_campaign(cells, options);
  for (const CellResult& cell : result.cells) {
    EXPECT_TRUE(cell.valid)
        << cell.cell.algorithm << '/' << cell.cell.scenario << ' '
        << cell.error;
  }
  std::size_t runs = 0;
  for (const telemetry::TraceEvent& event : recorder.events()) {
    if (event.name != "engine.run") continue;
    ++runs;
    const json::Value* mode = event.args.find("mode");
    ASSERT_NE(mode, nullptr);
    EXPECT_EQ(mode->as_string(), "delayed");
  }
  EXPECT_GE(runs, cells.size());
}

TEST(AlgorithmRegistry, ColeVishkinReportsUnsolvedOffFamily) {
  // A cycle is not a forest: the entry must refuse (unsolved) instead of
  // handing the checker an improper coloring.
  CampaignCell cell;
  cell.scenario = "cycle";
  cell.params.n = 12;
  cell.algorithm = "cole-vishkin";
  const CampaignResult result = run_campaign({cell}, {});
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_TRUE(result.cells[0].error.empty()) << result.cells[0].error;
  EXPECT_FALSE(result.cells[0].solved);
  EXPECT_FALSE(result.cells[0].valid);
}

}  // namespace
}  // namespace unilocal
