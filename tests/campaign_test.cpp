// Campaign layer: the scenario registry's determinism, checker verdicts,
// per-cell error isolation, and the headline guarantee — per-cell outputs
// bit-identical for any worker count and any cell-scheduling order
// (extending the engine-equivalence bit-identical guarantee one layer up).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "src/problems/registry.h"
#include "src/runtime/campaign.h"
#include "src/util/json.h"

namespace unilocal {
namespace {

using CellKey = std::tuple<std::string, std::string, std::uint64_t>;

CellKey key_of(const CampaignCell& cell) {
  return {cell.scenario, cell.algorithm, cell.seed};
}

std::vector<CampaignCell> small_grid() {
  ScenarioParams params;
  params.n = 60;
  return make_grid({"gnp", "power-law", "layered-forest", "caterpillar",
                    "geometric", "path"},
                   params, {"mis-uniform", "mis-fastest", "rulingset2-lv"},
                   1, 7);
}

TEST(ScenarioRegistry, ContainsTheAdvertisedFamilies) {
  const auto& registry = default_scenarios();
  for (const char* name :
       {"path", "cycle", "clique", "bipartite", "grid", "hypercube", "gnp",
        "bounded-degree", "tree", "forest", "layered-forest", "power-law",
        "geometric", "caterpillar"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
    EXPECT_FALSE(registry.describe(name).empty()) << name;
  }
  EXPECT_GE(registry.names().size(), 14u);
}

TEST(ScenarioRegistry, BuildsDeterministicallyFromSeed) {
  const auto& registry = default_scenarios();
  ScenarioParams params;
  params.n = 200;
  for (const std::string name : registry.names()) {
    const Graph a = registry.build(name, params, 11);
    const Graph b = registry.build(name, params, 11);
    EXPECT_TRUE(a == b) << name;
    EXPECT_GE(a.num_nodes(), 1) << name;
  }
  // Random families actually vary with the seed.
  EXPECT_FALSE(registry.build("gnp", params, 11) ==
               registry.build("gnp", params, 12));
}

TEST(ScenarioRegistry, RejectsUnknownFamilies) {
  const auto& registry = default_scenarios();
  EXPECT_FALSE(registry.contains("no-such-family"));
  EXPECT_THROW(registry.build("no-such-family", {}, 1), std::runtime_error);
  EXPECT_THROW(registry.describe("no-such-family"), std::runtime_error);
}

TEST(WorkspacePool, RoundRobinCheckout) {
  WorkspacePool pool(3);
  EXPECT_EQ(pool.size(), 3);
  EngineWorkspace* a = pool.checkout();
  EngineWorkspace* b = pool.checkout();
  EngineWorkspace* c = pool.checkout();
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  EXPECT_NE(a, c);
  pool.checkin(a);
  pool.checkin(b);
  // FIFO: the first workspace returned is the next one handed out.
  EXPECT_EQ(pool.checkout(), a);
  pool.checkin(c);
}

TEST(Campaign, SolvesAndValidatesAWholeGrid) {
  const auto cells = small_grid();
  CampaignOptions options;
  options.workers = 2;
  const CampaignResult result = run_campaign(cells, options);
  ASSERT_EQ(result.cells.size(), cells.size());
  EXPECT_EQ(result.failed, 0);
  for (const auto& cell : result.cells) {
    EXPECT_TRUE(cell.error.empty()) << cell.error;
    EXPECT_TRUE(cell.solved)
        << cell.cell.scenario << '/' << cell.cell.algorithm;
    EXPECT_TRUE(cell.valid)
        << cell.cell.scenario << '/' << cell.cell.algorithm;
    EXPECT_GT(cell.nodes, 0);
    EXPECT_GT(cell.rounds, 0);
  }
  EXPECT_EQ(result.solved, static_cast<int>(cells.size()));
  EXPECT_EQ(result.valid, static_cast<int>(cells.size()));
  EXPECT_GT(result.cells_per_second, 0.0);
  EXPECT_LE(result.percentiles.rounds.p50, result.percentiles.rounds.p90);
  EXPECT_LE(result.percentiles.rounds.p90, result.percentiles.rounds.p99);
  EXPECT_LE(result.percentiles.rounds.p99, result.percentiles.rounds.max);
  const CampaignPercentiles& messages =
      result.percentiles[EngineStat::total_messages];
  EXPECT_LE(messages.p50, messages.max);
}

TEST(Campaign, OutputsAreBitIdenticalForAnyWorkerCount) {
  const auto cells = small_grid();
  CampaignOptions options;
  options.keep_outputs = true;
  options.workers = 1;
  const CampaignResult sequential = run_campaign(cells, options);
  for (const int workers : {2, 4, 8}) {
    options.workers = workers;
    const CampaignResult parallel = run_campaign(cells, options);
    ASSERT_EQ(parallel.cells.size(), sequential.cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      EXPECT_EQ(parallel.cells[i].outputs, sequential.cells[i].outputs)
          << workers << " workers, cell " << i;
      EXPECT_EQ(parallel.cells[i].output_hash,
                sequential.cells[i].output_hash);
      EXPECT_EQ(parallel.cells[i].rounds, sequential.cells[i].rounds);
    }
  }
}

TEST(Campaign, OutputsAreIndependentOfCellSchedulingOrder) {
  const auto cells = small_grid();
  CampaignOptions options;
  options.keep_outputs = true;
  options.workers = 4;
  const CampaignResult forward = run_campaign(cells, options);

  std::vector<CampaignCell> reversed(cells.rbegin(), cells.rend());
  const CampaignResult backward = run_campaign(reversed, options);

  std::map<CellKey, const CellResult*> by_key;
  for (const auto& cell : backward.cells) by_key[key_of(cell.cell)] = &cell;
  for (const auto& cell : forward.cells) {
    const auto it = by_key.find(key_of(cell.cell));
    ASSERT_NE(it, by_key.end());
    EXPECT_EQ(cell.outputs, it->second->outputs)
        << cell.cell.scenario << '/' << cell.cell.algorithm;
    EXPECT_EQ(cell.output_hash, it->second->output_hash);
    EXPECT_EQ(cell.rounds, it->second->rounds);
  }
}

TEST(Campaign, RunsOnASharedThreadPool) {
  ThreadPool pool(3);
  CampaignOptions options;
  options.pool = &pool;
  const auto cells = make_grid({"path", "tree"}, ScenarioParams{40, 0, 0},
                               {"mis-uniform"}, 2, 1);
  const CampaignResult result = run_campaign(cells, options);
  EXPECT_EQ(result.workers, 3);
  EXPECT_EQ(result.failed, 0);
  EXPECT_EQ(result.valid, static_cast<int>(cells.size()));
}

TEST(Campaign, CheckerCatchesAnAlgorithmThatLies) {
  AlgorithmRegistry table;
  table.add({"liar-mis", "mis", "claims solved with every node selected",
             {}, {},
             [](const Instance& instance, const AlgorithmRunContext&) {
               // Invalid on any graph with an edge.
               return CellOutcome{
                   std::vector<std::int64_t>(
                       static_cast<std::size_t>(instance.num_nodes()), 1),
                   1, true, EngineStats{}};
             }});
  CampaignCell cell;
  cell.scenario = "path";
  cell.params.n = 10;
  cell.algorithm = "liar-mis";
  CampaignOptions options;
  options.algorithms = &table;
  const CampaignResult result = run_campaign({cell}, options);
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_TRUE(result.cells[0].solved);
  EXPECT_FALSE(result.cells[0].valid);
  EXPECT_EQ(result.valid, 0);
}

TEST(Campaign, IsolatesThrowingCells) {
  AlgorithmRegistry merged;
  merged.add({"boom", "mis", "always throws", {}, {},
              [](const Instance&, const AlgorithmRunContext&) -> CellOutcome {
                throw std::runtime_error("cell exploded");
              }});
  merged.add({"mis-uniform", "mis", "delegates to the default registry",
              {}, {},
              [](const Instance& instance,
                 const AlgorithmRunContext& context) {
                return default_algorithm_registry().run("mis-uniform",
                                                        instance, context);
              }});
  GridOptions grid_options;
  grid_options.algorithms = &merged;
  auto cells = make_grid({"path"}, ScenarioParams{20, 0, 0}, {"boom"}, 1,
                         grid_options);
  CampaignCell good;
  good.scenario = "path";
  good.params.n = 20;
  good.algorithm = "mis-uniform";
  cells.push_back(good);
  // Unknown keys still surface as isolated per-cell run-time errors when a
  // caller bypasses make_grid's up-front validation.
  CampaignCell unknown;
  unknown.scenario = "no-such-family";
  unknown.algorithm = "mis-uniform";
  cells.push_back(unknown);

  CampaignOptions options;
  options.algorithms = &merged;
  options.workers = 2;
  const CampaignResult result = run_campaign(cells, options);
  ASSERT_EQ(result.cells.size(), 3u);
  EXPECT_NE(result.cells[0].error.find("cell exploded"), std::string::npos);
  EXPECT_TRUE(result.cells[1].error.empty());
  EXPECT_TRUE(result.cells[1].valid);
  EXPECT_NE(result.cells[2].error.find("unknown scenario"),
            std::string::npos);
  EXPECT_EQ(result.failed, 2);
}

TEST(Campaign, WritesCsvAndJson) {
  const auto cells = make_grid({"path", "cycle"}, ScenarioParams{24, 0, 0},
                               {"mis-uniform"}, 1, 3);
  const CampaignResult result = run_campaign(cells, {});
  std::ostringstream csv;
  write_campaign_csv(csv, result);
  const std::string csv_text = csv.str();
  // The header is pinned byte for byte: downstream scripts index columns.
  EXPECT_EQ(csv_text.substr(0, csv_text.find('\n')),
            "scenario,n,a,b,algorithm,seed,identities,network,drop,duplicate,"
            "crash,late,nodes,edges,rounds,solved,valid,seconds,messages,"
            "peak_round_messages,steps,kernel_batched_steps,"
            "kernel_batch_calls,steps_per_sec,arena_bytes,peak_live_nodes,"
            "peak_frontier_nodes,"
            "dirty_spans_cleared,messages_dropped,messages_duplicated,"
            "max_delivery_skew,output_hash,error");
  // Header plus one row per cell.
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(csv_text.begin(), csv_text.end(), '\n')),
            cells.size() + 1);
  std::ostringstream json;
  write_campaign_json(json, result);
  const std::string text = json.str();
  EXPECT_EQ(text.front(), '{');
  EXPECT_EQ(text.back(), '}');
  EXPECT_NE(text.find("\"cells_per_second\""), std::string::npos);
  EXPECT_NE(text.find("\"cell_results\":["), std::string::npos);
}

TEST(Campaign, AggregatesFrontierTelemetry) {
  const auto cells = small_grid();
  const CampaignResult result = run_campaign(cells, {});
  ASSERT_EQ(result.failed, 0);
  // Every solved cell had at least one live node, so the percentiles are
  // populated and ordered like the other blocks.
  const CampaignPercentiles& live =
      result.percentiles[EngineStat::peak_live_nodes];
  EXPECT_GT(live.p50, 0.0);
  EXPECT_LE(live.p50, live.p90);
  EXPECT_LE(live.p90, live.p99);
  EXPECT_LE(live.p99, live.max);
  EXPECT_GT(result.percentiles[EngineStat::peak_frontier_nodes].max, 0.0);
  const CampaignPercentiles& dirty =
      result.percentiles[EngineStat::dirty_spans_cleared];
  EXPECT_LE(dirty.p50, dirty.max);
  // The max percentile is the max over the cells' counters.
  double expected_max = 0.0;
  for (const CellResult& cell : result.cells)
    expected_max = std::max(
        expected_max, static_cast<double>(cell.stats.peak_live_nodes));
  EXPECT_DOUBLE_EQ(live.max, expected_max);
}

TEST(Campaign, JsonStaysParseableWithHostileKeysAndErrors) {
  // Scenario keys, algorithm names, and error strings are free text; the
  // written JSON must survive all of it now that shard merge machine-parses
  // campaign documents.
  const std::string hostile = "we\"ird\\key\nwith\tcontrol\x01chars";
  ScenarioRegistry scenarios;
  scenarios.add(hostile, "hostile name", [](const ScenarioParams& params,
                                            Rng&) {
    return Graph(params.n);
  });
  AlgorithmRegistry algorithms;
  algorithms.add({hostile, "mis", "throws a hostile error", {}, {},
                  [&](const Instance&, const AlgorithmRunContext&)
                      -> CellOutcome {
                    throw std::runtime_error("boom \"quoted\"\\\n\x02");
                  }});
  CampaignCell cell;
  cell.scenario = hostile;
  cell.params.n = 8;
  cell.algorithm = hostile;
  CampaignOptions options;
  options.scenarios = &scenarios;
  options.algorithms = &algorithms;
  const CampaignResult result = run_campaign({cell}, options);
  ASSERT_EQ(result.failed, 1);

  for (const bool canonical : {false, true}) {
    std::ostringstream out;
    CampaignJsonOptions json_options;
    json_options.canonical = canonical;
    write_campaign_json(out, result, json_options);
    const json::Value doc = json::Value::parse(out.str());  // must not throw
    const json::Value& first = doc.at("cell_results").as_array().at(0);
    EXPECT_EQ(first.at("scenario").as_string(), hostile);
    EXPECT_EQ(first.at("algorithm").as_string(), hostile);
    EXPECT_NE(first.at("error").as_string().find("boom \"quoted\""),
              std::string::npos);
  }
}

TEST(Campaign, CanonicalJsonIsSchedulingInvariant) {
  const auto cells = small_grid();
  CampaignOptions options;
  options.workers = 1;
  const CampaignResult sequential = run_campaign(cells, options);
  options.workers = 4;
  const CampaignResult parallel = run_campaign(cells, options);
  CampaignJsonOptions canonical;
  canonical.canonical = true;
  std::ostringstream a;
  std::ostringstream b;
  write_campaign_json(a, sequential, canonical);
  write_campaign_json(b, parallel, canonical);
  // Byte-identical: no timing, worker, or workspace-reuse fields survive.
  EXPECT_EQ(a.str(), b.str());
}

}  // namespace
}  // namespace unilocal
