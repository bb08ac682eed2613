// The sharding subsystem (src/runtime/shard.h): plan→run→merge equals a
// single-process run_campaign bit-identically over the table1 grid for
// several shard counts and both policies, manifests and results survive
// their JSON round trips, merge rejects corrupted/missing/duplicate/
// foreign shards naming all offenders, and cost-balanced plans bound the
// load skew.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/runtime/run_log.h"
#include "src/runtime/shard.h"
#include "tests/test_support.h"

namespace unilocal {
namespace {

std::vector<CampaignCell> table1_smoke_grid() {
  ScenarioParams params;
  params.n = 64;
  return make_table1_grid(params, 1);
}

std::vector<CampaignCell> tiny_grid() {
  ScenarioParams params;
  params.n = 40;
  return make_grid({"path", "gnp", "caterpillar"}, params,
                   {"mis-uniform", "luby-mis"}, 1, 5);
}

/// Runs plan→run→merge entirely in-process, pushing every manifest and
/// every result through its JSON round trip first — the same hops the
/// CLI's separate processes take.
CampaignResult plan_run_merge(const std::vector<CampaignCell>& cells,
                              int num_shards, ShardPolicy policy) {
  const ShardPlan plan = plan_shards(cells, num_shards, policy);
  const ShardPlan plan_back =
      ShardPlan::from_json(json::Value::parse(plan.to_json().dump()));
  std::vector<ShardResult> results;
  for (const ShardManifest& manifest : plan_back.shards) {
    const ShardManifest manifest_back =
        ShardManifest::from_json(json::Value::parse(manifest.to_json().dump()));
    const ShardResult result = run_shard(manifest_back, {});
    results.push_back(
        ShardResult::from_json(json::Value::parse(result.to_json().dump())));
  }
  // Merge order must not matter; feed the results back reversed.
  std::reverse(results.begin(), results.end());
  return merge_shard_results(plan_back, results);
}

TEST(ShardPlan, CoversEveryCellExactlyOnceUnderBothPolicies) {
  const auto cells = table1_smoke_grid();
  for (const ShardPolicy policy :
       {ShardPolicy::kRoundRobin, ShardPolicy::kCostBalanced}) {
    for (const int num_shards : {1, 3, 5, 100}) {
      const ShardPlan plan = plan_shards(cells, num_shards, policy);
      ASSERT_EQ(plan.shards.size(), static_cast<std::size_t>(num_shards));
      EXPECT_EQ(plan.grid_hash, campaign_grid_hash(cells));
      EXPECT_EQ(plan.total_cells, cells.size());
      std::vector<int> covered(cells.size(), 0);
      for (const ShardManifest& manifest : plan.shards) {
        ASSERT_EQ(manifest.cells.size(), manifest.cell_indices.size());
        EXPECT_EQ(manifest.plan_grid_hash, plan.grid_hash);
        EXPECT_EQ(manifest.shard_grid_hash,
                  campaign_grid_hash(manifest.cells));
        for (std::size_t i = 0; i < manifest.cells.size(); ++i) {
          const std::size_t grid_index = manifest.cell_indices[i];
          ASSERT_LT(grid_index, cells.size());
          ++covered[grid_index];
          EXPECT_EQ(manifest.cells[i].scenario, cells[grid_index].scenario);
          EXPECT_EQ(manifest.cells[i].seed, cells[grid_index].seed);
        }
      }
      for (const int count : covered) EXPECT_EQ(count, 1);
    }
  }
  EXPECT_THROW(plan_shards(cells, 0, ShardPolicy::kRoundRobin),
               std::runtime_error);
}

TEST(Shard, MergeIsBitIdenticalToSingleProcessOverTable1) {
  const auto cells = table1_smoke_grid();
  const CampaignResult single = run_campaign(cells, {});
  ASSERT_EQ(single.failed, 0);
  const std::uint64_t single_hash = campaign_grid_hash(single);

  for (const ShardPolicy policy :
       {ShardPolicy::kRoundRobin, ShardPolicy::kCostBalanced}) {
    for (const int num_shards : {1, 2, 3, 7}) {
      const CampaignResult merged = plan_run_merge(cells, num_shards, policy);
      SCOPED_TRACE(std::string(shard_policy_name(policy)) + " x " +
                   std::to_string(num_shards));
      ASSERT_EQ(merged.cells.size(), single.cells.size());
      // THE acceptance criterion: identical grid hash and identical
      // per-cell output-hash vector, in input order.
      EXPECT_EQ(campaign_grid_hash(merged), single_hash);
      for (std::size_t i = 0; i < single.cells.size(); ++i) {
        EXPECT_EQ(merged.cells[i].output_hash, single.cells[i].output_hash)
            << "cell " << i << " (" << single.cells[i].cell.scenario << "/"
            << single.cells[i].cell.algorithm << ")";
        EXPECT_EQ(merged.cells[i].rounds, single.cells[i].rounds);
        EXPECT_EQ(merged.cells[i].solved, single.cells[i].solved);
        EXPECT_EQ(merged.cells[i].valid, single.cells[i].valid);
        EXPECT_EQ(merged.cells[i].stats.total_messages,
                  single.cells[i].stats.total_messages);
      }
      // Deterministic aggregates match too (timing-based ones cannot).
      EXPECT_EQ(merged.solved, single.solved);
      EXPECT_EQ(merged.valid, single.valid);
      EXPECT_EQ(merged.failed, 0);
      const CampaignStatPercentiles& m = merged.percentiles;
      const CampaignStatPercentiles& s = single.percentiles;
      EXPECT_DOUBLE_EQ(m.rounds.p50, s.rounds.p50);
      EXPECT_DOUBLE_EQ(m.rounds.max, s.rounds.max);
      for (const EngineStat stat :
           {EngineStat::total_messages, EngineStat::peak_live_nodes,
            EngineStat::dirty_spans_cleared}) {
        EXPECT_DOUBLE_EQ(m[stat].p90, s[stat].p90);
        EXPECT_DOUBLE_EQ(m[stat].max, s[stat].max);
      }
    }
  }
}

TEST(Shard, ManifestSurvivesJsonRoundTripFieldForField) {
  ScenarioParams params;
  params.n = 33;
  params.a = 0.1;  // not exactly representable — lexeme must round-trip
  params.b = 1.0 / 3.0;
  GridOptions options;
  options.base_seed = 0xdeadbeefcafe1234ULL;  // exercises 64-bit seeds
  const auto cells =
      make_grid({"gnp", "tree"}, params, {"mis-uniform"}, 2, options);
  const ShardPlan plan = plan_shards(cells, 2, ShardPolicy::kCostBalanced);
  for (const ShardManifest& manifest : plan.shards) {
    const ShardManifest back =
        ShardManifest::from_json(json::Value::parse(manifest.to_json().dump()));
    EXPECT_EQ(back.shard_index, manifest.shard_index);
    EXPECT_EQ(back.num_shards, manifest.num_shards);
    EXPECT_EQ(back.policy, manifest.policy);
    EXPECT_EQ(back.plan_grid_hash, manifest.plan_grid_hash);
    EXPECT_EQ(back.shard_grid_hash, manifest.shard_grid_hash);
    EXPECT_EQ(back.cell_indices, manifest.cell_indices);
    ASSERT_EQ(back.cells.size(), manifest.cells.size());
    for (std::size_t i = 0; i < manifest.cells.size(); ++i) {
      EXPECT_EQ(back.cells[i].scenario, manifest.cells[i].scenario);
      EXPECT_EQ(back.cells[i].algorithm, manifest.cells[i].algorithm);
      EXPECT_EQ(back.cells[i].seed, manifest.cells[i].seed);
      EXPECT_EQ(back.cells[i].identities, manifest.cells[i].identities);
      EXPECT_EQ(back.cells[i].params.n, manifest.cells[i].params.n);
      // Bit-exact doubles: the grid hash hashes their bit patterns.
      EXPECT_EQ(back.cells[i].params.a, manifest.cells[i].params.a);
      EXPECT_EQ(back.cells[i].params.b, manifest.cells[i].params.b);
    }
    // The strongest form: the hash recomputed from the round-tripped cells
    // still matches, which is exactly what run_shard enforces.
    EXPECT_EQ(campaign_grid_hash(back.cells), manifest.shard_grid_hash);
  }
  EXPECT_THROW(ShardManifest::from_json(json::Value::parse("{}")),
               std::runtime_error);
  EXPECT_THROW(
      ShardManifest::from_json(json::Value::parse(plan.to_json().dump())),
      std::runtime_error);  // a plan is not a manifest
}

TEST(Shard, RunShardRejectsACorruptedManifest) {
  const auto cells = tiny_grid();
  ShardPlan plan = plan_shards(cells, 2, ShardPolicy::kRoundRobin);
  ShardManifest tampered = plan.shards[0];
  tampered.cells[0].seed += 1;  // work no longer matches the fingerprint
  try {
    run_shard(tampered, {});
    FAIL() << "expected run_shard to reject the tampered manifest";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("corrupt"), std::string::npos)
        << e.what();
  }
}

TEST(Shard, ManifestRejectsIntegersThatWouldWrapIntoRange) {
  // 40 + 2^32 wraps back to 40 in a 32-bit NodeId, and the grid fingerprint
  // is taken after the cast, so a narrowing read would run n=40 and accept
  // the manifest. Every such field must be rejected, naming the key.
  const ShardPlan plan = plan_shards(tiny_grid(), 2, ShardPolicy::kRoundRobin);
  const std::string text = plan.shards[0].to_json().dump();
  struct Tamper {
    std::string from, to, error;
  };
  for (const Tamper& t : std::vector<Tamper>{
           {"\"n\":40,", "\"n\":4294967336,",
            "json: \"n\" out of range: 4294967336"},
           {"\"shard_index\":0,", "\"shard_index\":4294967296,",
            "json: \"shard_index\" out of range: 4294967296"},
           {"\"num_shards\":2,", "\"num_shards\":4294967298,",
            "json: \"num_shards\" out of range: 4294967298"}}) {
    std::string tampered = text;
    const std::size_t at = tampered.find(t.from);
    ASSERT_NE(at, std::string::npos) << t.from << " not in " << text;
    tampered.replace(at, t.from.size(), t.to);
    try {
      ShardManifest::from_json(json::Value::parse(tampered));
      ADD_FAILURE() << "accepted " << t.to;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(t.error), std::string::npos)
          << e.what();
    }
  }
}

TEST(Shard, ResultStatsSurviveJsonRoundTripRowForRow) {
  // The key set the shard `stats` block and the --stats-json `engine`
  // object (one writer, engine_stats_to_json) carried before the field
  // table; readers across versions depend on it.
  const std::set<std::string> keys = {
      "arena_bytes",         "peak_round_messages", "total_messages",
      "total_steps",         "kernel_steps",        "vtable_steps",
      "kernel_batched_steps", "kernel_batch_calls", "peak_live_nodes",
      "final_live_nodes",    "peak_frontier_nodes", "dirty_spans_cleared",
      "messages_dropped",    "messages_duplicated", "max_delivery_skew",
      "elapsed_seconds",     "steps_per_second",    "threads"};
  ShardResult result;
  CellResult cell;
  cell.cell = tiny_grid()[0];
  cell.stats = testing_support::distinct_engine_stats(7);
  result.cells.push_back(cell);
  result.cell_indices.push_back(0);
  const json::Value doc = json::Value::parse(result.to_json().dump());
  const ShardResult back = ShardResult::from_json(doc);
  const json::Value engine =
      json::Value::parse(engine_stats_to_json(cell.stats).dump());
  const EngineStats engine_back = engine_stats_from_json(engine);
  for (const json::Value* block :
       {&doc.at("cells").as_array().at(0).at("stats"), &engine}) {
    std::set<std::string> found;
    for (const auto& member : block->as_object()) found.insert(member.first);
    EXPECT_EQ(found, keys);
  }
  ASSERT_EQ(back.cells.size(), 1u);
  for_each_engine_stat([&](const EngineStatField& field, auto member) {
    EXPECT_EQ(back.cells[0].stats.*member, cell.stats.*member) << field.name;
    EXPECT_EQ(engine_back.*member, cell.stats.*member) << field.name;
  });
  // A stats block whose integer does not fit its member is rejected.
  json::Value wide = engine;
  for (auto& member : wide.as_object())
    if (member.first == "threads")
      member.second = json::Value::number(std::int64_t{1} << 33);
  try {
    engine_stats_from_json(wide);
    ADD_FAILURE() << "accepted threads = 2^33";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "json: \"threads\" out of range: 8589934592");
  }
}

class ShardMergeErrors : public ::testing::Test {
 protected:
  void SetUp() override {
    cells_ = tiny_grid();
    plan_ = plan_shards(cells_, 3, ShardPolicy::kCostBalanced);
    for (const ShardManifest& manifest : plan_.shards)
      results_.push_back(run_shard(manifest, {}));
  }

  std::string merge_error(const std::vector<ShardResult>& results) {
    try {
      merge_shard_results(plan_, results);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  }

  std::vector<CampaignCell> cells_;
  ShardPlan plan_;
  std::vector<ShardResult> results_;
};

TEST_F(ShardMergeErrors, AcceptsTheFullSetInAnyOrder) {
  std::vector<ShardResult> shuffled = {results_[2], results_[0], results_[1]};
  const CampaignResult merged = merge_shard_results(plan_, shuffled);
  EXPECT_EQ(campaign_grid_hash(merged), plan_.grid_hash);
}

TEST_F(ShardMergeErrors, NamesEveryMissingShard) {
  const std::string error = merge_error({results_[1]});
  EXPECT_NE(error.find("shard 0 is missing"), std::string::npos) << error;
  EXPECT_NE(error.find("shard 2 is missing"), std::string::npos) << error;
  EXPECT_EQ(error.find("shard 1 is missing"), std::string::npos) << error;
}

TEST_F(ShardMergeErrors, RejectsDuplicates) {
  const std::string error =
      merge_error({results_[0], results_[0], results_[1], results_[2]});
  EXPECT_NE(error.find("shard 0 appears more than once"), std::string::npos)
      << error;
}

TEST_F(ShardMergeErrors, RejectsForeignShards) {
  ShardResult foreign = results_[1];
  foreign.plan_grid_hash ^= 1;
  const std::string error = merge_error({results_[0], foreign, results_[2]});
  EXPECT_NE(error.find("shard 1 is foreign"), std::string::npos) << error;
  // The foreign shard does not satisfy slot 1 — it is also missing.
  EXPECT_NE(error.find("shard 1 is missing"), std::string::npos) << error;
}

TEST_F(ShardMergeErrors, RejectsTamperedResults) {
  // Header hash edited: caught against the plan's fingerprint.
  ShardResult bad_header = results_[0];
  bad_header.shard_grid_hash ^= 0xff;
  std::string error = merge_error({bad_header, results_[1], results_[2]});
  EXPECT_NE(error.find("shard 0 grid hash"), std::string::npos) << error;

  // Cells edited, header intact: caught by re-hashing the cells.
  ShardResult bad_cells = results_[2];
  bad_cells.cells[0].cell.seed += 7;
  error = merge_error({results_[0], results_[1], bad_cells});
  EXPECT_NE(error.find("shard 2 cells hash to"), std::string::npos) << error;

  ShardResult out_of_range = results_[0];
  out_of_range.shard_index = 9;
  error = merge_error({out_of_range, results_[1], results_[2]});
  EXPECT_NE(error.find("shard 9 is out of range"), std::string::npos) << error;
}

TEST_F(ShardMergeErrors, ReportsAllOffendersInOneError) {
  ShardResult foreign = results_[0];
  foreign.plan_grid_hash ^= 1;
  const std::string error = merge_error({foreign, results_[1]});
  // One throw names the foreign shard AND both unfilled slots.
  EXPECT_NE(error.find("shard 0 is foreign"), std::string::npos) << error;
  EXPECT_NE(error.find("shard 0 is missing"), std::string::npos) << error;
  EXPECT_NE(error.find("shard 2 is missing"), std::string::npos) << error;
}

TEST(Shard, PlanFromJsonRejectsReorderedShards) {
  // merge indexes plan.shards[result.shard_index]; a reordered document
  // would silently verify results against the wrong manifests.
  const auto cells = tiny_grid();
  const ShardPlan plan = plan_shards(cells, 2, ShardPolicy::kRoundRobin);
  json::Value doc = plan.to_json();
  for (auto& [key, value] : doc.as_object()) {
    if (key != "shards") continue;
    std::swap(value.as_array()[0], value.as_array()[1]);
  }
  try {
    ShardPlan::from_json(doc);
    FAIL() << "expected the reordered plan to be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("position"), std::string::npos)
        << e.what();
  }
}

TEST(Shard, PlanFromJsonRejectsIncompleteCoverage) {
  const auto cells = tiny_grid();
  const ShardPlan plan = plan_shards(cells, 2, ShardPolicy::kRoundRobin);
  json::Value doc = json::Value::parse(plan.to_json().dump());
  // Drop one cell from shard 0: some grid index is now covered nowhere.
  auto& shards = doc.as_object();
  for (auto& [key, value] : shards) {
    if (key != "shards") continue;
    auto& first_cells = value.as_array()[0];
    for (auto& [mkey, mvalue] : first_cells.as_object())
      if (mkey == "cells") mvalue.as_array().pop_back();
  }
  EXPECT_THROW(ShardPlan::from_json(doc), std::runtime_error);
}

TEST(Shard, CostBalancedBoundsTheSkewRoundRobinDoesNot) {
  // The table1 grid is straggler-heavy: theorem-5 pipelines cost ~90x a
  // Linial run under the default model.
  const auto cells = table1_smoke_grid();
  const ShardCostModel& model = default_shard_cost_model();
  double max_cell_cost = 0.0;
  for (const CampaignCell& cell : cells)
    max_cell_cost = std::max(max_cell_cost, model.cell_cost(cell));

  for (const int num_shards : {2, 3, 7}) {
    const ShardPlan balanced =
        plan_shards(cells, num_shards, ShardPolicy::kCostBalanced);
    std::vector<double> loads;
    for (const ShardManifest& manifest : balanced.shards) {
      double load = 0.0;
      for (const CampaignCell& cell : manifest.cells)
        load += model.cell_cost(cell);
      loads.push_back(load);
    }
    const auto [min_it, max_it] =
        std::minmax_element(loads.begin(), loads.end());
    // Greedy LPT invariant: the heaviest shard exceeds the lightest by at
    // most one cell's cost (else its last cell would have gone there).
    EXPECT_LE(*max_it - *min_it, max_cell_cost + 1e-9)
        << num_shards << " shards";
  }

  // Round-robin splits counts evenly but not costs: on this grid its skew
  // is worse than cost-balanced's for K=3.
  const auto load_spread = [&](ShardPolicy policy) {
    const ShardPlan plan = plan_shards(cells, 3, policy);
    double lo = 1e300, hi = 0.0;
    for (const ShardManifest& manifest : plan.shards) {
      double load = 0.0;
      for (const CampaignCell& cell : manifest.cells)
        load += model.cell_cost(cell);
      lo = std::min(lo, load);
      hi = std::max(hi, load);
    }
    return hi - lo;
  };
  EXPECT_LT(load_spread(ShardPolicy::kCostBalanced),
            load_spread(ShardPolicy::kRoundRobin));
}

TEST(Shard, MergedRunLogEntryMatchesTheSingleProcessGrid) {
  // A merged result records under the same grid hash as a single-process
  // sweep: the run log can diff one against the other.
  const auto cells = tiny_grid();
  const CampaignResult single = run_campaign(cells, {});
  const CampaignResult merged =
      plan_run_merge(cells, 3, ShardPolicy::kRoundRobin);
  EXPECT_EQ(campaign_grid_hash(merged), campaign_grid_hash(single));
}

}  // namespace
}  // namespace unilocal
