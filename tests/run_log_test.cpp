// The append-only campaign run-log: grid hashing, JSON-line round trip,
// and baseline comparison for perf-regression diffing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/runtime/campaign.h"
#include "src/runtime/run_log.h"

namespace unilocal {
namespace {

class RunLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "unilocal_run_log_test.jsonl";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

CampaignResult tiny_campaign(std::uint64_t base_seed = 1) {
  ScenarioParams params;
  params.n = 24;
  GridOptions grid;
  grid.base_seed = base_seed;
  const auto cells =
      make_grid({"path", "cycle"}, params, {"mis-uniform"}, 1, grid);
  return run_campaign(cells, {});
}

TEST_F(RunLogTest, GridHashIdentifiesTheGridNotTheOutcome) {
  const CampaignResult a = tiny_campaign();
  const CampaignResult b = tiny_campaign();
  EXPECT_EQ(campaign_grid_hash(a), campaign_grid_hash(b));
  // A different seed is a different grid.
  const CampaignResult c = tiny_campaign(9);
  EXPECT_NE(campaign_grid_hash(a), campaign_grid_hash(c));
}

TEST_F(RunLogTest, AppendsOneParseableLinePerRun) {
  const CampaignResult result = tiny_campaign();
  append_run_log(path_, result);
  append_run_log(path_, result);
  const auto entries = read_run_log(path_);
  ASSERT_EQ(entries.size(), 2u);
  for (const RunLogEntry& entry : entries) {
    EXPECT_EQ(entry.grid_hash, campaign_grid_hash(result));
    EXPECT_EQ(entry.cells, static_cast<int>(result.cells.size()));
    EXPECT_EQ(entry.solved, result.solved);
    EXPECT_EQ(entry.valid, result.valid);
    EXPECT_EQ(entry.failed, result.failed);
    EXPECT_EQ(entry.workers, result.workers);
    // Every percentile block rides along (written with 6 significant
    // digits, so the wall-clock rates come back rounded).
    std::vector<const CampaignPercentiles*> written;
    for_each_campaign_percentile(
        result.percentiles,
        [&](const char*, bool, const CampaignPercentiles& p) {
          written.push_back(&p);
        });
    std::size_t block = 0;
    for_each_campaign_percentile(
        entry.percentiles,
        [&](const char* key, bool, const CampaignPercentiles& p) {
          const CampaignPercentiles& want = *written[block++];
          for (const auto& [got, expected] :
               {std::pair{p.p50, want.p50}, std::pair{p.p90, want.p90},
                std::pair{p.p99, want.p99}, std::pair{p.max, want.max}})
            EXPECT_NEAR(got, expected, 1e-5 * std::max(1.0, expected)) << key;
        });
    EXPECT_EQ(block, written.size());
    // ISO-8601 UTC stamp.
    ASSERT_EQ(entry.date.size(), 20u) << entry.date;
    EXPECT_EQ(entry.date[10], 'T');
    EXPECT_EQ(entry.date.back(), 'Z');
  }
}

TEST_F(RunLogTest, ToleratesEntriesWithoutTelemetryBlocks) {
  // A line from before the telemetry percentiles existed still parses —
  // the missing blocks read as zero.
  {
    std::ofstream out(path_);
    out << "{\"date\":\"2026-01-01T00:00:00Z\",\"grid_hash\":\"42\","
           "\"workers\":1,\"cells\":2,\"solved\":2,\"valid\":2,\"failed\":0,"
           "\"elapsed_seconds\":0.5,\"cells_per_second\":4,"
           "\"rounds\":{\"p50\":3,\"p90\":3,\"p99\":4,\"max\":4},"
           "\"messages\":{\"p50\":10,\"p90\":11,\"p99\":12,\"max\":12},"
           "\"steps_per_second\":{\"p50\":1,\"p90\":1,\"p99\":1,\"max\":1}}"
        << "\n";
  }
  const auto entries = read_run_log(path_);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].grid_hash, 42u);
  EXPECT_DOUBLE_EQ(entries[0].percentiles.rounds.max, 4.0);
  const CampaignStatPercentiles& p = entries[0].percentiles;
  EXPECT_DOUBLE_EQ(p[EngineStat::total_messages].p99, 12.0);
  EXPECT_DOUBLE_EQ(p[EngineStat::peak_live_nodes].max, 0.0);
  EXPECT_DOUBLE_EQ(p[EngineStat::dirty_spans_cleared].p50, 0.0);
  EXPECT_DOUBLE_EQ(p.kernel_batch_occupancy.max, 0.0);
}

TEST_F(RunLogTest, ReadsALineWrittenBeforeTheFieldTable) {
  // Verbatim output of append_run_log before the percentile blocks were
  // driven by the EngineStats field table (table1 --smoke, 1 worker). The
  // log is read across versions, so every block must still parse to the
  // numbers on the line.
  {
    std::ofstream out(path_);
    out << R"({"date":"2026-10-17T06:47:33Z","grid_hash":"15158015972448607425","workers":1,"cells":47,"solved":47,"valid":47,"failed":0,"elapsed_seconds":0.013417,"cells_per_second":3503.01,"rounds":{"p50":62,"p90":346,"p99":8338,"max":8338},"messages":{"p50":784,"p90":3734,"p99":12642,"max":12642},"steps_per_second":{"p50":1.51528e+07,"p90":8.9644e+07,"p99":1.31349e+08,"max":1.31349e+08},"peak_live_nodes":{"p50":64,"p90":64,"p99":190,"max":190},"peak_frontier_nodes":{"p50":64,"p90":64,"p99":190,"max":190},"dirty_spans_cleared":{"p50":256,"p90":1101,"p99":1425,"max":1425},"kernel_steps":{"p50":1485,"p90":19441,"p99":98634,"max":98634},"vtable_steps":{"p50":0,"p90":0,"p99":0,"max":0},"kernel_batched_steps":{"p50":676,"p90":2109,"p99":2454,"max":2454},"kernel_batch_occupancy":{"p50":23.9468,"p90":64,"p99":65.1667,"max":65.1667},"messages_dropped":{"p50":0,"p90":0,"p99":0,"max":0},"messages_duplicated":{"p50":0,"p90":0,"p99":0,"max":0},"max_delivery_skew":{"p50":0,"p90":0,"p99":0,"max":0}})"
        << "\n";
  }
  const std::map<std::string, CampaignPercentiles> expected = {
      {"rounds", {62, 346, 8338, 8338}},
      {"messages", {784, 3734, 12642, 12642}},
      {"steps_per_second", {1.51528e+07, 8.9644e+07, 1.31349e+08, 1.31349e+08}},
      {"peak_live_nodes", {64, 64, 190, 190}},
      {"peak_frontier_nodes", {64, 64, 190, 190}},
      {"dirty_spans_cleared", {256, 1101, 1425, 1425}},
      {"kernel_steps", {1485, 19441, 98634, 98634}},
      {"vtable_steps", {0, 0, 0, 0}},
      {"kernel_batched_steps", {676, 2109, 2454, 2454}},
      {"kernel_batch_occupancy", {23.9468, 64, 65.1667, 65.1667}},
      {"messages_dropped", {0, 0, 0, 0}},
      {"messages_duplicated", {0, 0, 0, 0}},
      {"max_delivery_skew", {0, 0, 0, 0}},
  };
  const auto entries = read_run_log(path_);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].grid_hash, 15158015972448607425ULL);
  EXPECT_EQ(entries[0].cells, 47);
  std::set<std::string> seen;
  for_each_campaign_percentile(
      entries[0].percentiles,
      [&](const char* key, bool, const CampaignPercentiles& p) {
        seen.insert(key);
        const auto it = expected.find(key);
        ASSERT_NE(it, expected.end()) << key;
        EXPECT_DOUBLE_EQ(p.p50, it->second.p50) << key;
        EXPECT_DOUBLE_EQ(p.p90, it->second.p90) << key;
        EXPECT_DOUBLE_EQ(p.p99, it->second.p99) << key;
        EXPECT_DOUBLE_EQ(p.max, it->second.max) << key;
      });
  EXPECT_EQ(seen.size(), expected.size());
  EXPECT_DOUBLE_EQ(entries[0].percentiles[EngineStat::total_messages].p90,
                   3734.0);
  EXPECT_DOUBLE_EQ(entries[0].percentiles[EngineStat::steps_per_second].p50,
                   1.51528e+07);
}

TEST_F(RunLogTest, SupervisionBlockRoundTripsAndIsOmittedWhenUnsupervised) {
  // Unsupervised campaign: no supervision block on the line, zeros back.
  const CampaignResult plain = tiny_campaign();
  append_run_log(path_, plain);
  // Supervised campaign: the block round-trips.
  CampaignResult supervised = tiny_campaign();
  supervised.supervision.enabled = true;
  supervised.supervision.shards = 4;
  supervised.supervision.attempts = 7;
  supervised.supervision.retries = 2;
  supervised.supervision.requeues = 3;
  supervised.supervision.stragglers_respawned = 1;
  supervised.supervision.shards_from_journal = 2;
  supervised.supervision.shards_failed = 0;
  supervised.supervision.attempt_seconds =
      campaign_percentiles({0.5, 1.5, 2.5, 4.0});
  append_run_log(path_, supervised);
  const auto entries = read_run_log(path_);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_FALSE(entries[0].supervision.enabled);
  EXPECT_TRUE(entries[1].supervision.enabled);
  EXPECT_EQ(entries[0].supervision.shards, 0);
  EXPECT_EQ(entries[0].supervision.attempts, 0);
  EXPECT_EQ(entries[1].supervision.shards, 4);
  EXPECT_EQ(entries[1].supervision.attempts, 7);
  EXPECT_EQ(entries[1].supervision.retries, 2);
  EXPECT_EQ(entries[1].supervision.requeues, 3);
  EXPECT_EQ(entries[1].supervision.stragglers_respawned, 1);
  EXPECT_EQ(entries[1].supervision.shards_from_journal, 2);
  EXPECT_DOUBLE_EQ(entries[1].supervision.attempt_seconds.max, 4.0);
  EXPECT_DOUBLE_EQ(entries[1].supervision.attempt_seconds.p50, 1.5);
}

TEST_F(RunLogTest, CompareFindsTheLatestMatchingBaseline) {
  const CampaignResult result = tiny_campaign();
  // Empty/missing log: nothing to compare against.
  EXPECT_FALSE(compare_run_log(path_, result).found);
  append_run_log(path_, result);
  const RunLogComparison comparison = compare_run_log(path_, result);
  ASSERT_TRUE(comparison.found);
  EXPECT_DOUBLE_EQ(comparison.rounds_p50_ratio, 1.0);
  EXPECT_DOUBLE_EQ(comparison.messages_p50_ratio, 1.0);
  // A different grid never matches, even with entries present.
  EXPECT_FALSE(compare_run_log(path_, tiny_campaign(9)).found);
}

TEST_F(RunLogTest, SkipsMalformedLines) {
  const CampaignResult result = tiny_campaign();
  {
    std::ofstream out(path_);
    out << "not json at all\n{\"date\":\"truncated\n";
  }
  append_run_log(path_, result);
  const auto entries = read_run_log(path_);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].grid_hash, campaign_grid_hash(result));
  // Reading a missing file is empty, not an error.
  EXPECT_TRUE(read_run_log(path_ + ".missing").empty());
}

}  // namespace
}  // namespace unilocal
