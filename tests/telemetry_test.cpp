// The telemetry layer (src/runtime/telemetry.h): the metrics registry
// merges per-thread cells to a snapshot that is identical for any thread
// count; trace events round-trip through their JSON form with pid/tid and
// u64 arg spellings intact; merge_process remaps worker pids under a named
// lane; the engine's per-round spans obey the --trace-rounds head-sampling
// cap and nest inside their engine.run span under a fake clock; canonical
// campaign JSON is byte-identical with tracing on and off, single-process
// and sharded; and the supervisor's attempt records carry start/end/killed
// timestamps that agree with its trace spans.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/runtime/campaign.h"
#include "src/runtime/shard.h"
#include "src/runtime/supervisor.h"
#include "src/runtime/telemetry.h"
#include "src/util/json.h"

namespace unilocal {
namespace {

using telemetry::FakeClock;
using telemetry::MetricKind;
using telemetry::MetricSnapshot;
using telemetry::MetricsRegistry;
using telemetry::TraceEvent;
using telemetry::TraceRecorder;

// --- metrics registry --------------------------------------------------------

TEST(HistogramBucket, Log2EdgesAndSaturation) {
  EXPECT_EQ(telemetry::histogram_bucket(-7), 0);
  EXPECT_EQ(telemetry::histogram_bucket(0), 0);
  EXPECT_EQ(telemetry::histogram_bucket(1), 1);
  EXPECT_EQ(telemetry::histogram_bucket(2), 2);
  EXPECT_EQ(telemetry::histogram_bucket(3), 2);
  EXPECT_EQ(telemetry::histogram_bucket(4), 3);
  EXPECT_EQ(telemetry::histogram_bucket(7), 3);
  EXPECT_EQ(telemetry::histogram_bucket(8), 4);
  EXPECT_EQ(telemetry::histogram_bucket(std::int64_t{1} << 62),
            telemetry::kHistogramBuckets - 1);
}

/// The deterministic workload: item i goes to thread (i % threads), and
/// every write is commutative, so the merged snapshot must not depend on
/// the partition.
std::vector<MetricSnapshot> run_partitioned(int threads, int items) {
  MetricsRegistry registry;
  const int counter = registry.counter("work.items");
  const int gauge = registry.gauge("work.peak");
  const int histogram = registry.histogram("work.sizes");
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&registry, counter, gauge, histogram, t, threads,
                       items] {
      for (int i = t; i < items; i += threads) {
        registry.add(counter, 1);
        registry.record_max(gauge, i);
        registry.observe(histogram, i % 37);
      }
    });
  }
  for (std::thread& worker : pool) worker.join();
  return registry.snapshot();
}

TEST(MetricsRegistry, SnapshotIdenticalForAnyThreadCount) {
  const std::vector<MetricSnapshot> baseline = run_partitioned(1, 800);
  ASSERT_EQ(baseline.size(), 3u);
  // snapshot() sorts by name.
  EXPECT_EQ(baseline[0].name, "work.items");
  EXPECT_EQ(baseline[1].name, "work.peak");
  EXPECT_EQ(baseline[2].name, "work.sizes");
  EXPECT_EQ(baseline[0].kind, MetricKind::kCounter);
  EXPECT_EQ(baseline[0].value, 800);
  EXPECT_EQ(baseline[1].kind, MetricKind::kGauge);
  EXPECT_EQ(baseline[1].value, 799);
  EXPECT_EQ(baseline[2].kind, MetricKind::kHistogram);
  EXPECT_EQ(baseline[2].count, 800);
  for (const int threads : {2, 8}) {
    const std::vector<MetricSnapshot> merged =
        run_partitioned(threads, 800);
    ASSERT_EQ(merged.size(), baseline.size()) << threads << " threads";
    for (std::size_t i = 0; i < baseline.size(); ++i)
      EXPECT_TRUE(merged[i] == baseline[i])
          << merged[i].name << " diverges at " << threads << " threads";
  }
}

TEST(MetricsRegistry, NameBasedWritesAndKindMismatch) {
  MetricsRegistry registry;
  registry.add("a.counter", 2);
  registry.add("a.counter", 3);
  registry.observe("a.hist", 9);
  registry.record_max("a.gauge", 4);
  EXPECT_THROW(registry.gauge("a.counter"), std::runtime_error);
  const std::vector<MetricSnapshot> snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].value, 5);
  EXPECT_EQ(snapshot[2].sum, 9);
}

TEST(MetricsRegistry, ToJsonHistogramBucketsSumToCount) {
  MetricsRegistry registry;
  for (int i = 0; i < 100; ++i) registry.observe("h", i);
  const json::Value document = registry.to_json();
  const json::Value& metric = document.at("metrics").as_array().at(0);
  EXPECT_EQ(metric.at("kind").as_string(), "histogram");
  EXPECT_EQ(metric.at("count").as_i64(), 100);
  std::int64_t bucket_total = 0;
  for (const auto& [bucket, count] : metric.at("buckets").as_object())
    bucket_total += count.as_i64();
  EXPECT_EQ(bucket_total, 100);
}

TEST(MetricsRegistry, MergingSnapshotsEqualsRecordingInOneRegistry) {
  const auto record = [](MetricsRegistry& registry, int lo, int hi) {
    for (int i = lo; i < hi; ++i) {
      registry.add("m.count", i);
      registry.record_max("m.peak", (i * 7) % 61);
      registry.observe("m.sizes", i % 19 - 3);
    }
    registry.histogram("m.never");
  };
  MetricsRegistry whole, first, second, merged;
  record(whole, 0, 100);
  record(first, 0, 40);
  record(second, 40, 100);
  merged.merge(first.to_json());
  merged.merge(second.to_json());
  EXPECT_EQ(merged.to_json(), whole.to_json());
  EXPECT_TRUE(merged.snapshot() == whole.snapshot());

  MetricsRegistry clash;
  clash.gauge("m.count");
  EXPECT_THROW(clash.merge(first.to_json()), std::runtime_error);
  MetricsRegistry target;
  EXPECT_THROW(target.merge(json::Value::parse(
                   R"({"metrics":[{"name":"x","kind":"meter","value":1}]})")),
               std::runtime_error);
  EXPECT_THROW(
      target.merge(json::Value::parse(
          R"({"metrics":[{"name":"h","kind":"histogram","count":1,"sum":1,)"
          R"("min":1,"max":1,"buckets":{"48":1}}]})")),
      std::runtime_error);
}

// --- trace events ------------------------------------------------------------

TEST(TraceEvent, JsonRoundTripPreservesEveryField) {
  TraceEvent event;
  event.name = "attempt";
  event.phase = 'X';
  event.ts = 123456;
  event.dur = 789;
  event.pid = 7;
  event.tid = 3;
  event.arg("scenario", std::string("gnp"));
  event.arg("round", std::int64_t{42});
  event.arg("seed", std::uint64_t{18446744073709551615ULL});
  event.arg("occupancy", 2.5);
  event.arg("speculative", true);
  const TraceEvent parsed =
      TraceRecorder::parse_event(TraceRecorder::event_to_json(event));
  EXPECT_EQ(parsed.name, "attempt");
  EXPECT_EQ(parsed.phase, 'X');
  EXPECT_EQ(parsed.ts, 123456);
  EXPECT_EQ(parsed.dur, 789);
  EXPECT_EQ(parsed.pid, 7);
  EXPECT_EQ(parsed.tid, 3);
  EXPECT_EQ(parsed.args.at("scenario").as_string(), "gnp");
  EXPECT_EQ(parsed.args.at("round").as_i64(), 42);
  // u64 args are spelled as strings (the repo-wide JSON convention for
  // values above 2^53).
  EXPECT_EQ(parsed.args.at("seed").as_string(), "18446744073709551615");
  EXPECT_TRUE(parsed.args.at("speculative").as_bool());
}

TEST(TraceEvent, ParseRejectsUnknownPhase) {
  const json::Value value = json::Value::parse(
      R"({"name":"x","ph":"Q","ts":0,"pid":1,"tid":1})");
  EXPECT_THROW(TraceRecorder::parse_event(value), std::runtime_error);
}

TEST(TraceRecorder, FakeClockOrdersSpansAndMetadataLeads) {
  FakeClock clock(1);  // every read ticks forward: strict ordering for free
  TraceRecorder recorder(&clock);
  recorder.set_process_name(1, "test");
  const std::int64_t outer_t0 = recorder.now();
  const std::int64_t inner_t0 = recorder.now();
  TraceEvent inner;
  inner.name = "inner";
  inner.ts = inner_t0;
  inner.dur = recorder.now() - inner_t0;
  recorder.record(inner);
  TraceEvent outer;
  outer.name = "outer";
  outer.ts = outer_t0;
  outer.dur = recorder.now() - outer_t0;
  recorder.record(outer);

  // The inner span nests strictly inside the outer one.
  const std::vector<TraceEvent> events = recorder.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_GT(events[0].ts, outer_t0);
  EXPECT_LT(events[0].ts + events[0].dur, outer_t0 + events[1].dur);

  // to_json leads with process-name metadata.
  const json::Value document = recorder.to_json();
  const auto& list = document.at("traceEvents").as_array();
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0].at("ph").as_string(), "M");
  EXPECT_EQ(list[0].at("name").as_string(), "process_name");
  EXPECT_EQ(document.at("displayTimeUnit").as_string(), "ms");
}

TEST(TraceRecorder, MergeProcessRemapsPidKeepsTidNamesLane) {
  FakeClock clock(1);
  TraceRecorder worker(&clock);
  worker.set_process_name(1, "worker-local-name");
  TraceEvent span;
  span.name = "cell";
  span.ts = 10;
  span.dur = 5;
  span.pid = 1;
  span.tid = 4;
  worker.record(span);

  TraceRecorder merged(&clock);
  merged.merge_process(worker.to_json(), 9, "shard 7");
  const std::vector<TraceEvent> events = merged.events();
  ASSERT_EQ(events.size(), 1u);  // the worker's own 'M' metadata is dropped
  EXPECT_EQ(events[0].pid, 9);
  EXPECT_EQ(events[0].tid, 4);
  EXPECT_EQ(events[0].name, "cell");

  bool named = false;
  const json::Value merged_doc = merged.to_json();
  for (const json::Value& item : merged_doc.at("traceEvents").as_array()) {
    if (item.at("ph").as_string() != "M") continue;
    EXPECT_EQ(item.at("pid").as_i64(), 9);
    EXPECT_EQ(item.at("args").at("name").as_string(), "shard 7");
    named = true;
  }
  EXPECT_TRUE(named);
  EXPECT_THROW(merged.merge_process(json::Value::parse("{}"), 2, "x"),
               std::runtime_error);
}

// --- engine + campaign wiring ------------------------------------------------

std::vector<CampaignCell> tiny_grid() {
  ScenarioParams params;
  params.n = 32;
  return make_grid({"path", "gnp"}, params, {"mis-uniform", "luby-mis"}, 1, 7);
}

std::string canonical_json(const CampaignResult& result) {
  std::ostringstream out;
  CampaignJsonOptions options;
  options.canonical = true;
  write_campaign_json(out, result, options);
  return out.str();
}

TEST(EngineTracing, RoundSpansNestInRunSpansAndArgsAreComplete) {
  FakeClock clock(1);
  TraceRecorder recorder(&clock);
  CampaignOptions options;
  options.workers = 1;
  options.trace = &recorder;
  run_campaign(tiny_grid(), options);

  std::map<std::pair<int, int>, std::vector<TraceEvent>> lanes;
  int cells = 0;
  int runs = 0;
  int rounds = 0;
  for (const TraceEvent& event : recorder.events()) {
    lanes[{event.pid, event.tid}].push_back(event);
    if (event.name == "cell") {
      ++cells;
      EXPECT_TRUE(event.args.find("scenario") != nullptr);
      EXPECT_TRUE(event.args.find("seed") != nullptr);
      EXPECT_TRUE(event.args.find("rounds") != nullptr);
    } else if (event.name == "engine.run") {
      ++runs;
      EXPECT_TRUE(event.args.find("mode") != nullptr);
    } else if (event.name == "round") {
      ++rounds;
      EXPECT_TRUE(event.args.find("frontier") != nullptr);
      EXPECT_TRUE(event.args.find("messages") != nullptr);
      EXPECT_TRUE(event.args.find("steps") != nullptr);
      EXPECT_EQ(telemetry::round_phases_problem(event), "");
    }
  }
  EXPECT_EQ(cells, 4);
  EXPECT_GE(runs, cells);  // composed algorithms run several stages
  EXPECT_GT(rounds, 0);

  // Every round span sits inside an engine.run span on its lane.
  for (const auto& [lane, events] : lanes) {
    for (const TraceEvent& span : events) {
      if (span.name != "round") continue;
      bool covered = false;
      for (const TraceEvent& run : events) {
        if (run.name != "engine.run") continue;
        if (run.ts <= span.ts && span.ts + span.dur <= run.ts + run.dur) {
          covered = true;
          break;
        }
      }
      EXPECT_TRUE(covered) << "round span at ts=" << span.ts
                           << " outside every engine.run span";
    }
  }
}

// The bucket-size check telemetry_check runs on every round span: a
// round's phases must sum to its steps, timed rounds (the ones with a
// stalled arg) included.
TEST(EngineTracing, RoundPhasesMustSumToSteps) {
  const auto span = [](std::initializer_list<std::int64_t> sizes) {
    TraceEvent event;
    event.name = "round";
    event.arg("steps", std::int64_t{5});
    json::Value phases = json::Value::array();
    for (const std::int64_t size : sizes)
      phases.push_back(json::Value::number(size));
    event.args.set("phases", std::move(phases));
    return event;
  };
  EXPECT_EQ(telemetry::round_phases_problem(span({2, 3})), "");
  EXPECT_EQ(telemetry::round_phases_problem(span({2, 2})),
            "'phases' sum to 4 but 'steps' is 5");
  EXPECT_EQ(telemetry::round_phases_problem(span({2, 2, 2})),
            "'phases' sum to 6 but 'steps' is 5");

  TraceEvent bare;
  bare.name = "round";
  bare.arg("steps", std::int64_t{5});
  EXPECT_EQ(telemetry::round_phases_problem(bare),
            "no 'phases' array of bucket sizes");
  bare.arg("stalled", std::int64_t{0});
  EXPECT_EQ(telemetry::round_phases_problem(bare),
            "no 'phases' array of bucket sizes");
}

TEST(EngineTracing, TraceRoundsCapsPerRunRoundSpans) {
  for (const std::int64_t cap : {std::int64_t{0}, std::int64_t{2}}) {
    FakeClock clock(1);
    TraceRecorder recorder(&clock);
    CampaignOptions options;
    options.workers = 1;
    options.trace = &recorder;
    options.trace_rounds = cap;
    run_campaign(tiny_grid(), options);
    int runs = 0;
    std::int64_t rounds = 0;
    for (const TraceEvent& event : recorder.events()) {
      if (event.name == "engine.run") ++runs;
      if (event.name == "round") ++rounds;
    }
    EXPECT_GT(runs, 0) << "cap " << cap;
    EXPECT_LE(rounds, cap * runs) << "cap " << cap;
  }
}

// The delayed network's rounds emit one span per round, with the nodes
// whose kernel ran (in phase buckets), the sleepers that stepped without
// it, the nodes stalled for good and the payload pulses sent; with every
// round traced, the spans' steps and asleep args add up to the runs'
// steps, and their asleep args to engine.slept_steps. Crashes make stalls
// show, and color-reduce sleeps.
TEST(EngineTracing, DelayedRoundSpansCountStepsAndStalls) {
  GridOptions grid;
  NetworkOptions network;
  network.kind = NetworkKind::kDelayed;
  network.preset = DelayPreset::kHeavyTail;
  network.drop = 0.1;
  NetworkOptions crashing = network;
  crashing.crash = 0.2;
  // Crashes stall most of a small graph within a few rounds, so the
  // sleepers show in the crash-free runs.
  grid.networks = {network, crashing};
  ScenarioParams params;
  params.n = 32;
  const auto cells = make_grid({"gnp"}, params,
                               {"luby-mis", "mis-uniform", "color-reduce"},
                               1, grid);
  FakeClock clock(1);
  TraceRecorder recorder(&clock);
  CampaignOptions options;
  options.workers = 1;
  options.trace = &recorder;
  options.trace_rounds = std::numeric_limits<std::int64_t>::max();
  MetricsRegistry registry;
  CampaignResult traced;
  {
    const telemetry::ScopedMetrics scoped(&registry);
    traced = run_campaign(cells, options);
  }

  std::int64_t span_steps = 0, span_asleep = 0, run_steps = 0, runs = 0,
               max_stalled = 0;
  for (const TraceEvent& event : recorder.events()) {
    if (event.name == "round") {
      for (const char* key :
           {"round", "frontier", "asleep", "stalled", "messages"})
        EXPECT_TRUE(event.args.find(key) != nullptr) << key;
      EXPECT_EQ(event.args.at("frontier").as_i64(),
                event.args.at("steps").as_i64());
      EXPECT_EQ(telemetry::round_phases_problem(event), "");
      const std::int64_t asleep = event.args.at("asleep").as_i64();
      EXPECT_GE(asleep, 0);
      span_steps += event.args.at("steps").as_i64() + asleep;
      span_asleep += asleep;
      max_stalled = std::max(max_stalled, event.args.at("stalled").as_i64());
    } else if (event.name == "engine.run") {
      ++runs;
      EXPECT_EQ(event.args.at("mode").as_string(), "delayed");
      run_steps += event.args.at("steps").as_i64();
    }
  }
  EXPECT_GT(runs, 2);
  EXPECT_EQ(span_steps, run_steps);
  EXPECT_GT(max_stalled, 0);
  std::int64_t slept_steps = -1;
  for (const MetricSnapshot& metric : registry.snapshot())
    if (metric.name == "engine.slept_steps") slept_steps = metric.value;
  EXPECT_GT(span_asleep, 0);
  EXPECT_EQ(span_asleep, slept_steps);

  options.trace = nullptr;
  EXPECT_EQ(canonical_json(run_campaign(cells, options)),
            canonical_json(traced));
}

TEST(CampaignTelemetry, MetricsCountCellsDeterministically) {
  for (const int workers : {1, 2, 8}) {
    MetricsRegistry registry;
    const telemetry::ScopedMetrics scoped(&registry);
    CampaignOptions options;
    options.workers = workers;
    run_campaign(tiny_grid(), options);
    const std::vector<MetricSnapshot> snapshot = registry.snapshot();
    bool found = false;
    for (const MetricSnapshot& metric : snapshot) {
      if (metric.name == "campaign.cells") {
        EXPECT_EQ(metric.value, 4) << workers << " workers";
        found = true;
      }
    }
    EXPECT_TRUE(found) << workers << " workers";
  }
}

TEST(CampaignTelemetry, CanonicalBytesIdenticalWithTracingOnAndOff) {
  const std::vector<CampaignCell> cells = tiny_grid();
  CampaignOptions plain;
  plain.workers = 2;
  const std::string baseline = canonical_json(run_campaign(cells, plain));

  // Single process, tracing on.
  {
    FakeClock clock(1);
    TraceRecorder recorder(&clock);
    MetricsRegistry registry;
    const telemetry::ScopedMetrics scoped(&registry);
    CampaignOptions traced;
    traced.workers = 2;
    traced.trace = &recorder;
    EXPECT_EQ(canonical_json(run_campaign(cells, traced)), baseline);
    EXPECT_GT(recorder.size(), 0u);
  }

  // Sharded in-process (1 and 3 shards), tracing on.
  for (const int shards : {1, 3}) {
    FakeClock clock(1);
    TraceRecorder recorder(&clock);
    const ShardPlan plan =
        plan_shards(cells, shards, ShardPolicy::kCostBalanced);
    std::vector<ShardResult> results;
    for (const ShardManifest& manifest : plan.shards) {
      CampaignOptions traced;
      traced.workers = 2;
      traced.trace = &recorder;
      traced.trace_pid = manifest.shard_index + 2;
      results.push_back(run_shard(manifest, traced));
    }
    EXPECT_EQ(canonical_json(merge_shard_results(plan, results)), baseline)
        << shards << " shards";
    EXPECT_GT(recorder.size(), 0u) << shards << " shards";
  }
}

// --- supervisor spans and attempt timestamps ---------------------------------

/// A scratch directory per test, removed on destruction.
struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl = "/tmp/unilocal-telemetry-test-XXXXXX";
    std::vector<char> buffer(tmpl.begin(), tmpl.end());
    buffer.push_back('\0');
    if (mkdtemp(buffer.data()) == nullptr)
      throw std::runtime_error("mkdtemp failed");
    path = buffer.data();
  }
  ~TempDir() { std::system(("rm -rf " + shell_quote(path)).c_str()); }
};

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(static_cast<bool>(out)) << path;
  out << text;
}

/// Golden shard results computed in-process; sh workers copy (or ignore)
/// them, so supervision runs real processes without re-running the engine.
struct SupervisedHarness {
  TempDir dir;
  std::vector<CampaignCell> cells = tiny_grid();
  ShardPlan plan;
  std::vector<std::string> golden_paths;

  explicit SupervisedHarness(int num_shards) {
    plan = plan_shards(cells, num_shards, ShardPolicy::kCostBalanced);
    for (const ShardManifest& manifest : plan.shards) {
      const ShardResult result = run_shard(manifest, {});
      const std::string path = dir.path + "/golden-" +
                               std::to_string(manifest.shard_index) + ".json";
      write_file(path, result.to_json().dump() + "\n");
      golden_paths.push_back(path);
    }
  }

  SupervisorOptions options() const {
    SupervisorOptions opts;
    opts.scratch_dir = dir.path;
    opts.backoff_base_seconds = 0.001;
    opts.backoff_max_seconds = 0.002;
    return opts;
  }

  WorkerCommand copy_worker() const {
    return [this](const ShardAttemptContext& context) {
      return std::vector<std::string>{
          "/bin/sh", "-c", "cp \"$1\" \"$2\"", "worker",
          golden_paths[static_cast<std::size_t>(context.shard_index)],
          context.result_path};
    };
  }
};

TEST(SupervisorTelemetry, AttemptRecordsCarryTimestampsAndSpansMatch) {
  SupervisedHarness harness(2);
  TraceRecorder recorder;
  SupervisorOptions options = harness.options();
  options.trace = &recorder;
  const SupervisorReport report =
      supervise_shards(harness.plan, options, harness.copy_worker());
  ASSERT_TRUE(report.all_completed());

  for (const ShardSupervision& sup : report.rows) {
    ASSERT_EQ(sup.log.size(), 1u);
    const ShardAttemptRecord& record = sup.log[0];
    EXPECT_EQ(record.outcome, "accepted");
    EXPECT_FALSE(record.killed);
    EXPECT_GE(record.start_seconds, 0.0);
    EXPECT_GE(record.end_seconds, record.start_seconds);
    EXPECT_LE(record.end_seconds, report.elapsed_seconds + 1.0);
  }

  std::map<std::string, int> by_name;
  for (const TraceEvent& event : recorder.events()) {
    EXPECT_EQ(event.pid, 1);
    ++by_name[event.name];
    if (event.name == "attempt") {
      EXPECT_EQ(event.phase, 'X');
      EXPECT_EQ(event.tid,
                static_cast<int>(event.args.at("shard").as_i64()) + 1);
      EXPECT_EQ(event.args.at("outcome").as_string(), "accepted");
      EXPECT_FALSE(event.args.at("killed").as_bool());
    }
  }
  EXPECT_EQ(by_name["attempt"], 2);
  EXPECT_EQ(by_name["launch"], 2);
  EXPECT_EQ(by_name["accept"], 2);
  EXPECT_EQ(by_name["sigkill"], 0);
}

TEST(SupervisorTelemetry, TimeoutKillSetsKilledAndEmitsSigkill) {
  SupervisedHarness harness(1);
  TraceRecorder recorder;
  SupervisorOptions options = harness.options();
  options.trace = &recorder;
  options.max_attempts = 1;
  options.speculate = false;
  options.base_timeout_seconds = 0.05;
  options.timeout_seconds_per_cost = 0.0;
  const WorkerCommand hang = [](const ShardAttemptContext&) {
    return std::vector<std::string>{"/bin/sh", "-c", "sleep 30"};
  };
  const SupervisorReport report =
      supervise_shards(harness.plan, options, hang);
  ASSERT_FALSE(report.all_completed());
  ASSERT_EQ(report.rows[0].log.size(), 1u);
  const ShardAttemptRecord& record = report.rows[0].log[0];
  EXPECT_TRUE(record.killed);
  EXPECT_NE(record.outcome.find("timeout"), std::string::npos);
  EXPECT_GT(record.end_seconds, record.start_seconds);

  bool saw_sigkill = false;
  bool saw_killed_span = false;
  for (const TraceEvent& event : recorder.events()) {
    if (event.name == "sigkill") saw_sigkill = true;
    if (event.name == "attempt" && event.args.at("killed").as_bool())
      saw_killed_span = true;
  }
  EXPECT_TRUE(saw_sigkill);
  EXPECT_TRUE(saw_killed_span);
}

}  // namespace
}  // namespace unilocal
