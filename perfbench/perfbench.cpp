// perfbench, the repo benchmark: three workloads over the library's public
// entry points, timed with tracing off, every output checked against golden
// data stored next to this file (golden.json).
//
//   table1-zoo     make_table1_grid at n=2048 with 3 seeds (141 cells), run
//                  through run_campaign with 2 workers on the sync network.
//   dense-100k     luby-mis, mis-uniform and arb-mis through
//                  AlgorithmRegistry::run with engine_threads=2 on pre-built
//                  gnp-100k and layered-forest-100k instances.
//   sharded-async  the table1 grid at n=256 with 3 seeds under
//                  delay:heavytail with drop=0.05: plan_shards into 2
//                  cost-balanced shards, supervise_shards over 2 worker
//                  processes (this binary re-executed with --shard-worker,
//                  1 worker each), merge_shard_results.
//
// At most two threads or worker processes are busy at any moment: on a
// shared 4-core host a 4-thread run measures the neighbours.
//
// --seed picks one of the workload's input sets (see input_sets);
// golden.json holds every cell's output hash and LOCAL rounds for each set,
// so a cell counts as ok only when it is solved, checker-valid and
// golden-matching.
//
// --trace 0 prints the end-to-end metrics of untraced repetitions. --trace 1
// alternates untraced and traced repetitions: traced ones wrap every call
// into a layer in a span (written as Chrome trace-event JSON that opens in
// Perfetto) and yield the per-layer metrics; a pointer-chase host probe runs
// before and after each timed phase.
//
// Usage (perfbench/run.py builds this binary and passes these flags):
//   perfbench --workload W --seed N --seconds S --trace 0|1 --golden FILE
//             --workdir DIR [--smoke] [--fail-first-attempt]
//   perfbench --regen-golden FILE --workdir DIR
//   perfbench --shard-worker MANIFEST RESULT [--fail]
//
// The last line of stdout is one JSON object {correct, attempted, failed,
// metrics}; diagnostics go to stderr.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/scenario_registry.h"
#include "src/runtime/algorithm_registry.h"
#include "src/runtime/campaign.h"
#include "src/runtime/shard.h"
#include "src/runtime/supervisor.h"
#include "src/runtime/telemetry.h"
#include "src/util/json.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace {

namespace fs = std::filesystem;
using namespace unilocal;
using SteadyClock = std::chrono::steady_clock;
using telemetry::TraceRecorder;

constexpr int kBusy = 2;
constexpr std::size_t kSetupRepeats = 5;
constexpr double kSetupBudget = 0.2;
constexpr double kRepSetupBudget = 0.05;

// --- small helpers -----------------------------------------------------------

double seconds_since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

double tv_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         1e-6 * static_cast<double>(tv.tv_usec);
}

/// User + system time of this process and every reaped child.
double cpu_seconds() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return tv_seconds(self.ru_utime) + tv_seconds(self.ru_stime) +
         tv_seconds(children.ru_utime) + tv_seconds(children.ru_stime);
}

/// Largest resident set of this process or any reaped child, in MiB.
double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double geometric_mean(const std::vector<std::int64_t>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const std::int64_t v : values)
    log_sum += std::log(static_cast<double>(std::max<std::int64_t>(v, 1)));
  return std::exp(log_sum / static_cast<double>(values.size()));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// FNV-1a over the output vector, the same hash run_campaign stores in
/// CellResult::output_hash, so decomposed cells compare against the same
/// golden data as campaign cells.
std::uint64_t fnv1a(const std::vector<std::int64_t>& values) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const std::int64_t value : values) {
    const auto word = static_cast<std::uint64_t>(value);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

std::string self_executable() {
  return fs::read_symlink("/proc/self/exe").string();
}

/// One "X" span on the recorder (no-op without one).
void span(TraceRecorder* trace, const char* name, int tid, std::int64_t t0,
          std::int64_t t1, json::Value args = {}) {
  if (trace == nullptr) return;
  telemetry::TraceEvent event;
  event.name = name;
  event.ts = t0;
  event.dur = t1 - t0;
  event.tid = tid;
  event.args = std::move(args);
  trace->record(std::move(event));
}

std::int64_t trace_now(TraceRecorder* trace) {
  return trace != nullptr ? trace->now() : 0;
}

// --- the metric schema -------------------------------------------------------

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<MetricDef>& end_to_end_defs() {
  static const std::vector<MetricDef> defs = {
      {"wall_s", "s"},           {"cpu_s", "s"},
      {"setup_s", "s"},          {"peak_rss_mb", "MB"},
      {"ok_rate", "ratio"},      {"local_rounds_gm", "rounds"}};
  return defs;
}

const std::vector<MetricDef>& per_layer_defs() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"graph.build_s", "s"},
        {"instance.build_s", "s"},
        {"pipeline.outside_engine_s", "s"},
        {"engine.s", "s"},
        {"engine.steps", "count"},
        {"engine.msgs_per_step", "ratio"},
        {"engine.steps_per_s", "1/s"},
        {"engine.batched_share", "ratio"},
        {"engine.batch_occupancy", "count"},
        {"engine.arena_mb", "MB"},
        {"network.dropped", "count"},
        {"network.duplicated", "count"},
        {"network.max_skew", "ticks"},
        {"check.s", "s"},
        {"campaign.busy_share", "ratio"},
        {"campaign.cell_p50_s", "s"},
        {"campaign.cell_p90_s", "s"},
        {"campaign.cells", "count"},
        {"shard.plan_s", "s"},
        {"shard.manifest_bytes", "bytes"},
        {"shard.result_bytes", "bytes"},
        {"shard.merge_s", "s"},
        {"supervisor.s", "s"},
        {"supervisor.attempts", "count"},
        {"supervisor.retries", "count"},
        {"supervisor.overhead_s", "s"},
        {"trace.overhead_share", "ratio"},
        {"host.probe_s", "s"}};
    const std::vector<std::string> algorithms =
        default_algorithm_registry().names();
    for (const std::string& a : algorithms)
      d.push_back({"engine.steps." + a, "count"});
    for (const std::string& a : algorithms)
      d.push_back({"pipeline.run_s." + a, "s"});
    for (const std::string& a : algorithms)
      d.push_back({"rounds." + a, "rounds"});
    return d;
  }();
  return defs;
}

// --- cells and repetitions ---------------------------------------------------

/// One unit of checked output: a campaign cell or a pipeline run.
struct CellRecord {
  std::string key;  // "algorithm scenario seed"
  std::string algorithm;
  std::uint64_t hash = 0;
  std::int64_t rounds = 0;
  /// Solved, checker-valid, no error (golden agreement is checked apart).
  bool valid = false;
  std::string error;
  EngineStats stats;
  /// Per-layer seconds, filled when the cell ran decomposed (traced reps and
  /// dense-100k); run_s is the AlgorithmRegistry::run call.
  bool decomposed = false;
  double graph_s = 0.0;
  double instance_s = 0.0;
  double run_s = 0.0;
  double check_s = 0.0;
};

std::string cell_key(const std::string& algorithm, const std::string& scenario,
                     std::uint64_t seed) {
  return algorithm + " " + scenario + " " + std::to_string(seed);
}

CellRecord from_campaign(const CellResult& cell) {
  CellRecord r;
  r.key = cell_key(cell.cell.algorithm, cell.cell.scenario, cell.cell.seed);
  r.algorithm = cell.cell.algorithm;
  r.hash = cell.output_hash;
  r.rounds = cell.rounds;
  r.valid = cell.error.empty() && cell.solved && cell.valid;
  r.error = cell.error;
  r.stats = cell.stats;
  return r;
}

using Layers = std::map<std::string, double>;

struct Rep {
  bool traced = false;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<CellRecord> cells;
  Layers layers;
};

/// Wall and CPU time of one timed phase.
class PhaseTimer {
 public:
  PhaseTimer() : wall0_(SteadyClock::now()), cpu0_(cpu_seconds()) {}
  void stop(Rep& rep) const {
    rep.wall_s = seconds_since(wall0_);
    rep.cpu_s = cpu_seconds() - cpu0_;
  }

 private:
  SteadyClock::time_point wall0_;
  double cpu0_;
};

/// Runs one registry pipeline on a built instance and checks it, each call
/// in its own span under a parent span when traced.
void run_and_check(const std::string& algorithm, const Instance& instance,
                   const AlgorithmRunContext& context, TraceRecorder* trace,
                   int tid, CellRecord& record) {
  const AlgorithmRegistry& registry = default_algorithm_registry();
  record.algorithm = algorithm;
  record.decomposed = true;
  auto t0 = SteadyClock::now();
  const std::int64_t s0 = trace_now(trace);
  CellOutcome outcome = registry.run(algorithm, instance, context);
  record.run_s = seconds_since(t0);
  const std::int64_t s1 = trace_now(trace);
  t0 = SteadyClock::now();
  const bool valid = outcome.solved && registry.problem(algorithm).check(
                                           instance, outcome.outputs);
  record.check_s = seconds_since(t0);
  const std::int64_t s2 = trace_now(trace);
  record.hash = fnv1a(outcome.outputs);
  record.rounds = outcome.rounds;
  record.valid = valid;
  record.stats = outcome.stats;
  if (trace != nullptr) {
    json::Value args = json::Value::object();
    args.set("engine_s", json::Value::number(outcome.stats.elapsed_seconds));
    args.set("steps", json::Value::number(outcome.stats.total_steps));
    span(trace, "pipeline.run", tid, s0, s1, std::move(args));
    span(trace, "check", tid, s1, s2);
  }
}

/// The work run_campaign does for one cell, one layer call at a time.
CellRecord decomposed_cell(const CampaignCell& cell, std::size_t index,
                           EngineWorkspace* workspace, TraceRecorder* trace) {
  CellRecord record;
  record.key = cell_key(cell.algorithm, cell.scenario, cell.seed);
  const int tid = trace != nullptr ? trace->lane() : 0;
  const std::int64_t s0 = trace_now(trace);
  try {
    auto t0 = SteadyClock::now();
    Graph graph =
        default_scenarios().build(cell.scenario, cell.params, cell.seed);
    record.graph_s = seconds_since(t0);
    const std::int64_t s1 = trace_now(trace);
    t0 = SteadyClock::now();
    Instance instance =
        make_instance(std::move(graph), cell.identities, cell.seed);
    instance.csr();
    record.instance_s = seconds_since(t0);
    const std::int64_t s2 = trace_now(trace);
    span(trace, "graph.build", tid, s0, s1);
    span(trace, "instance.build", tid, s1, s2);
    AlgorithmRunContext context;
    context.seed = cell.seed;
    context.workspace = workspace;
    context.network = cell.network;
    run_and_check(cell.algorithm, instance, context, trace, tid, record);
  } catch (const std::exception& e) {
    record.error = e.what();
  }
  if (trace != nullptr) {
    json::Value args = json::Value::object();
    args.set("index", json::Value::number(static_cast<std::uint64_t>(index)));
    args.set("algorithm", json::Value::string(cell.algorithm));
    args.set("scenario", json::Value::string(cell.scenario));
    args.set("seed", json::Value::number(cell.seed));
    args.set("n",
             json::Value::number(static_cast<std::int64_t>(cell.params.n)));
    args.set("rounds", json::Value::number(record.rounds));
    span(trace, "cell", tid, s0, trace->now(), std::move(args));
  }
  return record;
}

/// Layer metrics every workload's cells carry.
void add_cell_layers(const std::vector<CellRecord>& cells, Layers& layers) {
  double steps = 0.0, messages = 0.0, batched = 0.0, batch_calls = 0.0;
  double dropped = 0.0, duplicated = 0.0, engine_s = 0.0;
  std::int64_t arena = 0, skew = 0;
  std::map<std::string, std::vector<std::int64_t>> rounds;
  for (const CellRecord& c : cells) {
    steps += static_cast<double>(c.stats.total_steps);
    messages += static_cast<double>(c.stats.total_messages);
    batched += static_cast<double>(c.stats.kernel_batched_steps);
    batch_calls += static_cast<double>(c.stats.kernel_batch_calls);
    arena = std::max(arena, c.stats.arena_bytes);
    dropped += static_cast<double>(c.stats.messages_dropped);
    duplicated += static_cast<double>(c.stats.messages_duplicated);
    skew = std::max(skew, c.stats.max_delivery_skew);
    engine_s += c.stats.elapsed_seconds;
    layers["engine.steps." + c.algorithm] +=
        static_cast<double>(c.stats.total_steps);
    rounds[c.algorithm].push_back(c.rounds);
  }
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  layers["engine.steps"] = steps;
  layers["engine.msgs_per_step"] = ratio(messages, steps);
  layers["engine.s"] = engine_s;
  layers["engine.steps_per_s"] = ratio(steps, engine_s);
  layers["engine.batched_share"] = ratio(batched, steps);
  layers["engine.batch_occupancy"] = ratio(batched, batch_calls);
  layers["engine.arena_mb"] = static_cast<double>(arena) / (1024.0 * 1024.0);
  layers["network.dropped"] = dropped;
  layers["network.duplicated"] = duplicated;
  layers["network.max_skew"] = static_cast<double>(skew);
  for (const auto& [algorithm, values] : rounds)
    layers["rounds." + algorithm] = geometric_mean(values);

  if (cells.empty() || !cells.front().decomposed) return;
  double graph_s = 0.0, instance_s = 0.0, check_s = 0.0, outside_s = 0.0;
  for (const CellRecord& c : cells) {
    graph_s += c.graph_s;
    instance_s += c.instance_s;
    check_s += c.check_s;
    outside_s += c.run_s - c.stats.elapsed_seconds;
    layers["pipeline.run_s." + c.algorithm] += c.run_s;
  }
  layers["graph.build_s"] += graph_s;
  layers["instance.build_s"] += instance_s;
  layers["check.s"] = check_s;
  layers["pipeline.outside_engine_s"] = outside_s;
}

/// campaign.* from run_campaign's own CellResult::seconds and
/// elapsed_seconds.
void add_campaign_layers(const CampaignResult& result, Layers& layers) {
  std::vector<double> seconds;
  double busy = 0.0;
  for (const CellResult& cell : result.cells) {
    seconds.push_back(cell.seconds);
    busy += cell.seconds;
  }
  const CampaignPercentiles p = campaign_percentiles(seconds);
  const double capacity = result.workers * result.elapsed_seconds;
  layers["campaign.busy_share"] = capacity > 0.0 ? busy / capacity : 0.0;
  layers["campaign.cell_p50_s"] = p.p50;
  layers["campaign.cell_p90_s"] = p.p90;
  layers["campaign.cells"] = static_cast<double>(seconds.size());
}

// --- workloads ---------------------------------------------------------------

struct Sizes {
  NodeId table1_n;
  int table1_seeds;
  NodeId dense_n;
  NodeId async_n;
  int async_seeds;
};
constexpr Sizes kFullSizes{2048, 3, 100000, 256, 3};
constexpr Sizes kSmokeSizes{64, 1, 2000, 64, 1};

/// The input sets --seed selects from (seed mod the list's size); set s
/// builds its grid or instances from base_seed(s). dense-100k keeps the sets
/// on which arb-mis stops at its 399-round guess on both instances: on the
/// others it runs on to the 2475-round guess, which doubles that pipeline's
/// work and moves local_rounds_gm by up to 80% from seed to seed.
const std::vector<int>& input_sets(const std::string& workload) {
  static const std::vector<int> all = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  static const std::vector<int> dense = {0, 4, 5, 8};
  return workload == "dense-100k" ? dense : all;
}

/// Grid seeds of input set `set` (disjoint across sets).
std::uint64_t base_seed(int set) {
  return 1 + 100 * static_cast<std::uint64_t>(set);
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Everything before the timed phase; called several times (the last
  /// call's state is used). A traced run makes one more call with the
  /// recorder.
  virtual void setup(TraceRecorder* trace) = 0;
  /// One timed repetition; a null recorder means untraced.
  virtual Rep run(TraceRecorder* trace) = 0;
};

class Table1Zoo final : public Workload {
 public:
  Table1Zoo(const Sizes& sizes, int set) : set_(set) {
    params_.n = sizes.table1_n;
    seeds_ = sizes.table1_seeds;
  }

  void setup(TraceRecorder*) override {
    GridOptions options;
    options.base_seed = base_seed(set_);
    cells_ = make_table1_grid(params_, seeds_, options);
  }

  Rep run(TraceRecorder* trace) override {
    Rep rep;
    rep.traced = trace != nullptr;
    if (trace == nullptr) {
      CampaignOptions options;
      options.workers = kBusy;
      const PhaseTimer timer;
      const CampaignResult result = run_campaign(cells_, options);
      timer.stop(rep);
      for (const CellResult& cell : result.cells)
        rep.cells.push_back(from_campaign(cell));
      add_campaign_layers(result, rep.layers);
      return rep;
    }
    // The traced repetition replays run_campaign's per-cell work one layer
    // call at a time on the same 2-thread pool and workspace pool.
    rep.cells.resize(cells_.size());
    const int tid = trace->lane();
    const std::int64_t s0 = trace->now();
    const PhaseTimer timer;
    ThreadPool pool(kBusy);
    WorkspacePool workspaces(kBusy);
    pool.run(static_cast<int>(cells_.size()), [&](int i) {
      const WorkspacePool::Lease lease(workspaces);
      const auto index = static_cast<std::size_t>(i);
      rep.cells[index] =
          decomposed_cell(cells_[index], index, lease.get(), trace);
    });
    timer.stop(rep);
    span(trace, "rep", tid, s0, trace->now());
    return rep;
  }

 private:
  int set_;
  ScenarioParams params_;
  int seeds_ = 1;
  std::vector<CampaignCell> cells_;
};

class Dense100k final : public Workload {
 public:
  Dense100k(const Sizes& sizes, int set)
      : n_(sizes.dense_n), seed_(base_seed(set)) {}

  void setup(TraceRecorder* trace) override {
    inputs_.clear();
    setup_layers_.clear();
    const int tid = trace != nullptr ? trace->lane() : 0;
    for (const char* scenario : {"gnp", "layered-forest"}) {
      ScenarioParams params;
      params.n = n_;
      const std::int64_t s0 = trace_now(trace);
      auto t0 = SteadyClock::now();
      Graph graph = default_scenarios().build(scenario, params, seed_);
      setup_layers_["graph.build_s"] += seconds_since(t0);
      const std::int64_t s1 = trace_now(trace);
      t0 = SteadyClock::now();
      Instance instance = make_instance(
          std::move(graph), IdentityScheme::kRandomPermuted, seed_);
      instance.csr();
      setup_layers_["instance.build_s"] += seconds_since(t0);
      span(trace, "graph.build", tid, s0, s1);
      span(trace, "instance.build", tid, s1, trace_now(trace));
      inputs_.emplace(scenario, std::move(instance));
    }
  }

  Rep run(TraceRecorder* trace) override {
    Rep rep;
    rep.traced = trace != nullptr;
    const int tid = trace != nullptr ? trace->lane() : 0;
    const std::int64_t r0 = trace_now(trace);
    const PhaseTimer timer;
    for (const auto& [scenario, instance] : inputs_) {
      for (const char* algorithm : {"luby-mis", "mis-uniform", "arb-mis"}) {
        CellRecord record;
        record.key = cell_key(algorithm, scenario, seed_);
        AlgorithmRunContext context;
        context.seed = seed_;
        context.workspace = &workspace_;
        context.engine_threads = kBusy;
        const std::int64_t s0 = trace_now(trace);
        run_and_check(algorithm, instance, context, trace, tid, record);
        if (trace != nullptr) {
          json::Value args = json::Value::object();
          args.set("algorithm", json::Value::string(algorithm));
          args.set("scenario", json::Value::string(scenario));
          args.set("rounds", json::Value::number(record.rounds));
          span(trace, "pipeline", tid, s0, trace->now(), std::move(args));
        }
        rep.cells.push_back(std::move(record));
      }
    }
    timer.stop(rep);
    span(trace, "rep", tid, r0, trace_now(trace));
    for (const auto& [name, value] : setup_layers_) rep.layers[name] = value;
    return rep;
  }

 private:
  NodeId n_;
  std::uint64_t seed_;
  std::map<std::string, Instance> inputs_;
  Layers setup_layers_;
  EngineWorkspace workspace_;
};

class ShardedAsync final : public Workload {
 public:
  ShardedAsync(const Sizes& sizes, int set, fs::path workdir, bool fail_first)
      : set_(set), workdir_(std::move(workdir)), fail_first_(fail_first) {
    params_.n = sizes.async_n;
    seeds_ = sizes.async_seeds;
  }

  ~ShardedAsync() override {
    std::error_code ec;
    fs::remove_all(scratch_, ec);
  }
  ShardedAsync(const ShardedAsync&) = delete;
  ShardedAsync& operator=(const ShardedAsync&) = delete;

  void setup(TraceRecorder*) override {
    NetworkOptions network = parse_network_spec("delay:heavytail");
    network.drop = 0.05;
    GridOptions options;
    options.base_seed = base_seed(set_);
    options.networks = {network};
    cells_ = make_table1_grid(params_, seeds_, options);
    scratch_ = workdir_ / ("shards-" + std::to_string(getpid()));
    fs::create_directories(scratch_);
  }

  Rep run(TraceRecorder* trace) override {
    Rep rep;
    rep.traced = trace != nullptr;
    const fs::path dir = scratch_ / ("rep-" + std::to_string(reps_++));
    fs::create_directories(dir);

    SupervisorOptions options;
    options.max_attempts = 3;
    options.max_concurrent = kBusy;
    options.speculate = false;
    options.backoff_seed = 0x5eedULL;
    options.base_timeout_seconds = 150.0;
    options.scratch_dir = dir.string();
    options.trace = trace;
    const std::string exe = self_executable();
    const bool fail_first = fail_first_;
    const auto command = [&exe, fail_first](const ShardAttemptContext& c) {
      std::vector<std::string> argv = {exe, "--shard-worker", c.manifest_path,
                                       c.result_path};
      if (fail_first && c.shard_index == 0 && c.attempt == 1)
        argv.push_back("--fail");
      return argv;
    };

    const int tid = trace != nullptr ? trace->lane() : 0;
    const std::int64_t s0 = trace_now(trace);
    const PhaseTimer timer;
    auto t0 = SteadyClock::now();
    const ShardPlan plan =
        plan_shards(cells_, kBusy, ShardPolicy::kCostBalanced);
    const double plan_s = seconds_since(t0);
    const std::int64_t s1 = trace_now(trace);
    t0 = SteadyClock::now();
    const SupervisorReport report = supervise_shards(plan, options, command);
    const double supervise_s = seconds_since(t0);
    const std::int64_t s2 = trace_now(trace);
    if (!report.all_completed())
      throw std::runtime_error("sharded-async: " + report.failure_summary());
    t0 = SteadyClock::now();
    const CampaignResult merged = merge_shard_results(plan, report.results);
    const double merge_s = seconds_since(t0);
    timer.stop(rep);
    const std::int64_t s3 = trace_now(trace);
    span(trace, "shard.plan", tid, s0, s1);
    span(trace, "supervisor.run", tid, s1, s2);
    span(trace, "shard.merge", tid, s2, s3);
    span(trace, "rep", tid, s0, s3);

    for (const CellResult& cell : merged.cells)
      rep.cells.push_back(from_campaign(cell));
    add_campaign_layers(merged, rep.layers);
    double slowest = 0.0, result_bytes = 0.0, manifest_bytes = 0.0;
    for (const ShardResult& result : report.results) {
      slowest = std::max(slowest, result.elapsed_seconds);
      result_bytes += static_cast<double>(result.to_json().dump().size() + 1);
    }
    for (const ShardManifest& manifest : plan.shards)
      manifest_bytes +=
          static_cast<double>(manifest.to_json().dump().size() + 1);
    rep.layers["shard.plan_s"] = plan_s;
    rep.layers["shard.merge_s"] = merge_s;
    rep.layers["shard.manifest_bytes"] = manifest_bytes;
    rep.layers["shard.result_bytes"] = result_bytes;
    rep.layers["supervisor.s"] = supervise_s;
    rep.layers["supervisor.attempts"] = report.attempts;
    rep.layers["supervisor.retries"] = report.retries;
    rep.layers["supervisor.overhead_s"] = supervise_s - slowest;
    fs::remove_all(dir);
    return rep;
  }

 private:
  int set_;
  fs::path workdir_;
  bool fail_first_;
  ScenarioParams params_;
  int seeds_ = 1;
  std::vector<CampaignCell> cells_;
  fs::path scratch_;
  int reps_ = 0;
};

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"table1-zoo", "dense-100k",
                                                 "sharded-async"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Sizes& sizes, int set,
                                        const fs::path& workdir,
                                        bool fail_first) {
  if (name == "table1-zoo") return std::make_unique<Table1Zoo>(sizes, set);
  if (name == "dense-100k") return std::make_unique<Dense100k>(sizes, set);
  if (name == "sharded-async")
    return std::make_unique<ShardedAsync>(sizes, set, workdir, fail_first);
  throw std::runtime_error("unknown workload: " + name);
}

// --- host probe --------------------------------------------------------------

/// A random pointer chase over 32 MiB (16x a 2 MiB per-core L2): it slows
/// when other tenants contend for the shared cache and memory, the noise a
/// shared host shows; an ALU loop would not see it.
class HostProbe {
 public:
  HostProbe() : next_(kEntries) {
    std::iota(next_.begin(), next_.end(), 0u);
    Rng rng(0x9e3779b97f4a7c15ULL);
    // Sattolo's shuffle: one cycle through every entry.
    for (std::size_t i = kEntries - 1; i > 0; --i)
      std::swap(next_[i], next_[rng.next_below(i)]);
  }

  double run() {
    const auto t0 = SteadyClock::now();
    std::uint32_t at = 0;
    for (int step = 0; step < kSteps; ++step) at = next_[at];
    sink_ = at;
    return seconds_since(t0);
  }

 private:
  static constexpr std::size_t kEntries = std::size_t{8} << 20;
  static constexpr int kSteps = 1 << 20;
  std::vector<std::uint32_t> next_;
  volatile std::uint32_t sink_ = 0;
};

// --- golden data -------------------------------------------------------------

std::string golden_key(const std::string& workload, bool smoke, int set) {
  return workload + (smoke ? "/smoke/" : "/full/") + std::to_string(set);
}

/// Counts the cells that are not ok: errored, unsolved, checker-invalid, or
/// disagreeing with the golden hash or LOCAL rounds.
std::int64_t count_failures(const std::vector<CellRecord>& cells,
                            const json::Value& golden) {
  std::int64_t failed = 0;
  for (const CellRecord& cell : cells) {
    std::string problem;
    const json::Value* expected =
        golden.is_object() ? golden.find(cell.key) : nullptr;
    if (!cell.error.empty()) {
      problem = cell.error;
    } else if (!cell.valid) {
      problem = "unsolved or checker-invalid";
    } else if (expected == nullptr) {
      problem = "no golden entry";
    } else if (json::u64_field(expected->as_array().at(0)) != cell.hash) {
      problem = "output hash differs from golden";
    } else if (expected->as_array().at(1).as_i64() != cell.rounds) {
      problem = "LOCAL rounds " + std::to_string(cell.rounds) +
                " differ from golden " +
                std::to_string(expected->as_array().at(1).as_i64());
    }
    if (problem.empty()) continue;
    if (failed < 5)
      std::fprintf(stderr, "perfbench: cell %s failed: %s\n", cell.key.c_str(),
                   problem.c_str());
    ++failed;
  }
  return failed;
}

// --- the benchmark run -------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool fail_first = false;
  std::string golden;
  std::string workdir = ".";
  std::string regen;
};

json::Value metric(double value, const std::string& unit) {
  json::Value m = json::Value::object();
  m.set("value", json::Value::number(value));
  m.set("unit", json::Value::string(unit));
  return m;
}

int run_benchmark(const Args& args) {
  const Sizes& sizes = args.smoke ? kSmokeSizes : kFullSizes;
  const std::vector<int>& sets = input_sets(args.workload);
  const int set = sets[args.seed % sets.size()];
  const fs::path workdir(args.workdir);
  fs::create_directories(workdir);
  std::unique_ptr<TraceRecorder> recorder;
  std::optional<HostProbe> probe;
  if (args.trace) {
    recorder = std::make_unique<TraceRecorder>();
    recorder->set_process_name(1, "perfbench " + args.workload);
    probe.emplace();
  }

  std::unique_ptr<Workload> workload =
      make_workload(args.workload, sizes, set, workdir, args.fail_first);
  const json::Value golden_doc = json::Value::parse(read_file(args.golden));
  const json::Value* golden_set =
      golden_doc.find(golden_key(args.workload, args.smoke, set));
  const json::Value golden =
      golden_set != nullptr ? *golden_set : json::Value();

  // Set-up (grid, pre-built inputs) is timed in bursts, one before the first
  // repetition and one before every later one; setup_s is the median over
  // bursts of each burst's fastest set-up. A short single-threaded set-up
  // runs at the speed of whichever core it lands on, so a burst's typical
  // time swings with the neighbours' load far more than its fastest one.
  std::vector<double> setup_s;
  const auto set_up = [&](std::size_t at_least, double budget) {
    const auto burst = SteadyClock::now();
    double fastest = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < at_least || seconds_since(burst) < budget;
         ++i) {
      const auto t0 = SteadyClock::now();
      workload->setup(nullptr);
      fastest = std::min(fastest, seconds_since(t0));
    }
    setup_s.push_back(fastest);
  };
  set_up(kSetupRepeats, kSetupBudget);
  if (recorder) workload->setup(recorder.get());

  // Repetitions until --seconds have passed; a traced run alternates
  // untraced and traced repetitions and needs at least one of each.
  std::vector<Rep> reps;
  std::vector<double> probes;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  const auto check = [&](const Rep& rep) {
    attempted += static_cast<std::int64_t>(rep.cells.size());
    failed += count_failures(rep.cells, golden);
  };
  // A traced run first warms the workload once (checked, not timed), so the
  // traced/untraced ratio does not charge the cold start to either side.
  if (args.trace) check(workload->run(nullptr));
  const auto start = SteadyClock::now();
  const auto have = [&reps](bool traced) {
    return std::any_of(reps.begin(), reps.end(),
                       [traced](const Rep& r) { return r.traced == traced; });
  };
  while (reps.empty() || seconds_since(start) < args.seconds ||
         (args.trace && !(have(true) && have(false)))) {
    const bool traced = args.trace && reps.size() % 2 == 1;
    if (!reps.empty()) set_up(1, kRepSetupBudget);
    if (probe) probes.push_back(probe->run());
    Rep rep = workload->run(traced ? recorder.get() : nullptr);
    if (probe) probes.push_back(probe->run());
    check(rep);
    std::fprintf(stderr, "perfbench: %s rep %zu%s: wall %.4fs cpu %.4fs\n",
                 args.workload.c_str(), reps.size(), traced ? " (traced)" : "",
                 rep.wall_s, rep.cpu_s);
    reps.push_back(std::move(rep));
  }
  std::fprintf(stderr, "perfbench: setup over %zu bursts %.6fs\n",
               setup_s.size(), median(setup_s));

  json::Value metrics = json::Value::object();
  if (!args.trace) {
    std::vector<double> wall, cpu;
    for (const Rep& rep : reps) {
      wall.push_back(rep.wall_s);
      cpu.push_back(rep.cpu_s);
    }
    std::vector<std::int64_t> rounds;
    for (const CellRecord& cell : reps.front().cells)
      rounds.push_back(cell.rounds);
    const double ok_rate = static_cast<double>(attempted - failed) /
                           static_cast<double>(attempted);
    const std::map<std::string, double> values = {
        {"wall_s", median(wall)},
        {"cpu_s", median(cpu)},
        {"setup_s", median(setup_s)},
        {"peak_rss_mb", peak_rss_mb()},
        {"ok_rate", ok_rate},
        {"local_rounds_gm", geometric_mean(rounds)}};
    for (const MetricDef& def : end_to_end_defs())
      metrics.set(def.name, metric(values.at(def.name), def.unit));
  } else {
    std::map<std::string, std::vector<double>> samples;
    std::vector<double> traced_wall, untraced_wall;
    for (Rep& rep : reps) {
      add_cell_layers(rep.cells, rep.layers);
      for (const auto& [name, value] : rep.layers)
        samples[name].push_back(value);
      (rep.traced ? traced_wall : untraced_wall).push_back(rep.wall_s);
    }
    const double overhead = median(traced_wall) / median(untraced_wall) - 1.0;
    samples["trace.overhead_share"] = {overhead};
    samples["host.probe_s"] = probes;
    for (const MetricDef& def : per_layer_defs()) {
      const auto it = samples.find(def.name);
      const double value = it != samples.end() ? median(it->second) : 0.0;
      metrics.set(def.name, metric(value, def.unit));
    }
    const fs::path trace_path = workdir / ("trace-" + args.workload + "-" +
                                           std::to_string(args.seed) + ".json");
    recorder->write_file(trace_path.string());
    std::fprintf(stderr, "perfbench: trace written to %s\n",
                 trace_path.c_str());
  }

  json::Value out = json::Value::object();
  out.set("correct", json::Value::boolean(failed == 0 && attempted > 0));
  out.set("attempted", json::Value::number(attempted));
  out.set("failed", json::Value::number(failed));
  out.set("metrics", std::move(metrics));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

/// Writes golden.json: every cell's output hash and LOCAL rounds for every
/// workload, size and input set. Refuses when any cell is not valid.
int regen_golden(const Args& args) {
  const fs::path workdir(args.workdir);
  fs::create_directories(workdir);
  std::string text = "{\n";
  bool first_set = true;
  for (const bool smoke : {true, false}) {
    for (const std::string& name : workload_names()) {
      for (const int set : input_sets(name)) {
        std::unique_ptr<Workload> workload = make_workload(
            name, smoke ? kSmokeSizes : kFullSizes, set, workdir, false);
        workload->setup(nullptr);
        const Rep rep = workload->run(nullptr);
        text += first_set ? "" : ",\n";
        first_set = false;
        text += "\"" + golden_key(name, smoke, set) + "\": {";
        for (std::size_t i = 0; i < rep.cells.size(); ++i) {
          const CellRecord& cell = rep.cells[i];
          if (!cell.valid)
            throw std::runtime_error("regen: cell " + cell.key +
                                     " is not valid: " + cell.error);
          text += (i == 0 ? "\n  \"" : ",\n  \"") + json::escape(cell.key) +
                  "\": [\"" + std::to_string(cell.hash) + "\", " +
                  std::to_string(cell.rounds) + "]";
        }
        text += "}";
        std::fprintf(stderr, "regen: %s (%zu cells, %.2fs)\n",
                     golden_key(name, smoke, set).c_str(), rep.cells.size(),
                     rep.wall_s);
      }
    }
  }
  text += "\n}\n";
  json::Value::parse(text);  // the reader must accept what we write
  write_file(args.regen, text);
  return 0;
}

/// One shard attempt: the supervisor re-executes this binary, which calls
/// run_shard on the manifest and writes the ShardResult JSON. --fail exits
/// before writing (how the self-test proves a retry is counted).
int shard_worker(int argc, char** argv) {
  if (argc < 4)
    throw std::runtime_error("--shard-worker MANIFEST RESULT [--fail]");
  const ShardManifest manifest =
      ShardManifest::from_json(json::Value::parse(read_file(argv[2])));
  if (argc > 4 && std::string(argv[4]) == "--fail") return 3;
  CampaignOptions options;
  options.workers = 1;
  const ShardResult result = run_shard(manifest, options);
  write_file(argv[3], result.to_json().dump() + "\n");
  return 0;
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value());
    } else if (flag == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1")
        throw std::runtime_error("--trace takes 0 or 1");
      args.trace = v == "1";
    } else if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--fail-first-attempt") {
      args.fail_first = true;
    } else if (flag == "--golden") {
      args.golden = value();
    } else if (flag == "--workdir") {
      args.workdir = value();
    } else if (flag == "--regen-golden") {
      args.regen = value();
    } else {
      throw std::runtime_error("unknown flag: " + flag);
    }
  }
  if (args.regen.empty() && args.golden.empty())
    throw std::runtime_error("--golden FILE is required");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc > 1 && std::string(argv[1]) == "--shard-worker")
      return shard_worker(argc, argv);
    const Args args = parse_args(argc, argv);
    return args.regen.empty() ? run_benchmark(args) : regen_golden(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
