#include "src/runtime/campaign.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <set>
#include <stdexcept>
#include <tuple>

#include "src/util/json.h"

namespace unilocal {

// --- workspace pool ---------------------------------------------------------

struct WorkspacePool::State {
  std::mutex mutex;
  std::condition_variable available_cv;
  std::vector<EngineWorkspace> workspaces;
  std::deque<EngineWorkspace*> free;  // FIFO = round-robin checkout
};

WorkspacePool::WorkspacePool(int size) : state_(std::make_unique<State>()) {
  if (size < 1) size = 1;
  state_->workspaces.resize(static_cast<std::size_t>(size));
  for (auto& workspace : state_->workspaces)
    state_->free.push_back(&workspace);
}

WorkspacePool::~WorkspacePool() = default;

int WorkspacePool::size() const noexcept {
  return static_cast<int>(state_->workspaces.size());
}

EngineWorkspace* WorkspacePool::checkout() {
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->available_cv.wait(lock, [&] { return !state_->free.empty(); });
  EngineWorkspace* workspace = state_->free.front();
  state_->free.pop_front();
  return workspace;
}

void WorkspacePool::checkin(EngineWorkspace* workspace) {
  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    state_->free.push_back(workspace);
  }
  state_->available_cv.notify_one();
}

namespace {

std::uint64_t fnv1a(const std::vector<std::int64_t>& values) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const std::int64_t value : values) {
    std::uint64_t word = static_cast<std::uint64_t>(value);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

/// One distinct instance of a campaign grid: a (scenario, params, seed,
/// identities) key. The algorithm and the network do not count, so every
/// pipeline of the grid runs on the same (G, x). The slot's first cell
/// builds the instance, the others borrow it, and the last one to finish
/// frees it.
struct InstanceSlot {
  std::mutex mutex;
  /// Set by the first cell to arrive; guarded by `mutex`. The fields below
  /// it are written once by that cell under `mutex` and only read after.
  bool built = false;
  std::optional<Instance> instance;
  /// The build's exception message (the instance then stays empty).
  std::string error;
  /// Cells sharing the slot, fixed before the pool runs.
  int cells = 0;
  /// Cells that have not finished yet; guarded by `mutex`.
  int unfinished = 0;
};

/// The grid's distinct instances: cell i borrows slots[slot_of[i]].
struct InstancePlan {
  std::vector<std::size_t> slot_of;
  std::deque<InstanceSlot> slots;
};

InstancePlan plan_instances(const std::vector<CampaignCell>& cells) {
  // Knobs compare bit for bit, so every value (NaN too) names one key.
  using Key = std::tuple<std::string, NodeId, std::uint64_t, std::uint64_t,
                         std::uint64_t, IdentityScheme>;
  std::map<Key, std::size_t> slot_by_key;
  InstancePlan plan;
  plan.slot_of.reserve(cells.size());
  for (const CampaignCell& cell : cells) {
    const Key key{cell.scenario,
                  cell.params.n,
                  std::bit_cast<std::uint64_t>(cell.params.a),
                  std::bit_cast<std::uint64_t>(cell.params.b),
                  cell.seed,
                  cell.identities};
    const auto [it, inserted] =
        slot_by_key.try_emplace(key, plan.slots.size());
    if (inserted) plan.slots.emplace_back();
    InstanceSlot& slot = plan.slots[it->second];
    ++slot.cells;
    ++slot.unfinished;
    plan.slot_of.push_back(it->second);
  }
  return plan;
}

/// Makes sure `slot` holds its instance, building it when `cell` is the
/// slot's first cell to arrive (the others wait here until it is built);
/// returns true for that cell. A build that throws leaves the instance
/// empty and its message in slot.error, for every cell of the slot.
bool lend_instance(InstanceSlot& slot, const CampaignCell& cell,
                   const ScenarioRegistry& scenarios,
                   const CampaignOptions& options) {
  const std::lock_guard<std::mutex> lock(slot.mutex);
  if (slot.built) return false;
  slot.built = true;
  const std::int64_t t0 = options.trace != nullptr ? options.trace->now() : 0;
  try {
    slot.instance.emplace(make_instance(
        scenarios.build(cell.scenario, cell.params, cell.seed),
        cell.identities, cell.seed));
    if (telemetry::MetricsRegistry* reg = telemetry::metrics())
      reg->add("campaign.instances_built", 1);
  } catch (const std::exception& e) {
    slot.error = e.what();
  } catch (...) {
    slot.error = "unknown error";
  }
  if (options.trace != nullptr) {
    telemetry::TraceEvent span;
    span.name = "instance.build";
    span.ts = t0;
    span.dur = options.trace->now() - t0;
    span.pid = options.trace_pid;
    span.tid = options.trace->lane();
    span.arg("scenario", cell.scenario);
    span.arg("seed", cell.seed);
    span.arg("n", static_cast<std::int64_t>(cell.params.n));
    span.arg("cells", static_cast<std::int64_t>(slot.cells));
    if (!slot.error.empty()) span.arg("error", slot.error);
    options.trace->record(std::move(span));
  }
  return true;
}

/// Ends a cell's loan; the slot's last cell frees the instance.
void return_instance(InstanceSlot& slot) {
  const std::lock_guard<std::mutex> lock(slot.mutex);
  if (--slot.unfinished == 0) slot.instance.reset();
}

CellResult run_cell(const CampaignCell& cell, InstanceSlot& slot,
                    const ScenarioRegistry& scenarios,
                    const AlgorithmRegistry& algorithms,
                    EngineWorkspace* workspace,
                    const CampaignOptions& options) {
  CellResult result;
  result.cell = cell;
  auto start = std::chrono::steady_clock::now();
  // Only the building cell's time includes the build.
  if (!lend_instance(slot, cell, scenarios, options))
    start = std::chrono::steady_clock::now();
  try {
    if (!slot.instance) throw std::runtime_error(slot.error);
    const Instance& instance = *slot.instance;
    result.nodes = instance.num_nodes();
    result.edges = instance.graph.num_edges();
    AlgorithmRunContext context;
    context.seed = cell.seed;
    context.workspace = workspace;
    context.network = cell.network;
    CellOutcome outcome =
        algorithms.run(cell.algorithm, instance, context);
    result.rounds = outcome.rounds;
    result.solved = outcome.solved;
    result.stats = outcome.stats;
    result.valid = outcome.solved &&
                   algorithms.problem(cell.algorithm)
                       .check(instance, outcome.outputs);
    result.output_hash = fnv1a(outcome.outputs);
    if (options.keep_outputs) result.outputs = std::move(outcome.outputs);
  } catch (const std::exception& e) {
    result.error = e.what();
  } catch (...) {
    result.error = "unknown error";
  }
  result.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return_instance(slot);
  return result;
}

/// Publishes one finished cell into the installed metrics registry (a
/// single null check when none is installed); all counters sum and the
/// histograms merge bucket-wise, so the snapshot is worker-placement
/// invariant.
void publish_cell_metrics(const CellResult& cell) {
  telemetry::MetricsRegistry* reg = telemetry::metrics();
  if (reg == nullptr) return;
  reg->add("campaign.cells", 1);
  if (!cell.error.empty()) {
    reg->add("campaign.cells_failed", 1);
    return;
  }
  if (cell.solved) reg->add("campaign.cells_solved", 1);
  if (cell.valid) reg->add("campaign.cells_valid", 1);
  reg->observe("campaign.cell_rounds", cell.rounds);
  reg->observe("campaign.cell_messages", cell.stats.total_messages);
}

/// The per-cell span run_campaign records when a trace is attached:
/// registry keys, seed, and grid index ride along as args so Perfetto
/// queries can slice by any grid dimension.
telemetry::TraceEvent make_cell_span(const CellResult& cell,
                                     std::size_t grid_index,
                                     const CampaignOptions& options,
                                     int tid, std::int64_t t0,
                                     std::int64_t t1) {
  telemetry::TraceEvent span;
  span.name = "cell";
  span.ts = t0;
  span.dur = t1 - t0;
  span.pid = options.trace_pid;
  span.tid = tid;
  span.arg("index", static_cast<std::int64_t>(grid_index));
  span.arg("scenario", cell.cell.scenario);
  span.arg("algorithm", cell.cell.algorithm);
  span.arg("seed", cell.cell.seed);
  span.arg("n", static_cast<std::int64_t>(cell.cell.params.n));
  span.arg("network", std::string(network_spec_name(cell.cell.network)));
  span.arg("rounds", cell.rounds);
  span.arg("solved", cell.solved);
  span.arg("valid", cell.valid);
  if (!cell.error.empty()) span.arg("error", cell.error);
  return span;
}

}  // namespace

CampaignPercentiles campaign_percentiles(std::vector<double> values) {
  CampaignPercentiles result;
  if (values.empty()) return result;
  std::sort(values.begin(), values.end());
  const auto nearest_rank = [&values](double q) {
    const auto n = static_cast<double>(values.size());
    const auto rank = static_cast<std::size_t>(std::ceil(q * n));
    return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
  };
  result.p50 = nearest_rank(0.50);
  result.p90 = nearest_rank(0.90);
  result.p99 = nearest_rank(0.99);
  result.max = values.back();
  return result;
}

const char* identity_scheme_name(IdentityScheme scheme) {
  switch (scheme) {
    case IdentityScheme::kSequential:
      return "sequential";
    case IdentityScheme::kRandomPermuted:
      return "random-permuted";
    case IdentityScheme::kRandomSparse:
      return "random-sparse";
  }
  return "?";
}

IdentityScheme parse_identity_scheme(const std::string& name) {
  for (const IdentityScheme scheme :
       {IdentityScheme::kSequential, IdentityScheme::kRandomPermuted,
        IdentityScheme::kRandomSparse}) {
    if (name == identity_scheme_name(scheme)) return scheme;
  }
  throw std::runtime_error("unknown identity scheme: " + name);
}

// --- campaign driver --------------------------------------------------------

void finalize_campaign_aggregates(CampaignResult& result) {
  result.solved = 0;
  result.valid = 0;
  result.failed = 0;
  result.cells_per_second =
      result.elapsed_seconds > 0.0
          ? static_cast<double>(result.cells.size()) / result.elapsed_seconds
          : 0.0;
  std::vector<double> rounds;
  std::array<std::vector<double>, kEngineStatCount> engine;
  std::vector<double> batch_occupancy;
  for (const CellResult& cell : result.cells) {
    if (!cell.error.empty()) {
      ++result.failed;
      continue;
    }
    if (!cell.solved) continue;
    ++result.solved;
    if (cell.valid) ++result.valid;
    rounds.push_back(static_cast<double>(cell.rounds));
    for_each_engine_stat([&](const EngineStatField& field, auto member) {
      const auto value = static_cast<double>(cell.stats.*member);
      if (field.percentile == nullptr ||
          (field.merge == StatMerge::kDerived && value <= 0.0))
        return;
      engine[static_cast<std::size_t>(field.id)].push_back(value);
    });
    const double occupancy = cell.stats.batch_occupancy();
    if (occupancy > 0.0) batch_occupancy.push_back(occupancy);
  }
  CampaignStatPercentiles& p = result.percentiles;
  p.rounds = campaign_percentiles(std::move(rounds));
  for (std::size_t i = 0; i < kEngineStatCount; ++i)
    p.engine[i] = campaign_percentiles(std::move(engine[i]));
  p.kernel_batch_occupancy =
      campaign_percentiles(std::move(batch_occupancy));
}

CampaignResult run_campaign(const std::vector<CampaignCell>& cells,
                            const CampaignOptions& options) {
  const ScenarioRegistry& scenarios =
      options.scenarios != nullptr ? *options.scenarios
                                   : default_scenarios();
  const AlgorithmRegistry& algorithms =
      options.algorithms != nullptr ? *options.algorithms
                                    : default_algorithm_registry();

  std::optional<ThreadPool> owned_pool;
  ThreadPool* pool = options.pool;
  if (pool == nullptr)
    pool = &owned_pool.emplace(std::max(1, options.workers));

  CampaignResult result;
  result.workers = pool->threads();
  result.cells.resize(cells.size());
  WorkspacePool workspaces(pool->threads());
  InstancePlan instances = plan_instances(cells);

  const auto start = std::chrono::steady_clock::now();
  pool->run(static_cast<int>(cells.size()), [&](int i) {
    const WorkspacePool::Lease lease(workspaces);
    const std::size_t ci = static_cast<std::size_t>(i);
    InstanceSlot& slot = instances.slots[instances.slot_of[ci]];
    if (options.trace == nullptr) {
      result.cells[ci] =
          run_cell(cells[ci], slot, scenarios, algorithms, lease.get(),
                   options);
      publish_cell_metrics(result.cells[ci]);
      return;
    }
    // Bind the recorder around the cell so the engine's ambient per-round
    // events land on this worker's lane, then wrap the cell in a span.
    telemetry::TraceBinding binding;
    binding.recorder = options.trace;
    binding.pid = options.trace_pid;
    binding.tid = options.trace->lane();
    binding.trace_rounds = options.trace_rounds;
    const telemetry::ScopedTraceBinding bound(binding);
    const std::int64_t t0 = options.trace->now();
    result.cells[ci] = run_cell(cells[ci], slot, scenarios, algorithms,
                                lease.get(), options);
    const std::int64_t t1 = options.trace->now();
    const std::size_t grid_index =
        options.trace_cell_indices != nullptr &&
                ci < options.trace_cell_indices->size()
            ? (*options.trace_cell_indices)[ci]
            : ci;
    options.trace->record(make_cell_span(result.cells[ci], grid_index,
                                         options, binding.tid, t0, t1));
    publish_cell_metrics(result.cells[ci]);
  });
  result.elapsed_seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  finalize_campaign_aggregates(result);
  return result;
}

namespace {

/// Formats "kind [a, b]" when `keys` is non-empty.
void describe_unknown(std::string& message, const char* kind,
                      const std::set<std::string>& keys) {
  if (keys.empty()) return;
  if (!message.empty()) message += "; ";
  message += kind;
  message += " [";
  bool first = true;
  for (const std::string& key : keys) {
    if (!first) message += ", ";
    first = false;
    message += key;
  }
  message += "]";
}

void throw_on_unknown_keys(const std::set<std::string>& scenario_keys,
                           const std::set<std::string>& algorithm_keys) {
  if (scenario_keys.empty() && algorithm_keys.empty()) return;
  std::string message;
  describe_unknown(message, "scenarios", scenario_keys);
  describe_unknown(message, "algorithms", algorithm_keys);
  throw std::runtime_error("unknown campaign keys: " + message);
}

}  // namespace

void validate_cells(const std::vector<CampaignCell>& cells,
                    const ScenarioRegistry& scenarios,
                    const AlgorithmRegistry& algorithms) {
  std::set<std::string> unknown_scenarios;
  std::set<std::string> unknown_algorithms;
  for (const CampaignCell& cell : cells) {
    if (!scenarios.contains(cell.scenario))
      unknown_scenarios.insert(cell.scenario);
    if (!algorithms.contains(cell.algorithm))
      unknown_algorithms.insert(cell.algorithm);
  }
  throw_on_unknown_keys(unknown_scenarios, unknown_algorithms);
}

std::vector<CampaignCell> make_grid(
    const std::vector<std::string>& scenarios, const ScenarioParams& params,
    const std::vector<std::string>& algorithms, int seeds_per_combination,
    const GridOptions& options) {
  std::vector<CampaignCell> cells;
  cells.reserve(scenarios.size() * algorithms.size() *
                static_cast<std::size_t>(std::max(0, seeds_per_combination)));
  // The delivery layer is a grid dimension like the scenario families:
  // every combination is emitted once per requested network (sync when
  // none were requested).
  const std::vector<NetworkOptions> networks =
      options.networks.empty() ? std::vector<NetworkOptions>{NetworkOptions{}}
                               : options.networks;
  for (const std::string& scenario : scenarios) {
    for (const std::string& algorithm : algorithms) {
      for (const NetworkOptions& network : networks) {
        for (int s = 0; s < seeds_per_combination; ++s) {
          CampaignCell cell;
          cell.scenario = scenario;
          cell.params = params;
          cell.algorithm = algorithm;
          cell.seed = options.base_seed + static_cast<std::uint64_t>(s);
          cell.network = network;
          cells.push_back(std::move(cell));
        }
      }
    }
  }
  if (options.validate) {
    // All unknown keys in one error instead of N identical per-cell
    // failures at run time.
    validate_cells(cells,
                   options.scenarios != nullptr ? *options.scenarios
                                                : default_scenarios(),
                   options.algorithms != nullptr
                       ? *options.algorithms
                       : default_algorithm_registry());
  }
  return cells;
}

std::vector<CampaignCell> make_grid(
    const std::vector<std::string>& scenarios, const ScenarioParams& params,
    const std::vector<std::string>& algorithms, int seeds_per_combination,
    std::uint64_t base_seed) {
  GridOptions options;
  options.base_seed = base_seed;
  return make_grid(scenarios, params, algorithms, seeds_per_combination,
                   options);
}

std::vector<CampaignCell> make_table1_grid(const ScenarioParams& params,
                                           int seeds_per_combination,
                                           const GridOptions& options) {
  const AlgorithmRegistry& algorithms =
      options.algorithms != nullptr ? *options.algorithms
                                    : default_algorithm_registry();
  GridOptions row_options = options;
  row_options.algorithms = &algorithms;
  std::vector<CampaignCell> cells;
  for (const std::string& name : algorithms.names()) {
    const std::vector<CampaignCell> row =
        make_grid(algorithms.spec(name).table1_scenarios, params, {name},
                  seeds_per_combination, row_options);
    cells.insert(cells.end(), row.begin(), row.end());
  }
  return cells;
}

// --- output -----------------------------------------------------------------

namespace {

/// RFC-4180 style: fields containing a comma, quote, or newline are quoted
/// with inner quotes doubled (registered names are free text).
std::string csv_escape(const std::string& field) {
  if (field.find_first_of(",\"\n\r") == std::string::npos) return field;
  std::string result = "\"";
  for (const char c : field) {
    if (c == '"') result += '"';
    result += c;
  }
  result += '"';
  return result;
}

}  // namespace

void write_campaign_csv(std::ostream& out, const CampaignResult& result) {
  out << "scenario,n,a,b,algorithm,seed,identities,network,drop,duplicate,"
         "crash,late,nodes,edges,rounds,solved,valid,seconds,";
  for_each_engine_stat([&](const EngineStatField& field, auto) {
    if (field.report != nullptr) out << field.report << ',';
  });
  out << "output_hash,error\n";
  for (const CellResult& cell : result.cells) {
    out << csv_escape(cell.cell.scenario) << ',' << cell.cell.params.n << ','
        << cell.cell.params.a << ',' << cell.cell.params.b << ','
        << csv_escape(cell.cell.algorithm) << ',' << cell.cell.seed << ','
        << identity_scheme_name(cell.cell.identities) << ','
        << network_spec_name(cell.cell.network) << ','
        << cell.cell.network.drop << ',' << cell.cell.network.duplicate << ','
        << cell.cell.network.crash << ',' << cell.cell.network.late << ','
        << cell.nodes
        << ',' << cell.edges << ',' << cell.rounds << ','
        << (cell.solved ? 1 : 0) << ',' << (cell.valid ? 1 : 0) << ','
        << cell.seconds << ',';
    for_each_engine_stat([&](const EngineStatField& field, auto member) {
      if (field.report != nullptr) out << cell.stats.*member << ',';
    });
    out << cell.output_hash << ',' << csv_escape(cell.error) << '\n';
  }
}

void write_supervision_csv(std::ostream& out,
                           const SupervisionSummary& summary) {
  out << "shard,completed,from_journal,attempts,retries,"
         "stragglers_respawned,total_attempt_seconds,attempts_killed\n";
  for (const ShardSupervision& row : summary.rows) {
    int killed = 0;
    for (const ShardAttemptRecord& at : row.log)
      if (at.killed) ++killed;
    out << row.shard_index << ',' << (row.completed ? 1 : 0) << ','
        << (row.from_journal ? 1 : 0) << ',' << row.attempts << ','
        << row.retries << ',' << row.stragglers_respawned << ','
        << row.total_attempt_seconds << ',' << killed << '\n';
  }
}

namespace {

void write_percentiles_json(std::ostream& out, const char* key,
                            const CampaignPercentiles& p) {
  out << '"' << key << "\":{\"p50\":" << p.p50 << ",\"p90\":" << p.p90
      << ",\"p99\":" << p.p99 << ",\"max\":" << p.max << '}';
}

}  // namespace

void write_percentile_set_json(std::ostream& out,
                               const CampaignStatPercentiles& set,
                               bool canonical_only) {
  const char* separator = "";
  for_each_campaign_percentile(
      set, [&](const char* key, bool canonical, const CampaignPercentiles& p) {
        if (canonical_only && !canonical) return;
        out << separator;
        separator = ",";
        write_percentiles_json(out, key, p);
      });
}

void write_supervision_totals_json(std::ostream& out,
                                   const SupervisionSummary& summary) {
  out << "\"shards\":" << summary.shards
      << ",\"attempts\":" << summary.attempts
      << ",\"retries\":" << summary.retries
      << ",\"requeues\":" << summary.requeues
      << ",\"stragglers_respawned\":" << summary.stragglers_respawned
      << ",\"shards_from_journal\":" << summary.shards_from_journal
      << ",\"attempts_killed\":" << summary.attempts_killed
      << ",\"shards_failed\":" << summary.shards_failed << ',';
  write_percentiles_json(out, "attempt_seconds", summary.attempt_seconds);
}

void write_campaign_json(std::ostream& out, const CampaignResult& result,
                         const CampaignJsonOptions& options) {
  out << '{';
  if (!options.canonical) {
    // Timing- and scheduling-dependent summary fields: meaningful for a
    // report, poison for a byte-level diff across shardings.
    out << "\"workers\":" << result.workers << ',';
  }
  out << "\"cells\":" << result.cells.size() << ",\"solved\":" << result.solved
      << ",\"valid\":" << result.valid << ",\"failed\":" << result.failed
      << ',';
  if (!options.canonical) {
    out << "\"elapsed_seconds\":" << result.elapsed_seconds
        << ",\"cells_per_second\":" << result.cells_per_second << ',';
  }
  // Canonical documents keep only the rows that are a pure function of
  // the grid (the field table's canonical column). The batched-step counts
  // say how the engine ran the steps, and the fault counters are
  // delivery-layer telemetry: properties Observation 2.1 keeps invariant
  // (outputs, rounds, verdicts) do not depend on them, so they stay out
  // like the wall-clock rates and the workspace-dependent arena capacity.
  write_percentile_set_json(out, result.percentiles, options.canonical);
  if (!options.canonical && result.supervision.shards > 0) {
    // Supervision history describes the worker processes, not the grid:
    // a retried shard computed the same bytes as a first-try one, so —
    // like the batched-step counts — it stays out of canonical mode.
    const SupervisionSummary& sup = result.supervision;
    out << ",\"supervision\":{";
    write_supervision_totals_json(out, sup);
    out << ",\"per_shard\":[";
    for (std::size_t i = 0; i < sup.rows.size(); ++i) {
      const ShardSupervision& row = sup.rows[i];
      if (i != 0) out << ',';
      out << "{\"shard\":" << row.shard_index
          << ",\"completed\":" << (row.completed ? "true" : "false")
          << ",\"from_journal\":" << (row.from_journal ? "true" : "false")
          << ",\"attempts\":" << row.attempts
          << ",\"retries\":" << row.retries
          << ",\"stragglers_respawned\":" << row.stragglers_respawned
          << ",\"total_attempt_seconds\":" << row.total_attempt_seconds;
      // Per-attempt timing (PR 10): start/end relative to supervision
      // start plus the kill flag, so a killed straggler's timeline is
      // reconstructable without the live trace.
      out << ",\"attempt_log\":[";
      for (std::size_t a = 0; a < row.log.size(); ++a) {
        const ShardAttemptRecord& at = row.log[a];
        if (a != 0) out << ',';
        out << "{\"attempt\":" << at.attempt
            << ",\"speculative\":" << (at.speculative ? "true" : "false")
            << ",\"start_seconds\":" << at.start_seconds
            << ",\"end_seconds\":" << at.end_seconds
            << ",\"killed\":" << (at.killed ? "true" : "false")
            << ",\"outcome\":\"" << json::escape(at.outcome) << "\"}";
      }
      out << "]}";
    }
    out << "]}";
  }
  out << ",\"cell_results\":[";
  bool first = true;
  for (const CellResult& cell : result.cells) {
    if (!first) out << ',';
    first = false;
    out << "{\"scenario\":\"" << json::escape(cell.cell.scenario)
        << "\",\"n\":" << cell.cell.params.n << ",\"a\":" << cell.cell.params.a
        << ",\"b\":" << cell.cell.params.b << ",\"algorithm\":\""
        << json::escape(cell.cell.algorithm)
        << "\",\"seed\":" << cell.cell.seed << ",\"identities\":\""
        << identity_scheme_name(cell.cell.identities)
        // The delivery layer is part of the cell's identity (canonical
        // included): the same cell under a different network is a different
        // deterministic experiment.
        << "\",\"network\":\"" << network_spec_name(cell.cell.network)
        << "\",\"drop\":" << cell.cell.network.drop
        << ",\"duplicate\":" << cell.cell.network.duplicate
        << ",\"crash\":" << cell.cell.network.crash
        << ",\"late\":" << cell.cell.network.late
        << ",\"nodes\":" << cell.nodes << ",\"edges\":" << cell.edges
        << ",\"rounds\":" << cell.rounds
        << ",\"solved\":" << (cell.solved ? "true" : "false")
        << ",\"valid\":" << (cell.valid ? "true" : "false");
    if (!options.canonical) out << ",\"seconds\":" << cell.seconds;
    for_each_engine_stat([&](const EngineStatField& field, auto member) {
      if (field.report != nullptr && (field.canonical || !options.canonical))
        out << ",\"" << field.report << "\":" << cell.stats.*member;
    });
    out << ",\"output_hash\":\"" << cell.output_hash << "\",\"error\":\""
        << json::escape(cell.error) << "\"}";
  }
  out << "]}";
}

void write_campaign_json(std::ostream& out, const CampaignResult& result) {
  write_campaign_json(out, result, CampaignJsonOptions{});
}

}  // namespace unilocal
