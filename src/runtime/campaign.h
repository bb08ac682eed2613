// The campaign subsystem: throughput over a (scenario x algorithm x seed)
// grid.
//
// PR 1 made a single run fast; this layer makes *many* runs fast. A
// campaign is a vector of cells — each cell names a scenario family from
// the scenario registry (src/graph/scenario_registry.h), an algorithm from
// the algorithm registry (src/runtime/algorithm_registry.h), and a seed —
// executed concurrently at cell granularity on one ThreadPool, with a pool
// of reusable EngineWorkspaces (one per pool thread, round-robin checkout)
// so no cell allocates a fresh arena. Every cell engine runs on one
// thread; the engine is thread-count invariant and the registries derive
// everything from the cell seed, so per-cell outputs are bit-identical for
// any worker count and cell-scheduling order (tests/campaign_test.cpp,
// tests/algorithm_registry_test.cpp).
//
// Cells share their instance. The cells of one run_campaign call with the
// same (scenario, params, seed, identities) run on one Instance (graph,
// identities and CSR view), built once by the first of them to start and
// lent read-only to the rest; the algorithm and the network are not part
// of the key. The instance lives from that first cell's start until the
// last of its cells finishes, and is never kept across run_campaign calls.
// A build that throws fails every cell of its key with the same error.
// CellResult::seconds includes the build only for the cell that built the
// instance.
//
// Results carry per-cell summaries, centralized-checker verdicts
// (src/problems/registry.h), and aggregate percentiles over rounds,
// messages, and steps/sec.
//
// Note on layering: this file lives in src/runtime/ but is the
// orchestration layer of the library — it sits ABOVE core/algo/prune
// (the default algorithm registry wires up the paper's transformers), so
// nothing below src/runtime/campaign.* may include it.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "src/graph/scenario_registry.h"
#include "src/runtime/algorithm_registry.h"
#include "src/runtime/instance.h"
#include "src/runtime/runner.h"
#include "src/runtime/telemetry.h"
#include "src/util/thread_pool.h"

namespace unilocal {

/// Fixed-size pool of reusable engine workspaces. checkout() hands out
/// workspaces in round-robin order and blocks when all are lent (which
/// cannot happen when the pool is sized to the thread pool's parallelism);
/// checkin() returns one. Thread-safe.
class WorkspacePool {
 public:
  explicit WorkspacePool(int size);
  ~WorkspacePool();
  WorkspacePool(const WorkspacePool&) = delete;
  WorkspacePool& operator=(const WorkspacePool&) = delete;

  int size() const noexcept;
  EngineWorkspace* checkout();
  void checkin(EngineWorkspace* workspace);

  /// RAII checkout.
  class Lease {
   public:
    explicit Lease(WorkspacePool& pool)
        : pool_(pool), workspace_(pool.checkout()) {}
    ~Lease() { pool_.checkin(workspace_); }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    EngineWorkspace* get() const noexcept { return workspace_; }

   private:
    WorkspacePool& pool_;
    EngineWorkspace* workspace_;
  };

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// One cell of the sweep grid.
struct CampaignCell {
  std::string scenario;
  ScenarioParams params;
  std::string algorithm;
  std::uint64_t seed = 1;
  IdentityScheme identities = IdentityScheme::kRandomPermuted;
  /// Delivery layer the cell's engine runs use (part of the cell's
  /// identity: the same cell under a different network is a different
  /// deterministic experiment, hashed into the grid hash and round-tripped
  /// through shard manifests).
  NetworkOptions network;
};

struct CellResult {
  CampaignCell cell;
  NodeId nodes = 0;
  std::int64_t edges = 0;
  std::int64_t rounds = 0;
  bool solved = false;
  /// Centralized-checker verdict (false whenever !solved).
  bool valid = false;
  /// Wall-clock time of the cell; includes the instance build only when
  /// this cell built it (see the header comment).
  double seconds = 0.0;
  /// FNV-1a over the output vector — the cheap handle for bit-identical
  /// comparisons across worker counts.
  std::uint64_t output_hash = 0;
  EngineStats stats;
  /// Full outputs, kept only under CampaignOptions::keep_outputs.
  std::vector<std::int64_t> outputs;
  /// Non-empty when the cell threw; such cells never abort the campaign.
  std::string error;
};

/// Nearest-rank percentiles over the solved cells.
struct CampaignPercentiles {
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

/// The campaign percentile set, over the solved cells: rounds, every
/// EngineStats row with a percentile key (indexed by EngineStat; the other
/// slots stay zero), and the mean batch occupancy of the cells that ran
/// batched steps. CampaignResult and RunLogEntry share it.
struct CampaignStatPercentiles {
  CampaignPercentiles rounds;
  std::array<CampaignPercentiles, kEngineStatCount> engine{};
  CampaignPercentiles kernel_batch_occupancy;

  CampaignPercentiles& operator[](EngineStat stat) {
    return engine[static_cast<std::size_t>(stat)];
  }
  const CampaignPercentiles& operator[](EngineStat stat) const {
    return engine[static_cast<std::size_t>(stat)];
  }
};

/// Calls f(key, canonical, percentiles) for every block of `set` in report
/// order: rounds, the table's percentile rows, kernel_batch_occupancy.
/// `Set` is CampaignStatPercentiles, const or not.
template <typename Set, typename F>
void for_each_campaign_percentile(Set& set, F&& f) {
  f("rounds", true, set.rounds);
  for_each_engine_stat([&](const EngineStatField& field, auto) {
    if (field.percentile != nullptr)
      f(field.percentile, field.canonical, set[field.id]);
  });
  f("kernel_batch_occupancy", false, set.kernel_batch_occupancy);
}

/// The nearest-rank percentile computation the campaign aggregates use,
/// exported for other telemetry surfaces (supervision attempt times, run
/// log). Returns all zeros for an empty input.
CampaignPercentiles campaign_percentiles(std::vector<double> values);

/// One supervised attempt's timing, relative to the supervision start
/// (PR 10): persisted into the non-canonical JSON and the run log so
/// post-hoc analysis of killed/straggler attempts does not need the live
/// trace.
struct ShardAttemptTiming {
  int attempt = 0;
  bool speculative = false;
  /// Seconds from supervision start to fork / to reap.
  double start_seconds = 0.0;
  double end_seconds = 0.0;
  /// The supervisor SIGKILLed this attempt (deadline or superseded).
  bool killed = false;
  /// "accepted", "superseded", or the wait-status description.
  std::string outcome;
};

/// Per-shard supervision telemetry (the PR 9 shard supervisor,
/// src/runtime/supervisor.h), carried on a merged CampaignResult when the
/// campaign ran under supervision.
struct ShardSupervisionRow {
  int shard_index = 0;
  bool completed = false;
  /// The accepted result came from the checkpoint journal; no process ran.
  bool from_journal = false;
  int attempts = 0;
  int retries = 0;
  int stragglers_respawned = 0;
  /// Wall-clock summed over every attempt of this shard (including killed
  /// and superseded ones).
  double total_attempt_seconds = 0.0;
  /// Per-attempt timing history, in launch order.
  std::vector<ShardAttemptTiming> attempt_log;
};

/// Campaign-level supervision telemetry. Pure scheduling history — which
/// processes ran, how often they were retried — so, like the kernel-step
/// split, it is excluded from canonical JSON: supervision affects when
/// work runs, never what it computes.
struct SupervisionSummary {
  /// False on unsupervised campaigns; the writers then omit it entirely.
  bool enabled = false;
  int shards = 0;
  int attempts = 0;
  int retries = 0;
  /// Total re-enqueues: failure retries plus speculative launches.
  int requeues = 0;
  int stragglers_respawned = 0;
  int shards_from_journal = 0;
  /// Attempts the supervisor SIGKILLed (deadline timeouts plus superseded
  /// speculative siblings), summed over the rows' attempt logs.
  int attempts_killed = 0;
  /// Shards that exhausted retries (> 0 only under --allow-partial; a
  /// strict merge would have thrown).
  int shards_failed = 0;
  /// Percentiles of per-shard total attempt wall-clock.
  CampaignPercentiles attempt_seconds;
  std::vector<ShardSupervisionRow> rows;
};

/// JSON members shared by the campaign JSON and the run log, written
/// without the enclosing braces: every percentile block of `set` as
/// "key":{"p50":..,"p90":..,"p99":..,"max":..} (only the canonical ones
/// when canonical_only), and the supervision totals with attempt_seconds.
void write_percentile_set_json(std::ostream& out,
                               const CampaignStatPercentiles& set,
                               bool canonical_only);
void write_supervision_totals_json(std::ostream& out,
                                   const SupervisionSummary& summary);

struct CampaignResult {
  /// One entry per input cell, in input order (independent of the
  /// scheduling order the pool actually used).
  std::vector<CellResult> cells;
  int workers = 1;
  double elapsed_seconds = 0.0;
  double cells_per_second = 0.0;
  int solved = 0;
  int valid = 0;
  int failed = 0;
  CampaignStatPercentiles percentiles;
  /// Supervision telemetry (PR 9): filled by the sharded drivers after
  /// merge_shard_results; enabled = false on plain run_campaign results.
  /// finalize_campaign_aggregates leaves it untouched — it describes the
  /// processes, not the cells.
  SupervisionSummary supervision;
};

/// Recomputes every aggregate field of `result` (solved/valid/failed
/// counts, all percentile blocks, cells_per_second) from result.cells and
/// result.elapsed_seconds. run_campaign ends with this; merge_shard_results
/// (src/runtime/shard.h) reuses it so a merged campaign aggregates cells
/// exactly like a single-process run.
void finalize_campaign_aggregates(CampaignResult& result);

/// Stable names for IdentityScheme ("sequential", "random-permuted",
/// "random-sparse") — used by the CSV/JSON writers and the shard manifest
/// round trip. parse throws std::runtime_error on unknown names.
const char* identity_scheme_name(IdentityScheme scheme);
IdentityScheme parse_identity_scheme(const std::string& name);

struct CampaignOptions {
  /// Pool parallelism when no shared pool is lent (>= 1; cells never split
  /// across threads — parallelism is at cell granularity).
  int workers = 1;
  /// Shared pool to run on (overrides `workers`). ThreadPool::run serves
  /// one batch at a time, so a lent pool must not be driven concurrently
  /// by anything else for the duration of run_campaign.
  ThreadPool* pool = nullptr;
  /// Retain per-node outputs in each CellResult.
  bool keep_outputs = false;
  /// Scenario registry (default_scenarios() when null).
  const ScenarioRegistry* scenarios = nullptr;
  /// Algorithm registry (default_algorithm_registry() when null).
  const AlgorithmRegistry* algorithms = nullptr;
  /// Telemetry (PR 10): when non-null, every cell runs under a span on this
  /// recorder (with the ambient engine binding installed, so engine runs
  /// emit their per-round events into the same lanes). Never feeds the
  /// campaign's own results — canonical JSON is byte-identical either way.
  telemetry::TraceRecorder* trace = nullptr;
  /// Per-run head-sampling cap for the engine's round events.
  std::int64_t trace_rounds = telemetry::kDefaultTraceRounds;
  /// pid lane cell spans are recorded under (worker processes get their
  /// own after the supervisor's merge remaps them).
  int trace_pid = 1;
  /// Grid positions of the cells (shard manifests carry a subset of the
  /// full grid); cell spans then report the grid index, not the local one.
  const std::vector<std::size_t>* trace_cell_indices = nullptr;
};

/// Runs every cell; never throws on per-cell failures (they land in
/// CellResult::error).
CampaignResult run_campaign(const std::vector<CampaignCell>& cells,
                            const CampaignOptions& options = {});

/// Up-front key validation: collects EVERY unknown scenario and algorithm
/// key across the cells and throws one std::runtime_error naming all of
/// them (instead of N copies of the same per-cell failure at run time).
void validate_cells(const std::vector<CampaignCell>& cells,
                    const ScenarioRegistry& scenarios,
                    const AlgorithmRegistry& algorithms);

struct GridOptions {
  std::uint64_t base_seed = 1;
  /// Registries the keys are validated against (defaults when null).
  const ScenarioRegistry* scenarios = nullptr;
  const AlgorithmRegistry* algorithms = nullptr;
  /// Skip validation entirely (grids aimed at a registry built later).
  bool validate = true;
  /// Delivery layers to cross the grid with (a scenario dimension like the
  /// families themselves): every (scenario x algorithm x seed) combination
  /// is emitted once per entry. Empty = one synchronous cell each.
  std::vector<NetworkOptions> networks;
};

/// The full (scenario x algorithm x seed) product grid with shared params;
/// seeds are base_seed, base_seed + 1, .... Validates every key up front
/// (one error listing all unknown keys) unless options.validate is false.
std::vector<CampaignCell> make_grid(
    const std::vector<std::string>& scenarios, const ScenarioParams& params,
    const std::vector<std::string>& algorithms, int seeds_per_combination,
    const GridOptions& options);
std::vector<CampaignCell> make_grid(
    const std::vector<std::string>& scenarios, const ScenarioParams& params,
    const std::vector<std::string>& algorithms, int seeds_per_combination,
    std::uint64_t base_seed = 1);

/// The paper's Table 1 as one campaign grid: every algorithm in the
/// registry crossed with its own spec.table1_scenarios (the families its
/// row is stated over), seeds_per_combination seeds each.
std::vector<CampaignCell> make_table1_grid(
    const ScenarioParams& params, int seeds_per_combination,
    const GridOptions& options = {});

/// One CSV row per cell plus a header row.
void write_campaign_csv(std::ostream& out, const CampaignResult& result);

/// One CSV row per supervised shard plus a header row (the per-cell table
/// above stays stable whether or not a campaign was supervised). Callers
/// should skip it when !summary.enabled.
void write_supervision_csv(std::ostream& out,
                           const SupervisionSummary& summary);

struct CampaignJsonOptions {
  /// Canonical mode emits only the deterministic fields — everything that
  /// is a pure function of the grid (no wall-clock timings, no worker
  /// counts, no arena capacities, which depend on workspace reuse order) —
  /// so two runs of the same grid produce byte-identical documents no
  /// matter how the cells were scheduled or sharded. CI diffs a merged
  /// sharded run against a single-process run this way.
  bool canonical = false;
};

/// One JSON object: summary fields plus a "cell_results" array.
void write_campaign_json(std::ostream& out, const CampaignResult& result,
                         const CampaignJsonOptions& options);
void write_campaign_json(std::ostream& out, const CampaignResult& result);

}  // namespace unilocal
