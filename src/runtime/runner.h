// Round-exact execution of LOCAL algorithms on the arena engine.
//
// The default mode wakes every node at round 0 (the paper's standing
// assumption, justified by its Observation 2.1). The staggered mode supports
// arbitrary per-node wake-up rounds and emulates the alpha synchronizer: a
// node performs local round i only once every neighbour has performed local
// round i-1, with early messages buffered — exactly the construction in the
// paper's "Synchronicity and time complexity" discussion.
//
// "Restricted to T rounds" (paper Section 2): set RunOptions::max_rounds=T;
// nodes that have not finished within their first T local rounds are forced
// to terminate with the arbitrary output RunOptions::default_output (0).
//
// Engine layout: node state is struct-of-arrays; all message traffic of a
// round lives in one flat int64 arena addressed by CsrGraph edge indices,
// with the send and receive halves swapped between rounds. Both loops are
// frontier-driven: the simultaneous mode walks a compacted live-node list
// (rebalanced across threads each round) and resets only the span slots
// written last round via per-thread dirty lists, so per-round cost tracks
// the surviving frontier and its traffic rather than n + edges; the
// synchronizer mode schedules with per-node dependency-lag counters and a
// wake-admission queue, so scheduling costs O(total steps + messages)
// instead of an O(n + edges) eligibility rescan per global round. The
// simultaneous mode can step disjoint chunks of the live list on a thread
// pool; messages only cross the round barrier and every node owns a private
// Rng stream, so results are bit-identical for any thread count (the
// engine-equivalence test enforces this against the preserved seed engine in
// src/runtime/reference.h).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "src/runtime/instance.h"
#include "src/runtime/kernel.h"
#include "src/runtime/local.h"
#include "src/runtime/network.h"
#include "src/util/json.h"

namespace unilocal {

struct RunOptions {
  /// Maximum local rounds per node; reaching it forces termination with
  /// default_output.
  std::int64_t max_rounds = std::numeric_limits<std::int64_t>::max() / 4;
  std::int64_t default_output = 0;
  /// Seed for the per-node randomness streams (split by identity).
  std::uint64_t seed = 1;
  /// Optional wake-up round per node (empty = all wake at 0). Non-empty
  /// wake rounds enable the alpha-synchronizer emulation.
  std::vector<std::int64_t> wake_rounds;
  /// Worker threads stepping disjoint node ranges in the simultaneous mode
  /// (1 = fully inline). Outputs are independent of this value; the
  /// synchronizer mode always runs single-threaded.
  int num_threads = 1;
  /// Delivery layer (src/runtime/network.h): the round-exact synchronous
  /// arena (default), or the seeded event-queue transport with per-edge
  /// latency and fault injection. The delayed mode runs the event loop
  /// single-threaded; outputs are a pure function of (instance, seed,
  /// network), so they stay invariant under num_threads and sharding.
  NetworkOptions network;
};

/// The EngineStats field table: one row per engine counter and the only
/// list of them. EngineStats declares its members from it; merge, the
/// engine.* metrics, the shard `stats` block, --stats-json, the campaign
/// CSV/JSON and percentiles, the run log and the CLI all walk it through
/// for_each_engine_stat. Adding a counter is one row plus the engine site
/// that fills it. Row order is the campaign CSV column order. Columns:
///   member, type, initial value;
///   merge rule across composed stages: kSum, kMax, kLast (the latest
///     stage wins) or kDerived (recomputed after the fold);
///   metric kind (kCounter, kGauge, kNone), published as "engine.<report>";
///   report: CSV column and per-cell JSON key (nullptr = not per cell);
///     the shard `stats` block and --stats-json key rows by member name;
///   canonical: kept by canonical campaign JSON (a pure function of the
///     grid, not of timing or workspace reuse);
///   percentile: the campaign / run-log percentile block (nullptr = none);
///     derived rows are rates that read 0 when untimed, so skip zeros.
#define UNILOCAL_ENGINE_STATS(X)                                              \
  /* Messages sent (RunResult::messages_sent, summed across stages). */      \
  X(total_messages, std::int64_t, 0, kSum, kCounter, "messages", true,        \
    "messages")                                                               \
  /* Most messages in flight in any single round. */                         \
  X(peak_round_messages, std::int64_t, 0, kMax, kGauge,                       \
    "peak_round_messages", false, nullptr)                                    \
  /* Node steps, counted logically (a sleeping node's rounds count). */      \
  X(total_steps, std::int64_t, 0, kSum, kCounter, "steps", true, nullptr)     \
  /* Steps through the flat kernel path / the Process vtable path; they sum \
     to total_steps (composed algorithms may mix both). */                   \
  X(kernel_steps, std::int64_t, 0, kSum, kCounter, "kernel_steps", false,     \
    "kernel_steps")                                                           \
  X(vtable_steps, std::int64_t, 0, kSum, kCounter, "vtable_steps", false,     \
    "vtable_steps")                                                           \
  /* Kernel steps run through phase-grouped KernelBatchFn buckets, and the   \
     batch calls that carried them (see batch_occupancy()). */               \
  X(kernel_batched_steps, std::int64_t, 0, kSum, kCounter,                    \
    "kernel_batched_steps", false, "kernel_batched_steps")                    \
  X(kernel_batch_calls, std::int64_t, 0, kSum, kCounter,                      \
    "kernel_batch_calls", false, nullptr)                                     \
  X(elapsed_seconds, double, 0.0, kSum, kNone, nullptr, false, nullptr)       \
  /* total_steps / elapsed_seconds (0 when the run was too fast to time). */ \
  X(steps_per_second, double, 0.0, kDerived, kNone, "steps_per_sec", false,   \
    "steps_per_second")                                                       \
  /* Capacity held by the arenas, span tables and node state at the end of  \
     the run; depends on what the workspace ran before. */                   \
  X(arena_bytes, std::int64_t, 0, kMax, kGauge, "arena_bytes", false,         \
    nullptr)                                                                  \
  X(threads, int, 1, kMax, kNone, nullptr, false, nullptr)                    \
  /* Most unfinished nodes at the start of any round. */                     \
  X(peak_live_nodes, std::int64_t, 0, kMax, kGauge, "peak_live_nodes", true,  \
    "peak_live_nodes")                                                        \
  /* Unfinished nodes when the run ended (non-zero only when a round cap    \
     cut the run off). */                                                    \
  X(final_live_nodes, std::int64_t, 0, kLast, kNone, nullptr, false, nullptr) \
  /* Most nodes stepped within one (global) round. */                        \
  X(peak_frontier_nodes, std::int64_t, 0, kMax, kGauge,                       \
    "peak_frontier_nodes", true, "peak_frontier_nodes")                       \
  /* Send-span slots reset through the dirty lists (simultaneous mode). */   \
  X(dirty_spans_cleared, std::int64_t, 0, kSum, kCounter,                     \
    "dirty_spans_cleared", true, "dirty_spans_cleared")                       \
  /* DelayedNetwork faults (zero when synchronous): lost transmissions,     \
     duplicated deliveries, worst latency beyond the one-tick ideal. */      \
  X(messages_dropped, std::int64_t, 0, kSum, kCounter, "messages_dropped",    \
    false, "messages_dropped")                                                \
  X(messages_duplicated, std::int64_t, 0, kSum, kCounter,                     \
    "messages_duplicated", false, "messages_duplicated")                      \
  X(max_delivery_skew, std::int64_t, 0, kMax, kGauge, "max_delivery_skew",    \
    false, "max_delivery_skew")

/// Engine-side counters of one run (RunResult::stats), one member per row
/// of UNILOCAL_ENGINE_STATS.
struct EngineStats {
#define UNILOCAL_ENGINE_STAT_MEMBER(member, type, init, ...) type member = init;
  UNILOCAL_ENGINE_STATS(UNILOCAL_ENGINE_STAT_MEMBER)
#undef UNILOCAL_ENGINE_STAT_MEMBER

  /// Folds another run's stats in (composed algorithms aggregate the stats
  /// of their stages) by each row's merge rule.
  void merge(const EngineStats& other);

  /// Mean nodes stepped per batch dispatch (kernel_batched_steps /
  /// kernel_batch_calls); 0 without batch calls.
  double batch_occupancy() const {
    return kernel_batch_calls > 0
               ? static_cast<double>(kernel_batched_steps) /
                     static_cast<double>(kernel_batch_calls)
               : 0.0;
  }
};

/// Row ids, in table order (EngineStat::total_messages, ...).
enum class EngineStat : std::size_t {
#define UNILOCAL_ENGINE_STAT_ID(member, ...) member,
  UNILOCAL_ENGINE_STATS(UNILOCAL_ENGINE_STAT_ID)
#undef UNILOCAL_ENGINE_STAT_ID
  kCount
};
inline constexpr std::size_t kEngineStatCount =
    static_cast<std::size_t>(EngineStat::kCount);

enum class StatMerge { kSum, kMax, kLast, kDerived };
enum class StatMetric { kCounter, kGauge, kNone };

/// One row of the field table, without the member itself.
struct EngineStatField {
  EngineStat id;
  /// The member name: the key in the shard `stats` block and --stats-json.
  const char* name;
  StatMerge merge;
  StatMetric metric;
  const char* report;
  bool canonical;
  const char* percentile;
};

/// Calls f(field, &EngineStats::member) for every row, in table order.
template <typename F>
void for_each_engine_stat(F&& f) {
#define UNILOCAL_ENGINE_STAT_VISIT(member, type, init, merge, metric, report, \
                                   canonical, percentile)                     \
  f(EngineStatField{EngineStat::member, #member, StatMerge::merge,            \
                    StatMetric::metric, report, canonical, percentile},       \
    &EngineStats::member);
  UNILOCAL_ENGINE_STATS(UNILOCAL_ENGINE_STAT_VISIT)
#undef UNILOCAL_ENGINE_STAT_VISIT
}

inline void EngineStats::merge(const EngineStats& other) {
  for_each_engine_stat([&](const EngineStatField& field, auto member) {
    auto& mine = this->*member;
    switch (field.merge) {
      case StatMerge::kSum:
        mine += other.*member;
        break;
      case StatMerge::kMax:
        mine = std::max(mine, other.*member);
        break;
      case StatMerge::kLast:
        mine = other.*member;
        break;
      case StatMerge::kDerived:
        break;
    }
  });
  steps_per_second = elapsed_seconds > 0.0
                         ? static_cast<double>(total_steps) / elapsed_seconds
                         : 0.0;
}

/// The shard `stats` block and the --stats-json `engine` object: every row
/// under its member name. from_json throws std::runtime_error on a missing
/// key, a non-number, or an integer that does not fit its member.
json::Value engine_stats_to_json(const EngineStats& stats);
EngineStats engine_stats_from_json(const json::Value& value);

struct RunResult {
  std::vector<std::int64_t> outputs;
  /// Local round in which each node finished (0-based), or max_rounds if it
  /// was cut off.
  std::vector<std::int64_t> finish_rounds;
  /// Global round in which each node finished (equals finish_rounds in the
  /// simultaneous mode; later under staggered wake-ups).
  std::vector<std::int64_t> global_finish_rounds;
  /// True when every node finished of its own accord before the cutoff.
  bool all_finished = false;
  /// The LOCAL running time: max over nodes of (local finish round + 1);
  /// 0 for the empty graph.
  std::int64_t rounds_used = 0;
  /// Global (wall) rounds the synchronizer mode consumed; equals rounds_used
  /// in the simultaneous mode.
  std::int64_t global_rounds = 0;
  std::int64_t messages_sent = 0;
  std::int64_t max_message_words = 0;
  EngineStats stats;
};

/// Reusable engine storage: arenas, span tables, struct-of-arrays node
/// state, receive scratch, and the thread pool. One workspace serves any
/// number of runs in sequence (buffers are cleared, capacity is kept), which
/// is how composed algorithms — the alternation driver, the `fastest`
/// operator, run_sequential stages — share one arena instead of
/// re-allocating per stage. Not safe to share between concurrent runs.
struct EngineWorkspaceState;
class EngineWorkspace {
 public:
  EngineWorkspace();
  ~EngineWorkspace();
  EngineWorkspace(EngineWorkspace&&) noexcept;
  EngineWorkspace& operator=(EngineWorkspace&&) noexcept;

  /// Engine-internal storage (opaque outside src/runtime/runner.cpp).
  EngineWorkspaceState& state() { return *state_; }

 private:
  std::unique_ptr<EngineWorkspaceState> state_;
};

/// Runs one algorithm on an instance. Passing a workspace reuses its
/// buffers; nullptr uses a run-local workspace.
RunResult run_local(const Instance& instance, const Algorithm& algorithm,
                    const RunOptions& options = {},
                    EngineWorkspace* workspace = nullptr);

/// Runs algorithms in sequence (paper's A1;A2): each node starts algorithm
/// k+1 in the global round after it finished algorithm k (alpha-synchronizer
/// semantics), with each algorithm's input being the previous algorithm's
/// per-node output appended to the instance input. Returns one RunResult per
/// stage; the last stage's outputs are the composition's outputs. All stages
/// share one workspace (and therefore one arena).
std::vector<RunResult> run_sequential(const Instance& instance,
                                      const std::vector<const Algorithm*>& algorithms,
                                      const RunOptions& options = {});

/// Post-hoc per-node termination time in the paper's non-simultaneous sense:
/// the least t such that the node finished (in global rounds) no later than
/// t rounds after every node within distance t of it had woken up.
std::vector<std::int64_t> termination_times(
    const Graph& graph, const std::vector<std::int64_t>& wake_rounds,
    const std::vector<std::int64_t>& global_finish_rounds);

}  // namespace unilocal
