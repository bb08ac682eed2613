// Fault-tolerant shard supervision: retries, timeouts, checkpoint/resume,
// and process-level chaos injection.
//
// The PR 5 shard driver spawned one worker per shard through a serial
// std::system loop: no timeout, no retry, and a single crashed / hung /
// corrupted worker killed the whole campaign. This subsystem replaces that
// loop with a ShardSupervisor event loop that treats worker processes the
// way the delivery layer (src/runtime/network.h) treats messages — as an
// unreliable transport whose failures are *recoverable*, because every
// shard is a deterministic pure function of its manifest:
//
//  - Launch.  Workers are fork/exec'd concurrently (argv vectors, no
//    shell), stdout discarded, stderr captured per attempt for
//    diagnostics.
//  - Timeout.  Each attempt gets a wall-clock deadline derived from the
//    shard's default_shard_cost_model() estimate (base +
//    seconds-per-cost-unit x estimated cost); overrunning attempts are
//    SIGKILLed and requeued. The event loop polls its workers every 2 ms.
//  - Retry.  A crashed, nonzero-exit, timed-out, or fingerprint-invalid
//    attempt requeues the shard with bounded retries under deterministic
//    exponential backoff plus seeded jitter (splitmix64 over
//    (backoff_seed, shard, attempt) — reruns back off identically).
//  - Acceptance.  A result file is accepted only when it parses AND
//    passes the same merge-layer validation merge_shard_results applies
//    (shard_result_problem: plan hash, shard hash, cell membership,
//    recomputed campaign_grid_hash over the cell identities). A worker
//    that scribbled its output is indistinguishable from one that
//    crashed; both simply retry.
//  - Speculation.  Once enough attempts have completed to estimate the
//    fleet's seconds-per-cost-unit rate, a running attempt that exceeds
//    straggler_factor x its expected duration gets a speculative duplicate
//    launched; the first accepted result wins and the loser is killed.
//    Both compute bit-identical results, so speculation can never change
//    outputs.
//  - Checkpointing.  Every accepted ShardResult is appended to a JSON
//    lines journal keyed by the plan's campaign_grid_hash. A campaign
//    killed mid-flight resumes by skipping journaled shards; because
//    shards are deterministic, the resumed merge is byte-identical to an
//    uninterrupted run (tests/supervisor_test.cpp, CI).
//
// Determinism contract: supervision affects only *when* work runs, never
// what it computes. Merged canonical JSON under any schedule of injected
// faults — as long as retries suffice — is byte-identical to a fault-free
// single-process run of the same grid.
//
// Note on layering: sits ABOVE src/runtime/shard.* (the only files that
// may include it are the CLI/bench/test tier).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/runtime/shard.h"
#include "src/runtime/telemetry.h"

namespace unilocal {

// --- small process/shell helpers --------------------------------------------

/// POSIX single-quoting for logging and shell-transported launch commands
/// (ssh launchers, debug reproduction lines): safe against every
/// metacharacter, the empty string quotes to '', and the single quote
/// itself is spelled '\''. Throws std::runtime_error on embedded NUL —
/// no argv can carry one, so a NUL means the caller is quoting garbage.
std::string shell_quote(const std::string& text);

/// Decodes a waitpid()/std::system() status into prose: "exited N",
/// "killed by signal N", "stopped by signal N", or "wait status N" for
/// anything else. Never confuses the raw encoded status with an exit code.
std::string describe_wait_status(int status);

// --- chaos injection ---------------------------------------------------------

/// What a chaos-injected worker does instead of (or in addition to)
/// honest work. Drawn deterministically per (shard, attempt) so a chaos
/// schedule replays bit-identically under the same seed.
enum class ChaosFault {
  kNone,
  kCrash,      ///< abort() mid-run, before any output is written
  kHang,       ///< sleep past any reasonable deadline (supervisor kills it)
  kCorrupt,    ///< complete the run, then scribble over the output file
  kFlakyExit,  ///< complete the run and write valid output, but exit nonzero
};

const char* chaos_fault_name(ChaosFault fault);

/// Per-fault probabilities, spelled "crash:P,hang:P,corrupt:P,flaky-exit:P"
/// on the CLI (any subset, any order). The probabilities must sum to at
/// most 1 — one draw decides which fault, if any, fires.
struct ChaosOptions {
  double crash = 0.0;
  double hang = 0.0;
  double corrupt = 0.0;
  double flaky_exit = 0.0;
  /// Seed for the per-(shard, attempt) draw; the same seed replays the
  /// same fault schedule.
  std::uint64_t seed = 0;

  bool any() const {
    return crash > 0.0 || hang > 0.0 || corrupt > 0.0 || flaky_exit > 0.0;
  }
};

/// Canonical spelling of the non-zero probabilities ("" when none) — what
/// the sharded driver forwards to workers via --inject=.
std::string chaos_spec_name(const ChaosOptions& options);

/// Parses "kind:P[,kind:P...]"; throws std::runtime_error naming unknown
/// kinds, malformed probabilities, and sums above 1. Does not set `seed`.
ChaosOptions parse_chaos_spec(const std::string& spec);

/// The deterministic draw: which fault (if any) fires for attempt
/// `attempt` (1-based) of shard `shard_index`. Pure function of
/// (options, shard_index, attempt).
ChaosFault draw_chaos_fault(const ChaosOptions& options, int shard_index,
                            int attempt);

// --- checkpoint journal ------------------------------------------------------

/// What read_supervisor_journal recovered: every validated ShardResult a
/// previous (possibly killed) supervision run accepted, in append order.
struct SupervisorJournal {
  /// True when the file existed and carried a parseable header.
  bool found = false;
  std::uint64_t plan_grid_hash = 0;
  std::vector<ShardResult> completed;
};

/// Reads a checkpoint journal and returns the accepted results that
/// validate against `plan` (shard_result_problem — a tampered or stale
/// entry is skipped, so its shard simply re-runs). A truncated trailing
/// line (the supervisor was killed mid-append) is tolerated. Throws
/// std::runtime_error when the journal's header names a DIFFERENT plan
/// grid hash — resuming someone else's campaign would silently merge
/// foreign work. A missing or empty file yields {found = false}.
SupervisorJournal read_supervisor_journal(const std::string& path,
                                          const ShardPlan& plan);

// --- supervision -------------------------------------------------------------

/// Everything a launcher needs to start one attempt of one shard. The
/// worker must write its ShardResult JSON to `result_path`; stderr is
/// redirected to `stderr_path`.
struct ShardAttemptContext {
  int shard_index = 0;
  /// 1-based, counting every launch of this shard (speculative included).
  int attempt = 1;
  bool speculative = false;
  std::string manifest_path;
  std::string result_path;
  std::string stderr_path;
};

/// Builds the argv (argv[0] = executable) for one attempt. No shell is
/// involved; arguments pass through exec verbatim.
using WorkerCommand =
    std::function<std::vector<std::string>(const ShardAttemptContext&)>;

struct SupervisorOptions {
  /// Launches per shard before giving up (>= 1). Speculative launches
  /// count: a shard never runs more than max_attempts processes.
  int max_attempts = 3;
  /// Concurrently running workers; 0 means "one slot per shard".
  int max_concurrent = 0;
  /// Attempt deadline: base + seconds_per_cost x the shard's estimated
  /// cost (ShardCostModel units). Generous by default — the model's units
  /// are abstract, so the scale must swallow slow hosts and sanitized
  /// builds; tests tighten it.
  double base_timeout_seconds = 300.0;
  double timeout_seconds_per_cost = 1e-4;
  /// Exponential backoff before retry r (1-based): min(backoff_max, base x
  /// 2^(r-1)) x (1 + jitter), jitter uniform in [0, 1) drawn via
  /// splitmix64(backoff_seed, shard, attempt) — deterministic per rerun.
  double backoff_base_seconds = 0.05;
  double backoff_max_seconds = 5.0;
  std::uint64_t backoff_seed = 0x5eedULL;
  /// Straggler speculation: once straggler_min_samples attempts have been
  /// accepted, a running attempt whose elapsed time exceeds
  /// straggler_factor x (its cost x the median observed seconds-per-cost)
  /// gets a speculative duplicate (if attempts remain). Disable with
  /// speculate = false.
  bool speculate = true;
  double straggler_factor = 3.0;
  int straggler_min_samples = 2;
  /// Scratch directory for manifests / per-attempt results / stderr
  /// captures; must exist. supervise_shards writes
  /// shard-<i>.json manifests here before launching anything.
  std::string scratch_dir;
  /// Checkpoint journal path ("" disables checkpointing). When the file
  /// already holds entries for this plan, their shards are skipped
  /// (resume); new acceptances are appended and flushed line-by-line.
  std::string journal_path;
  /// Optional trace recorder: when set, every attempt becomes an "X" span
  /// on (trace_pid, tid = shard_index + 1) and lifecycle transitions
  /// (launch / sigkill / speculate / retry / accept / journal-skip) become
  /// "i" instants. Null disables all span recording.
  telemetry::TraceRecorder* trace = nullptr;
  /// pid lane the supervisor's spans live on (workers get their own lanes
  /// when the caller stitches their trace files via merge_process).
  int trace_pid = 1;
};

/// One launch of one shard, as the supervisor saw it end.
struct ShardAttemptRecord {
  int attempt = 0;
  bool speculative = false;
  double seconds = 0.0;
  /// "accepted", "exited N", "killed by signal N", "timeout after Ns",
  /// "invalid result: ...", "superseded", or "spawn failed: ...".
  std::string outcome;
  std::string stderr_path;
  /// Launch/reap times in seconds since supervision began — the wall
  /// placement of this attempt, not just its duration (end - start ==
  /// seconds up to reap latency).
  double start_seconds = 0.0;
  double end_seconds = 0.0;
  /// True when the supervisor SIGKILLed this attempt (deadline overrun or
  /// superseded by an accepted sibling).
  bool killed = false;
};

/// Per-shard supervision history.
struct ShardSupervision {
  int shard_index = 0;
  bool completed = false;
  /// True when the accepted result came from the checkpoint journal (no
  /// process was launched at all).
  bool from_journal = false;
  int attempts = 0;
  /// Requeues caused by a failed attempt (crash/exit/timeout/invalid).
  int retries = 0;
  /// Speculative duplicates launched while an attempt was still running.
  int stragglers_respawned = 0;
  double total_attempt_seconds = 0.0;
  std::vector<ShardAttemptRecord> log;
};

struct SupervisorReport {
  /// Accepted results in shard-index order (failed shards absent) — feed
  /// straight into merge_shard_results / merge_shard_results_partial.
  std::vector<ShardResult> results;
  /// One entry per plan shard, in shard-index order.
  std::vector<ShardSupervision> shards;
  /// Shards whose retries were exhausted.
  std::vector<int> failed_shards;
  int attempts = 0;
  int retries = 0;
  /// Total re-enqueues: failure retries + speculative launches.
  int requeues = 0;
  int stragglers_respawned = 0;
  int shards_from_journal = 0;
  double elapsed_seconds = 0.0;

  bool all_completed() const { return failed_shards.empty(); }
  /// One message naming every failed shard with its full attempt history
  /// (and a tail of each last attempt's stderr when available).
  std::string failure_summary() const;
};

/// Runs every shard of `plan` to acceptance or retry exhaustion. Never
/// throws on worker failures (they land in the report); throws
/// std::runtime_error on environmental errors — unwritable scratch
/// directory, a journal for a different plan, fork failure.
SupervisorReport supervise_shards(const ShardPlan& plan,
                                  const SupervisorOptions& options,
                                  const WorkerCommand& command);

}  // namespace unilocal
