// unilocal_cli — run a uniform LOCAL algorithm on your own graph, or sweep
// a campaign grid over the scenario registry.
//
//   unilocal_cli <problem> [file] [--stats]
//
//   <problem>: mis | matching | coloring | rulingset2
//   [file]:    edge list ("n m" header then "u v" per line);
//              reads stdin when omitted.
//   --stats:   also print per-run engine statistics (arena bytes, peak
//              messages/round, steps/sec, peak/final live nodes, frontier
//              width, lazily cleared dirty spans, and the simultaneous
//              steps with the phase-bucket calls carrying them) on
//              stderr. Every algorithm runs as its step kernel
//              (src/runtime/kernel.h).
//   --network: delivery layer (src/runtime/network.h): the round-exact
//              synchronous arena (sync, the default) or the seeded
//              delayed network (delay:uniform | delay:weighted |
//              delay:heavytail). Fault knobs — --drop/--dup/--crash/--late
//              (probabilities) and --max-delay/--late-by (ticks, at most
//              2^32) — apply to the delayed presets only. When every message is
//              eventually delivered, outputs are bit-identical to the
//              synchronous run (the paper's Observation 2.1); sweep and
//              table1 accept a comma-separated spec list and cross the
//              grid with it like a scenario dimension.
//
//   unilocal_cli sweep [--scenarios=a,b,..] [--algorithms=x,y,..] [--n=N]
//                      [--a=V] [--b=V] [--seeds=K] [--workers=W]
//                      [--format=csv|json] [--log=FILE] [--list]
//
//   Runs the (scenario x algorithm x seed) grid concurrently on W workers
//   (campaign layer, src/runtime/campaign.h), prints one CSV row (or JSON
//   record) per cell on stdout and the aggregate summary on stderr.
//   --algorithms (alias --algos) accepts registry keys, '*'/'?' globs
//   (e.g. 'mis-*'), and the word 'all'. --list shows the registered
//   scenario families and algorithms. --log appends one JSON line to the
//   append-only run log and diffs against the last recorded sweep of the
//   same grid.
//
//   unilocal_cli table1 [--n=N] [--seeds=K] [--workers=W]
//                       [--format=csv|json] [--log=FILE] [--smoke]
//
//   Regenerates the paper's Table 1 grid as ONE campaign: every registry
//   entry crossed with the scenario families its row is stated over.
//   --smoke shrinks the grid (n=64, 1 seed) for CI. Exit status 0 iff
//   every cell ran, solved, and passed its centralized checker.
//
//   sweep and table1 differ only in their grid flags; once the grid is
//   built they share one run path and every other flag. With --shards=K
//   [--policy=P] the grid is planned into K shards, run as K concurrently
//   *supervised* worker processes (each `unilocal_cli shard run` on its
//   own manifest, src/runtime/supervisor.h), and merged — the merged
//   output is bit-identical (per-cell output hashes, grid hash) to the
//   single-process run. --canonical emits only the deterministic JSON
//   fields so sharded and single-process outputs diff byte-equal. A
//   sharded --trace stitches every accepted worker attempt's trace under
//   its own pid lane, and a sharded --metrics merges the accepted
//   attempts' metrics (campaign.*, engine.*) with the supervisor.* ones.
//   Supervision knobs: --max-attempts=N (launches per shard, default 3),
//   --shard-timeout=S (base per-attempt deadline; the cost model adds a
//   per-cost term), --journal=FILE (checkpoint journal — rerunning after
//   a kill resumes, skipping completed shards, to byte-identical output),
//   --allow-partial (exhausted shards degrade to an explicit missing-cell
//   report instead of a fatal error), --no-speculate (disable straggler
//   re-launch). The hidden chaos harness --inject=crash:p,hang:p,
//   corrupt:p,flaky-exit:p [--inject-seed=U] makes workers abort mid-run,
//   sleep past their deadline, scribble their output file, or exit
//   nonzero after valid output — deterministically per (shard, attempt,
//   seed) — to exercise every recovery path in tests and CI.
//
//   unilocal_cli shard plan --dir=DIR --shards=K [--policy=P] <grid flags>
//   unilocal_cli shard run MANIFEST [--out=FILE] [--workers=W]
//   unilocal_cli shard merge PLAN RESULT... [--format=csv|json]
//                            [--canonical] [--log=FILE]
//
//   The three layers of src/runtime/shard.h, one file per hop: plan
//   writes DIR/plan.json + DIR/shard-<i>.json manifests (--table1
//   [--smoke] or --scenarios/--algorithms pick the grid); run executes
//   one manifest and writes a shard-result JSON; merge verifies every
//   result against the plan (missing/duplicate/foreign/hash-mismatched
//   shards are rejected naming all offenders) and prints the merged
//   campaign exactly like sweep does.
//
//   unilocal_cli ledger
//
//   Prints the paper ledger (src/runtime/paper_ledger.h): Table 1's
//   uniform rounds against the correct-guess baselines at n = 64 and 256,
//   byte for byte the checked-in BENCH_paper.json. Exit status 0 iff every
//   run and baseline passed its checker.
//
// Every verb rejects a flag it does not know with one line naming it
// ("table1: unknown flag: --bogus") and exit status 2, and likewise a
// numeric flag value that is not a number or out of range
// ("table1: --n: expected a number in [0, 2147483647], got '-1'").
//
// Prints one line per node: "<identity> <output>" (plus a summary on
// stderr). Each problem runs its algorithm-registry pipeline (mis-uniform,
// matching-uniform, coloring-theorem5, rulingset2-lv) with seed 1 and is
// scored by that entry's checker. Every one is the uniform product of the
// paper's transformers — the tool needs no -n/-delta flags because no
// node needs them; that is the point of the paper.
#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/graph/io.h"
#include "src/runtime/algorithm_registry.h"
#include "src/runtime/campaign.h"
#include "src/runtime/paper_ledger.h"
#include "src/runtime/run_log.h"
#include "src/runtime/shard.h"
#include "src/runtime/supervisor.h"
#include "src/runtime/telemetry.h"

using namespace unilocal;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: unilocal_cli <mis|matching|coloring|rulingset2> "
               "[edge-list-file] [--stats] [--stats-json=FILE] "
               "[--network=sync|delay:uniform|delay:weighted|delay:heavytail] "
               "[--drop=P] [--dup=P] [--crash=P] [--late=P] [--max-delay=T] "
               "[--late-by=T] [--trace=FILE] [--metrics=FILE] "
               "[--trace-rounds=N]\n"
               "       unilocal_cli sweep [--scenarios=a,b,..] "
               "[--algorithms=x,y,..|all|glob*] [--n=N] [--a=V] [--b=V] "
               "[--seeds=K] [--workers=W] "
               "[--network=SPEC,..] [fault knobs] [--shards=K] "
               "[--policy=round-robin|cost-balanced] [--max-attempts=N] "
               "[--shard-timeout=S] [--journal=FILE] [--allow-partial] "
               "[--no-speculate] [--format=csv|json] "
               "[--canonical] [--log=FILE] [--trace=FILE] [--metrics=FILE] "
               "[--trace-rounds=N] [--list]\n"
               "       unilocal_cli table1 [--n=N] [--seeds=K] [--workers=W] "
               "[--network=SPEC,..] [fault knobs] [--shards=K] "
               "[--policy=P] [--max-attempts=N] [--shard-timeout=S] "
               "[--journal=FILE] [--allow-partial] [--no-speculate] "
               "[--format=csv|json] "
               "[--canonical] [--log=FILE] [--trace=FILE] [--metrics=FILE] "
               "[--trace-rounds=N] [--smoke]\n"
               "       unilocal_cli shard plan --dir=DIR --shards=K "
               "[--policy=P] (--table1 [--smoke] | --scenarios=.. "
               "--algorithms=..) [--n=N] [--a=V] [--b=V] [--seeds=K] "
               "[--network=SPEC,..] [fault knobs]\n"
               "       unilocal_cli shard run MANIFEST [--out=FILE] "
               "[--workers=W] [--trace=FILE] [--metrics=FILE] "
               "[--trace-rounds=N]\n"
               "       unilocal_cli shard merge PLAN RESULT... "
               "[--format=csv|json] [--canonical] [--log=FILE]\n"
               "       unilocal_cli ledger\n");
  return 2;
}

/// Rejects an argument no flag of `verb` recognised: one line naming it on
/// stderr and the usage exit status, so a mistyped or retired flag is never
/// silently misread.
int reject_argument(const char* verb, const std::string& arg) {
  std::fprintf(stderr, "%s: %s: %s\n", verb,
               arg.rfind("--", 0) == 0 ? "unknown flag" : "unexpected argument",
               arg.c_str());
  return 2;
}

/// A malformed flag value; main() reports it with the usage exit status.
struct FlagError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

constexpr unsigned kMaxWorkers = 1024;
constexpr int kMaxShards = 1024;

/// The value of `arg` ("--flag=value") as a T in [lo, hi]. Anything else —
/// not a number, trailing characters, out of T's range or of [lo, hi] —
/// throws FlagError naming the flag and the bad value.
template <typename T>
T flag_number(const std::string& arg, T lo,
              T hi = std::numeric_limits<T>::max()) {
  const std::size_t eq = arg.find('=');
  const std::string text = arg.substr(eq + 1);
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (text.empty() || error != std::errc() || stop != end ||
      !(value >= lo && value <= hi)) {
    std::ostringstream message;
    message << arg.substr(0, eq) << ": expected a number in [" << lo << ", "
            << hi << "], got '" << text << "'";
    throw FlagError(message.str());
  }
  return value;
}

/// argv[0], for the sharded driver to re-invoke itself; /proc/self/exe
/// wins when available (argv[0] may be a bare name found via PATH).
std::string g_self_path;  // NOLINT

std::string self_executable() {
  std::error_code ec;
  const auto exe = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (!ec) return exe.string();
  return g_self_path;
}

std::string read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << text;
  if (!out) throw std::runtime_error("short write to " + path);
}

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> result;
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ','))
    if (!item.empty()) result.push_back(item);
  return result;
}

/// The delivery-layer flag group every subcommand shares: --network=SPEC[,..]
/// plus the fault knobs. Flags may arrive in any order, so the knobs are
/// buffered and applied to the delayed specs in resolve(). consume() throws
/// FlagError on a malformed or out-of-range value and resolve() throws
/// std::runtime_error on inconsistent ones, both naming the offending flag.
struct NetworkFlags {
  std::vector<std::string> specs;  // raw --network= values, in order
  NetworkOptions knobs;
  bool drop_set = false, dup_set = false, crash_set = false;
  bool late_set = false, max_delay_set = false, late_by_set = false;

  bool consume(const std::string& arg) {
    try {
      return consume_value(arg);
    } catch (const std::runtime_error& e) {
      throw FlagError(e.what());
    }
  }

  bool consume_value(const std::string& arg) {
    const auto value = [&arg] { return arg.substr(arg.find('=') + 1); };
    if (arg.rfind("--network=", 0) == 0) {
      for (const std::string& spec : split_csv(value()))
        specs.push_back(spec);
      if (specs.empty())
        throw std::runtime_error(
            "--network: expected sync or delay:<preset>, got ''");
    } else if (arg.rfind("--drop=", 0) == 0) {
      knobs.drop = parse_unit_interval("--drop", value());
      drop_set = true;
    } else if (arg.rfind("--dup=", 0) == 0) {
      knobs.duplicate = parse_unit_interval("--dup", value());
      dup_set = true;
    } else if (arg.rfind("--crash=", 0) == 0) {
      knobs.crash = parse_unit_interval("--crash", value());
      crash_set = true;
    } else if (arg.rfind("--late=", 0) == 0) {
      knobs.late = parse_unit_interval("--late", value());
      late_set = true;
    } else if (arg.rfind("--max-delay=", 0) == 0) {
      knobs.max_delay = parse_positive_ticks("--max-delay", value());
      max_delay_set = true;
    } else if (arg.rfind("--late-by=", 0) == 0) {
      knobs.late_by = parse_positive_ticks("--late-by", value());
      late_by_set = true;
    } else {
      return false;
    }
    return true;
  }

  bool any_knob() const {
    return drop_set || dup_set || crash_set || late_set || max_delay_set ||
           late_by_set;
  }

  /// One NetworkOptions per --network= spec (empty = all-sync default),
  /// fault knobs folded into the delayed entries.
  std::vector<NetworkOptions> resolve() const {
    std::vector<NetworkOptions> result;
    bool any_delayed = false;
    for (const std::string& spec : specs) {
      NetworkOptions network = parse_network_spec(spec);
      if (network.kind == NetworkKind::kDelayed) {
        any_delayed = true;
        if (drop_set) network.drop = knobs.drop;
        if (dup_set) network.duplicate = knobs.duplicate;
        if (crash_set) network.crash = knobs.crash;
        if (late_set) network.late = knobs.late;
        if (max_delay_set) network.max_delay = knobs.max_delay;
        if (late_by_set) network.late_by = knobs.late_by;
        validate_network_options(network);
      }
      result.push_back(network);
    }
    if (any_knob() && !any_delayed)
      throw std::runtime_error(
          "--drop/--dup/--crash/--late/--max-delay/--late-by require "
          "--network=delay:<preset> (the synchronous network has no fault "
          "knobs)");
    return result;
  }

  /// The single-run form: at most one spec.
  NetworkOptions resolve_single() const {
    if (specs.size() > 1)
      throw std::runtime_error(
          "--network: expected one value in single-problem mode, got " +
          std::to_string(specs.size()));
    const std::vector<NetworkOptions> resolved = resolve();
    return resolved.empty() ? NetworkOptions{} : resolved.front();
  }
};

/// --inject=SPEC and --inject-seed=U, the chaos knobs the supervisor
/// forwards to its workers. Flags arrive in any order, so --inject keeps
/// an earlier --inject-seed.
bool consume_chaos(const std::string& arg, ChaosOptions& chaos) {
  if (arg.rfind("--inject=", 0) == 0) {
    const std::uint64_t seed = chaos.seed;
    chaos = parse_chaos_spec(arg.substr(arg.find('=') + 1));
    chaos.seed = seed;
  } else if (arg.rfind("--inject-seed=", 0) == 0) {
    chaos.seed = flag_number<std::uint64_t>(arg, 0);
  } else {
    return false;
  }
  return true;
}

/// The supervision flag group sweep/table1 share (all require --shards=K):
/// retry budget, timeout, checkpoint journal and straggler speculation
/// land in `options` (whose defaults are supervisor.h's), plus the
/// partial-merge opt-in and the hidden chaos knobs. consume() throws
/// std::runtime_error naming the offending flag on malformed values.
struct SupervisorFlags {
  SupervisorOptions options;
  bool allow_partial = false;
  ChaosOptions chaos;
  bool any_set = false;

  bool consume(const std::string& arg) {
    if (arg.rfind("--max-attempts=", 0) == 0) {
      options.max_attempts = flag_number(arg, 1);
    } else if (arg.rfind("--shard-timeout=", 0) == 0) {
      options.base_timeout_seconds = flag_number(arg, 0.001, 1e6);
    } else if (arg == "--allow-partial") {
      allow_partial = true;
    } else if (arg == "--no-speculate") {
      options.speculate = false;
    } else if (arg.rfind("--journal=", 0) == 0) {
      options.journal_path = arg.substr(arg.find('=') + 1);
    } else if (!consume_chaos(arg, chaos)) {
      return false;
    }
    any_set = true;
    return true;
  }

  void require_shards(int shards) const {
    if (any_set && shards <= 0)
      throw std::runtime_error(
          "--max-attempts/--shard-timeout/--journal/--allow-partial/"
          "--no-speculate/--inject require --shards=K (they configure the "
          "shard supervisor)");
  }
};

/// The observability flag group every subcommand shares
/// (src/runtime/telemetry.h): --trace=FILE writes a Chrome trace-event
/// JSON (Perfetto-loadable), --metrics=FILE a merged metrics snapshot,
/// --trace-rounds=N caps per-round engine events per run (head sampling).
/// None of these touch stdout: canonical output is byte-identical with
/// and without them.
struct TelemetryFlags {
  std::string trace_path;
  std::string metrics_path;
  std::int64_t trace_rounds = telemetry::kDefaultTraceRounds;

  bool consume(const std::string& arg) {
    const auto value = [&arg] { return arg.substr(arg.find('=') + 1); };
    if (arg.rfind("--trace=", 0) == 0) {
      trace_path = value();
      if (trace_path.empty())
        throw std::runtime_error("--trace: expected a file path");
    } else if (arg.rfind("--metrics=", 0) == 0) {
      metrics_path = value();
      if (metrics_path.empty())
        throw std::runtime_error("--metrics: expected a file path");
    } else if (arg.rfind("--trace-rounds=", 0) == 0) {
      trace_rounds = flag_number<std::int64_t>(arg, 0);
    } else {
      return false;
    }
    return true;
  }
};

/// Owns the recorder/registry the telemetry flags asked for (null when a
/// flag is absent) and writes their files at the end of the run.
/// `want_registry` forces a registry even without --metrics (--stats-json
/// folds a metrics snapshot into its document).
struct TelemetrySinks {
  std::unique_ptr<telemetry::TraceRecorder> recorder;
  std::unique_ptr<telemetry::MetricsRegistry> registry;

  explicit TelemetrySinks(const TelemetryFlags& flags,
                          bool want_registry = false) {
    if (!flags.trace_path.empty())
      recorder = std::make_unique<telemetry::TraceRecorder>();
    if (!flags.metrics_path.empty() || want_registry)
      registry = std::make_unique<telemetry::MetricsRegistry>();
  }

  void write(const TelemetryFlags& flags) const {
    if (recorder != nullptr) recorder->write_file(flags.trace_path);
    if (registry != nullptr && !flags.metrics_path.empty())
      write_text_file(flags.metrics_path, registry->to_json().dump() + "\n");
  }
};

/// How a campaign result is reported (sweep, table1 and shard merge):
/// --format=csv|json, --canonical (deterministic JSON fields only) and
/// --log=FILE (append to and diff against the run log).
struct ReportFlags {
  bool json = false;
  bool canonical = false;
  std::string log_path;

  bool consume(const std::string& arg) {
    const auto value = [&arg] { return arg.substr(arg.find('=') + 1); };
    if (arg == "--canonical") {
      canonical = true;
    } else if (arg.rfind("--format=", 0) == 0) {
      const std::string format = value();
      if (format != "csv" && format != "json")
        throw FlagError("--format: expected csv or json, got '" + format +
                        "'");
      json = format == "json";
    } else if (arg.rfind("--log=", 0) == 0) {
      log_path = value();
    } else {
      return false;
    }
    return true;
  }
};

/// Every flag sweep and table1 share — all but their grid flags: where the
/// cells run (--workers, --shards, --policy), how the result is reported,
/// and the network, supervisor and telemetry groups.
struct CampaignFlags {
  unsigned workers = std::max(1u, std::thread::hardware_concurrency());
  bool workers_given = false;
  int shards = 0;
  ShardPolicy policy = ShardPolicy::kCostBalanced;
  ReportFlags report;
  NetworkFlags network;
  SupervisorFlags supervisor;
  TelemetryFlags telemetry;

  bool consume(const std::string& arg) {
    if (report.consume(arg) || network.consume(arg) ||
        supervisor.consume(arg) || telemetry.consume(arg))
      return true;
    if (arg.rfind("--workers=", 0) == 0) {
      workers = flag_number(arg, 1u, kMaxWorkers);
      workers_given = true;
    } else if (arg.rfind("--shards=", 0) == 0) {
      shards = flag_number(arg, 0, kMaxShards);
    } else if (arg.rfind("--policy=", 0) == 0) {
      policy = parse_shard_policy(arg.substr(arg.find('=') + 1));
    } else {
      return false;
    }
    return true;
  }
};

/// Writes the per-cell output, prints the aggregate summary and every
/// non-valid cell, optionally appends to / diffs against the run log.
/// Returns 0 iff every cell ran, solved, and passed its checker.
int report_campaign(const char* what, const CampaignResult& result,
                    const ReportFlags& flags) {
  if (flags.json || flags.canonical) {
    CampaignJsonOptions json_options;
    json_options.canonical = flags.canonical;
    write_campaign_json(std::cout, result, json_options);
    std::cout << '\n';
  } else {
    write_campaign_csv(std::cout, result);
  }
  std::fprintf(stderr,
               "%s: cells=%zu workers=%d solved=%d valid=%d failed=%d "
               "elapsed=%.3fs throughput=%.1f cells/s\n",
               what, result.cells.size(), result.workers, result.solved,
               result.valid, result.failed, result.elapsed_seconds,
               result.cells_per_second);
  for_each_campaign_percentile(
      result.percentiles,
      [](const char* key, bool, const CampaignPercentiles& p) {
        std::fprintf(stderr, "  %-22s p50=%.0f p90=%.0f p99=%.0f max=%.0f\n",
                     key, p.p50, p.p90, p.p99, p.max);
      });
  if (result.supervision.shards > 0) {
    const SupervisionSummary& sup = result.supervision;
    std::fprintf(stderr,
                 "%s: supervision: shards=%d attempts=%d retries=%d "
                 "requeues=%d stragglers_respawned=%d from_journal=%d "
                 "failed=%d\n",
                 what, sup.shards, sup.attempts, sup.retries, sup.requeues,
                 sup.stragglers_respawned, sup.shards_from_journal,
                 sup.shards_failed);
    std::fprintf(stderr,
                 "  %-16s p50=%.3f p90=%.3f p99=%.3f max=%.3f\n",
                 "attempt_secs", sup.attempt_seconds.p50,
                 sup.attempt_seconds.p90, sup.attempt_seconds.p99,
                 sup.attempt_seconds.max);
    // The per-shard table goes to stderr only when something actually
    // happened (a retry, a straggler respawn, a journal skip, a failure)
    // — a clean first-try run stays quiet.
    if (sup.retries > 0 || sup.stragglers_respawned > 0 ||
        sup.shards_from_journal > 0 || sup.shards_failed > 0) {
      std::ostringstream table;
      write_supervision_csv(table, sup);
      std::fprintf(stderr, "%s", table.str().c_str());
    }
  }
  for (const auto& cell : result.cells) {
    if (!cell.error.empty())
      std::fprintf(stderr, "%s: FAILED %s/%s seed=%llu: %s\n", what,
                   cell.cell.scenario.c_str(), cell.cell.algorithm.c_str(),
                   static_cast<unsigned long long>(cell.cell.seed),
                   cell.error.c_str());
    else if (!cell.valid)
      std::fprintf(stderr, "%s: %s %s/%s seed=%llu\n", what,
                   cell.solved ? "INVALID" : "UNSOLVED",
                   cell.cell.scenario.c_str(), cell.cell.algorithm.c_str(),
                   static_cast<unsigned long long>(cell.cell.seed));
  }
  const std::string& log_path = flags.log_path;
  if (!log_path.empty()) {
    const RunLogComparison comparison = compare_run_log(log_path, result);
    if (comparison.found) {
      std::fprintf(stderr,
                   "%s: vs %s (same grid): rounds.p50 x%.2f "
                   "messages.p50 x%.2f cells/s x%.2f elapsed x%.2f\n",
                   what, comparison.baseline.date.c_str(),
                   comparison.rounds_p50_ratio,
                   comparison.messages_p50_ratio,
                   comparison.cells_per_second_ratio,
                   comparison.elapsed_ratio);
    } else {
      std::fprintf(stderr, "%s: no recorded sweep of this grid in %s\n",
                   what, log_path.c_str());
    }
    append_run_log(log_path, result);
  }
  // Success means every cell ran, solved, and passed its checker.
  const bool all_good =
      result.failed == 0 &&
      result.valid == static_cast<int>(result.cells.size());
  return all_good ? 0 : 1;
}

// --- sharded execution -------------------------------------------------------

/// Deletes the shard scratch directory on EVERY exit path — success,
/// merge failure, supervision failure. Diagnostics survive deletion
/// because the failure messages fold in the worker stderr tails before
/// this runs; the checkpoint journal lives at the user-given --journal
/// path, outside scratch, so resume still works.
struct ScratchDir {
  std::filesystem::path dir;
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

/// The local multi-process driver behind `sweep --shards=K` / `table1
/// --shards=K`: plans the grid and hands it to supervise_shards
/// (src/runtime/supervisor.h), which re-invokes this binary as
/// concurrently supervised `shard run` worker processes — per-attempt
/// timeouts, bounded retries with deterministic backoff, straggler
/// speculation, fingerprint-validated acceptance, and (with --journal)
/// checkpoint/resume. The merged campaign is bit-identical to the
/// single-process run whenever every shard is eventually accepted;
/// --allow-partial degrades exhausted shards to an explicit report.
int run_sharded(const char* what, const std::vector<CampaignCell>& cells,
                const CampaignFlags& flags) {
  namespace fs = std::filesystem;
  const ShardPlan plan = plan_shards(cells, flags.shards, flags.policy);
  // --workers means workers per shard process; the default splits the
  // machine evenly instead of oversubscribing it K times.
  const int workers_per_shard =
      flags.workers_given
          ? static_cast<int>(flags.workers)
          : std::max(1, static_cast<int>(flags.workers) / flags.shards);

  std::string dir_template =
      (fs::temp_directory_path() / "unilocal-shards-XXXXXX").string();
  std::vector<char> dir_buffer(dir_template.begin(), dir_template.end());
  dir_buffer.push_back('\0');
  if (mkdtemp(dir_buffer.data()) == nullptr)
    throw std::runtime_error("cannot create shard scratch directory");
  const ScratchDir scratch{dir_buffer.data()};

  // Sharded telemetry: the supervisor records its own spans on its pid
  // lane; workers write per-attempt trace and metrics files into scratch.
  // The accepted attempt of each shard is folded in: its trace stitched
  // under its own pid lane before scratch is deleted, and its metrics
  // snapshot, which the supervisor keeps (and journals), merged into the
  // supervisor's registry.
  const TelemetrySinks sinks(flags.telemetry);
  const telemetry::ScopedMetrics scoped_metrics(sinks.registry.get());
  if (sinks.recorder != nullptr)
    sinks.recorder->set_process_name(kSupervisorTracePid, "supervisor");
  const auto trace_file = [&scratch](int shard, int attempt) {
    return (scratch.dir / ("trace-" + std::to_string(shard) + "-attempt-" +
                           std::to_string(attempt) + ".json"))
        .string();
  };

  SupervisorOptions options = flags.supervisor.options;
  options.scratch_dir = scratch.dir.string();
  options.trace = sinks.recorder.get();

  const std::string exe = self_executable();
  const ChaosOptions& chaos = flags.supervisor.chaos;
  const std::string inject_spec = chaos_spec_name(chaos);
  const bool tracing = sinks.recorder != nullptr;
  const bool metering = sinks.registry != nullptr;
  const WorkerCommand command = [&](const ShardAttemptContext& context) {
    std::vector<std::string> argv = {
        exe,
        "shard",
        "run",
        context.manifest_path,
        "--out=" + context.result_path,
        "--workers=" + std::to_string(workers_per_shard)};
    if (tracing) {
      argv.push_back("--trace=" +
                     trace_file(context.shard_index, context.attempt));
      argv.push_back("--trace-rounds=" +
                     std::to_string(flags.telemetry.trace_rounds));
    }
    if (metering) argv.push_back("--metrics=" + context.metrics_path);
    if (!inject_spec.empty()) {
      // The worker draws its own fault from (spec, seed, shard, attempt) —
      // the supervisor only forwards the attempt number.
      argv.push_back("--inject=" + inject_spec);
      argv.push_back("--inject-seed=" + std::to_string(chaos.seed));
      argv.push_back("--attempt=" + std::to_string(context.attempt));
    }
    return argv;
  };

  const SupervisorReport report = supervise_shards(plan, options, command);

  // Stitch the accepted attempt's trace of every completed shard in while
  // scratch still exists. A worker that died before writing its file (or a
  // journal-resumed shard, which launched no process) contributes nothing.
  for (const ShardSupervision& row : report.rows) {
    if (!tracing || !row.completed || row.from_journal) continue;
    for (const ShardAttemptRecord& record : row.log) {
      if (record.outcome != "accepted") continue;
      const int shard = row.shard_index;
      const std::string path = trace_file(shard, record.attempt);
      try {
        sinks.recorder->merge_process(
            json::Value::parse(read_text_file(path)),
            kSupervisorTracePid + 1 + shard, "shard " + std::to_string(shard));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: trace stitch: skipping %s: %s\n", what,
                     path.c_str(), e.what());
      }
      break;
    }
  }
  if (metering) {
    for (const ShardSupervision& row : report.rows) {
      if (!row.completed) continue;
      const json::Value& doc =
          report.metrics[static_cast<std::size_t>(row.shard_index)];
      try {
        if (doc.is_null()) throw std::runtime_error("no snapshot");
        sinks.registry->merge(doc);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: metrics stitch: skipping shard %d: %s\n",
                     what, row.shard_index, e.what());
      }
    }
    sinks.registry->add("supervisor.attempts", report.attempts);
    sinks.registry->add("supervisor.retries", report.retries);
    sinks.registry->add("supervisor.requeues", report.requeues);
    sinks.registry->add("supervisor.stragglers_respawned",
                        report.stragglers_respawned);
    sinks.registry->add("supervisor.shards_from_journal",
                        report.shards_from_journal);
    sinks.registry->add("supervisor.shards_failed", report.shards_failed);
  }
  sinks.write(flags.telemetry);
  std::fprintf(stderr,
               "%s: supervised %zu shards (%s policy, %d workers each): "
               "%d attempts, %d retries, %d stragglers respawned, "
               "%d from journal, %.3fs\n",
               what, plan.shards.size(), shard_policy_name(flags.policy),
               workers_per_shard, report.attempts, report.retries,
               report.stragglers_respawned, report.shards_from_journal,
               report.elapsed_seconds);

  if (!report.all_completed() && !flags.supervisor.allow_partial) {
    // failure_summary reads the worker stderr captures NOW, while scratch
    // still exists; the ScratchDir guard then deletes them.
    throw std::runtime_error(std::string(what) + ": " +
                             report.failure_summary() +
                             " (rerun with --allow-partial to merge the "
                             "completed shards anyway)");
  }
  CampaignResult merged;
  if (report.all_completed()) {
    merged = merge_shard_results(plan, report.results);
  } else {
    PartialMergeReport partial;
    merged = merge_shard_results_partial(plan, report.results, partial);
    std::fprintf(stderr, "%s: %s\n", what, report.failure_summary().c_str());
    std::fprintf(stderr, "%s: %s\n", what, partial.describe().c_str());
  }
  merged.supervision = report;
  return report_campaign(what, merged, flags.report);
}

/// The one run path of sweep and table1 once their grid is built: the
/// supervised sharded driver under --shards=K, an in-process campaign
/// otherwise.
int run_cells(const char* what, const std::vector<CampaignCell>& cells,
              const CampaignFlags& flags) {
  flags.supervisor.require_shards(flags.shards);
  if (flags.shards > 0) return run_sharded(what, cells, flags);
  const TelemetrySinks sinks(flags.telemetry);
  const telemetry::ScopedMetrics scoped_metrics(sinks.registry.get());
  if (sinks.recorder != nullptr)
    sinks.recorder->set_process_name(1, "campaign");
  CampaignOptions options;
  options.workers = static_cast<int>(flags.workers);
  options.trace = sinks.recorder.get();
  options.trace_rounds = flags.telemetry.trace_rounds;
  const CampaignResult result = run_campaign(cells, options);
  sinks.write(flags.telemetry);
  return report_campaign(what, result, flags.report);
}

int run_shard_plan(int argc, char** argv) {
  std::string dir;
  int shards = 0;
  ShardPolicy policy = ShardPolicy::kCostBalanced;
  bool table1 = false;
  bool smoke = false;
  bool n_given = false;
  bool seeds_given = false;
  std::vector<std::string> scenarios;
  std::vector<std::string> algorithm_patterns;
  NetworkFlags network_flags;
  ScenarioParams params;
  params.n = 256;
  int seeds = 2;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&arg] { return arg.substr(arg.find('=') + 1); };
    if (network_flags.consume(arg)) {
    } else if (arg == "--table1") {
      table1 = true;
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--dir=", 0) == 0) {
      dir = value();
    } else if (arg.rfind("--shards=", 0) == 0) {
      shards = flag_number(arg, 1, kMaxShards);
    } else if (arg.rfind("--policy=", 0) == 0) {
      policy = parse_shard_policy(value());
    } else if (arg.rfind("--scenarios=", 0) == 0) {
      scenarios = split_csv(value());
    } else if (arg.rfind("--algorithms=", 0) == 0 ||
               arg.rfind("--algos=", 0) == 0) {
      algorithm_patterns = split_csv(value());
    } else if (arg.rfind("--n=", 0) == 0) {
      params.n = flag_number<NodeId>(arg, 0);
      n_given = true;
    } else if (arg.rfind("--a=", 0) == 0) {
      params.a = flag_number(arg, 0.0, 1e6);
    } else if (arg.rfind("--b=", 0) == 0) {
      params.b = flag_number(arg, 0.0, 1e6);
    } else if (arg.rfind("--seeds=", 0) == 0) {
      seeds = flag_number(arg, 1);
      seeds_given = true;
    } else {
      return reject_argument("shard plan", arg);
    }
  }
  if (dir.empty() || shards < 1) return usage();
  if (!table1 && (scenarios.empty() || algorithm_patterns.empty()))
    return usage();
  if (smoke) {
    if (!n_given) params.n = 64;
    if (!seeds_given) seeds = 1;
  }
  GridOptions grid_options;
  grid_options.networks = network_flags.resolve();
  std::vector<CampaignCell> cells;
  if (table1) {
    cells = make_table1_grid(params, seeds, grid_options);
  } else {
    const auto algorithms =
        default_algorithm_registry().resolve(algorithm_patterns);
    cells = make_grid(scenarios, params, algorithms, seeds, grid_options);
  }
  if (cells.empty()) {
    std::fprintf(stderr, "shard plan: empty grid\n");
    return 1;
  }
  const ShardPlan plan = plan_shards(cells, shards, policy);

  namespace fs = std::filesystem;
  fs::create_directories(dir);
  write_text_file((fs::path(dir) / "plan.json").string(),
                  plan.to_json().dump() + "\n");
  const ShardCostModel& model = default_shard_cost_model();
  for (const ShardManifest& manifest : plan.shards) {
    const std::string path =
        (fs::path(dir) / ("shard-" + std::to_string(manifest.shard_index) +
                          ".json"))
            .string();
    write_text_file(path, manifest.to_json().dump() + "\n");
    double cost = 0.0;
    for (const CampaignCell& cell : manifest.cells)
      cost += model.cell_cost(cell);
    std::fprintf(stderr, "shard plan: %s — %zu cells, est. cost %.0f\n",
                 path.c_str(), manifest.cells.size(), cost);
  }
  std::fprintf(stderr,
               "shard plan: %zu cells into %d shards (%s), grid hash %llu, "
               "plan at %s/plan.json\n",
               cells.size(), shards, shard_policy_name(policy),
               static_cast<unsigned long long>(plan.grid_hash), dir.c_str());
  return 0;
}

int run_shard_run(int argc, char** argv) {
  std::string manifest_path;
  std::string out_path;
  unsigned workers = std::thread::hardware_concurrency();
  if (workers == 0) workers = 1;
  ChaosOptions chaos;
  TelemetryFlags telemetry_flags;
  int attempt = 1;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&arg] { return arg.substr(arg.find('=') + 1); };
    if (telemetry_flags.consume(arg)) {
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = value();
    } else if (arg.rfind("--workers=", 0) == 0) {
      workers = flag_number(arg, 1u, kMaxWorkers);
    } else if (consume_chaos(arg, chaos)) {
    } else if (arg.rfind("--attempt=", 0) == 0) {
      attempt = flag_number(arg, 1);
    } else if (arg.rfind("--", 0) != 0 && manifest_path.empty()) {
      manifest_path = arg;
    } else {
      return reject_argument("shard run", arg);
    }
  }
  if (manifest_path.empty()) return usage();
  const ShardManifest manifest =
      ShardManifest::from_json(json::Value::parse(read_text_file(manifest_path)));

  // Chaos harness (the supervisor's --inject, forwarded here with the
  // attempt number): the fault is a pure function of (spec, seed, shard,
  // attempt), so a rerun replays the same schedule.
  const ChaosFault fault =
      draw_chaos_fault(chaos, manifest.shard_index, attempt);
  if (fault != ChaosFault::kNone)
    std::fprintf(stderr, "shard run: chaos: injecting %s (shard %d attempt %d)\n",
                 chaos_fault_name(fault), manifest.shard_index, attempt);
  if (fault == ChaosFault::kCrash) std::abort();  // mid-run, no output
  if (fault == ChaosFault::kHang) {
    ::sleep(3600);  // the supervisor's deadline kills us long before this
    return 1;
  }

  // Worker-side telemetry: the shard's cells trace on local pid 1; the
  // supervisor remaps the whole file onto its own pid lane when stitching.
  const TelemetrySinks sinks(telemetry_flags);
  const telemetry::ScopedMetrics scoped_metrics(sinks.registry.get());
  if (sinks.recorder != nullptr)
    sinks.recorder->set_process_name(
        1, "shard " + std::to_string(manifest.shard_index));
  CampaignOptions options;
  options.workers = static_cast<int>(workers);
  options.trace = sinks.recorder.get();
  options.trace_rounds = telemetry_flags.trace_rounds;
  const ShardResult result = run_shard(manifest, options);
  sinks.write(telemetry_flags);
  std::string text = result.to_json().dump() + "\n";
  if (fault == ChaosFault::kCorrupt) {
    // A torn write: the file exists but holds only half the document. The
    // supervisor must reject it on parse/fingerprint and retry.
    text = text.substr(0, text.size() / 2);
  }
  if (out_path.empty())
    std::cout << text;
  else
    write_text_file(out_path, text);
  if (fault == ChaosFault::kFlakyExit) return 43;  // valid output, bad exit

  int valid = 0;
  int failed = 0;
  for (const CellResult& cell : result.cells) {
    if (!cell.error.empty())
      ++failed;
    else if (cell.valid)
      ++valid;
  }
  std::fprintf(stderr,
               "shard run: shard %d/%d — %zu cells, valid=%d failed=%d, "
               "%.3fs on %d workers\n",
               result.shard_index, result.num_shards, result.cells.size(),
               valid, failed, result.elapsed_seconds, result.workers);
  const bool all_good =
      failed == 0 && valid == static_cast<int>(result.cells.size());
  return all_good ? 0 : 1;
}

int run_shard_merge(int argc, char** argv) {
  std::string plan_path;
  std::vector<std::string> result_paths;
  ReportFlags report_flags;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (report_flags.consume(arg)) {
    } else if (arg.rfind("--", 0) == 0) {
      return reject_argument("shard merge", arg);
    } else if (plan_path.empty()) {
      plan_path = arg;
    } else {
      result_paths.push_back(arg);
    }
  }
  if (plan_path.empty() || result_paths.empty()) return usage();
  const ShardPlan plan =
      ShardPlan::from_json(json::Value::parse(read_text_file(plan_path)));
  std::vector<ShardResult> results;
  results.reserve(result_paths.size());
  for (const std::string& path : result_paths)
    results.push_back(
        ShardResult::from_json(json::Value::parse(read_text_file(path))));
  const CampaignResult merged = merge_shard_results(plan, results);
  return report_campaign("shard merge", merged, report_flags);
}

int run_shard_command(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string verb = argv[2];
  if (verb == "plan") return run_shard_plan(argc, argv);
  if (verb == "run") return run_shard_run(argc, argv);
  if (verb == "merge") return run_shard_merge(argc, argv);
  return usage();
}

int run_sweep(int argc, char** argv) {
  std::vector<std::string> scenarios = {"gnp", "power-law", "geometric",
                                        "layered-forest", "caterpillar"};
  std::vector<std::string> algorithm_patterns = {"mis-uniform",
                                                 "mis-fastest"};
  ScenarioParams params;
  params.n = 200;
  int seeds = 2;
  CampaignFlags flags;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&arg] { return arg.substr(arg.find('=') + 1); };
    if (flags.consume(arg)) {
    } else if (arg == "--list") {
      const auto& registry = default_algorithm_registry();
      std::printf("scenario families:\n");
      for (const auto& name : default_scenarios().names())
        std::printf("  %-16s %s\n", name.c_str(),
                    default_scenarios().describe(name).c_str());
      std::printf("algorithms (selection accepts globs and 'all'):\n");
      for (const auto& name : registry.names()) {
        const AlgorithmSpec& spec = registry.spec(name);
        std::string knobs;
        for (const auto& [knob, knob_value] : spec.knobs) {
          char buffer[48];
          std::snprintf(buffer, sizeof(buffer), "%s%s=%g",
                        knobs.empty() ? "" : " ", knob.c_str(), knob_value);
          knobs += buffer;
        }
        std::printf("  %-26s problem=%-14s %s%s%s\n      %s\n", name.c_str(),
                    spec.problem.c_str(), knobs.empty() ? "" : "knobs:",
                    knobs.c_str(), knobs.empty() ? "" : ";",
                    spec.describe.c_str());
      }
      return 0;
    } else if (arg.rfind("--scenarios=", 0) == 0) {
      scenarios = split_csv(value());
    } else if (arg.rfind("--algorithms=", 0) == 0 ||
               arg.rfind("--algos=", 0) == 0) {
      algorithm_patterns = split_csv(value());
    } else if (arg.rfind("--n=", 0) == 0) {
      params.n = flag_number<NodeId>(arg, 0);
    } else if (arg.rfind("--a=", 0) == 0) {
      params.a = flag_number(arg, 0.0, 1e6);
    } else if (arg.rfind("--b=", 0) == 0) {
      params.b = flag_number(arg, 0.0, 1e6);
    } else if (arg.rfind("--seeds=", 0) == 0) {
      seeds = flag_number(arg, 1);
    } else {
      return reject_argument("sweep", arg);
    }
  }
  // Globs and 'all' expand against the registry; make_grid then validates
  // every key up front (one error listing all unknown keys).
  const auto algorithms =
      default_algorithm_registry().resolve(algorithm_patterns);
  GridOptions grid_options;
  grid_options.networks = flags.network.resolve();
  const auto cells =
      make_grid(scenarios, params, algorithms, seeds, grid_options);
  if (cells.empty()) {
    std::fprintf(stderr, "sweep: empty grid\n");
    return 1;
  }
  return run_cells("sweep", cells, flags);
}

int run_table1(int argc, char** argv) {
  ScenarioParams params;
  params.n = 256;
  int seeds = 2;
  bool smoke = false;
  bool n_given = false;
  bool seeds_given = false;
  CampaignFlags flags;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (flags.consume(arg)) {
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--n=", 0) == 0) {
      params.n = flag_number<NodeId>(arg, 0);
      n_given = true;
    } else if (arg.rfind("--seeds=", 0) == 0) {
      seeds = flag_number(arg, 1);
      seeds_given = true;
    } else {
      return reject_argument("table1", arg);
    }
  }
  // --smoke shrinks only the knobs the user did not set explicitly, so
  // flag order never changes the grid (and hence the --log grid hash).
  if (smoke) {
    if (!n_given) params.n = 64;
    if (!seeds_given) seeds = 1;
  }
  GridOptions grid_options;
  grid_options.networks = flags.network.resolve();
  const auto cells = make_table1_grid(params, seeds, grid_options);
  std::fprintf(stderr,
               "table1: %zu cells (%zu algorithms x their Table 1 "
               "families x %d seed%s, n=%d)\n",
               cells.size(), default_algorithm_registry().names().size(),
               seeds, seeds == 1 ? "" : "s", params.n);
  return run_cells("table1", cells, flags);
}

int run_ledger(int argc, char** argv) {
  if (argc > 2) return reject_argument("ledger", argv[2]);
  const std::vector<PaperLedgerRow> rows = compute_paper_ledger();
  std::cout << paper_ledger_json(rows);
  int invalid = 0;
  for (const PaperLedgerRow& row : rows)
    if (!row.valid || (row.has_baseline && !row.baseline_valid)) ++invalid;
  std::fprintf(stderr, "ledger: %zu rows, %d not checker-valid\n",
               rows.size(), invalid);
  return invalid == 0 ? 0 : 1;
}

void emit_stats(const EngineStats& stats, const char* what) {
  std::ostringstream line;
  line << what << " engine:";
  for_each_engine_stat([&](const EngineStatField& field, auto member) {
    line << ' ' << field.name << '=' << stats.*member;
  });
  line << " batch_occupancy=" << stats.batch_occupancy() << '\n';
  std::fputs(line.str().c_str(), stderr);
}

void emit(const Instance& instance, const std::vector<std::int64_t>& outputs,
          std::int64_t rounds, bool valid, const char* what) {
  for (NodeId v = 0; v < instance.num_nodes(); ++v) {
    std::printf("%lld %lld\n",
                static_cast<long long>(
                    instance.identities[static_cast<std::size_t>(v)]),
                static_cast<long long>(outputs[static_cast<std::size_t>(v)]));
  }
  std::fprintf(stderr, "%s: n=%d rounds=%lld valid=%s\n", what,
               instance.num_nodes(), static_cast<long long>(rounds),
               valid ? "yes" : "NO");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 1 && argv[0] != nullptr) g_self_path = argv[0];
  const std::pair<const char*, int (*)(int, char**)> verbs[] = {
      {"shard", run_shard_command},
      {"sweep", run_sweep},
      {"table1", run_table1},
      {"ledger", run_ledger}};
  for (const auto& [verb, run] : verbs) {
    if (argc < 2 || std::strcmp(argv[1], verb) != 0) continue;
    try {
      return run(argc, argv);
    } catch (const FlagError& e) {
      std::fprintf(stderr, "%s: %s\n", verb, e.what());
      return 2;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", verb, e.what());
      return 1;
    }
  }
  bool want_stats = false;
  NetworkFlags network_flags;
  TelemetryFlags telemetry_flags;
  std::string stats_json_path;
  const char* file = nullptr;
  const char* problem_arg = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool consumed = false;
    try {
      // Malformed --network=/--drop=/... values are rejected here with an
      // error naming the flag.
      consumed = network_flags.consume(arg) || telemetry_flags.consume(arg);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return usage();
    }
    if (consumed) {
    } else if (arg.rfind("--stats-json=", 0) == 0) {
      stats_json_path = arg.substr(arg.find('=') + 1);
    } else if (arg == "--stats") {
      want_stats = true;
    } else if (arg.rfind("--", 0) == 0) {
      return reject_argument(
          problem_arg != nullptr ? problem_arg : "unilocal_cli", arg);
    } else if (problem_arg == nullptr) {
      problem_arg = argv[i];
    } else if (file == nullptr) {
      file = argv[i];
    } else {
      return reject_argument(problem_arg, arg);
    }
  }
  if (problem_arg == nullptr) return usage();
  // Each problem is its Table 1 pipeline in the algorithm registry, run
  // and checked exactly as a campaign cell with seed 1 would be.
  const std::string problem = problem_arg;
  const std::pair<const char*, const char*> pipelines[] = {
      {"mis", "mis-uniform"},
      {"matching", "matching-uniform"},
      {"coloring", "coloring-theorem5"},
      {"rulingset2", "rulingset2-lv"}};
  const char* key = nullptr;
  for (const auto& [name, pipeline] : pipelines)
    if (problem == name) key = pipeline;
  if (key == nullptr) return usage();
  AlgorithmRunContext context;
  try {
    // Unknown presets ("--network=delay:pareto") and knobs without a
    // delayed network surface here, before any graph is read.
    context.network = network_flags.resolve_single();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return usage();
  }
  Graph g;
  try {
    if (file != nullptr) {
      std::ifstream in(file);
      if (!in) {
        std::fprintf(stderr, "cannot open %s\n", file);
        return 1;
      }
      g = read_edge_list(in);
    } else {
      g = read_edge_list(std::cin);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "parse error: %s\n", e.what());
    return 1;
  }
  const Instance instance =
      make_instance(std::move(g), IdentityScheme::kRandomPermuted, 1);

  // --stats-json folds a metrics snapshot into its document, so it wants a
  // registry even without --metrics.
  const TelemetrySinks sinks(telemetry_flags, !stats_json_path.empty());
  const telemetry::ScopedMetrics scoped_metrics(sinks.registry.get());
  std::unique_ptr<telemetry::ScopedTraceBinding> trace_scope;
  if (sinks.recorder != nullptr) {
    sinks.recorder->set_process_name(1, problem);
    telemetry::TraceBinding binding;
    binding.recorder = sinks.recorder.get();
    binding.trace_rounds = telemetry_flags.trace_rounds;
    trace_scope = std::make_unique<telemetry::ScopedTraceBinding>(binding);
  }
  CellOutcome outcome;
  try {
    const AlgorithmRegistry& registry = default_algorithm_registry();
    outcome = registry.run(key, instance, context);
    emit(instance, outcome.outputs, outcome.rounds,
         outcome.solved &&
             registry.problem(key).check(instance, outcome.outputs),
         problem.c_str());
    if (want_stats) emit_stats(outcome.stats, problem.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", problem.c_str(), e.what());
    return 1;
  }
  try {
    sinks.write(telemetry_flags);
    if (!stats_json_path.empty()) {
      // One document: the run's EngineStats merged with the metrics
      // snapshot (the same registry the engine reported into).
      json::Value doc = json::Value::object();
      doc.set("problem", json::Value::string(problem));
      doc.set("rounds", json::Value::number(outcome.rounds));
      doc.set("engine", engine_stats_to_json(outcome.stats));
      const json::Value metrics_doc = sinks.registry->to_json();
      doc.set("metrics", *metrics_doc.find("metrics"));
      write_text_file(stats_json_path, doc.dump() + "\n");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "telemetry: %s\n", e.what());
    return 1;
  }
  return 0;
}
