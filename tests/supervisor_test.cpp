// The shard supervisor (src/runtime/supervisor.h): injected crash /
// hang / corrupt / flaky-exit schedules are recovered by retry, timeout
// kill, and speculation to a merged campaign whose canonical JSON is
// byte-identical to a fault-free single-process run; retries-exhausted
// and partial-merge paths name every missing shard and cell in one
// report; a checkpoint journal resumes a killed campaign — skipping
// completed shards entirely — to the same bytes; and the small helpers
// (shell_quote, describe_wait_status, chaos parsing/drawing, journal
// reading) hold their contracts at the edges.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/runtime/run_log.h"
#include "src/runtime/shard.h"
#include "src/runtime/supervisor.h"

namespace unilocal {
namespace {

std::vector<CampaignCell> tiny_grid() {
  ScenarioParams params;
  params.n = 32;
  return make_grid({"path", "gnp", "caterpillar"}, params,
                   {"mis-uniform", "luby-mis"}, 1, 7);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(static_cast<bool>(out)) << path;
  out << text;
}

/// A scratch directory per test, removed on destruction.
struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl = "/tmp/unilocal-supervisor-test-XXXXXX";
    std::vector<char> buffer(tmpl.begin(), tmpl.end());
    buffer.push_back('\0');
    if (mkdtemp(buffer.data()) == nullptr)
      throw std::runtime_error("mkdtemp failed");
    path = buffer.data();
  }
  ~TempDir() { std::system(("rm -rf " + shell_quote(path)).c_str()); }
};

/// The harness every supervision test shares: a plan over the tiny grid,
/// golden ShardResults computed in-process (what an honest worker would
/// write), and the fault-free single-process canonical JSON to diff
/// against. Worker processes in these tests are /bin/sh scripts that copy
/// (or mangle) the goldens — the engine work happened once, up front.
struct Harness {
  TempDir dir;
  std::vector<CampaignCell> cells = tiny_grid();
  ShardPlan plan;
  std::vector<std::string> golden_paths;
  std::string single_process_canonical;

  explicit Harness(int num_shards) {
    plan = plan_shards(cells, num_shards, ShardPolicy::kCostBalanced);
    for (const ShardManifest& manifest : plan.shards) {
      const ShardResult result = run_shard(manifest, {});
      const std::string path = dir.path + "/golden-" +
                               std::to_string(manifest.shard_index) + ".json";
      write_file(path, result.to_json().dump() + "\n");
      golden_paths.push_back(path);
    }
    CampaignResult single = run_campaign(cells, {});
    std::ostringstream out;
    CampaignJsonOptions canonical;
    canonical.canonical = true;
    write_campaign_json(out, single, canonical);
    single_process_canonical = out.str();
  }

  SupervisorOptions options() const {
    SupervisorOptions opts;
    opts.scratch_dir = dir.path;
    opts.backoff_base_seconds = 0.001;  // tests should not sleep for real
    opts.backoff_max_seconds = 0.002;
    return opts;
  }

  /// A /bin/sh worker: runs `script` with $1 = this shard's golden file
  /// and $2 = the attempt's result path.
  WorkerCommand sh_worker(
      const std::function<std::string(const ShardAttemptContext&)>& script)
      const {
    return [this, script](const ShardAttemptContext& context) {
      return std::vector<std::string>{
          "/bin/sh", "-c", script(context), "worker",
          golden_paths[static_cast<std::size_t>(context.shard_index)],
          context.result_path};
    };
  }

  std::string canonical_json(const CampaignResult& merged) const {
    std::ostringstream out;
    CampaignJsonOptions canonical;
    canonical.canonical = true;
    write_campaign_json(out, merged, canonical);
    return out.str();
  }
};

// --- shell_quote -------------------------------------------------------------

TEST(ShellQuote, QuotesEmptyMetacharactersAndQuotes) {
  EXPECT_EQ(shell_quote(""), "''");  // an unquoted empty argument vanishes
  EXPECT_EQ(shell_quote("plain"), "'plain'");
  EXPECT_EQ(shell_quote("a b;c&d|e"), "'a b;c&d|e'");
  EXPECT_EQ(shell_quote("$(rm -rf /)"), "'$(rm -rf /)'");
  EXPECT_EQ(shell_quote("it's"), "'it'\\''s'");
  EXPECT_EQ(shell_quote("'"), "''\\'''");
  EXPECT_THROW(shell_quote(std::string("a\0b", 3)), std::runtime_error);
}

TEST(ShellQuote, RoundTripsThroughARealShell) {
  TempDir dir;
  const std::string nasty = "a b'c\"d$e`f;g&h|i>j  'k";
  const std::string out_path = dir.path + "/echoed";
  const int status = std::system(("printf %s " + shell_quote(nasty) + " > " +
                                  shell_quote(out_path))
                                     .c_str());
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  EXPECT_EQ(read_file(out_path), nasty);
}

// --- describe_wait_status ----------------------------------------------------

TEST(DescribeWaitStatus, DistinguishesExitFromSignalOnRealStatuses) {
  // Real wait statuses from real children — no hand-rolled encodings.
  int status = std::system("exit 7");
  ASSERT_NE(status, -1);
  EXPECT_EQ(describe_wait_status(status), "exited 7");
  status = std::system("kill -KILL $$");
  ASSERT_NE(status, -1);
  EXPECT_EQ(describe_wait_status(status), "killed by signal 9");
  status = std::system("exit 0");
  ASSERT_NE(status, -1);
  EXPECT_EQ(describe_wait_status(status), "exited 0");
}

// --- chaos parsing and drawing -----------------------------------------------

TEST(ChaosSpec, ParsesRoundTripsAndRejects) {
  const ChaosOptions options =
      parse_chaos_spec("crash:0.3,corrupt:0.2,flaky-exit:0.1");
  EXPECT_DOUBLE_EQ(options.crash, 0.3);
  EXPECT_DOUBLE_EQ(options.hang, 0.0);
  EXPECT_DOUBLE_EQ(options.corrupt, 0.2);
  EXPECT_DOUBLE_EQ(options.flaky_exit, 0.1);
  EXPECT_TRUE(options.any());
  // name → parse → name is a fixed point.
  EXPECT_EQ(chaos_spec_name(parse_chaos_spec(chaos_spec_name(options))),
            chaos_spec_name(options));
  EXPECT_FALSE(ChaosOptions{}.any());
  EXPECT_EQ(chaos_spec_name(ChaosOptions{}), "");

  EXPECT_THROW(parse_chaos_spec("explode:0.5"), std::runtime_error);
  EXPECT_THROW(parse_chaos_spec("crash:1.5"), std::runtime_error);
  EXPECT_THROW(parse_chaos_spec("crash:banana"), std::runtime_error);
  EXPECT_THROW(parse_chaos_spec("crash:0.6,hang:0.6"), std::runtime_error);
  EXPECT_THROW(parse_chaos_spec("crash"), std::runtime_error);
}

TEST(ChaosDraw, IsDeterministicPerShardAttemptAndSeed) {
  ChaosOptions options = parse_chaos_spec("crash:0.25,hang:0.25,corrupt:0.25");
  options.seed = 42;
  std::set<ChaosFault> seen;
  for (int shard = 0; shard < 8; ++shard) {
    for (int attempt = 1; attempt <= 8; ++attempt) {
      const ChaosFault first = draw_chaos_fault(options, shard, attempt);
      EXPECT_EQ(draw_chaos_fault(options, shard, attempt), first)
          << "draw must be a pure function of (options, shard, attempt)";
      seen.insert(first);
    }
  }
  // 64 draws at 75% total fault probability: several kinds must appear.
  EXPECT_GE(seen.size(), 3u);

  ChaosOptions reseeded = options;
  reseeded.seed = 43;
  bool any_difference = false;
  for (int shard = 0; shard < 8 && !any_difference; ++shard)
    for (int attempt = 1; attempt <= 8 && !any_difference; ++attempt)
      any_difference = draw_chaos_fault(reseeded, shard, attempt) !=
                       draw_chaos_fault(options, shard, attempt);
  EXPECT_TRUE(any_difference) << "a different seed must move the schedule";

  ChaosOptions certain;
  certain.crash = 1.0;
  for (int attempt = 1; attempt <= 4; ++attempt)
    EXPECT_EQ(draw_chaos_fault(certain, 0, attempt), ChaosFault::kCrash);
  EXPECT_EQ(draw_chaos_fault(ChaosOptions{}, 0, 1), ChaosFault::kNone);
}

// --- partial merge -----------------------------------------------------------

TEST(PartialMerge, NamesEveryMissingShardAndCellInOneReport) {
  Harness harness(4);
  std::vector<ShardResult> results;
  for (const std::string& path : harness.golden_paths)
    results.push_back(ShardResult::from_json(json::Value::parse(
        read_file(path))));
  // Drop shards 1 and 3 — strict merge throws naming both, partial merge
  // fills their cells with errors and reports them.
  std::vector<ShardResult> partial_results = {results[0], results[2]};
  try {
    merge_shard_results(harness.plan, partial_results);
    FAIL() << "strict merge must reject missing shards";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1"), std::string::npos);
    EXPECT_NE(what.find("3"), std::string::npos);
  }
  PartialMergeReport report;
  const CampaignResult merged =
      merge_shard_results_partial(harness.plan, partial_results, report);
  EXPECT_FALSE(report.complete());
  EXPECT_EQ(report.missing_shards, (std::vector<int>{1, 3}));
  std::size_t expected_missing =
      harness.plan.shards[1].cells.size() + harness.plan.shards[3].cells.size();
  EXPECT_EQ(report.missing_cell_indices.size(), expected_missing);
  const std::string described = report.describe();
  EXPECT_NE(described.find("missing shards [1, 3]"), std::string::npos)
      << described;
  EXPECT_NE(described.find(std::to_string(expected_missing) + " cells"),
            std::string::npos)
      << described;
  // The merged result still covers the whole grid; missing cells carry an
  // error naming their shard and count as failed.
  ASSERT_EQ(merged.cells.size(), harness.cells.size());
  EXPECT_EQ(merged.failed, static_cast<int>(expected_missing));
  std::set<std::size_t> missing(report.missing_cell_indices.begin(),
                                report.missing_cell_indices.end());
  for (std::size_t i = 0; i < merged.cells.size(); ++i) {
    if (missing.count(i) != 0)
      EXPECT_NE(merged.cells[i].error.find("produced no accepted result"),
                std::string::npos);
    else
      EXPECT_TRUE(merged.cells[i].error.empty());
  }
  // A complete set degrades to the strict merge, bit-identically.
  PartialMergeReport complete_report;
  const CampaignResult full =
      merge_shard_results_partial(harness.plan, results, complete_report);
  EXPECT_TRUE(complete_report.complete());
  EXPECT_EQ(harness.canonical_json(full), harness.single_process_canonical);
}

// --- the checkpoint journal --------------------------------------------------

TEST(Journal, ToleratesTruncationSkipsGarbageAndRejectsForeignPlans) {
  Harness harness(3);
  const std::string path = harness.dir.path + "/journal.jsonl";
  EXPECT_FALSE(read_supervisor_journal(path, harness.plan).found);

  json::Value header = json::Value::object();
  header.set("format",
             json::Value::string("unilocal-supervisor-journal-v1"));
  header.set("plan_grid_hash",
             json::Value::string(std::to_string(harness.plan.grid_hash)));
  header.set("num_shards", json::Value::number(std::int64_t{3}));
  std::string text = header.dump() + "\n";
  for (int s : {0, 2}) {
    json::Value entry = json::Value::object();
    entry.set("shard", json::Value::number(std::int64_t{s}));
    entry.set("attempt", json::Value::number(std::int64_t{1}));
    entry.set("result", json::Value::parse(read_file(
                            harness.golden_paths[static_cast<std::size_t>(s)])));
    text += entry.dump() + "\n";
  }
  text += "this line is not JSON at all\n";
  text += "{\"shard\":1,\"attempt\":1,\"result\":{\"torn";  // killed mid-append
  write_file(path, text);

  const SupervisorJournal journal = read_supervisor_journal(path, harness.plan);
  EXPECT_TRUE(journal.found);
  ASSERT_EQ(journal.completed.size(), 2u);
  EXPECT_EQ(journal.completed[0].shard_index, 0);
  EXPECT_EQ(journal.completed[1].shard_index, 2);

  // A journal whose header proves it belongs to a DIFFERENT plan throws.
  ShardPlan other = plan_shards(harness.cells, 2, ShardPolicy::kRoundRobin);
  other.grid_hash ^= 1;
  EXPECT_THROW(read_supervisor_journal(path, other), std::runtime_error);

  // An unparseable header is treated as no journal at all.
  write_file(path, "not a header\n");
  EXPECT_FALSE(read_supervisor_journal(path, harness.plan).found);
}

// --- supervised execution ----------------------------------------------------

TEST(Supervise, FaultFreeRunMatchesSingleProcessBytes) {
  Harness harness(4);
  const SupervisorReport report = supervise_shards(
      harness.plan, harness.options(),
      harness.sh_worker([](const ShardAttemptContext&) {
        return std::string("cp \"$1\" \"$2\"");
      }));
  EXPECT_TRUE(report.all_completed());
  EXPECT_EQ(report.attempts, 4);
  EXPECT_EQ(report.retries, 0);
  const CampaignResult merged =
      merge_shard_results(harness.plan, report.results);
  EXPECT_EQ(harness.canonical_json(merged), harness.single_process_canonical);
}

TEST(Supervise, RecoversCrashCorruptFlakyAndInvalidToIdenticalBytes) {
  Harness harness(4);
  // Every shard fails its first attempt a different way; attempt 2 is
  // honest. crash = die without output; corrupt = torn write (half the
  // golden); flaky = valid output but nonzero exit; invalid = well-formed
  // JSON that is not this shard's result (fingerprint rejection).
  // Speculation stays off: under load a slow fork/exec would earn a
  // speculative extra attempt and break the exact count below (speculation
  // has its own test).
  SupervisorOptions options = harness.options();
  options.speculate = false;
  const SupervisorReport report = supervise_shards(
      harness.plan, options,
      harness.sh_worker([](const ShardAttemptContext& context) {
        if (context.attempt >= 2) return std::string("cp \"$1\" \"$2\"");
        switch (context.shard_index % 4) {
          case 0:
            return std::string("echo crash-injected >&2; exit 134");
          case 1:
            return std::string(
                "size=$(wc -c < \"$1\"); head -c $((size / 2)) \"$1\" > "
                "\"$2\"");
          case 2:
            return std::string("cp \"$1\" \"$2\"; exit 43");
          default:
            return std::string("echo '{\"not\":\"a shard result\"}' > \"$2\"");
        }
      }));
  EXPECT_TRUE(report.all_completed());
  EXPECT_EQ(report.attempts, 8);  // every shard: one failure + one success
  EXPECT_EQ(report.retries, 4);
  ASSERT_EQ(report.rows.size(), 4u);
  EXPECT_EQ(report.rows[0].log[0].outcome, "exited 134");
  EXPECT_NE(report.rows[1].log[0].outcome.find("invalid result"),
            std::string::npos);
  EXPECT_EQ(report.rows[2].log[0].outcome, "exited 43");
  EXPECT_NE(report.rows[3].log[0].outcome.find("invalid result"),
            std::string::npos);
  const CampaignResult merged =
      merge_shard_results(harness.plan, report.results);
  EXPECT_EQ(harness.canonical_json(merged), harness.single_process_canonical);
}

TEST(Supervise, KillsHangsAtTheDeadlineAndRetries) {
  Harness harness(2);
  SupervisorOptions options = harness.options();
  options.base_timeout_seconds = 0.3;
  options.timeout_seconds_per_cost = 0.0;
  const SupervisorReport report = supervise_shards(
      harness.plan, options,
      harness.sh_worker([](const ShardAttemptContext& context) {
        if (context.shard_index == 0 && context.attempt == 1)
          return std::string("sleep 30");  // hangs well past the deadline
        return std::string("cp \"$1\" \"$2\"");
      }));
  EXPECT_TRUE(report.all_completed());
  EXPECT_EQ(report.rows[0].attempts, 2);
  EXPECT_NE(report.rows[0].log[0].outcome.find("timeout after"),
            std::string::npos)
      << report.rows[0].log[0].outcome;
  EXPECT_LT(report.rows[0].log[0].seconds, 5.0)
      << "the hang must be killed at the deadline, not waited out";
  const CampaignResult merged =
      merge_shard_results(harness.plan, report.results);
  EXPECT_EQ(harness.canonical_json(merged), harness.single_process_canonical);
}

TEST(Supervise, ExhaustedRetriesNameTheShardAndItsHistory) {
  Harness harness(3);
  SupervisorOptions options = harness.options();
  options.max_attempts = 2;
  const SupervisorReport report = supervise_shards(
      harness.plan, options,
      harness.sh_worker([](const ShardAttemptContext& context) {
        if (context.shard_index == 1)
          return std::string("echo shard-one-always-dies >&2; exit 9");
        return std::string("cp \"$1\" \"$2\"");
      }));
  EXPECT_FALSE(report.all_completed());
  EXPECT_EQ(report.failed_shards, (std::vector<int>{1}));
  EXPECT_EQ(report.shards_failed, 1);
  EXPECT_EQ(report.rows[1].attempts, 2);
  EXPECT_EQ(report.rows[1].retries, 1);
  const std::string summary = report.failure_summary();
  EXPECT_NE(summary.find("shard 1 failed after 2 attempts"),
            std::string::npos)
      << summary;
  EXPECT_NE(summary.find("exited 9"), std::string::npos) << summary;
  EXPECT_NE(summary.find("shard-one-always-dies"), std::string::npos)
      << "the worker's stderr tail must be quoted: " << summary;
  // Strict merge refuses; partial merge names shard 1's every cell.
  EXPECT_THROW(merge_shard_results(harness.plan, report.results),
               std::runtime_error);
  PartialMergeReport partial;
  const CampaignResult merged =
      merge_shard_results_partial(harness.plan, report.results, partial);
  EXPECT_EQ(partial.missing_shards, (std::vector<int>{1}));
  EXPECT_EQ(partial.missing_cell_indices.size(),
            harness.plan.shards[1].cells.size());
  EXPECT_EQ(merged.failed, static_cast<int>(partial.missing_cell_indices.size()));
}

TEST(Supervise, ResumesFromJournalWithoutLaunchingCompletedShards) {
  Harness harness(4);
  SupervisorOptions options = harness.options();
  options.journal_path = harness.dir.path + "/journal.jsonl";
  const SupervisorReport first = supervise_shards(
      harness.plan, options,
      harness.sh_worker([](const ShardAttemptContext&) {
        return std::string("cp \"$1\" \"$2\"");
      }));
  ASSERT_TRUE(first.all_completed());

  // Second supervision with the same journal: every shard must come from
  // the journal — the worker proves no process ran by dying if launched.
  const SupervisorReport resumed = supervise_shards(
      harness.plan, options,
      harness.sh_worker([](const ShardAttemptContext&) {
        return std::string("echo must-not-run >&2; exit 99");
      }));
  EXPECT_TRUE(resumed.all_completed());
  EXPECT_EQ(resumed.attempts, 0);
  EXPECT_EQ(resumed.shards_from_journal, 4);
  for (const ShardSupervision& sup : resumed.rows)
    EXPECT_TRUE(sup.from_journal);
  // No shard launched a process, so there are no attempt times to rank.
  EXPECT_EQ(resumed.attempt_seconds.max, 0.0);
  const CampaignResult merged =
      merge_shard_results(harness.plan, resumed.results);
  EXPECT_EQ(harness.canonical_json(merged), harness.single_process_canonical);

  // A partially-filled journal resumes the missing shards only. The
  // journal is in acceptance order, which racing workers permute, so keep
  // the header plus the lines whose "shard" field is 0 or 1.
  std::ifstream in(options.journal_path);
  std::string line, partial_text;
  ASSERT_TRUE(std::getline(in, line));
  partial_text += line + "\n";
  int kept = 0;
  while (std::getline(in, line)) {
    if (json::Value::parse(line).at("shard").as_i64() > 1) continue;
    partial_text += line + "\n";
    ++kept;
  }
  ASSERT_EQ(kept, 2);
  const std::string partial_path = harness.dir.path + "/partial.jsonl";
  write_file(partial_path, partial_text);
  SupervisorOptions partial_options = harness.options();
  partial_options.journal_path = partial_path;
  const SupervisorReport partial = supervise_shards(
      harness.plan, partial_options,
      harness.sh_worker([](const ShardAttemptContext& context) {
        if (context.shard_index <= 1)
          return std::string("echo journaled-shard-relaunched >&2; exit 99");
        return std::string("cp \"$1\" \"$2\"");
      }));
  EXPECT_TRUE(partial.all_completed());
  EXPECT_EQ(partial.shards_from_journal, 2);
  EXPECT_EQ(partial.attempts, 2);
  EXPECT_EQ(partial.attempt_seconds.max,
            std::max(partial.rows[2].total_attempt_seconds,
                     partial.rows[3].total_attempt_seconds));
  const CampaignResult remerged =
      merge_shard_results(harness.plan, partial.results);
  EXPECT_EQ(harness.canonical_json(remerged),
            harness.single_process_canonical);
}

TEST(Supervise, JournalKeepsTheAcceptedAttemptsMetrics) {
  // Each worker writes a one-counter snapshot naming its shard and
  // attempt; the report and the journal keep the accepted attempt's.
  Harness harness(3);
  SupervisorOptions options = harness.options();
  options.journal_path = harness.dir.path + "/journal.jsonl";
  const auto snapshot = [](const ShardAttemptContext& context) {
    return "{\"metrics\":[{\"name\":\"test.shard\",\"kind\":\"counter\","
           "\"value\":" +
           std::to_string(100 * context.shard_index + context.attempt) +
           "}]}";
  };
  const SupervisorReport first = supervise_shards(
      harness.plan, options,
      harness.sh_worker([&](const ShardAttemptContext& context) {
        // Shard 1's first attempt writes its metrics, then fails.
        const std::string metrics = "printf '%s' " +
                                    shell_quote(snapshot(context)) + " > " +
                                    shell_quote(context.metrics_path) + "; ";
        if (context.shard_index == 1 && context.attempt == 1)
          return metrics + "exit 3";
        return metrics + "cp \"$1\" \"$2\"";
      }));
  ASSERT_TRUE(first.all_completed());
  ASSERT_EQ(first.metrics.size(), 3u);
  const auto value = [](const json::Value& doc) {
    return doc.at("metrics").as_array().at(0).at("value").as_i64();
  };
  EXPECT_EQ(value(first.metrics[0]), 1);
  EXPECT_EQ(value(first.metrics[1]), 102);
  EXPECT_EQ(value(first.metrics[2]), 201);

  const WorkerCommand must_not_run =
      harness.sh_worker([](const ShardAttemptContext&) {
        return std::string("echo must-not-run >&2; exit 99");
      });
  const SupervisorReport resumed =
      supervise_shards(harness.plan, options, must_not_run);
  EXPECT_EQ(resumed.shards_from_journal, 3);
  ASSERT_EQ(resumed.metrics.size(), 3u);
  for (std::size_t s = 0; s < 3; ++s)
    EXPECT_EQ(resumed.metrics[s].dump(), first.metrics[s].dump()) << s;

  // A journal line without a snapshot (an older journal) still resumes.
  std::ifstream in(options.journal_path);
  std::string line, bare_text;
  ASSERT_TRUE(std::getline(in, line));
  bare_text += line + "\n";
  while (std::getline(in, line)) {
    const json::Value entry = json::Value::parse(line);
    ASSERT_NE(entry.find("metrics"), nullptr);
    json::Value bare = json::Value::object();
    for (const char* key : {"shard", "attempt", "result"})
      bare.set(key, entry.at(key));
    bare_text += bare.dump() + "\n";
  }
  SupervisorOptions bare_options = harness.options();
  bare_options.journal_path = harness.dir.path + "/bare.jsonl";
  write_file(bare_options.journal_path, bare_text);
  const SupervisorReport bare =
      supervise_shards(harness.plan, bare_options, must_not_run);
  EXPECT_TRUE(bare.all_completed());
  EXPECT_EQ(bare.shards_from_journal, 3);
  for (const json::Value& doc : bare.metrics) EXPECT_TRUE(doc.is_null());
  EXPECT_EQ(harness.canonical_json(
                merge_shard_results(harness.plan, bare.results)),
            harness.single_process_canonical);
}

TEST(Supervise, SpeculativelyDuplicatesStragglersFirstAcceptWins) {
  Harness harness(5);
  SupervisorOptions options = harness.options();
  options.straggler_min_samples = 2;
  options.straggler_factor = 2.0;
  const SupervisorReport report = supervise_shards(
      harness.plan, options,
      harness.sh_worker([](const ShardAttemptContext& context) {
        // Shard 4's first attempt is a straggler: it would succeed, in 30
        // seconds. The fleet's observed rate makes the supervisor launch
        // a speculative duplicate long before that; the duplicate's copy
        // wins and the straggler is killed.
        if (context.shard_index == 4 && context.attempt == 1)
          return std::string("sleep 30; cp \"$1\" \"$2\"");
        return std::string("cp \"$1\" \"$2\"");
      }));
  EXPECT_TRUE(report.all_completed());
  EXPECT_GE(report.stragglers_respawned, 1);
  EXPECT_GE(report.rows[4].attempts, 2);
  bool superseded = false;
  for (const ShardAttemptRecord& record : report.rows[4].log)
    superseded = superseded || record.outcome == "superseded";
  EXPECT_TRUE(superseded) << "the losing attempt must be reaped as superseded";
  EXPECT_LT(report.elapsed_seconds, 20.0)
      << "speculation must not wait out the straggler";
  const CampaignResult merged =
      merge_shard_results(harness.plan, report.results);
  EXPECT_EQ(harness.canonical_json(merged), harness.single_process_canonical);
}

// --- telemetry writers -------------------------------------------------------

TEST(SupervisionTelemetry, InJsonButNeverInCanonicalAndCsvListsShards) {
  Harness harness(2);
  SupervisorOptions options = harness.options();
  options.base_timeout_seconds = 1.0;
  options.timeout_seconds_per_cost = 0.0;
  const SupervisorReport report = supervise_shards(
      harness.plan, options,
      harness.sh_worker([](const ShardAttemptContext& context) {
        if (context.shard_index == 0 && context.attempt == 1)
          return std::string("sleep 30");  // killed at the deadline
        return std::string("cp \"$1\" \"$2\"");
      }));
  ASSERT_TRUE(report.all_completed());
  // The report carries its own totals, computed in supervise_shards.
  EXPECT_EQ(report.shards, static_cast<int>(harness.plan.shards.size()));
  EXPECT_EQ(report.attempts, 3);
  EXPECT_EQ(report.retries, 1);
  int killed = 0;
  int not_completed = 0;
  std::vector<double> launched_seconds;
  for (const ShardSupervision& row : report.rows) {
    for (const ShardAttemptRecord& record : row.log)
      if (record.killed) ++killed;
    if (!row.completed) ++not_completed;
    if (!row.from_journal) launched_seconds.push_back(row.total_attempt_seconds);
  }
  EXPECT_EQ(killed, 1);
  EXPECT_EQ(report.attempts_killed, killed);
  EXPECT_EQ(report.shards_failed, not_completed);
  const CampaignPercentiles expected =
      campaign_percentiles(std::move(launched_seconds));
  EXPECT_EQ(report.attempt_seconds.p50, expected.p50);
  EXPECT_EQ(report.attempt_seconds.max, expected.max);
  EXPECT_GT(report.attempt_seconds.max, 0.0);

  CampaignResult merged = merge_shard_results(harness.plan, report.results);
  merged.supervision = report;

  std::ostringstream full;
  write_campaign_json(full, merged);
  EXPECT_NE(full.str().find("\"supervision\""), std::string::npos);
  EXPECT_NE(full.str().find("\"retries\":1"), std::string::npos);

  // Canonical mode must stay byte-identical to the unsupervised run —
  // supervision is scheduling history, not grid identity.
  EXPECT_EQ(harness.canonical_json(merged), harness.single_process_canonical);
  EXPECT_EQ(harness.canonical_json(merged).find("supervision"),
            std::string::npos);

  std::ostringstream csv;
  write_supervision_csv(csv, merged.supervision);
  EXPECT_NE(csv.str().find("shard,completed,from_journal,attempts,retries"),
            std::string::npos);
  EXPECT_NE(csv.str().find("\n0,1,0,2,1,"), std::string::npos) << csv.str();
  EXPECT_NE(csv.str().find("\n1,1,0,1,0,"), std::string::npos) << csv.str();
}

}  // namespace
}  // namespace unilocal
