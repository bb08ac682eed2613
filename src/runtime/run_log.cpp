#include "src/runtime/run_log.h"

#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "src/util/json.h"

namespace unilocal {

namespace {

void hash_word(std::uint64_t& hash, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (word >> (8 * byte)) & 0xffu;
    hash *= 1099511628211ULL;
  }
}

void hash_string(std::uint64_t& hash, const std::string& text) {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  hash_word(hash, text.size());  // length-delimited: "ab"+"c" != "a"+"bc"
}

CampaignPercentiles parse_percentiles(const json::Value& value) {
  CampaignPercentiles p;
  p.p50 = value.at("p50").as_double();
  p.p90 = value.at("p90").as_double();
  p.p99 = value.at("p99").as_double();
  p.max = value.at("max").as_double();
  return p;
}

bool parse_entry(const std::string& line, RunLogEntry& entry) {
  try {
    const json::Value root = json::Value::parse(line);
    entry.date = root.at("date").as_string();
    entry.grid_hash = json::u64_field(root.at("grid_hash"));
    entry.workers = json::int_field<int>(root, "workers");
    entry.cells = json::int_field<int>(root, "cells");
    entry.solved = json::int_field<int>(root, "solved");
    entry.valid = json::int_field<int>(root, "valid");
    entry.failed = json::int_field<int>(root, "failed");
    entry.elapsed_seconds = root.at("elapsed_seconds").as_double();
    entry.cells_per_second = root.at("cells_per_second").as_double();
    // Percentile blocks grew with the engine counters; an older line
    // lacks the newer ones, which read as zero.
    for_each_campaign_percentile(
        entry.percentiles,
        [&](const char* key, bool, CampaignPercentiles& p) {
          if (const json::Value* value = root.find(key))
            p = parse_percentiles(*value);
        });
    if (const json::Value* sup = root.find("supervision")) {
      SupervisionSummary& summary = entry.supervision;
      summary.shards = json::int_field<int>(*sup, "shards");
      summary.attempts = json::int_field<int>(*sup, "attempts");
      summary.retries = json::int_field<int>(*sup, "retries");
      summary.requeues = json::int_field<int>(*sup, "requeues");
      summary.stragglers_respawned =
          json::int_field<int>(*sup, "stragglers_respawned");
      summary.shards_from_journal =
          json::int_field<int>(*sup, "shards_from_journal");
      summary.shards_failed = json::int_field<int>(*sup, "shards_failed");
      if (sup->find("attempts_killed") != nullptr)
        summary.attempts_killed = json::int_field<int>(*sup, "attempts_killed");
      summary.attempt_seconds = parse_percentiles(sup->at("attempt_seconds"));
    }
  } catch (...) {
    return false;
  }
  return true;
}

double ratio(double current, double baseline) {
  return baseline > 0.0 ? current / baseline : 0.0;
}

}  // namespace

std::uint64_t campaign_grid_hash(const std::vector<CampaignCell>& cells) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const CampaignCell& cell : cells) {
    hash_string(hash, cell.scenario);
    hash_word(hash, static_cast<std::uint64_t>(cell.params.n));
    // Knob doubles hashed bit-exactly (they come from CLI parsing, not
    // arithmetic, so bit equality is the right notion of "same grid").
    double a = cell.params.a;
    double b = cell.params.b;
    std::uint64_t word = 0;
    static_assert(sizeof(word) == sizeof(a));
    std::memcpy(&word, &a, sizeof(word));
    hash_word(hash, word);
    std::memcpy(&word, &b, sizeof(word));
    hash_word(hash, word);
    hash_string(hash, cell.algorithm);
    hash_word(hash, cell.seed);
    hash_word(hash, static_cast<std::uint64_t>(cell.identities));
    // The delivery layer is part of the grid's identity: the same cells
    // under a different network (or different fault knobs) are a different
    // experiment, so they must never share a perf baseline.
    hash_string(hash, network_spec_name(cell.network));
    for (const double knob : {cell.network.drop, cell.network.duplicate,
                              cell.network.crash, cell.network.late}) {
      std::uint64_t word = 0;
      std::memcpy(&word, &knob, sizeof(word));
      hash_word(hash, word);
    }
    hash_word(hash, static_cast<std::uint64_t>(cell.network.max_delay));
    hash_word(hash, static_cast<std::uint64_t>(cell.network.late_by));
  }
  return hash;
}

std::uint64_t campaign_grid_hash(const CampaignResult& result) {
  std::vector<CampaignCell> cells;
  cells.reserve(result.cells.size());
  for (const CellResult& cell : result.cells) cells.push_back(cell.cell);
  return campaign_grid_hash(cells);
}

RunLogEntry make_run_log_entry(const CampaignResult& result) {
  RunLogEntry entry;
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  gmtime_r(&now, &utc);
  char buffer[32];
  std::strftime(buffer, sizeof(buffer), "%Y-%m-%dT%H:%M:%SZ", &utc);
  entry.date = buffer;
  entry.grid_hash = campaign_grid_hash(result);
  entry.workers = result.workers;
  entry.cells = static_cast<int>(result.cells.size());
  entry.solved = result.solved;
  entry.valid = result.valid;
  entry.failed = result.failed;
  entry.elapsed_seconds = result.elapsed_seconds;
  entry.cells_per_second = result.cells_per_second;
  entry.percentiles = result.percentiles;
  if (result.supervision.shards > 0) {
    entry.supervision = result.supervision;
    entry.supervision.rows.clear();
  }
  return entry;
}

void append_run_log(const std::string& path, const CampaignResult& result) {
  const RunLogEntry entry = make_run_log_entry(result);
  std::ofstream out(path, std::ios::app);
  if (!out) throw std::runtime_error("cannot open run log: " + path);
  out << "{\"date\":\"" << entry.date << "\",\"grid_hash\":\""
      << entry.grid_hash << "\",\"workers\":" << entry.workers
      << ",\"cells\":" << entry.cells << ",\"solved\":" << entry.solved
      << ",\"valid\":" << entry.valid << ",\"failed\":" << entry.failed
      << ",\"elapsed_seconds\":" << entry.elapsed_seconds
      << ",\"cells_per_second\":" << entry.cells_per_second << ',';
  write_percentile_set_json(out, entry.percentiles, false);
  // Supervision block only for supervised campaigns — entries from plain
  // runs stay byte-for-byte in the pre-supervisor format.
  if (entry.supervision.shards > 0) {
    out << ",\"supervision\":{";
    write_supervision_totals_json(out, entry.supervision);
    out << '}';
  }
  out << "}\n";
}

std::vector<RunLogEntry> read_run_log(const std::string& path) {
  std::vector<RunLogEntry> entries;
  std::ifstream in(path);
  if (!in) return entries;
  std::string line;
  while (std::getline(in, line)) {
    RunLogEntry entry;
    if (parse_entry(line, entry)) entries.push_back(std::move(entry));
  }
  return entries;
}

RunLogComparison compare_run_log(const std::string& path,
                                 const CampaignResult& result) {
  RunLogComparison comparison;
  const std::uint64_t hash = campaign_grid_hash(result);
  for (const RunLogEntry& entry : read_run_log(path)) {
    if (entry.grid_hash != hash) continue;
    // Runs with failed cells have degenerate percentiles (they cover only
    // the surviving cells) — recorded for the audit trail, never used as a
    // perf baseline.
    if (entry.failed > 0) continue;
    comparison.found = true;
    comparison.baseline = entry;  // keep scanning: latest match wins
  }
  if (!comparison.found) return comparison;
  const RunLogEntry& baseline = comparison.baseline;
  const CampaignStatPercentiles& now = result.percentiles;
  const CampaignStatPercentiles& then = baseline.percentiles;
  comparison.rounds_p50_ratio = ratio(now.rounds.p50, then.rounds.p50);
  const auto p50_ratio = [&](EngineStat stat) {
    return ratio(now[stat].p50, then[stat].p50);
  };
  comparison.messages_p50_ratio = p50_ratio(EngineStat::total_messages);
  comparison.steps_per_second_p50_ratio =
      p50_ratio(EngineStat::steps_per_second);
  comparison.cells_per_second_ratio =
      ratio(result.cells_per_second, baseline.cells_per_second);
  comparison.elapsed_ratio =
      ratio(result.elapsed_seconds, baseline.elapsed_seconds);
  return comparison;
}

}  // namespace unilocal
