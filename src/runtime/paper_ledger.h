// The paper ledger: Table 1's ratio as checked-in data.
//
// The paper's claim (Theorems 1-5, Table 1) is that each uniform algorithm
// costs only a constant factor over its non-uniform original run with
// correct guesses. The ledger walks the Table 1 grid (make_table1_grid)
// serially at n = 64 and n = 256, three seeds each, and records one row per
// cell: the uniform run's rounds and iterations and, for entries with a
// baseline hook (AlgorithmSpec::baseline), the correct-guess baseline's
// rounds, its checker verdict and f*, plus rounds/baseline and rounds/f*.
//
// Every column is a LOCAL round count or a pure function of the instance,
// so the JSON is byte-deterministic: `unilocal_cli ledger` prints it,
// BENCH_paper.json holds it, and tests/paper_ledger_test.cpp recomputes it,
// diffs it, and checks each row's theorem bound.
//
// Note on layering: like src/runtime/campaign.*, this sits above the
// algorithm registry.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/graph/graph.h"

namespace unilocal {

struct PaperLedgerRow {
  std::string algorithm;
  std::string scenario;
  NodeId n = 0;
  std::uint64_t seed = 0;
  std::int64_t rounds = 0;
  int iterations = 0;
  /// Solved and accepted by the entry's centralized checker.
  bool valid = false;
  /// The baseline columns are meaningful only when has_baseline.
  bool has_baseline = false;
  std::int64_t baseline_rounds = 0;
  bool baseline_valid = false;
  double f_star = 0.0;
};

/// The grid sizes and seeds per (algorithm, scenario) the ledger covers.
inline constexpr NodeId kPaperLedgerSizes[] = {64, 256};
inline constexpr int kPaperLedgerSeeds = 3;

/// Runs every ledger cell (and its baseline) on the default registries.
std::vector<PaperLedgerRow> compute_paper_ledger();

/// The BENCH_paper.json text: one row object per line. The ratios and f*
/// are null without a baseline, and a ratio is null when its denominator
/// is 0.
std::string paper_ledger_json(const std::vector<PaperLedgerRow>& rows);

}  // namespace unilocal
