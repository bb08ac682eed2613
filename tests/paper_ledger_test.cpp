// The paper ledger (src/runtime/paper_ledger.h): recomputed, it must equal
// the checked-in BENCH_paper.json byte for byte; every uniform run and
// every correct-guess baseline must be checker-valid; and each Theorem 1
// and Theorem 2 row must meet its theorem's bound with the constants of
// Theorem1.LedgerWithinTheoremBound and
// Theorem2.ExpectedLedgerNearMonteCarloBudget. The arb-mis and Theorem 5
// rows are pinned by the byte comparison only.
//
// To regenerate after an intended change in rounds:
//   unilocal_cli ledger > BENCH_paper.json
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <tuple>

#include "src/algo/edge_color_mm.h"
#include "src/algo/greedy_mis.h"
#include "src/algo/mis_from_coloring.h"
#include "src/runtime/paper_ledger.h"

namespace unilocal {
namespace {

const std::vector<PaperLedgerRow>& ledger() {
  static const std::vector<PaperLedgerRow> rows = compute_paper_ledger();
  return rows;
}

std::string row_name(const PaperLedgerRow& row) {
  return row.algorithm + '/' + row.scenario + " n=" + std::to_string(row.n) +
         " seed=" + std::to_string(row.seed);
}

TEST(PaperLedger, MatchesCheckedInFile) {
  const std::string path = std::string(UNILOCAL_SOURCE_DIR) +
                           "/BENCH_paper.json";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "cannot open " << path;
  std::ostringstream file;
  file << in.rdbuf();
  const std::string computed = paper_ledger_json(ledger());
  if (computed == file.str()) return;
  // Name the first differing row rather than print two 60 kB strings.
  std::istringstream a(computed), b(file.str());
  std::string line_a, line_b;
  int line = 1;
  while (std::getline(a, line_a) && std::getline(b, line_b) &&
         line_a == line_b)
    ++line;
  ADD_FAILURE() << "BENCH_paper.json differs at line " << line
                << "\n  computed:    " << line_a
                << "\n  checked in:  " << line_b
                << "\nregenerate with: unilocal_cli ledger > BENCH_paper.json";
}

TEST(PaperLedger, EveryRunAndBaselineIsCheckerValid) {
  std::set<std::string> with_baseline;
  for (const PaperLedgerRow& row : ledger()) {
    EXPECT_TRUE(row.valid) << row_name(row);
    if (!row.has_baseline) continue;
    with_baseline.insert(row.algorithm);
    EXPECT_TRUE(row.baseline_valid) << row_name(row);
    EXPECT_GT(row.f_star, 0.0) << row_name(row);
  }
  // The nine entries that transform a non-uniform original.
  EXPECT_EQ(with_baseline,
            (std::set<std::string>{
                "arb-mis", "coloring-theorem5", "coloring-theorem5-lambda4",
                "matching-uniform", "mis-global-uniform", "mis-lv",
                "mis-uniform", "rulingset2-lv", "rulingset3-lv"}));
}

TEST(PaperLedger, Theorem1RowsWithinBound) {
  const std::map<std::string, std::shared_ptr<const NonUniformAlgorithm>>
      originals = {{"mis-uniform", make_coloring_mis()},
                   {"mis-global-uniform", make_global_mis()},
                   {"matching-uniform", make_colored_matching()}};
  int checked = 0;
  for (const PaperLedgerRow& row : ledger()) {
    const auto it = originals.find(row.algorithm);
    if (it == originals.end()) continue;
    const RuntimeBound& bound = it->second->bound();
    const double c = static_cast<double>(bound.bounding_constant());
    const double s_f = static_cast<double>(
        bound.sequence_number(static_cast<std::int64_t>(row.f_star)));
    EXPECT_LE(static_cast<double>(row.rounds),
              8.0 * c * row.f_star * s_f + 64.0)
        << row_name(row);
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST(PaperLedger, Theorem2MeansWithinBound) {
  // Theorem 2 bounds the expected rounds: the mean over a cell's seeds.
  std::map<std::tuple<std::string, std::string, NodeId>,
           std::pair<double, double>>
      sums;  // (rounds, f*) summed over seeds
  for (const PaperLedgerRow& row : ledger()) {
    if (row.algorithm != "mis-lv" && row.algorithm != "rulingset2-lv" &&
        row.algorithm != "rulingset3-lv")
      continue;
    auto& [rounds, f_star] = sums[{row.algorithm, row.scenario, row.n}];
    rounds += static_cast<double>(row.rounds);
    f_star += row.f_star;
  }
  EXPECT_FALSE(sums.empty());
  for (const auto& [cell, sum] : sums) {
    EXPECT_LE(sum.first / kPaperLedgerSeeds,
              16.0 * sum.second / kPaperLedgerSeeds + 64.0)
        << std::get<0>(cell) << '/' << std::get<1>(cell)
        << " n=" << std::get<2>(cell);
  }
}

}  // namespace
}  // namespace unilocal
