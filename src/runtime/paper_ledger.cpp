#include "src/runtime/paper_ledger.h"

#include <cmath>
#include <cstdio>

#include "src/runtime/campaign.h"
#include "src/util/json.h"

namespace unilocal {

std::vector<PaperLedgerRow> compute_paper_ledger() {
  const ScenarioRegistry& scenarios = default_scenarios();
  const AlgorithmRegistry& algorithms = default_algorithm_registry();
  std::vector<PaperLedgerRow> rows;
  for (const NodeId n : kPaperLedgerSizes) {
    ScenarioParams params;
    params.n = n;
    for (const CampaignCell& cell :
         make_table1_grid(params, kPaperLedgerSeeds)) {
      const Instance instance = make_instance(
          scenarios.build(cell.scenario, cell.params, cell.seed),
          cell.identities, cell.seed);
      AlgorithmRunContext context;
      context.seed = cell.seed;
      const AlgorithmSpec& spec = algorithms.spec(cell.algorithm);
      const Problem& problem = algorithms.problem(cell.algorithm);
      const CellOutcome outcome = spec.run(instance, context);
      PaperLedgerRow row{cell.algorithm,
                         cell.scenario,
                         n,
                         cell.seed,
                         outcome.rounds,
                         outcome.iterations,
                         outcome.solved &&
                             problem.check(instance, outcome.outputs)};
      if (spec.baseline) {
        const BaselineOutcome baseline = spec.baseline(instance, context);
        row.has_baseline = true;
        row.baseline_rounds = baseline.outcome.rounds;
        row.baseline_valid = baseline.outcome.solved &&
                             problem.check(instance, baseline.outcome.outputs);
        row.f_star = baseline.f_star;
      }
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

namespace {

/// A fixed-point number (so the bytes never depend on the last ulp of a
/// libm call), or null when it is not finite.
json::Value fixed(double value, int digits) {
  if (!std::isfinite(value)) return json::Value();
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", digits, value);
  return json::Value::number_lexeme(buffer);
}

}  // namespace

std::string paper_ledger_json(const std::vector<PaperLedgerRow>& rows) {
  std::string text =
      "{\"description\":\"Table 1 ledger: uniform LOCAL rounds against the "
      "non-uniform original run with correct guesses (src/runtime/"
      "paper_ledger.h). Regenerate: unilocal_cli ledger > BENCH_paper.json"
      "\",\n\"rows\":[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const PaperLedgerRow& row = rows[i];
    const bool base = row.has_baseline;
    const json::Value null;
    json::Value object = json::Value::object();
    object.set("algorithm", json::Value::string(row.algorithm));
    object.set("scenario", json::Value::string(row.scenario));
    object.set("n", json::Value::number(std::int64_t{row.n}));
    object.set("seed", json::Value::number(row.seed));
    object.set("rounds", json::Value::number(row.rounds));
    object.set("iterations", json::Value::number(std::int64_t{row.iterations}));
    object.set("valid", json::Value::boolean(row.valid));
    object.set("baseline_rounds",
               base ? json::Value::number(row.baseline_rounds) : null);
    object.set("baseline_valid",
               base ? json::Value::boolean(row.baseline_valid) : null);
    object.set("f_star", base ? fixed(row.f_star, 2) : null);
    object.set("rounds_per_baseline",
               base && row.baseline_rounds > 0
                   ? fixed(static_cast<double>(row.rounds) /
                               static_cast<double>(row.baseline_rounds),
                           4)
                   : null);
    object.set("rounds_per_f_star",
               base && row.f_star > 0.0
                   ? fixed(static_cast<double>(row.rounds) / row.f_star, 4)
                   : null);
    text += object.dump();
    text += i + 1 < rows.size() ? ",\n" : "\n";
  }
  return text + "]}\n";
}

}  // namespace unilocal
