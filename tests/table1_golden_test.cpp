// Pipeline-level output check: the table1 smoke grid (every registry
// pipeline over its Table 1 families, n = 64, one seed) must reproduce the
// frozen canonical JSON in tests/golden/table1-smoke.canonical.json byte
// for byte — the bytes `unilocal_cli table1 --smoke --canonical` prints.
// The golden bytes were checked equal between two independently written
// per-node bodies of every building block before they were frozen.
//
// The same grid on the lossy heavy-tail network must reproduce
// tests/golden/table1-smoke-delayed.canonical.json, the bytes of
// `unilocal_cli table1 --smoke --network=delay:heavytail --drop=0.05
// --canonical`: the delayed run steps the same local rounds with the same
// messages (Observation 2.1), so only the timing and fault columns differ.
//
// To regenerate after an intended output change, write the output of
// those commands to the files.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "src/runtime/campaign.h"

namespace unilocal {
namespace {

std::string read_golden(const std::string& name) {
  const std::string path =
      std::string(UNILOCAL_SOURCE_DIR) + "/tests/golden/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Runs the smoke grid (n = 64, one seed) over `grid`'s networks and
/// compares its canonical JSON with the golden file `name`.
void expect_smoke_grid_matches(const GridOptions& grid,
                               const std::string& name) {
  ScenarioParams params;
  params.n = 64;
  const std::vector<CampaignCell> cells = make_table1_grid(params, 1, grid);
  CampaignOptions options;
  options.workers = 2;
  const CampaignResult result = run_campaign(cells, options);

  std::ostringstream canonical;
  CampaignJsonOptions json_options;
  json_options.canonical = true;
  write_campaign_json(canonical, result, json_options);
  canonical << '\n';
  EXPECT_EQ(canonical.str(), read_golden(name));

  ASSERT_EQ(result.cells.size(), 47u);
  for (const CellResult& cell : result.cells) {
    const std::string tag = cell.cell.algorithm + '/' + cell.cell.scenario;
    EXPECT_TRUE(cell.error.empty()) << tag << ": " << cell.error;
    EXPECT_GT(cell.stats.total_steps, 0) << tag;
  }
}

TEST(Table1Golden, SmokeGridMatchesGolden) {
  expect_smoke_grid_matches({}, "table1-smoke.canonical.json");
}

TEST(Table1Golden, DelayedSmokeGridMatchesGolden) {
  NetworkOptions network = parse_network_spec("delay:heavytail");
  network.drop = 0.05;
  GridOptions grid;
  grid.networks = {network};
  expect_smoke_grid_matches(grid, "table1-smoke-delayed.canonical.json");
}

}  // namespace
}  // namespace unilocal
