// Pipeline-level lowering check: the table1 smoke grid (every registry
// pipeline over its Table 1 families, n = 64, one seed) must reproduce the
// frozen canonical JSON in tests/golden/table1-smoke.canonical.json byte
// for byte — the bytes `unilocal_cli table1 --smoke --canonical` prints —
// and every engine step of every cell must run on the flat kernel path.
// The golden bytes were checked equal between a kernel-only and a
// vtable-only run of the grid before they were frozen, so matching them
// also matches the Process bodies' outputs.
//
// To regenerate after an intended output change, write the output of
// `unilocal_cli table1 --smoke --canonical` to that file.
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

TEST(Table1Golden, SmokeGridMatchesGoldenFullyLowered) {
  ScenarioParams params;
  params.n = 64;
  const std::vector<CampaignCell> cells = make_table1_grid(params, 1);
  CampaignOptions options;
  options.workers = 2;
  const CampaignResult result = run_campaign(cells, options);

  std::ostringstream canonical;
  CampaignJsonOptions json_options;
  json_options.canonical = true;
  write_campaign_json(canonical, result, json_options);
  canonical << '\n';
  EXPECT_EQ(canonical.str(),
            read_golden("table1-smoke.canonical.json"));

  ASSERT_EQ(result.cells.size(), 47u);
  for (const CellResult& cell : result.cells) {
    const std::string tag = cell.cell.algorithm + '/' + cell.cell.scenario;
    EXPECT_TRUE(cell.error.empty()) << tag << ": " << cell.error;
    EXPECT_GT(cell.stats.total_steps, 0) << tag;
    EXPECT_EQ(cell.stats.vtable_steps, 0) << tag;
    EXPECT_EQ(cell.stats.kernel_steps, cell.stats.total_steps) << tag;
  }
}

}  // namespace
}  // namespace unilocal
