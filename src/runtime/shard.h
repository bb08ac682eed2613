// Sharded campaigns: partition a grid across processes, merge the results
// bit-identically.
//
// run_campaign (src/runtime/campaign.h) parallelizes cells over one
// in-process ThreadPool; this subsystem is the orchestration tier above
// it, splitting one grid across *processes* (and eventually hosts) in
// three layers:
//
//  - Planning.  plan_shards() partitions the cells into self-describing
//    ShardManifests — registry keys, params, and seeds only, no pointers —
//    under a policy: round-robin (cell i -> shard i mod K) or
//    cost-balanced (greedy LPT over default_shard_cost_model(), nodes x
//    algorithm weight, so straggler-heavy grids split evenly). Manifests
//    and plans round-trip through JSON (src/util/json.h).
//  - Execution.  run_shard() re-resolves the manifest's keys against the
//    scenario/algorithm registries and runs its cells via run_campaign,
//    producing a ShardResult whose grid-hash fingerprint
//    (campaign_grid_hash, src/runtime/run_log.h) proves which work it did.
//  - Merging.  merge_shard_results() verifies every shard against the
//    plan — missing, duplicate, foreign (wrong plan), and hash-mismatched
//    shards are all rejected in ONE error naming every offender —
//    reassembles the cells into grid order, and recomputes the aggregates
//    with the same finalize_campaign_aggregates() a single-process run
//    uses. Because every cell is deterministic in (scenario, params,
//    algorithm, seed, identities), the merged CampaignResult's per-cell
//    output_hash vector and campaign_grid_hash are bit-identical to a
//    single-process run_campaign of the whole grid, for any shard count
//    and either policy (tests/shard_test.cpp).
//
// Surfaced as `unilocal_cli shard plan|run|merge` plus the local
// multi-process drivers `sweep --shards=K` / `table1 --shards=K`.
//
// Note on layering: sits ABOVE src/runtime/campaign.* (the only file that
// may include it is the CLI/bench/test tier).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/runtime/campaign.h"
#include "src/util/json.h"

namespace unilocal {

enum class ShardPolicy {
  /// Cell i goes to shard i mod K: trivially even counts, oblivious to
  /// cost skew.
  kRoundRobin,
  /// Greedy LPT over the cost model: cells sorted by descending cost, each
  /// placed on the currently lightest shard. Max-vs-min shard load differs
  /// by at most one cell's cost.
  kCostBalanced,
};

/// Stable names ("round-robin", "cost-balanced") for manifests and CLI
/// flags; parse throws std::runtime_error on unknown names.
const char* shard_policy_name(ShardPolicy policy);
ShardPolicy parse_shard_policy(const std::string& name);

/// Per-cell planning cost: nodes x algorithm weight. The built-in weights
/// are coarse priors from measured table1 per-cell times (n=256; the
/// theorem-5 coloring pipelines cost ~90x a bare Linial run), rounded
/// hard — planning needs rank order and rough magnitude, not precision.
/// Unknown algorithms fall back to default_weight.
struct ShardCostModel {
  std::map<std::string, double> algorithm_weights;
  double default_weight = 1.0;

  double cell_cost(const CampaignCell& cell) const;
};

/// The measured-prior model described above.
const ShardCostModel& default_shard_cost_model();

/// One shard's worth of work, self-describing: every cell is (scenario
/// key, params, algorithm key, seed, identities) plus its index in the
/// full grid, resolvable by any process holding the same registries.
struct ShardManifest {
  int shard_index = 0;
  int num_shards = 1;
  ShardPolicy policy = ShardPolicy::kRoundRobin;
  /// campaign_grid_hash of the FULL grid — ties the shard to its plan.
  std::uint64_t plan_grid_hash = 0;
  /// campaign_grid_hash of this shard's cells — run_shard recomputes it
  /// from the parsed cells and refuses corrupted manifests.
  std::uint64_t shard_grid_hash = 0;
  /// Position of cells[i] in the full grid (merge reassembles input order).
  std::vector<std::size_t> cell_indices;
  std::vector<CampaignCell> cells;

  json::Value to_json() const;
  /// Throws std::runtime_error naming the missing/ill-typed field.
  static ShardManifest from_json(const json::Value& value);
};

struct ShardPlan {
  std::uint64_t grid_hash = 0;
  ShardPolicy policy = ShardPolicy::kRoundRobin;
  std::size_t total_cells = 0;
  std::vector<ShardManifest> shards;

  json::Value to_json() const;
  static ShardPlan from_json(const json::Value& value);
};

/// Partitions `cells` into num_shards manifests under `policy`.
/// Deterministic (ties broken by grid index / shard index); every cell
/// lands in exactly one shard; shards may be empty when num_shards exceeds
/// the cell count. Throws std::runtime_error when num_shards < 1.
ShardPlan plan_shards(const std::vector<CampaignCell>& cells, int num_shards,
                      ShardPolicy policy);

/// What one shard produced: the manifest's fingerprints plus one
/// CellResult per manifest cell, in manifest order. Per-node outputs are
/// never serialized — output_hash is the cross-process identity.
struct ShardResult {
  int shard_index = 0;
  int num_shards = 1;
  std::uint64_t plan_grid_hash = 0;
  std::uint64_t shard_grid_hash = 0;
  int workers = 1;
  double elapsed_seconds = 0.0;
  std::vector<std::size_t> cell_indices;
  std::vector<CellResult> cells;

  json::Value to_json() const;
  static ShardResult from_json(const json::Value& value);
};

/// Runs the manifest's cells via run_campaign (per-cell failures land in
/// CellResult::error as usual). Throws std::runtime_error when the
/// manifest's shard_grid_hash does not match its own cells (a corrupted or
/// hand-edited manifest). options.keep_outputs is ignored — shard results
/// carry hashes, not outputs.
ShardResult run_shard(const ShardManifest& manifest,
                      const CampaignOptions& options = {});

/// Validates one result against the plan it claims to belong to: foreign
/// (plan_grid_hash mismatch), out-of-range shard index, grid-hash or
/// cell-list disagreement with the plan's manifest, and a recomputed
/// campaign_grid_hash over the result's cell identities that contradicts
/// the claimed fingerprint. Returns "" when the result is acceptable, a
/// description of the first problem otherwise. This is the acceptance
/// test the merge applies per result and the supervisor
/// (src/runtime/supervisor.h) applies to every worker output file — a
/// corrupted result is indistinguishable from a crashed worker.
/// Verification covers cell *identity and membership* (everything
/// campaign_grid_hash hashes); outcome fields are taken on trust —
/// checking a claimed output_hash would mean re-running the cell.
std::string shard_result_problem(const ShardPlan& plan,
                                 const ShardResult& result);

/// Verifies `results` against `plan` and reassembles the full
/// CampaignResult: cells in grid order, aggregates recomputed via
/// finalize_campaign_aggregates — per-cell output_hash and
/// campaign_grid_hash bit-identical to a single-process run_campaign.
/// workers is summed across shards; elapsed_seconds is the max (shards run
/// concurrently). Throws ONE std::runtime_error naming every offender:
/// every shard_result_problem, duplicate shard indices, and missing
/// shards.
CampaignResult merge_shard_results(const ShardPlan& plan,
                                   const std::vector<ShardResult>& results);

/// What a partial merge had to leave out: the shards that never produced
/// an accepted result and the grid indices of every cell they covered.
struct PartialMergeReport {
  std::vector<int> missing_shards;
  std::vector<std::size_t> missing_cell_indices;

  bool complete() const { return missing_shards.empty(); }
  /// One human-readable report enumerating every missing shard and cell.
  std::string describe() const;
};

/// Graceful-degradation merge (`--allow-partial`): identical to
/// merge_shard_results except that MISSING shards are tolerated — their
/// cells appear in the merged CampaignResult with their planned identity
/// and a non-empty error ("shard N produced no accepted result"), so they
/// count as failed in the aggregates, and `report` enumerates every
/// missing shard and cell in one place. Results that are present but
/// invalid (foreign/corrupt/duplicate) still throw exactly like the
/// strict merge: partial means "less work arrived", never "bad work
/// accepted".
CampaignResult merge_shard_results_partial(const ShardPlan& plan,
                                           const std::vector<ShardResult>& results,
                                           PartialMergeReport& report);

}  // namespace unilocal
