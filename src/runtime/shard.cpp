#include "src/runtime/shard.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "src/runtime/run_log.h"

namespace unilocal {

namespace {

constexpr const char* kManifestFormat = "unilocal-shard-manifest-v1";
constexpr const char* kPlanFormat = "unilocal-shard-plan-v1";
constexpr const char* kResultFormat = "unilocal-shard-result-v1";

void check_format(const json::Value& value, const char* expected) {
  const json::Value* format = value.find("format");
  const std::string found =
      format != nullptr && format->is_string() ? format->as_string() : "";
  if (found != expected)
    throw std::runtime_error(std::string("shard: expected a \"") + expected +
                             "\" document, found \"" + found + "\"");
}

json::Value u64_string(std::uint64_t value) {
  return json::Value::string(std::to_string(value));
}

/// The (index, identity) part every document shares: what a cell IS,
/// independent of what running it produced.
void cell_identity_to_json(json::Value& out, std::size_t index,
                           const CampaignCell& cell) {
  out.set("index", json::Value::number(static_cast<std::uint64_t>(index)));
  out.set("scenario", json::Value::string(cell.scenario));
  out.set("n", json::Value::number(static_cast<std::int64_t>(cell.params.n)));
  out.set("a", json::Value::number(cell.params.a));
  out.set("b", json::Value::number(cell.params.b));
  out.set("algorithm", json::Value::string(cell.algorithm));
  out.set("seed", u64_string(cell.seed));
  out.set("identities",
          json::Value::string(identity_scheme_name(cell.identities)));
  out.set("network", json::Value::string(network_spec_name(cell.network)));
  // Fault knobs round-trip exactly (%.17g), so the worker's recomputed
  // grid hash — which covers their bit patterns — matches the planner's.
  out.set("drop", json::Value::number(cell.network.drop));
  out.set("duplicate", json::Value::number(cell.network.duplicate));
  out.set("crash", json::Value::number(cell.network.crash));
  out.set("late", json::Value::number(cell.network.late));
  out.set("max_delay", json::Value::number(cell.network.max_delay));
  out.set("late_by", json::Value::number(cell.network.late_by));
}

CampaignCell cell_identity_from_json(const json::Value& value,
                                     std::size_t& index) {
  CampaignCell cell;
  index = json::int_field<std::size_t>(value, "index");
  cell.scenario = value.at("scenario").as_string();
  cell.params.n = json::int_field<NodeId>(value, "n");
  cell.params.a = value.at("a").as_double();
  cell.params.b = value.at("b").as_double();
  cell.algorithm = value.at("algorithm").as_string();
  cell.seed = json::u64_field(value.at("seed"));
  cell.identities = parse_identity_scheme(value.at("identities").as_string());
  cell.network = parse_network_spec(value.at("network").as_string());
  cell.network.drop = value.at("drop").as_double();
  cell.network.duplicate = value.at("duplicate").as_double();
  cell.network.crash = value.at("crash").as_double();
  cell.network.late = value.at("late").as_double();
  cell.network.max_delay = value.at("max_delay").as_i64();
  cell.network.late_by = value.at("late_by").as_i64();
  // Both name the out-of-range field.
  validate_scenario_params(cell.params);
  validate_network_options(cell.network);
  return cell;
}

json::Value cell_result_to_json(std::size_t index, const CellResult& cell) {
  json::Value out = json::Value::object();
  cell_identity_to_json(out, index, cell.cell);
  out.set("nodes", json::Value::number(static_cast<std::int64_t>(cell.nodes)));
  out.set("edges", json::Value::number(cell.edges));
  out.set("rounds", json::Value::number(cell.rounds));
  out.set("solved", json::Value::boolean(cell.solved));
  out.set("valid", json::Value::boolean(cell.valid));
  out.set("seconds", json::Value::number(cell.seconds));
  out.set("output_hash", u64_string(cell.output_hash));
  out.set("error", json::Value::string(cell.error));
  out.set("stats", engine_stats_to_json(cell.stats));
  return out;
}

CellResult cell_result_from_json(const json::Value& value,
                                 std::size_t& index) {
  CellResult cell;
  cell.cell = cell_identity_from_json(value, index);
  cell.nodes = json::int_field<NodeId>(value, "nodes");
  cell.edges = value.at("edges").as_i64();
  cell.rounds = value.at("rounds").as_i64();
  cell.solved = value.at("solved").as_bool();
  cell.valid = value.at("valid").as_bool();
  cell.seconds = value.at("seconds").as_double();
  cell.output_hash = json::u64_field(value.at("output_hash"));
  cell.error = value.at("error").as_string();
  cell.stats = engine_stats_from_json(value.at("stats"));
  return cell;
}

}  // namespace

// --- policies and costs -----------------------------------------------------

const char* shard_policy_name(ShardPolicy policy) {
  switch (policy) {
    case ShardPolicy::kRoundRobin:
      return "round-robin";
    case ShardPolicy::kCostBalanced:
      return "cost-balanced";
  }
  return "?";
}

ShardPolicy parse_shard_policy(const std::string& name) {
  for (const ShardPolicy policy :
       {ShardPolicy::kRoundRobin, ShardPolicy::kCostBalanced}) {
    if (name == shard_policy_name(policy)) return policy;
  }
  throw std::runtime_error("unknown shard policy: " + name);
}

double ShardCostModel::cell_cost(const CampaignCell& cell) const {
  const auto it = algorithm_weights.find(cell.algorithm);
  const double weight =
      it != algorithm_weights.end() ? it->second : default_weight;
  return std::max(1.0, static_cast<double>(cell.params.n)) * weight;
}

const ShardCostModel& default_shard_cost_model() {
  // Mean per-cell seconds on the table1 grid (n=256, 2 seeds, 1-core),
  // normalized to linial-coloring = 1 and rounded: rank order and rough
  // magnitude are all LPT needs.
  static const ShardCostModel model = [] {
    ShardCostModel m;
    m.algorithm_weights = {
        {"linial-coloring", 1.0},
        {"cole-vishkin", 1.2},
        {"mis-global-uniform", 1.3},
        {"luby-mis", 1.6},
        {"mis-lv", 1.6},
        {"arb-coloring", 2.0},
        {"mis-fastest-arb", 2.0},
        {"arb-mis", 2.5},
        {"mis-fastest", 2.7},
        {"rulingset3-lv", 3.0},
        {"lambda4-coloring", 4.4},
        {"rulingset2-lv", 6.2},
        {"mis-uniform", 8.2},
        {"matching-uniform", 15.0},
        {"dplus1-coloring", 19.0},
        {"product-coloring", 20.0},
        {"color-reduce", 28.0},
        {"coloring-theorem5", 75.0},
        {"coloring-theorem5-lambda4", 93.0},
    };
    m.default_weight = 5.0;  // an unknown algorithm is "middling"
    return m;
  }();
  return model;
}

// --- planning ---------------------------------------------------------------

ShardPlan plan_shards(const std::vector<CampaignCell>& cells, int num_shards,
                      ShardPolicy policy) {
  if (num_shards < 1)
    throw std::runtime_error("plan_shards: num_shards must be >= 1, got " +
                             std::to_string(num_shards));
  const ShardCostModel& model = default_shard_cost_model();

  std::vector<std::vector<std::size_t>> assignment(
      static_cast<std::size_t>(num_shards));
  if (policy == ShardPolicy::kRoundRobin) {
    for (std::size_t i = 0; i < cells.size(); ++i)
      assignment[i % static_cast<std::size_t>(num_shards)].push_back(i);
  } else {
    // Greedy LPT: heaviest cell first onto the lightest shard; ties broken
    // by grid index / shard index so the plan is deterministic.
    std::vector<std::size_t> order(cells.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::vector<double> costs(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i)
      costs[i] = model.cell_cost(cells[i]);
    std::sort(order.begin(), order.end(),
              [&costs](std::size_t a, std::size_t b) {
                if (costs[a] != costs[b]) return costs[a] > costs[b];
                return a < b;
              });
    std::vector<double> loads(static_cast<std::size_t>(num_shards), 0.0);
    for (const std::size_t i : order) {
      const std::size_t lightest = static_cast<std::size_t>(
          std::min_element(loads.begin(), loads.end()) - loads.begin());
      assignment[lightest].push_back(i);
      loads[lightest] += costs[i];
    }
    // Keep grid order within each shard: readable manifests, and the
    // shard grid hash depends only on membership.
    for (auto& indices : assignment)
      std::sort(indices.begin(), indices.end());
  }

  ShardPlan plan;
  plan.grid_hash = campaign_grid_hash(cells);
  plan.policy = policy;
  plan.total_cells = cells.size();
  plan.shards.reserve(static_cast<std::size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    ShardManifest manifest;
    manifest.shard_index = s;
    manifest.num_shards = num_shards;
    manifest.policy = policy;
    manifest.plan_grid_hash = plan.grid_hash;
    manifest.cell_indices = std::move(assignment[static_cast<std::size_t>(s)]);
    manifest.cells.reserve(manifest.cell_indices.size());
    for (const std::size_t i : manifest.cell_indices)
      manifest.cells.push_back(cells[i]);
    manifest.shard_grid_hash = campaign_grid_hash(manifest.cells);
    plan.shards.push_back(std::move(manifest));
  }
  return plan;
}

// --- serialization ----------------------------------------------------------

json::Value ShardManifest::to_json() const {
  json::Value out = json::Value::object();
  out.set("format", json::Value::string(kManifestFormat));
  out.set("shard_index",
          json::Value::number(static_cast<std::int64_t>(shard_index)));
  out.set("num_shards",
          json::Value::number(static_cast<std::int64_t>(num_shards)));
  out.set("policy", json::Value::string(shard_policy_name(policy)));
  out.set("plan_grid_hash", u64_string(plan_grid_hash));
  out.set("shard_grid_hash", u64_string(shard_grid_hash));
  json::Value cell_array = json::Value::array();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    json::Value cell = json::Value::object();
    cell_identity_to_json(cell, cell_indices[i], cells[i]);
    cell_array.push_back(std::move(cell));
  }
  out.set("cells", std::move(cell_array));
  return out;
}

ShardManifest ShardManifest::from_json(const json::Value& value) {
  check_format(value, kManifestFormat);
  ShardManifest manifest;
  manifest.shard_index = json::int_field<int>(value, "shard_index");
  manifest.num_shards = json::int_field<int>(value, "num_shards");
  manifest.policy = parse_shard_policy(value.at("policy").as_string());
  manifest.plan_grid_hash = json::u64_field(value.at("plan_grid_hash"));
  manifest.shard_grid_hash = json::u64_field(value.at("shard_grid_hash"));
  for (const json::Value& entry : value.at("cells").as_array()) {
    std::size_t index = 0;
    manifest.cells.push_back(cell_identity_from_json(entry, index));
    manifest.cell_indices.push_back(index);
  }
  return manifest;
}

json::Value ShardPlan::to_json() const {
  json::Value out = json::Value::object();
  out.set("format", json::Value::string(kPlanFormat));
  out.set("grid_hash", u64_string(grid_hash));
  out.set("policy", json::Value::string(shard_policy_name(policy)));
  out.set("total_cells",
          json::Value::number(static_cast<std::uint64_t>(total_cells)));
  json::Value shard_array = json::Value::array();
  for (const ShardManifest& manifest : shards)
    shard_array.push_back(manifest.to_json());
  out.set("shards", std::move(shard_array));
  return out;
}

ShardPlan ShardPlan::from_json(const json::Value& value) {
  check_format(value, kPlanFormat);
  ShardPlan plan;
  plan.grid_hash = json::u64_field(value.at("grid_hash"));
  plan.policy = parse_shard_policy(value.at("policy").as_string());
  plan.total_cells = json::int_field<std::size_t>(value, "total_cells");
  for (const json::Value& entry : value.at("shards").as_array())
    plan.shards.push_back(ShardManifest::from_json(entry));
  // merge_shard_results indexes plan.shards[result.shard_index], so the
  // array position and the recorded index must agree — a reordered or
  // index-tampered document would otherwise verify results against the
  // wrong manifests.
  for (std::size_t s = 0; s < plan.shards.size(); ++s) {
    if (plan.shards[s].shard_index != static_cast<int>(s))
      throw std::runtime_error(
          "shard plan: shard at position " + std::to_string(s) +
          " carries index " + std::to_string(plan.shards[s].shard_index));
    if (plan.shards[s].num_shards != static_cast<int>(plan.shards.size()))
      throw std::runtime_error(
          "shard plan: shard " + std::to_string(s) + " claims " +
          std::to_string(plan.shards[s].num_shards) + " shards, plan has " +
          std::to_string(plan.shards.size()));
  }
  // A plan must cover every grid index exactly once — reject tampered
  // documents here so merge can trust the placement map.
  std::vector<char> seen(plan.total_cells, 0);
  for (const ShardManifest& manifest : plan.shards) {
    if (manifest.cells.size() != manifest.cell_indices.size())
      throw std::runtime_error("shard plan: manifest cell/index count skew");
    for (const std::size_t i : manifest.cell_indices) {
      if (i >= plan.total_cells)
        throw std::runtime_error("shard plan: cell index " +
                                 std::to_string(i) + " out of range");
      if (seen[i] != 0)
        throw std::runtime_error("shard plan: cell index " +
                                 std::to_string(i) + " covered twice");
      seen[i] = 1;
    }
  }
  for (std::size_t i = 0; i < seen.size(); ++i)
    if (seen[i] == 0)
      throw std::runtime_error("shard plan: cell index " + std::to_string(i) +
                               " covered by no shard");
  return plan;
}

json::Value ShardResult::to_json() const {
  json::Value out = json::Value::object();
  out.set("format", json::Value::string(kResultFormat));
  out.set("shard_index",
          json::Value::number(static_cast<std::int64_t>(shard_index)));
  out.set("num_shards",
          json::Value::number(static_cast<std::int64_t>(num_shards)));
  out.set("plan_grid_hash", u64_string(plan_grid_hash));
  out.set("shard_grid_hash", u64_string(shard_grid_hash));
  out.set("workers", json::Value::number(static_cast<std::int64_t>(workers)));
  out.set("elapsed_seconds", json::Value::number(elapsed_seconds));
  json::Value cell_array = json::Value::array();
  for (std::size_t i = 0; i < cells.size(); ++i)
    cell_array.push_back(cell_result_to_json(cell_indices[i], cells[i]));
  out.set("cells", std::move(cell_array));
  return out;
}

ShardResult ShardResult::from_json(const json::Value& value) {
  check_format(value, kResultFormat);
  ShardResult result;
  result.shard_index = json::int_field<int>(value, "shard_index");
  result.num_shards = json::int_field<int>(value, "num_shards");
  result.plan_grid_hash = json::u64_field(value.at("plan_grid_hash"));
  result.shard_grid_hash = json::u64_field(value.at("shard_grid_hash"));
  result.workers = json::int_field<int>(value, "workers");
  result.elapsed_seconds = value.at("elapsed_seconds").as_double();
  for (const json::Value& entry : value.at("cells").as_array()) {
    std::size_t index = 0;
    result.cells.push_back(cell_result_from_json(entry, index));
    result.cell_indices.push_back(index);
  }
  return result;
}

// --- execution --------------------------------------------------------------

ShardResult run_shard(const ShardManifest& manifest,
                      const CampaignOptions& options) {
  if (manifest.cell_indices.size() != manifest.cells.size())
    throw std::runtime_error("run_shard: manifest cell/index count skew");
  const std::uint64_t recomputed = campaign_grid_hash(manifest.cells);
  if (recomputed != manifest.shard_grid_hash)
    throw std::runtime_error(
        "run_shard: manifest is corrupt — its cells hash to " +
        std::to_string(recomputed) + " but it claims " +
        std::to_string(manifest.shard_grid_hash));

  CampaignOptions run_options = options;
  run_options.keep_outputs = false;  // hashes are the cross-process identity
  // Cell spans in a worker's trace report full-grid positions, not the
  // manifest-local ones, so the stitched supervisor trace reads uniformly.
  if (run_options.trace != nullptr)
    run_options.trace_cell_indices = &manifest.cell_indices;
  CampaignResult campaign = run_campaign(manifest.cells, run_options);

  ShardResult result;
  result.shard_index = manifest.shard_index;
  result.num_shards = manifest.num_shards;
  result.plan_grid_hash = manifest.plan_grid_hash;
  result.shard_grid_hash = manifest.shard_grid_hash;
  result.workers = campaign.workers;
  result.elapsed_seconds = campaign.elapsed_seconds;
  result.cell_indices = manifest.cell_indices;
  result.cells = std::move(campaign.cells);
  return result;
}

// --- merging ----------------------------------------------------------------

std::string shard_result_problem(const ShardPlan& plan,
                                 const ShardResult& result) {
  const std::string label = "shard " + std::to_string(result.shard_index);
  if (result.plan_grid_hash != plan.grid_hash)
    return label + " is foreign (plan hash " +
           std::to_string(result.plan_grid_hash) + ", expected " +
           std::to_string(plan.grid_hash) + ")";
  if (result.shard_index < 0 ||
      static_cast<std::size_t>(result.shard_index) >= plan.shards.size())
    return label + " is out of range (plan has " +
           std::to_string(plan.shards.size()) + " shards)";
  const ShardManifest& manifest =
      plan.shards[static_cast<std::size_t>(result.shard_index)];
  if (result.shard_grid_hash != manifest.shard_grid_hash)
    return label + " grid hash " + std::to_string(result.shard_grid_hash) +
           " does not match the plan's " +
           std::to_string(manifest.shard_grid_hash);
  if (result.cell_indices != manifest.cell_indices ||
      result.cells.size() != manifest.cells.size())
    return label + " cell list does not match the plan";
  // The result's cell *identities* re-hash to the claimed fingerprint —
  // a result whose cell list was edited after the run is caught even
  // though its header still carries the right hashes. (Outcome fields —
  // output_hash, solved, stats — are not covered by any fingerprint;
  // verifying those would mean re-running the work.)
  std::vector<CampaignCell> identities;
  identities.reserve(result.cells.size());
  for (const CellResult& cell : result.cells) identities.push_back(cell.cell);
  const std::uint64_t recomputed = campaign_grid_hash(identities);
  if (recomputed != manifest.shard_grid_hash)
    return label + " cells hash to " + std::to_string(recomputed) +
           " instead of the plan's " +
           std::to_string(manifest.shard_grid_hash);
  return "";
}

namespace {

CampaignResult merge_impl(const ShardPlan& plan,
                          const std::vector<ShardResult>& results,
                          PartialMergeReport* partial) {
  const std::size_t num_shards = plan.shards.size();
  std::vector<const ShardResult*> by_index(num_shards, nullptr);
  std::vector<std::string> problems;

  for (const ShardResult& result : results) {
    const std::string problem = shard_result_problem(plan, result);
    if (!problem.empty()) {
      problems.push_back(problem);
      continue;
    }
    const std::size_t slot = static_cast<std::size_t>(result.shard_index);
    if (by_index[slot] != nullptr) {
      problems.push_back("shard " + std::to_string(result.shard_index) +
                         " appears more than once");
      continue;
    }
    by_index[slot] = &result;
  }
  for (std::size_t s = 0; s < num_shards; ++s) {
    if (by_index[s] != nullptr) continue;
    if (partial != nullptr) {
      // Partial mode: a missing shard degrades the merge instead of
      // killing it — every other problem stays fatal below.
      partial->missing_shards.push_back(static_cast<int>(s));
      continue;
    }
    problems.push_back("shard " + std::to_string(s) + " is missing");
  }

  if (!problems.empty()) {
    std::string message = "merge_shard_results: ";
    for (std::size_t i = 0; i < problems.size(); ++i) {
      if (i != 0) message += "; ";
      message += problems[i];
    }
    throw std::runtime_error(message);
  }

  CampaignResult merged;
  merged.cells.resize(plan.total_cells);
  merged.workers = 0;
  merged.elapsed_seconds = 0.0;
  for (const ShardResult* result : by_index) {
    if (result == nullptr) continue;
    merged.workers += result->workers;
    merged.elapsed_seconds =
        std::max(merged.elapsed_seconds, result->elapsed_seconds);
    for (std::size_t i = 0; i < result->cells.size(); ++i)
      merged.cells[result->cell_indices[i]] = result->cells[i];
  }
  if (partial != nullptr) {
    for (const int s : partial->missing_shards) {
      const ShardManifest& manifest =
          plan.shards[static_cast<std::size_t>(s)];
      for (std::size_t i = 0; i < manifest.cells.size(); ++i) {
        const std::size_t grid_index = manifest.cell_indices[i];
        CellResult& cell = merged.cells[grid_index];
        cell.cell = manifest.cells[i];
        cell.error = "shard " + std::to_string(s) +
                     " produced no accepted result";
        partial->missing_cell_indices.push_back(grid_index);
      }
    }
    std::sort(partial->missing_cell_indices.begin(),
              partial->missing_cell_indices.end());
  }
  finalize_campaign_aggregates(merged);
  return merged;
}

}  // namespace

CampaignResult merge_shard_results(const ShardPlan& plan,
                                   const std::vector<ShardResult>& results) {
  return merge_impl(plan, results, nullptr);
}

CampaignResult merge_shard_results_partial(
    const ShardPlan& plan, const std::vector<ShardResult>& results,
    PartialMergeReport& report) {
  report = PartialMergeReport{};
  return merge_impl(plan, results, &report);
}

std::string PartialMergeReport::describe() const {
  if (complete()) return "partial merge: complete (no shard missing)";
  std::string message = "partial merge: missing shards [";
  for (std::size_t i = 0; i < missing_shards.size(); ++i) {
    if (i != 0) message += ", ";
    message += std::to_string(missing_shards[i]);
  }
  message += "] covering " + std::to_string(missing_cell_indices.size()) +
             " cells [";
  for (std::size_t i = 0; i < missing_cell_indices.size(); ++i) {
    if (i != 0) message += ", ";
    message += std::to_string(missing_cell_indices[i]);
  }
  message += "]";
  return message;
}

}  // namespace unilocal
