#include "src/core/alternating.h"

#include <cassert>
#include <utility>

namespace unilocal {

AlternatingDriver::AlternatingDriver(Instance initial,
                                     const PruningAlgorithm& pruning,
                                     const EngineConfig& engine)
    : pruning_(pruning), current_(std::move(initial)), engine_(engine) {
  if (engine_.workspace == nullptr) engine_.workspace = &workspace_;
  const NodeId n = current_.num_nodes();
  to_original_.resize(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) to_original_[static_cast<std::size_t>(v)] = v;
  outputs_.assign(static_cast<std::size_t>(n), 0);
}

NodeId AlternatingDriver::run_step(const Algorithm& algorithm,
                                   std::int64_t budget, std::uint64_t seed,
                                   SubIterationTrace* trace) {
  if (done()) return 0;
  RunOptions options{engine_};
  options.max_rounds = budget;
  options.seed = seed;
  const RunResult result = run_local(current_, algorithm, options);
  stats_.merge(result.stats);
  if (trace != nullptr) {
    trace->algorithm = algorithm.name();
    trace->budget = budget;
  }
  return prune_and_glue(result.outputs, result.rounds_used, trace);
}

NodeId AlternatingDriver::run_custom_step(const CustomStep& execute,
                                          SubIterationTrace* trace) {
  if (done()) return 0;
  CustomOutcome outcome = execute(current_);
  assert(outcome.outputs.size() ==
         static_cast<std::size_t>(current_.num_nodes()));
  stats_.merge(outcome.stats);
  return prune_and_glue(outcome.outputs, outcome.rounds, trace);
}

NodeId AlternatingDriver::prune_and_glue(
    const std::vector<std::int64_t>& tentative, std::int64_t rounds_used,
    SubIterationTrace* trace) {
  const NodeId before = current_.num_nodes();
  const PruneResult pruned = pruning_.apply(current_, tentative);
  NodeId pruned_count = 0;
  std::vector<bool> keep(static_cast<std::size_t>(before), false);
  for (NodeId v = 0; v < before; ++v) {
    if (pruned.pruned[static_cast<std::size_t>(v)]) {
      outputs_[static_cast<std::size_t>(
          to_original_[static_cast<std::size_t>(v)])] =
          tentative[static_cast<std::size_t>(v)];
      ++pruned_count;
    } else {
      keep[static_cast<std::size_t>(v)] = true;
    }
  }
  InducedSubgraph sub = induced_subgraph(current_.graph, keep);
  std::vector<NodeId> new_to_original(sub.to_old.size());
  for (std::size_t i = 0; i < sub.to_old.size(); ++i) {
    new_to_original[i] =
        to_original_[static_cast<std::size_t>(sub.to_old[i])];
  }
  current_ =
      restrict_instance(current_, std::move(sub), pruned.surviving_inputs);
  to_original_ = std::move(new_to_original);
  total_rounds_ += rounds_used + pruning_.running_time();
  if (trace != nullptr) {
    trace->rounds_used = rounds_used;
    trace->nodes_before = before;
    trace->nodes_pruned = pruned_count;
  }
  return pruned_count;
}

}  // namespace unilocal
