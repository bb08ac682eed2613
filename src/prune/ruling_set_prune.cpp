#include "src/prune/ruling_set_prune.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "src/runtime/kernel.h"

namespace unilocal {

PruneResult RulingSetPruning::apply(const Instance& instance,
                                    const std::vector<std::int64_t>& yhat) const {
  const Graph& g = instance.graph;
  const NodeId n = g.num_nodes();
  PruneResult result;
  result.pruned.assign(static_cast<std::size_t>(n), false);
  result.surviving_inputs = instance.inputs;  // inputs pass through untouched

  // Good nodes: yhat = 1 and all neighbours 0.
  std::vector<bool> good(static_cast<std::size_t>(n), false);
  for (NodeId v = 0; v < n; ++v) {
    if (yhat[static_cast<std::size_t>(v)] == 0) continue;
    bool clean = true;
    for (NodeId u : g.neighbors(v)) {
      if (yhat[static_cast<std::size_t>(u)] != 0) {
        clean = false;
        break;
      }
    }
    good[static_cast<std::size_t>(v)] = clean;
  }
  // Multi-source BFS to distance beta from the good nodes.
  std::vector<NodeId> dist(static_cast<std::size_t>(n), -1);
  std::queue<NodeId> frontier;
  for (NodeId v = 0; v < n; ++v) {
    if (good[static_cast<std::size_t>(v)]) {
      dist[static_cast<std::size_t>(v)] = 0;
      frontier.push(v);
      result.pruned[static_cast<std::size_t>(v)] = true;
    }
  }
  while (!frontier.empty()) {
    const NodeId v = frontier.front();
    frontier.pop();
    if (dist[static_cast<std::size_t>(v)] >= beta_) continue;
    for (NodeId u : g.neighbors(v)) {
      if (dist[static_cast<std::size_t>(u)] < 0) {
        dist[static_cast<std::size_t>(u)] =
            dist[static_cast<std::size_t>(v)] + 1;
        frontier.push(u);
        if (yhat[static_cast<std::size_t>(u)] == 0)
          result.pruned[static_cast<std::size_t>(u)] = true;
      }
    }
  }
  return result;
}

namespace {

constexpr std::int64_t kInfinity = std::numeric_limits<std::int64_t>::max() / 2;

/// LOCAL realization: round 0 broadcasts yhat; round 1 computes goodness
/// and starts flooding the distance-to-nearest-good estimate; the node
/// decides in round beta + 1.
struct RulingSetPruneState {
  std::int64_t good;
  std::int64_t dist;
};

void ruling_set_prune_announce(KernelCtx& ctx) {
  ctx.broadcast({ctx.input.back()});
}

/// Decides in round beta + 1, and floods the distance estimate before.
void ruling_set_prune_decide_or_flood(KernelCtx& ctx,
                                      const RulingSetPruneState& st) {
  const std::int64_t beta = *static_cast<const std::int64_t*>(ctx.config);
  const std::int64_t yhat = ctx.input.back();
  if (ctx.round == beta + 1) {
    const bool pruned =
        (yhat != 0 && st.good != 0) || (yhat == 0 && st.dist <= beta);
    ctx.finish(pruned ? 1 : 0);
    return;
  }
  ctx.broadcast({st.dist});
}

void ruling_set_prune_good(KernelCtx& ctx) {
  bool clean = true;
  for (NodeId j = 0; j < ctx.degree; ++j) {
    bool present = false;
    const auto m = ctx.recv(j, &present);
    if (present && m[0] != 0) clean = false;
  }
  auto& st = ctx.state_as<RulingSetPruneState>();
  st.good = ctx.input.back() != 0 && clean ? 1 : 0;
  st.dist = st.good != 0 ? 0 : kInfinity;
  ruling_set_prune_decide_or_flood(ctx, st);
}

void ruling_set_prune_flood(KernelCtx& ctx) {
  auto& st = ctx.state_as<RulingSetPruneState>();
  for (NodeId j = 0; j < ctx.degree; ++j) {
    bool present = false;
    const auto m = ctx.recv(j, &present);
    if (present && m[0] + 1 < st.dist) st.dist = m[0] + 1;
  }
  ruling_set_prune_decide_or_flood(ctx, st);
}

std::shared_ptr<const StepKernel> make_ruling_set_prune_kernel(int beta) {
  auto kernel = std::make_shared<StepKernel>();
  kernel->name = "ruling-set-prune";
  kernel->state_size = sizeof(RulingSetPruneState);
  kernel->state_align = alignof(RulingSetPruneState);
  kernel->phases = {kernel_phase<ruling_set_prune_announce>("announce"),
                    kernel_phase<ruling_set_prune_good>("good"),
                    kernel_phase<ruling_set_prune_flood>("flood")};
  kernel->select_fn = [](std::int64_t round, const std::byte*,
                         const void*) -> std::uint16_t {
    return static_cast<std::uint16_t>(std::min<std::int64_t>(round, 2));
  };
  kernel->config = std::make_shared<const std::int64_t>(beta);
  return kernel;
}

}  // namespace

std::unique_ptr<Algorithm> RulingSetPruning::as_local_algorithm() const {
  return std::make_unique<KernelAlgorithm>(
      "P(2," + std::to_string(beta_) + ")-local",
      make_ruling_set_prune_kernel(beta_));
}

}  // namespace unilocal
