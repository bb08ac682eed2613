#include "src/prune/slc_prune.h"

#include <algorithm>

#include "src/problems/slc.h"
#include "src/runtime/kernel.h"

namespace unilocal {

PruneResult SlcPruning::apply(const Instance& instance,
                              const std::vector<std::int64_t>& yhat) const {
  const Graph& g = instance.graph;
  const NodeId n = g.num_nodes();
  PruneResult result;
  result.pruned.assign(static_cast<std::size_t>(n), false);
  result.surviving_inputs.resize(static_cast<std::size_t>(n));

  for (NodeId v = 0; v < n; ++v) {
    const Input& input = instance.inputs[static_cast<std::size_t>(v)];
    const auto list = slc_list(input);
    const std::int64_t color = yhat[static_cast<std::size_t>(v)];
    if (std::find(list.begin(), list.end(), color) == list.end()) continue;
    bool conflict = false;
    for (NodeId u : g.neighbors(v)) {
      if (yhat[static_cast<std::size_t>(u)] == color) {
        conflict = true;
        break;
      }
    }
    if (!conflict) result.pruned[static_cast<std::size_t>(v)] = true;
  }
  std::vector<std::int64_t> filtered;  // reused across survivors
  for (NodeId v = 0; v < n; ++v) {
    if (result.pruned[static_cast<std::size_t>(v)]) continue;
    const Input& input = instance.inputs[static_cast<std::size_t>(v)];
    filtered.clear();
    for (std::int64_t packed : slc_list(input)) {
      bool taken = false;
      for (NodeId u : g.neighbors(v)) {
        if (result.pruned[static_cast<std::size_t>(u)] &&
            yhat[static_cast<std::size_t>(u)] == packed) {
          taken = true;
          break;
        }
      }
      if (!taken) filtered.push_back(packed);
    }
    result.surviving_inputs[static_cast<std::size_t>(v)] =
        make_slc_input(slc_delta_hat(input), filtered);
  }
  return result;
}

namespace {

/// LOCAL realization.
///  round 0: broadcast the tentative color.
///  round 1: decide own membership in W; broadcast it.
///  round 2: finish with the prune bit (survivors could also recompute
///           their list locally here; the driver uses apply() for that).
struct SlcPruneState {
  std::int64_t pruned;
};

void slc_prune_announce(KernelCtx& ctx) { ctx.broadcast({ctx.input.back()}); }

void slc_prune_decide(KernelCtx& ctx) {
  const std::int64_t color = ctx.input.back();
  // The list, viewed past the appended yhat.
  const auto list = slc_list(ctx.input.first(ctx.input.size() - 1));
  const bool in_list = std::find(list.begin(), list.end(), color) != list.end();
  bool conflict = false;
  for (NodeId j = 0; j < ctx.degree; ++j) {
    bool present = false;
    const auto m = ctx.recv(j, &present);
    if (present && m[0] == color) conflict = true;
  }
  auto& st = ctx.state_as<SlcPruneState>();
  st.pruned = in_list && !conflict ? 1 : 0;
  ctx.broadcast({st.pruned});
}

void slc_prune_finish(KernelCtx& ctx) {
  ctx.finish(ctx.state_as<SlcPruneState>().pruned);
}

std::shared_ptr<const StepKernel> make_slc_prune_kernel() {
  auto kernel = std::make_shared<StepKernel>();
  kernel->name = "slc-prune";
  kernel->state_size = sizeof(SlcPruneState);
  kernel->state_align = alignof(SlcPruneState);
  kernel->phases = {{"announce", slc_prune_announce},
                    {"decide", slc_prune_decide},
                    {"finish", slc_prune_finish}};
  return kernel;
}

}  // namespace

std::unique_ptr<Algorithm> SlcPruning::as_local_algorithm() const {
  return std::make_unique<KernelAlgorithm>("P_SLC-local",
                                           make_slc_prune_kernel());
}

}  // namespace unilocal
