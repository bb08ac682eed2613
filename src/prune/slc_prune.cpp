#include "src/prune/slc_prune.h"

#include <algorithm>

#include "src/problems/slc.h"

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
class SlcPruneProcess final : public Process {
 public:
  void step(Context& ctx) override {
    const std::int64_t color = ctx.input().back();
    switch (ctx.round()) {
      case 0:
        ctx.broadcast({color});
        break;
      case 1: {
        // The list, viewed past the appended yhat.
        const auto list = slc_list(ctx.input().first(ctx.input().size() - 1));
        bool in_list =
            std::find(list.begin(), list.end(), color) != list.end();
        bool conflict = false;
        for (NodeId j = 0; j < ctx.degree(); ++j) {
          const Message* m = ctx.received(j);
          if (m != nullptr && (*m)[0] == color) conflict = true;
        }
        pruned_ = in_list && !conflict;
        ctx.broadcast({pruned_ ? 1 : 0});
        break;
      }
      case 2:
        ctx.finish(pruned_ ? 1 : 0);
        break;
      default:
        break;
    }
  }

 private:
  bool pruned_ = false;
};

class SlcPruneLocal final : public Algorithm {
 public:
  std::unique_ptr<Process> spawn(const NodeInit&) const override {
    return std::make_unique<SlcPruneProcess>();
  }
  std::string name() const override { return "P_SLC-local"; }
};

}  // namespace

std::unique_ptr<Algorithm> SlcPruning::as_local_algorithm() const {
  return std::make_unique<SlcPruneLocal>();
}

}  // namespace unilocal
