#include "src/prune/matching_prune.h"

#include "src/problems/matching.h"
#include "src/runtime/kernel.h"

namespace unilocal {

PruneResult MatchingPruning::apply(const Instance& instance,
                                   const std::vector<std::int64_t>& yhat) const {
  const Graph& g = instance.graph;
  const NodeId n = g.num_nodes();
  PruneResult result;
  result.pruned.assign(static_cast<std::size_t>(n), false);
  result.surviving_inputs = instance.inputs;
  const auto partner = matched_partner(g, yhat);
  for (NodeId u = 0; u < n; ++u) {
    if (partner[static_cast<std::size_t>(u)] >= 0) {
      result.pruned[static_cast<std::size_t>(u)] = true;
      continue;
    }
    bool all_matched = true;
    for (NodeId v : g.neighbors(u)) {
      if (partner[static_cast<std::size_t>(v)] < 0) {
        all_matched = false;
        break;
      }
    }
    if (all_matched) result.pruned[static_cast<std::size_t>(u)] = true;
  }
  return result;
}

namespace {

/// LOCAL realization.
///  round 0: broadcast yhat.
///  round 1: for each neighbour v, send [yhat(u), clean_uv] where clean_uv
///           says no *other* neighbour of u carries yhat(u).
///  round 2: matched(u) is decidable; broadcast the matched bit.
///  round 3: decide: member = matched(u) or all neighbours matched.
/// The neighbours' yhat values stay in the per-port words. Every node
/// sends in every round before it finishes, so rounds 1-3 read a message
/// on every port.
struct MatchingMembershipState {
  std::int64_t matched;
};

void matching_membership_announce(KernelCtx& ctx) {
  ctx.broadcast({ctx.input.back()});
}

void matching_membership_clean(KernelCtx& ctx) {
  const std::int64_t yhat = ctx.input.back();
  std::int64_t same = 0;
  for (NodeId j = 0; j < ctx.degree; ++j) {
    bool present = false;
    ctx.port_state[j] = ctx.recv(j, &present)[0];
    if (ctx.port_state[j] == yhat) ++same;
  }
  for (NodeId j = 0; j < ctx.degree; ++j) {
    const std::int64_t others = same - (ctx.port_state[j] == yhat ? 1 : 0);
    ctx.send(j, {yhat, others == 0 ? 1 : 0});
  }
}

void matching_membership_matched(KernelCtx& ctx) {
  const std::int64_t yhat = ctx.input.back();
  std::int64_t same = 0;
  for (NodeId j = 0; j < ctx.degree; ++j)
    if (ctx.port_state[j] == yhat) ++same;
  auto& st = ctx.state_as<MatchingMembershipState>();
  st.matched = 0;
  for (NodeId j = 0; j < ctx.degree; ++j) {
    bool present = false;
    const bool other_clean = ctx.recv(j, &present)[1] != 0;
    // Clean on our side: no OTHER neighbour (besides j) shares yhat.
    if (ctx.port_state[j] == yhat && other_clean && same == 1) {
      st.matched = 1;
      break;
    }
  }
  ctx.broadcast({st.matched});
}

void matching_membership_decide(KernelCtx& ctx) {
  bool all_matched = true;
  for (NodeId j = 0; j < ctx.degree; ++j) {
    bool present = false;
    if (ctx.recv(j, &present)[0] == 0) all_matched = false;
  }
  const bool member = ctx.state_as<MatchingMembershipState>().matched != 0 ||
                      all_matched;
  const bool complement = *static_cast<const bool*>(ctx.config);
  ctx.finish(member != complement ? 1 : 0);
}

}  // namespace

std::unique_ptr<Algorithm> make_matching_membership_algorithm(
    std::string name, bool complement) {
  auto kernel = std::make_shared<StepKernel>();
  kernel->name = "matching-membership";
  kernel->state_size = sizeof(MatchingMembershipState);
  kernel->state_align = alignof(MatchingMembershipState);
  kernel->port_state_words = 1;
  kernel->phases = {{"announce", matching_membership_announce},
                    {"clean", matching_membership_clean},
                    {"matched", matching_membership_matched},
                    {"decide", matching_membership_decide}};
  kernel->config = std::make_shared<const bool>(complement);
  return std::make_unique<KernelAlgorithm>(std::move(name), std::move(kernel));
}

std::unique_ptr<Algorithm> MatchingPruning::as_local_algorithm() const {
  return make_matching_membership_algorithm("P_MM-local",
                                            /*complement=*/false);
}

}  // namespace unilocal
