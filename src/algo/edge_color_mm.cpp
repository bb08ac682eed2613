#include "src/algo/edge_color_mm.h"

#include <algorithm>

#include "src/algo/color_reduce.h"
#include "src/algo/linial.h"
#include "src/problems/matching.h"
#include "src/runtime/chain.h"
#include "src/runtime/kernel.h"
#include "src/util/math.h"

namespace unilocal {

namespace {

// Message layout: [matched_bit, kind, payload...].
constexpr std::int64_t kKindNone = 0;
constexpr std::int64_t kKindPropose = 1;  // payload: proposer identity
constexpr std::int64_t kKindAccept = 2;   // payload: target identity
constexpr std::int64_t kKindReject = 3;

// --- step kernel ------------------------------------------------------------
//
// The per-port believed-matched/proposed caches pack into one per-port word
// (bit 0 / bit 1). Receive spans may be invalidated by the first send
// (synchronizer-mode history growth), so one ingest pass records per-port
// propose-seen flags and the pending-reject ports into the per-thread
// scratch (flags in [0, degree), pending ports appended after). Emission
// then sends in a fixed order: accept, same-round rejects, pending rejects,
// own proposal, then status words to every port without a directed
// message.

constexpr std::int64_t kPortBelieved = 1;  // bit 0 of the per-port word
constexpr std::int64_t kPortProposed = 2;  // bit 1 of the per-port word
constexpr std::int64_t kSeenPropose = 1;   // scratch flag bits
constexpr std::int64_t kHasDirected = 2;

struct ProposalMatchingKernelConfig {
  std::int64_t delta_guess;
  std::int64_t rounds;
};

struct ProposalMatchingKernelState {
  std::int64_t color;
  std::int64_t matched;
  std::int64_t match_value;
  std::int64_t awaiting_port;
};

void proposal_matching_kernel_round0(KernelCtx& ctx) {
  auto& st = ctx.state_as<ProposalMatchingKernelState>();
  st.color = ctx.input.empty() ? 1 : ctx.input[0];
  st.awaiting_port = -1;
  ctx.broadcast({0, kKindNone});
}

void proposal_matching_kernel_phase(KernelCtx& ctx) {
  const auto* cfg =
      static_cast<const ProposalMatchingKernelConfig*>(ctx.config);
  auto& st = ctx.state_as<ProposalMatchingKernelState>();
  auto& sc = *ctx.scratch;
  const std::size_t deg = static_cast<std::size_t>(ctx.degree);
  sc.assign(deg, 0);
  // --- Ingest: status updates, proposals, replies (one pass; see above). ---
  std::int64_t best_proposer_port = -1;
  std::int64_t best_proposer_id = 0;
  for (NodeId j = 0; j < ctx.degree; ++j) {
    bool present = false;
    const auto m = ctx.recv(j, &present);
    if (!present) continue;
    ctx.port_state[j] = (ctx.port_state[j] & ~kPortBelieved) |
                        (m[0] != 0 ? kPortBelieved : 0);
    const std::int64_t kind = m[1];
    if (kind == kKindPropose) {
      sc[static_cast<std::size_t>(j)] |= kSeenPropose;
      if (st.matched == 0) {
        const std::int64_t proposer = m[2];
        if (best_proposer_port < 0 || proposer < best_proposer_id) {
          best_proposer_port = j;
          best_proposer_id = proposer;
        }
      } else {
        sc.push_back(j);  // pending reject
      }
    } else if (kind == kKindAccept && st.awaiting_port == j &&
               st.matched == 0) {
      st.matched = 1;
      st.match_value = match_value(ctx.identity, m[2]);
      st.awaiting_port = -1;
    } else if (kind == kKindReject && st.awaiting_port == j) {
      st.awaiting_port = -1;
    }
  }
  const std::size_t pending_end = sc.size();
  // --- Accept the best proposal (if still unmatched). ---
  if (best_proposer_port >= 0) {
    st.matched = 1;
    st.match_value = match_value(ctx.identity, best_proposer_id);
    st.awaiting_port = -1;  // any outstanding proposal of ours is moot
    const NodeId best = static_cast<NodeId>(best_proposer_port);
    sc[static_cast<std::size_t>(best)] |= kHasDirected;
    ctx.send(best, {1, kKindAccept, ctx.identity});
    // Reject the other proposers of this round.
    for (NodeId j = 0; j < ctx.degree; ++j) {
      if ((sc[static_cast<std::size_t>(j)] & kSeenPropose) != 0 && j != best) {
        sc[static_cast<std::size_t>(j)] |= kHasDirected;
        ctx.send(j, {1, kKindReject});
      }
    }
  }
  for (std::size_t idx = deg; idx < pending_end; ++idx) {
    const NodeId j = static_cast<NodeId>(sc[idx]);
    sc[static_cast<std::size_t>(j)] |= kHasDirected;
    ctx.send(j, {st.matched != 0 ? 1 : 0, kKindReject});
  }
  // --- Propose during our own phase. ---
  const std::int64_t phase_len = 2 * (cfg->delta_guess + 1);
  const std::int64_t phase = (ctx.round - 1) / phase_len + 1;
  const bool propose_round = ((ctx.round - 1) % 2) == 0;
  if (st.matched == 0 && phase == st.color && propose_round &&
      st.awaiting_port < 0) {
    NodeId target = -1;
    for (NodeId j = 0; j < ctx.degree; ++j) {
      if ((ctx.port_state[j] & (kPortBelieved | kPortProposed)) == 0) {
        target = j;
        break;
      }
    }
    if (target >= 0) {
      ctx.port_state[target] |= kPortProposed;
      st.awaiting_port = target;
      sc[static_cast<std::size_t>(target)] |= kHasDirected;
      ctx.send(target, {0, kKindPropose, ctx.identity});
    }
  }
  // --- Emit: directed messages already sent; everyone else hears status. ---
  for (NodeId j = 0; j < ctx.degree; ++j) {
    if ((sc[static_cast<std::size_t>(j)] & kHasDirected) == 0)
      ctx.send(j, {st.matched != 0 ? 1 : 0, kKindNone});
  }
  if (ctx.round + 1 >= cfg->rounds) {
    ctx.finish(st.matched != 0 ? st.match_value
                               : unmatched_value(ctx.identity));
  }
}

void proposal_matching_batch_round0(const KernelBatchCtx& b) {
  for (std::size_t i = 0; i < b.count; ++i) {
    KernelCtx ctx = b.node_ctx(i);
    proposal_matching_kernel_round0(ctx);
    b.latch(i, ctx);
  }
}

void proposal_matching_batch_phase(const KernelBatchCtx& b) {
  for (std::size_t i = 0; i < b.count; ++i) {
    KernelCtx ctx = b.node_ctx(i);
    proposal_matching_kernel_phase(ctx);
    b.latch(i, ctx);
  }
}

std::shared_ptr<const StepKernel> make_proposal_matching_kernel(
    std::int64_t delta_guess, std::int64_t rounds) {
  auto kernel = std::make_shared<StepKernel>();
  kernel->name = "proposal-matching";
  kernel->state_size = sizeof(ProposalMatchingKernelState);
  kernel->state_align = alignof(ProposalMatchingKernelState);
  kernel->port_state_words = 1;
  kernel->phases = {{"round0", proposal_matching_kernel_round0,
                     proposal_matching_batch_round0},
                    {"phase", proposal_matching_kernel_phase,
                     proposal_matching_batch_phase}};
  kernel->select_fn = [](std::int64_t round, const std::byte*,
                         const void*) -> std::uint16_t {
    return round == 0 ? 0 : 1;
  };
  kernel->config = std::shared_ptr<const void>(
      std::make_shared<ProposalMatchingKernelConfig>(
          ProposalMatchingKernelConfig{delta_guess, rounds}));
  return kernel;
}

}  // namespace

ProposalMatching::ProposalMatching(std::int64_t delta_guess)
    : delta_guess_(std::max<std::int64_t>(delta_guess, 0)) {
  const std::int64_t phases = delta_guess_ + 1;  // one per color class
  rounds_ = 1 + phases * 2 * (delta_guess_ + 1) + 2;
  kernel_ = make_proposal_matching_kernel(delta_guess_, rounds_);
}

std::shared_ptr<const StepKernel> ProposalMatching::kernel() const {
  return kernel_;
}

std::string ProposalMatching::name() const {
  return "proposal-matching(D=" + std::to_string(delta_guess_) + ")";
}

std::unique_ptr<Algorithm> make_matching_algorithm(std::int64_t delta_guess,
                                                   std::int64_t m_guess) {
  auto linial = std::make_shared<LinialColoring>(
      delta_guess, std::max<std::int64_t>(m_guess, 1));
  const std::int64_t k_final = linial->schedule().final_space;
  auto reduce = std::make_shared<ColorReduce>(k_final, /*target=*/0);
  auto propose = std::make_shared<ProposalMatching>(delta_guess);
  std::vector<ChainStage> stages;
  stages.push_back({linial, static_cast<std::int64_t>(
                                linial->schedule().length()) +
                                1});
  stages.push_back({reduce, reduce->schedule_rounds()});
  stages.push_back({propose, propose->schedule_rounds()});
  return std::make_unique<ChainAlgorithm>(
      "matching(D=" + std::to_string(delta_guess) + ")", std::move(stages));
}

namespace {

class ColoredMatching final : public NonUniformAlgorithm {
 public:
  std::string name() const override { return "colored-proposal-matching"; }
  ParamSet gamma() const override {
    return {Param::kMaxDegree, Param::kMaxIdentity};
  }
  ParamSet lambda() const override {
    return {Param::kMaxDegree, Param::kMaxIdentity};
  }
  const RuntimeBound& bound() const override { return bound_; }
  std::unique_ptr<Algorithm> instantiate(
      std::span<const std::int64_t> guesses) const override {
    return make_matching_algorithm(guesses[0], guesses[1]);
  }

 private:
  AdditiveBound bound_{
      {BoundComponent{"O(D^2)",
                      [](std::int64_t d) {
                        const std::int64_t dd = std::max<std::int64_t>(d, 0);
                        return static_cast<double>(
                            linial_final_space_bound(dd) +
                            (dd + 1) * 2 * (dd + 1) + 12);
                      }},
       BoundComponent{"log*(m)+43", [](std::int64_t m) {
                        return static_cast<double>(
                            log_star(static_cast<std::uint64_t>(
                                std::max<std::int64_t>(m, 2))) +
                            43);
                      }}}};
};

}  // namespace

std::unique_ptr<NonUniformAlgorithm> make_colored_matching() {
  return std::make_unique<ColoredMatching>();
}

}  // namespace unilocal
