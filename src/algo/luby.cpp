#include "src/algo/luby.h"

#include <algorithm>

#include "src/runtime/kernel.h"
#include "src/util/math.h"

namespace unilocal {

namespace {

// Message tags.
constexpr std::int64_t kTagValue = 0;   // [tag, rank, identity]
constexpr std::int64_t kTagJoined = 1;  // [tag]

class LubyProcess final : public Process {
 public:
  void step(Context& ctx) override {
    const bool resolve_round = (ctx.round() % 2) == 1;
    if (!resolve_round) {
      // Retire if some neighbour joined in the previous resolve round.
      for (NodeId j = 0; j < ctx.degree(); ++j) {
        const Message* m = ctx.received(j);
        if (m != nullptr && (*m)[0] == kTagJoined) {
          ctx.finish(0);
          return;
        }
      }
      rank_ = static_cast<std::int64_t>(ctx.rng().next() >> 1);
      ctx.broadcast({kTagValue, rank_, ctx.id()});
      return;
    }
    // Resolve: compare with undecided neighbours that sent values.
    bool smallest = true;
    for (NodeId j = 0; j < ctx.degree(); ++j) {
      const Message* m = ctx.received(j);
      if (m == nullptr || (*m)[0] != kTagValue) continue;
      const std::int64_t other_rank = (*m)[1];
      const std::int64_t other_id = (*m)[2];
      if (other_rank < rank_ ||
          (other_rank == rank_ && other_id < ctx.id())) {
        smallest = false;
        break;
      }
    }
    if (smallest) {
      ctx.broadcast({kTagJoined});
      ctx.finish(1);
    }
  }

 private:
  std::int64_t rank_ = 0;
};

class TruncatedProcess final : public Process {
 public:
  TruncatedProcess(std::unique_ptr<Process> inner, std::int64_t budget,
                   std::int64_t fallback)
      : inner_(std::move(inner)), budget_(budget), fallback_(fallback) {}

  void step(Context& ctx) override {
    if (ctx.round() >= budget_) {
      ctx.finish(fallback_);
      return;
    }
    inner_->step(ctx);
  }

 private:
  std::unique_ptr<Process> inner_;
  std::int64_t budget_;
  std::int64_t fallback_;
};

// --- flat-kernel lowering (mirrors LubyProcess::step bit-for-bit) -----------

struct LubyKernelState {
  std::int64_t rank;
};

void luby_kernel_propose(KernelCtx& ctx) {
  for (NodeId j = 0; j < ctx.degree; ++j) {
    bool present = false;
    const auto m = ctx.recv(j, &present);
    if (present && m[0] == kTagJoined) {
      ctx.finish(0);
      return;
    }
  }
  auto& st = ctx.state_as<LubyKernelState>();
  st.rank = static_cast<std::int64_t>(ctx.rng->next() >> 1);
  ctx.broadcast({kTagValue, st.rank, ctx.identity});
}

void luby_kernel_resolve(KernelCtx& ctx) {
  const auto& st = ctx.state_as<LubyKernelState>();
  bool smallest = true;
  for (NodeId j = 0; j < ctx.degree; ++j) {
    bool present = false;
    const auto m = ctx.recv(j, &present);
    if (!present || m[0] != kTagValue) continue;
    if (m[1] < st.rank || (m[1] == st.rank && m[2] < ctx.identity)) {
      smallest = false;
      break;
    }
  }
  if (smallest) {
    ctx.broadcast({kTagJoined});
    ctx.finish(1);
  }
}

// --- batched stepping (phase-grouped buckets; see KernelBatchCtx) -----------
//
// The batch fns run the same per-node bodies as the scalar phases, built
// inline over the bucket so the per-node indirect dispatch folds away. The
// resolve neighbour max-scan is restructured into fixed-width lanes — a
// branch-free beat-flag accumulation instead of an early-exit compare
// chain — which reads the same messages and sends the same words, so it
// stays bit-identical to the scalar phase.

constexpr NodeId kScanLanes = 4;

inline std::int64_t luby_port_beats(KernelCtx& ctx, std::int64_t rank,
                                    NodeId j) {
  bool present = false;
  const auto m = ctx.recv(j, &present);
  if (!present || m[0] != kTagValue) return 0;
  return (m[1] < rank || (m[1] == rank && m[2] < ctx.identity)) ? 1 : 0;
}

void luby_batch_propose(const KernelBatchCtx& b) {
  for (std::size_t i = 0; i < b.count; ++i) {
    KernelCtx ctx = b.node_ctx(i);
    luby_kernel_propose(ctx);
    b.latch(i, ctx);
  }
}

void luby_batch_resolve(const KernelBatchCtx& b) {
  for (std::size_t i = 0; i < b.count; ++i) {
    KernelCtx ctx = b.node_ctx(i);
    const auto& st = ctx.state_as<LubyKernelState>();
    std::int64_t beat[kScanLanes] = {};
    NodeId j = 0;
    for (; j + kScanLanes <= ctx.degree; j += kScanLanes)
      for (NodeId l = 0; l < kScanLanes; ++l)
        beat[l] |= luby_port_beats(ctx, st.rank, j + l);
    std::int64_t any = 0;
    for (NodeId l = 0; l < kScanLanes; ++l) any |= beat[l];
    for (; j < ctx.degree; ++j) any |= luby_port_beats(ctx, st.rank, j);
    if (any == 0) {
      ctx.broadcast({kTagJoined});
      ctx.finish(1);
    }
    b.latch(i, ctx);
  }
}

std::shared_ptr<const StepKernel> make_luby_kernel() {
  auto kernel = std::make_shared<StepKernel>();
  kernel->name = "luby";
  kernel->state_size = sizeof(LubyKernelState);
  kernel->state_align = alignof(LubyKernelState);
  kernel->phases = {{"propose", luby_kernel_propose, luby_batch_propose},
                    {"resolve", luby_kernel_resolve, luby_batch_resolve}};
  return kernel;
}

// --- truncation wrapper kernel ----------------------------------------------

struct TruncateKernelConfig {
  std::shared_ptr<const StepKernel> inner;
  std::int64_t budget;
  std::int64_t fallback;
};

void truncated_kernel_init(std::byte* state, const NodeInit& init,
                           const void* config) {
  const auto* cfg = static_cast<const TruncateKernelConfig*>(config);
  cfg->inner->init_fn(state, init, cfg->inner->config.get());
}

void truncated_kernel_step(KernelCtx& ctx) {
  const auto* cfg = static_cast<const TruncateKernelConfig*>(ctx.config);
  if (ctx.round >= cfg->budget) {
    ctx.finish(cfg->fallback);
    return;
  }
  const StepKernel& inner = *cfg->inner;
  ctx.config = inner.config.get();
  inner.phases[kernel_phase_index(inner, ctx.round, ctx.state)].fn(ctx);
  ctx.config = cfg;
  // The budget round must step to latch the fallback.
  if (ctx.wake_round > cfg->budget) ctx.sleep_until(cfg->budget);
}

// Forwards maximal same-inner-phase runs of the bucket to the inner kernel's
// batch fns, so truncation keeps the inner kernel's batching instead of
// degrading every step to a scalar dispatch. Past-budget nodes latch the
// fallback directly, and latched sleep hints are clamped to the budget.
void truncated_kernel_batch(const KernelBatchCtx& b) {
  const auto* cfg = static_cast<const TruncateKernelConfig*>(b.config);
  const StepKernel& inner = *cfg->inner;
  std::size_t i = 0;
  while (i < b.count) {
    if (b.rounds[i] >= cfg->budget) {
      b.finished[b.nodes[i]] = 1;
      b.outputs[b.nodes[i]] = cfg->fallback;
      ++i;
      continue;
    }
    const auto inner_phase = [&](std::size_t k) {
      return kernel_phase_index(
          inner, b.rounds[k],
          b.state_base + static_cast<std::size_t>(b.nodes[k]) * b.stride);
    };
    const std::size_t p = inner_phase(i);
    std::size_t j = i + 1;
    while (j < b.count && b.rounds[j] < cfg->budget && inner_phase(j) == p)
      ++j;
    KernelBatchCtx sub = b;
    sub.nodes = b.nodes + i;
    sub.rounds = b.rounds + i;
    sub.count = j - i;
    sub.config = inner.config.get();
    const KernelPhase& phase = inner.phases[p];
    if (phase.batch != nullptr) {
      phase.batch(sub);
    } else {
      for (std::size_t k = 0; k < sub.count; ++k) {
        KernelCtx ctx = sub.node_ctx(k);
        phase.fn(ctx);
        sub.latch(k, ctx);
      }
    }
    if (b.wake_rounds != nullptr) {
      for (std::size_t k = i; k < j; ++k) {
        std::int64_t& wake = b.wake_rounds[b.nodes[k]];
        wake = std::min(wake, cfg->budget);
      }
    }
    i = j;
  }
}

std::shared_ptr<const StepKernel> make_truncated_kernel(
    std::shared_ptr<const StepKernel> inner, std::int64_t budget,
    std::int64_t fallback) {
  if (inner == nullptr) return nullptr;
  auto kernel = std::make_shared<StepKernel>();
  kernel->name = inner->name + "@" + std::to_string(budget);
  kernel->state_size = inner->state_size;
  kernel->state_align = inner->state_align;
  kernel->port_state_words = inner->port_state_words;
  kernel->init_fn = inner->init_fn != nullptr ? truncated_kernel_init : nullptr;
  kernel->phases = {{"truncate", truncated_kernel_step, truncated_kernel_batch}};
  kernel->config = std::shared_ptr<const void>(
      std::make_shared<TruncateKernelConfig>(
          TruncateKernelConfig{std::move(inner), budget, fallback}));
  return kernel;
}

}  // namespace

std::unique_ptr<Process> LubyMis::spawn(const NodeInit&) const {
  return std::make_unique<LubyProcess>();
}

std::shared_ptr<const StepKernel> LubyMis::kernel() const {
  static const std::shared_ptr<const StepKernel> kernel = make_luby_kernel();
  return kernel;
}

TruncatedAlgorithm::TruncatedAlgorithm(std::shared_ptr<const Algorithm> inner,
                                       std::int64_t budget,
                                       std::int64_t fallback)
    : inner_(std::move(inner)),
      budget_(budget),
      fallback_(fallback),
      kernel_(make_truncated_kernel(inner_->kernel(), budget, fallback)) {}

std::shared_ptr<const StepKernel> TruncatedAlgorithm::kernel() const {
  return kernel_;
}

std::unique_ptr<Process> TruncatedAlgorithm::spawn(const NodeInit& init) const {
  return std::make_unique<TruncatedProcess>(inner_->spawn(init), budget_,
                                            fallback_);
}

std::string TruncatedAlgorithm::name() const {
  return inner_->name() + "@" + std::to_string(budget_);
}

std::int64_t luby_budget(std::int64_t n_guess) {
  return 2 * (6 * clog2(static_cast<std::uint64_t>(std::max<std::int64_t>(
                  2, n_guess))) +
              8);
}

namespace {

class TruncatedLubyMis final : public NonUniformAlgorithm {
 public:
  std::string name() const override { return "luby-mis-MC"; }
  ParamSet gamma() const override { return {Param::kNumNodes}; }
  ParamSet lambda() const override { return {Param::kNumNodes}; }
  const RuntimeBound& bound() const override { return bound_; }
  bool randomized() const override { return true; }
  std::unique_ptr<Algorithm> instantiate(
      std::span<const std::int64_t> guesses) const override {
    return std::make_unique<TruncatedAlgorithm>(std::make_shared<LubyMis>(),
                                                luby_budget(guesses[0]));
  }

 private:
  AdditiveBound bound_{{BoundComponent{
      "luby_budget(n)",
      [](std::int64_t n) { return static_cast<double>(luby_budget(n)); }}}};
};

}  // namespace

std::unique_ptr<NonUniformAlgorithm> make_truncated_luby_mis() {
  return std::make_unique<TruncatedLubyMis>();
}

}  // namespace unilocal
