#include "src/runtime/chain.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/runtime/kernel.h"

namespace unilocal {

namespace {

// Per-node state is a small header (carry of the last finished stage, the
// carry frozen as the current stage's input word, and a done latch) followed
// by ONE inner state region sized/aligned for the widest stage — stages run
// strictly in sequence, so they can share the slot; each stage entry
// re-zeroes it (and the per-port words, as wide as the widest stage's)
// exactly as a fresh engine run would. The stage index is derived from the
// round via the cumulative schedule, so it needs no state of its own. Idle
// rounds (stage finished early, budget not yet elapsed) send nothing and
// draw no randomness, so an idle node sleeps until the stage boundary.

struct ChainKernelHeader {
  std::int64_t carry;       // output of the most recently finished stage
  std::int64_t carry_in;    // previous stage's carry, the current stage input
  std::int64_t inner_done;  // current stage finished before its budget
};

struct ChainKernelStage {
  std::shared_ptr<const StepKernel> kernel;
  std::int64_t start = 0;   // cumulative first round of this stage
  std::int64_t rounds = 0;  // budget
};

struct ChainKernelConfig {
  std::vector<ChainKernelStage> stages;
  std::int64_t total = 0;          // sum of budgets
  std::size_t inner_offset = 0;    // byte offset of the inner state region
  std::size_t inner_size = 0;      // bytes to re-zero on stage entry
  std::int64_t port_words = 0;     // composite per-port width
};

enum : std::uint16_t {
  kChainEnter = 0,  // first round of a stage: reset + init + inner round 0
  kChainRun = 1,    // stage in progress: forward to the inner kernel
  kChainIdle = 2,   // stage finished early: wait out the budget
  kChainDone = 3,   // past the whole schedule
};

std::size_t chain_stage_of(const ChainKernelConfig& cfg, std::int64_t round) {
  std::size_t k = 0;
  while (k < cfg.stages.size() &&
         round >= cfg.stages[k].start + cfg.stages[k].rounds)
    ++k;
  return k;
}

// The round at which stage k next needs a step regardless of the inner
// kernel: the next stage's entry, or the last stage's final (finishing)
// round.
std::int64_t chain_stage_boundary(const ChainKernelConfig& cfg,
                                  std::size_t k) {
  return k + 1 == cfg.stages.size() ? cfg.total - 1 : cfg.stages[k + 1].start;
}

std::uint16_t chain_kernel_select(std::int64_t round, const std::byte* state,
                                  const void* config) {
  const auto* cfg = static_cast<const ChainKernelConfig*>(config);
  if (round >= cfg->total) return kChainDone;
  const std::size_t k = chain_stage_of(*cfg, round);
  if (round == cfg->stages[k].start) return kChainEnter;
  const auto* h = reinterpret_cast<const ChainKernelHeader*>(state);
  return h->inner_done != 0 ? kChainIdle : kChainRun;
}

// Runs the active stage's round: swaps the ctx to the inner kernel's view
// (stage-relative round, stage input, inner config/state), dispatches the
// inner phase, restores, and folds an inner finish into the header instead
// of the engine latch. On the final round of the last stage it finishes
// right away, saving one idle round. An inner sleep hint is stage-relative: it is
// moved to absolute rounds and clamped to the stage boundary.
void chain_forward(KernelCtx& ctx, const ChainKernelConfig& cfg, std::size_t k,
                   std::span<const std::int64_t> stage_input) {
  auto& h = ctx.state_as<ChainKernelHeader>();
  const StepKernel& inner = *cfg.stages[k].kernel;
  const std::int64_t round = ctx.round;
  const auto saved_input = ctx.input;
  std::byte* saved_state = ctx.state;
  ctx.round = round - cfg.stages[k].start;
  ctx.input = stage_input;
  ctx.state = saved_state + cfg.inner_offset;
  step_inner_kernel(inner, ctx);
  ctx.round = round;
  ctx.input = saved_input;
  ctx.state = saved_state;
  if (ctx.finished) {
    h.carry = ctx.output;
    h.inner_done = 1;
    ctx.finished = false;
    ctx.output = 0;
    ctx.sleep_until(chain_stage_boundary(cfg, k));
  } else if (ctx.wake_round != 0) {
    ctx.sleep_until(std::min(ctx.wake_round + cfg.stages[k].start,
                             chain_stage_boundary(cfg, k)));
  }
  if (k + 1 == cfg.stages.size() &&
      round + 1 >= cfg.stages[k].start + cfg.stages[k].rounds)
    ctx.finish(h.inner_done != 0 ? h.carry : 0);
}

void chain_kernel_enter(KernelCtx& ctx) {
  const auto& cfg = *static_cast<const ChainKernelConfig*>(ctx.config);
  auto& h = ctx.state_as<ChainKernelHeader>();
  const std::size_t k = chain_stage_of(cfg, ctx.round);
  if (k > 0) {
    // close_stage(): a stage cut off by its budget carries the arbitrary 0.
    if (h.inner_done == 0) h.carry = 0;
    h.carry_in = h.carry;
    h.inner_done = 0;
    std::memset(ctx.state + cfg.inner_offset, 0, cfg.inner_size);
    if (ctx.port_state != nullptr)
      std::fill_n(ctx.port_state,
                  static_cast<std::size_t>(ctx.degree) *
                      static_cast<std::size_t>(cfg.port_words),
                  std::int64_t{0});
  }
  const std::span<const std::int64_t> stage_input =
      k == 0 ? ctx.input : std::span<const std::int64_t>(&h.carry_in, 1);
  const StepKernel& inner = *cfg.stages[k].kernel;
  if (inner.init_fn != nullptr) {
    NodeInit init;
    init.degree = ctx.degree;
    init.identity = ctx.identity;
    init.input = stage_input;
    inner.init_fn(ctx.state + cfg.inner_offset, init, inner.config.get());
  }
  chain_forward(ctx, cfg, k, stage_input);
}

void chain_kernel_run(KernelCtx& ctx) {
  const auto& cfg = *static_cast<const ChainKernelConfig*>(ctx.config);
  auto& h = ctx.state_as<ChainKernelHeader>();
  const std::size_t k = chain_stage_of(cfg, ctx.round);
  const std::span<const std::int64_t> stage_input =
      k == 0 ? ctx.input : std::span<const std::int64_t>(&h.carry_in, 1);
  chain_forward(ctx, cfg, k, stage_input);
}

void chain_kernel_idle(KernelCtx& ctx) {
  const auto& cfg = *static_cast<const ChainKernelConfig*>(ctx.config);
  auto& h = ctx.state_as<ChainKernelHeader>();
  if (ctx.round + 1 >= cfg.total) {
    ctx.finish(h.carry);
    return;
  }
  ctx.sleep_until(chain_stage_boundary(cfg, chain_stage_of(cfg, ctx.round)));
}

void chain_kernel_done(KernelCtx& ctx) {
  auto& h = ctx.state_as<ChainKernelHeader>();
  if (h.inner_done == 0) h.carry = 0;
  ctx.finish(h.carry);
}

// The chain's batched forms are the generated ones (kernel_phase<F>): its
// phases keep per-stage input/config handling, so the composite does not
// forward whole buckets to inner batch fns; the win is one dispatch per
// bucket with the stage bookkeeping inlined.
std::shared_ptr<const StepKernel> make_chain_kernel(
    const std::string& name, const std::vector<ChainStage>& stages) {
  auto cfg = std::make_shared<ChainKernelConfig>();
  std::uint32_t max_align = alignof(ChainKernelHeader);
  std::uint32_t max_size = 0;
  std::uint32_t port_words = 0;
  std::int64_t start = 0;
  for (const auto& stage : stages) {
    std::shared_ptr<const StepKernel> inner = stage.algorithm->kernel();
    max_align = std::max(max_align, inner->state_align);
    max_size = std::max(max_size, inner->state_size);
    // Stages share one per-port lane; each uses its own width's prefix.
    port_words = std::max(port_words, inner->port_state_words);
    cfg->stages.push_back({std::move(inner), start, stage.rounds});
    start += stage.rounds;
  }
  cfg->total = start;
  cfg->inner_offset =
      (sizeof(ChainKernelHeader) + max_align - 1) / max_align * max_align;
  cfg->inner_size = max_size;
  cfg->port_words = port_words;

  auto kernel = std::make_shared<StepKernel>();
  kernel->name = "chain:" + name;
  kernel->state_size =
      static_cast<std::uint32_t>(cfg->inner_offset) + max_size;
  kernel->state_align = max_align;
  kernel->port_state_words = port_words;
  kernel->phases = {kernel_phase<chain_kernel_enter>("enter"),
                    kernel_phase<chain_kernel_run>("run"),
                    kernel_phase<chain_kernel_idle>("idle"),
                    kernel_phase<chain_kernel_done>("done")};
  kernel->select_fn = chain_kernel_select;
  kernel->config = std::shared_ptr<const void>(std::move(cfg));
  return kernel;
}

}  // namespace

ChainAlgorithm::ChainAlgorithm(std::string name, std::vector<ChainStage> stages)
    : name_(std::move(name)), stages_(std::move(stages)) {
  assert(!stages_.empty());
  for (const auto& stage : stages_) {
    assert(stage.rounds >= 1);
    total_rounds_ += stage.rounds;
  }
  kernel_ = make_chain_kernel(name_, stages_);
}

std::shared_ptr<const StepKernel> ChainAlgorithm::kernel() const {
  return kernel_;
}

}  // namespace unilocal
