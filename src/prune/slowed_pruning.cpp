#include "src/prune/slowed_pruning.h"

#include "src/runtime/kernel.h"

namespace unilocal {

namespace {

struct PaddedKernelConfig {
  std::shared_ptr<const Algorithm> owner;  // keeps `inner` valid
  std::shared_ptr<const StepKernel> inner;
  std::int64_t extra;
};

void padded_kernel_init(std::byte* state, const NodeInit& init,
                        const void* config) {
  const auto* cfg = static_cast<const PaddedKernelConfig*>(config);
  cfg->inner->init_fn(state, init, cfg->inner->config.get());
}

/// Idles through the padding, then runs the inner kernel shifted by it.
void padded_kernel_step(KernelCtx& ctx) {
  const auto* cfg = static_cast<const PaddedKernelConfig*>(ctx.config);
  if (ctx.round < cfg->extra) {
    ctx.sleep_until(cfg->extra);
    return;
  }
  const std::int64_t round = ctx.round;
  ctx.round -= cfg->extra;
  step_inner_kernel(*cfg->inner, ctx);
  ctx.round = round;
  if (ctx.wake_round != 0) ctx.wake_round += cfg->extra;
}

}  // namespace

std::unique_ptr<Algorithm> SlowedPruning::as_local_algorithm() const {
  std::shared_ptr<const Algorithm> inner = inner_->as_local_algorithm();
  std::shared_ptr<const StepKernel> inner_kernel = inner->kernel();
  std::string name = inner->name() + "+pad";
  auto kernel = std::make_shared<StepKernel>();
  kernel->name = inner_kernel->name + "+pad";
  kernel->state_size = inner_kernel->state_size;
  kernel->state_align = inner_kernel->state_align;
  kernel->port_state_words = inner_kernel->port_state_words;
  kernel->init_fn =
      inner_kernel->init_fn != nullptr ? padded_kernel_init : nullptr;
  kernel->phases = {{"pad", padded_kernel_step}};
  kernel->config = std::make_shared<const PaddedKernelConfig>(
      PaddedKernelConfig{std::move(inner), std::move(inner_kernel), extra_});
  return std::make_unique<KernelAlgorithm>(std::move(name), std::move(kernel));
}

}  // namespace unilocal
