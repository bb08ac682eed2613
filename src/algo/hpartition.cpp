#include "src/algo/hpartition.h"

#include <algorithm>
#include <cmath>

#include "src/runtime/kernel.h"

namespace unilocal {

namespace {

// --- step kernel ------------------------------------------------------------

struct HPartitionKernelConfig {
  std::int64_t threshold;
  std::int64_t phases;
};

struct HPartitionKernelState {
  std::int64_t residual_degree;
  std::int64_t layer;
};

void hpartition_kernel_round0(KernelCtx& ctx) {
  auto& st = ctx.state_as<HPartitionKernelState>();
  st.residual_degree = ctx.degree;
  // Peel in lockstep: phase p happens in round p (1-based); nothing to send.
}

void hpartition_kernel_peel(KernelCtx& ctx) {
  const auto* cfg = static_cast<const HPartitionKernelConfig*>(ctx.config);
  auto& st = ctx.state_as<HPartitionKernelState>();
  // Ingest departure notices from the previous phase.
  for (NodeId j = 0; j < ctx.degree; ++j) {
    bool present = false;
    ctx.recv(j, &present);
    if (present) --st.residual_degree;
  }
  if (st.layer == 0 && st.residual_degree <= cfg->threshold) {
    st.layer = ctx.round;   // 1-based phase index
    ctx.broadcast({1});     // departure notice
  }
  if (ctx.round >= cfg->phases) ctx.finish(st.layer);
}

std::shared_ptr<const StepKernel> make_hpartition_kernel(
    std::int64_t threshold, std::int64_t phases) {
  auto kernel = std::make_shared<StepKernel>();
  kernel->name = "hpartition";
  kernel->state_size = sizeof(HPartitionKernelState);
  kernel->state_align = alignof(HPartitionKernelState);
  kernel->phases = {
      kernel_phase<hpartition_kernel_round0>("round0"),
      kernel_phase<hpartition_kernel_peel>("peel")};
  kernel->select_fn = [](std::int64_t round, const std::byte*,
                         const void*) -> std::uint16_t {
    return round == 0 ? 0 : 1;
  };
  kernel->config = std::shared_ptr<const void>(
      std::make_shared<HPartitionKernelConfig>(
          HPartitionKernelConfig{threshold, phases}));
  return kernel;
}

}  // namespace

std::int64_t HPartition::phases_for(std::int64_t n_guess) {
  const double n = static_cast<double>(std::max<std::int64_t>(n_guess, 2));
  return static_cast<std::int64_t>(
             std::ceil(std::log(n) / std::log(1.5))) +
         1;
}

HPartition::HPartition(std::int64_t arboricity_guess, std::int64_t n_guess)
    : threshold_(3 * std::max<std::int64_t>(arboricity_guess, 1)),
      phases_(phases_for(n_guess)),
      kernel_(make_hpartition_kernel(threshold_, phases_)) {}

std::shared_ptr<const StepKernel> HPartition::kernel() const {
  return kernel_;
}

std::string HPartition::name() const {
  return "h-partition(3a=" + std::to_string(threshold_) + ")";
}

}  // namespace unilocal
