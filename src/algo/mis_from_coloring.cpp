#include "src/algo/mis_from_coloring.h"

#include <algorithm>

#include "src/algo/color_reduce.h"
#include "src/algo/linial.h"
#include "src/runtime/chain.h"
#include "src/runtime/kernel.h"
#include "src/util/math.h"

namespace unilocal {

namespace {

// --- step kernel ------------------------------------------------------------

struct MisColorSweepKernelConfig {
  std::int64_t num_colors;
};

struct MisColorSweepKernelState {
  std::int64_t color;
};

void mis_sweep_kernel_round0(KernelCtx& ctx) {
  auto& st = ctx.state_as<MisColorSweepKernelState>();
  st.color = ctx.input.empty() ? 1 : ctx.input[0];
  // Nothing to send: no one has joined yet.
}

void mis_sweep_kernel_sweep(KernelCtx& ctx) {
  const auto* cfg = static_cast<const MisColorSweepKernelConfig*>(ctx.config);
  const auto& st = ctx.state_as<MisColorSweepKernelState>();
  // Learn of joins decided in the previous round.
  for (NodeId j = 0; j < ctx.degree; ++j) {
    bool present = false;
    const auto m = ctx.recv(j, &present);
    if (present && m[0] == 1) {
      ctx.finish(0);  // dominated
      return;
    }
  }
  if (ctx.round == st.color) {
    ctx.broadcast({1});
    ctx.finish(1);
    return;
  }
  if (ctx.round >= cfg->num_colors + 1) ctx.finish(0);
}

std::shared_ptr<const StepKernel> make_mis_sweep_kernel(
    std::int64_t num_colors) {
  auto kernel = std::make_shared<StepKernel>();
  kernel->name = "mis-color-sweep";
  kernel->state_size = sizeof(MisColorSweepKernelState);
  kernel->state_align = alignof(MisColorSweepKernelState);
  kernel->phases = {
      kernel_phase<mis_sweep_kernel_round0>("round0"),
      kernel_phase<mis_sweep_kernel_sweep>("sweep")};
  kernel->select_fn = [](std::int64_t round, const std::byte*,
                         const void*) -> std::uint16_t {
    return round == 0 ? 0 : 1;
  };
  kernel->config = std::shared_ptr<const void>(
      std::make_shared<MisColorSweepKernelConfig>(
          MisColorSweepKernelConfig{num_colors}));
  return kernel;
}

}  // namespace

MisColorSweep::MisColorSweep(std::int64_t num_colors)
    : num_colors_(std::max<std::int64_t>(num_colors, 1)),
      kernel_(make_mis_sweep_kernel(num_colors_)) {}

std::shared_ptr<const StepKernel> MisColorSweep::kernel() const {
  return kernel_;
}

std::string MisColorSweep::name() const {
  return "mis-sweep(" + std::to_string(num_colors_) + ")";
}

std::unique_ptr<Algorithm> make_coloring_mis_algorithm(std::int64_t delta_guess,
                                                       std::int64_t m_guess) {
  auto linial = std::make_shared<LinialColoring>(
      delta_guess, std::max<std::int64_t>(m_guess, 1));
  const std::int64_t k_final = linial->schedule().final_space;
  auto reduce = std::make_shared<ColorReduce>(k_final, /*target=*/0);
  auto sweep = std::make_shared<MisColorSweep>(delta_guess + 1);
  std::vector<ChainStage> stages;
  stages.push_back({linial, static_cast<std::int64_t>(
                                linial->schedule().length()) +
                                1});
  stages.push_back({reduce, reduce->schedule_rounds()});
  stages.push_back({sweep, sweep->schedule_rounds()});
  return std::make_unique<ChainAlgorithm>(
      "mis-via-coloring(D=" + std::to_string(delta_guess) + ")",
      std::move(stages));
}

namespace {

class ColoringMis final : public NonUniformAlgorithm {
 public:
  std::string name() const override { return "mis-via-coloring"; }
  ParamSet gamma() const override {
    return {Param::kMaxDegree, Param::kMaxIdentity};
  }
  ParamSet lambda() const override {
    return {Param::kMaxDegree, Param::kMaxIdentity};
  }
  const RuntimeBound& bound() const override { return bound_; }
  std::unique_ptr<Algorithm> instantiate(
      std::span<const std::int64_t> guesses) const override {
    return make_coloring_mis_algorithm(guesses[0], guesses[1]);
  }

 private:
  // Chain length <= (|schedule|+1) + final_space + (Delta~+3)
  //             <= linial_final_space_bound(D) + D + 45 + log*(m).
  AdditiveBound bound_{
      {BoundComponent{"O(D^2)",
                      [](std::int64_t d) {
                        return static_cast<double>(
                            linial_final_space_bound(d) + d + 8);
                      }},
       BoundComponent{"log*(m)+43", [](std::int64_t m) {
                        return static_cast<double>(
                            log_star(static_cast<std::uint64_t>(
                                std::max<std::int64_t>(m, 2))) +
                            43);
                      }}}};
};

}  // namespace

std::unique_ptr<NonUniformAlgorithm> make_coloring_mis() {
  return std::make_unique<ColoringMis>();
}

}  // namespace unilocal
