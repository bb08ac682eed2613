#include "src/algo/arb_coloring.h"

#include <algorithm>

#include "src/algo/hpartition.h"
#include "src/algo/linial.h"
#include "src/runtime/chain.h"
#include "src/runtime/kernel.h"
#include "src/util/math.h"

namespace unilocal {

struct OutLinialColoring::Impl {
  LinialSchedule schedule;
  std::int64_t out_degree_bound = 0;
};

namespace {

// --- step kernel ------------------------------------------------------------
//
// The out-orientation flags move into the per-port state lane (one word per
// directed edge); the conflict buffer reuses the per-thread scratch vector.
// Config is the algorithm's shared Impl (schedule + out-degree bound).

struct OutLinialKernelState {
  std::int64_t layer;
  std::int64_t color;
};

void out_linial_kernel_round0(KernelCtx& ctx) {
  const auto* impl = static_cast<const OutLinialColoring::Impl*>(ctx.config);
  auto& st = ctx.state_as<OutLinialKernelState>();
  st.layer = ctx.input.empty() ? 0 : ctx.input[0];
  st.color = std::max<std::int64_t>(ctx.identity - 1, 0) %
             impl->schedule.initial_space;
  ctx.broadcast({st.layer, ctx.identity});
}

void out_linial_kernel_orient(KernelCtx& ctx) {
  const auto* impl = static_cast<const OutLinialColoring::Impl*>(ctx.config);
  auto& st = ctx.state_as<OutLinialKernelState>();
  // Learn the orientation: out-neighbours are (layer, id)-larger.
  for (NodeId j = 0; j < ctx.degree; ++j) {
    bool present = false;
    const auto m = ctx.recv(j, &present);
    if (!present) continue;
    const auto other = std::make_pair(m[0], m[1]);
    if (other > std::make_pair(st.layer, ctx.identity)) ctx.port_state[j] = 1;
  }
  if (impl->schedule.length() == 0) {
    ctx.finish(st.color + 1);
    return;
  }
  ctx.broadcast({st.color});
}

void out_linial_kernel_reduce(KernelCtx& ctx) {
  const auto* impl = static_cast<const OutLinialColoring::Impl*>(ctx.config);
  auto& st = ctx.state_as<OutLinialKernelState>();
  const std::size_t index = static_cast<std::size_t>(ctx.round - 2);
  auto& conflicts = *ctx.scratch;
  conflicts.assign(static_cast<std::size_t>(ctx.degree), -1);
  for (NodeId j = 0; j < ctx.degree; ++j) {
    if (ctx.port_state[j] == 0) continue;
    bool present = false;
    const auto m = ctx.recv(j, &present);
    if (present) conflicts[static_cast<std::size_t>(j)] = m[0];
  }
  st.color = linial_step_apply(impl->schedule.steps[index], st.color,
                               conflicts);
  if (index + 1 == impl->schedule.length()) {
    ctx.finish(st.color + 1);
    return;
  }
  ctx.broadcast({st.color});
}

void out_linial_batch_round0(const KernelBatchCtx& b) {
  for (std::size_t i = 0; i < b.count; ++i) {
    KernelCtx ctx = b.node_ctx(i);
    out_linial_kernel_round0(ctx);
    b.latch(i, ctx);
  }
}

void out_linial_batch_orient(const KernelBatchCtx& b) {
  for (std::size_t i = 0; i < b.count; ++i) {
    KernelCtx ctx = b.node_ctx(i);
    out_linial_kernel_orient(ctx);
    b.latch(i, ctx);
  }
}

void out_linial_batch_reduce(const KernelBatchCtx& b) {
  for (std::size_t i = 0; i < b.count; ++i) {
    KernelCtx ctx = b.node_ctx(i);
    out_linial_kernel_reduce(ctx);
    b.latch(i, ctx);
  }
}

std::shared_ptr<const StepKernel> make_out_linial_kernel(
    std::shared_ptr<const OutLinialColoring::Impl> impl) {
  auto kernel = std::make_shared<StepKernel>();
  kernel->name = "out-linial";
  kernel->state_size = sizeof(OutLinialKernelState);
  kernel->state_align = alignof(OutLinialKernelState);
  kernel->port_state_words = 1;
  kernel->phases = {
      {"round0", out_linial_kernel_round0, out_linial_batch_round0},
      {"orient", out_linial_kernel_orient, out_linial_batch_orient},
      {"reduce", out_linial_kernel_reduce, out_linial_batch_reduce}};
  kernel->select_fn = [](std::int64_t round, const std::byte*,
                         const void*) -> std::uint16_t {
    if (round == 0) return 0;
    return round == 1 ? 1 : 2;
  };
  kernel->config = std::shared_ptr<const void>(std::move(impl));
  return kernel;
}

}  // namespace

OutLinialColoring::OutLinialColoring(std::int64_t out_degree_bound,
                                     std::int64_t m_guess) {
  auto impl = std::make_shared<Impl>();
  impl->out_degree_bound = out_degree_bound;
  impl->schedule = linial_schedule(out_degree_bound,
                                   std::max<std::int64_t>(m_guess, 1));
  impl_ = std::move(impl);
  kernel_ = make_out_linial_kernel(impl_);
}

std::shared_ptr<const StepKernel> OutLinialColoring::kernel() const {
  return kernel_;
}

std::string OutLinialColoring::name() const {
  return "out-linial(d=" + std::to_string(impl_->out_degree_bound) + ")";
}

std::int64_t OutLinialColoring::final_space() const noexcept {
  return impl_->schedule.final_space;
}

std::int64_t OutLinialColoring::schedule_rounds() const noexcept {
  return static_cast<std::int64_t>(impl_->schedule.length()) + 2;
}

std::unique_ptr<Algorithm> make_arb_coloring_algorithm(
    std::int64_t arboricity_guess, std::int64_t n_guess,
    std::int64_t m_guess) {
  auto peel = std::make_shared<HPartition>(arboricity_guess, n_guess);
  auto color =
      std::make_shared<OutLinialColoring>(peel->threshold(), m_guess);
  std::vector<ChainStage> stages;
  stages.push_back({peel, peel->schedule_rounds()});
  stages.push_back({color, color->schedule_rounds()});
  return std::make_unique<ChainAlgorithm>(
      "arb-coloring(a=" + std::to_string(arboricity_guess) + ")",
      std::move(stages));
}

namespace {

class ArbColoring final : public NonUniformAlgorithm {
 public:
  std::string name() const override { return "arb-O(a^2)-coloring"; }
  ParamSet gamma() const override {
    return {Param::kArboricity, Param::kNumNodes, Param::kMaxIdentity};
  }
  ParamSet lambda() const override { return gamma(); }
  const RuntimeBound& bound() const override { return bound_; }
  std::unique_ptr<Algorithm> instantiate(
      std::span<const std::int64_t> guesses) const override {
    return make_arb_coloring_algorithm(guesses[0], guesses[1], guesses[2]);
  }

 private:
  AdditiveBound bound_{
      {BoundComponent{"6a+4",
                      [](std::int64_t a) {
                        return static_cast<double>(
                            6 * std::max<std::int64_t>(a, 1) + 4);
                      }},
       BoundComponent{"log1.5(n)+5",
                      [](std::int64_t n) {
                        return static_cast<double>(HPartition::phases_for(n) +
                                                   5);
                      }},
       BoundComponent{"log*(m)+44", [](std::int64_t m) {
                        return static_cast<double>(
                            log_star(static_cast<std::uint64_t>(
                                std::max<std::int64_t>(m, 2))) +
                            44);
                      }}}};
};

}  // namespace

std::unique_ptr<NonUniformAlgorithm> make_arb_coloring() {
  return std::make_unique<ArbColoring>();
}

}  // namespace unilocal
