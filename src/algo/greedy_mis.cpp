#include "src/algo/greedy_mis.h"

#include "src/runtime/kernel.h"

namespace unilocal {

namespace {

constexpr std::int64_t kTagValue = 0;
constexpr std::int64_t kTagJoined = 1;

class GlobalMis final : public NonUniformAlgorithm {
 public:
  std::string name() const override { return "greedy-mis-as-A{n}"; }
  ParamSet gamma() const override { return {Param::kNumNodes}; }
  ParamSet lambda() const override { return {Param::kNumNodes}; }
  const RuntimeBound& bound() const override { return bound_; }
  std::unique_ptr<Algorithm> instantiate(
      std::span<const std::int64_t>) const override {
    // The code happens to be uniform; the *bound* is what depends on n.
    return std::make_unique<GreedyMis>();
  }

 private:
  AdditiveBound bound_{{BoundComponent{
      "2n+4", [](std::int64_t n) { return 2.0 * static_cast<double>(n) + 4.0; }}}};
};

// --- step kernel ------------------------------------------------------------

void greedy_mis_kernel_propose(KernelCtx& ctx) {
  for (NodeId j = 0; j < ctx.degree; ++j) {
    bool present = false;
    const auto m = ctx.recv(j, &present);
    if (present && m[0] == kTagJoined) {
      ctx.finish(0);
      return;
    }
  }
  ctx.broadcast({kTagValue, ctx.identity});
}

// The identity-compare scan accumulates beat flags over every port in
// fixed-width lanes instead of early-exiting; it reads and sends the same
// words either way, so it is bit-identical to the early-exit scan.
constexpr NodeId kScanLanes = 4;

inline std::int64_t greedy_port_beats(KernelCtx& ctx, NodeId j) {
  bool present = false;
  const auto m = ctx.recv(j, &present);
  if (!present || m[0] != kTagValue) return 0;
  return m[1] < ctx.identity ? 1 : 0;
}

void greedy_mis_kernel_resolve(KernelCtx& ctx) {
  std::int64_t beat[kScanLanes] = {};
  NodeId j = 0;
  for (; j + kScanLanes <= ctx.degree; j += kScanLanes)
    for (NodeId l = 0; l < kScanLanes; ++l)
      beat[l] |= greedy_port_beats(ctx, j + l);
  std::int64_t any = 0;
  for (NodeId l = 0; l < kScanLanes; ++l) any |= beat[l];
  for (; j < ctx.degree; ++j) any |= greedy_port_beats(ctx, j);
  if (any == 0) {
    ctx.broadcast({kTagJoined});
    ctx.finish(1);
  }
}

std::shared_ptr<const StepKernel> make_greedy_mis_kernel() {
  auto kernel = std::make_shared<StepKernel>();
  kernel->name = "greedy-mis";
  kernel->phases = {
      kernel_phase<greedy_mis_kernel_propose>("propose"),
      kernel_phase<greedy_mis_kernel_resolve>("resolve")};
  return kernel;
}

}  // namespace

std::shared_ptr<const StepKernel> GreedyMis::kernel() const {
  static const std::shared_ptr<const StepKernel> kernel =
      make_greedy_mis_kernel();
  return kernel;
}

std::unique_ptr<NonUniformAlgorithm> make_global_mis() {
  return std::make_unique<GlobalMis>();
}

}  // namespace unilocal
