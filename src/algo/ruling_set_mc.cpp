#include "src/algo/ruling_set_mc.h"

#include <algorithm>

#include "src/algo/luby.h"
#include "src/runtime/kernel.h"
#include "src/util/math.h"

namespace unilocal {

namespace {

// Message layout: [kind, payload...].
constexpr std::int64_t kKindMin = 0;  // payload: rank, identity
constexpr std::int64_t kKindDom = 1;  // payload: remaining hops

// --- step kernel ------------------------------------------------------------
//
// Each phase of period 2*beta + 2 runs fresh (draw a rank), beta - 1 flood
// rounds of the minimum (rank, identity), the join round (the strict minimum
// of the beta-ball joins), then the domination wave. Waves cannot straddle
// phases: they start at phase round beta + 1 and travel beta - 1 more hops,
// ending by round 2*beta < period.

struct BetaLubyKernelConfig {
  std::int64_t beta;
  std::int64_t period;  // 2*beta + 2
};

struct BetaLubyKernelState {
  std::int64_t rank;
  std::int64_t min_rank;
  std::int64_t min_id;
  std::int64_t dominated;
};

// One-pass port ingest shared by the flood/join/dom phases: folds minima
// into the state and returns this round's maximum domination-hop payload
// (-1 when none arrived).
inline std::int64_t beta_luby_ingest(KernelCtx& ctx,
                                     BetaLubyKernelState& st) {
  std::int64_t dom_hops = -1;
  for (NodeId j = 0; j < ctx.degree; ++j) {
    bool present = false;
    const auto m = ctx.recv(j, &present);
    if (!present) continue;
    if (m[0] == kKindMin) {
      if (m[1] < st.min_rank || (m[1] == st.min_rank && m[2] < st.min_id)) {
        st.min_rank = m[1];
        st.min_id = m[2];
      }
    } else if (m[0] == kKindDom) {
      st.dominated = 1;
      dom_hops = std::max(dom_hops, m[1]);
    }
  }
  return dom_hops;
}

void beta_luby_kernel_fresh(KernelCtx& ctx) {
  auto& st = ctx.state_as<BetaLubyKernelState>();
  st.rank = static_cast<std::int64_t>(ctx.rng->next() >> 1);
  st.min_rank = st.rank;
  st.min_id = ctx.identity;
  st.dominated = 0;
  ctx.broadcast({kKindMin, st.rank, ctx.identity});
}

void beta_luby_kernel_flood(KernelCtx& ctx) {
  auto& st = ctx.state_as<BetaLubyKernelState>();
  beta_luby_ingest(ctx, st);
  ctx.broadcast({kKindMin, st.min_rank, st.min_id});
}

void beta_luby_kernel_join(KernelCtx& ctx) {
  const auto* cfg = static_cast<const BetaLubyKernelConfig*>(ctx.config);
  auto& st = ctx.state_as<BetaLubyKernelState>();
  beta_luby_ingest(ctx, st);
  if (st.min_rank == st.rank && st.min_id == ctx.identity) {
    if (cfg->beta >= 1) ctx.broadcast({kKindDom, cfg->beta - 1});
    ctx.finish(1);
  }
}

void beta_luby_kernel_dom(KernelCtx& ctx) {
  auto& st = ctx.state_as<BetaLubyKernelState>();
  const std::int64_t dom_hops = beta_luby_ingest(ctx, st);
  if (st.dominated != 0) {
    if (dom_hops >= 1) ctx.broadcast({kKindDom, dom_hops - 1});
    ctx.finish(0);
  }
}

void beta_luby_batch_fresh(const KernelBatchCtx& b) {
  for (std::size_t i = 0; i < b.count; ++i) {
    KernelCtx ctx = b.node_ctx(i);
    beta_luby_kernel_fresh(ctx);
    b.latch(i, ctx);
  }
}

void beta_luby_batch_flood(const KernelBatchCtx& b) {
  for (std::size_t i = 0; i < b.count; ++i) {
    KernelCtx ctx = b.node_ctx(i);
    beta_luby_kernel_flood(ctx);
    b.latch(i, ctx);
  }
}

void beta_luby_batch_join(const KernelBatchCtx& b) {
  for (std::size_t i = 0; i < b.count; ++i) {
    KernelCtx ctx = b.node_ctx(i);
    beta_luby_kernel_join(ctx);
    b.latch(i, ctx);
  }
}

void beta_luby_batch_dom(const KernelBatchCtx& b) {
  for (std::size_t i = 0; i < b.count; ++i) {
    KernelCtx ctx = b.node_ctx(i);
    beta_luby_kernel_dom(ctx);
    b.latch(i, ctx);
  }
}

std::shared_ptr<const StepKernel> make_beta_luby_kernel(int beta) {
  auto kernel = std::make_shared<StepKernel>();
  kernel->name = "beta-luby";
  kernel->state_size = sizeof(BetaLubyKernelState);
  kernel->state_align = alignof(BetaLubyKernelState);
  kernel->phases = {
      {"fresh", beta_luby_kernel_fresh, beta_luby_batch_fresh},
      {"flood", beta_luby_kernel_flood, beta_luby_batch_flood},
      {"join", beta_luby_kernel_join, beta_luby_batch_join},
      {"dom", beta_luby_kernel_dom, beta_luby_batch_dom}};
  kernel->select_fn = [](std::int64_t round, const std::byte*,
                         const void* config) -> std::uint16_t {
    const auto* cfg = static_cast<const BetaLubyKernelConfig*>(config);
    const std::int64_t pr = round % cfg->period;
    if (pr == 0) return 0;
    if (pr <= cfg->beta - 1) return 1;
    if (pr == cfg->beta) return 2;
    return 3;
  };
  kernel->config = std::shared_ptr<const void>(
      std::make_shared<BetaLubyKernelConfig>(
          BetaLubyKernelConfig{beta, 2 * static_cast<std::int64_t>(beta) + 2}));
  return kernel;
}

}  // namespace

BetaLubyRulingSet::BetaLubyRulingSet(int beta)
    : beta_(std::max(beta, 1)), kernel_(make_beta_luby_kernel(beta_)) {}

std::shared_ptr<const StepKernel> BetaLubyRulingSet::kernel() const {
  return kernel_;
}

std::string BetaLubyRulingSet::name() const {
  return "beta-luby-ruling-set(b=" + std::to_string(beta_) + ")";
}

std::int64_t beta_luby_budget(int beta, std::int64_t n_guess) {
  const std::int64_t phases =
      6 * clog2(static_cast<std::uint64_t>(std::max<std::int64_t>(n_guess, 2))) +
      8;
  return (2 * static_cast<std::int64_t>(beta) + 2) * phases;
}

namespace {

class McRulingSet final : public NonUniformAlgorithm {
 public:
  explicit McRulingSet(int beta) : beta_(beta), bound_(make_bound(beta)) {}

  std::string name() const override {
    return "mc-(2," + std::to_string(beta_) + ")-ruling-set";
  }
  ParamSet gamma() const override { return {Param::kNumNodes}; }
  ParamSet lambda() const override { return {Param::kNumNodes}; }
  const RuntimeBound& bound() const override { return bound_; }
  bool randomized() const override { return true; }
  std::unique_ptr<Algorithm> instantiate(
      std::span<const std::int64_t> guesses) const override {
    return std::make_unique<TruncatedAlgorithm>(
        std::make_shared<BetaLubyRulingSet>(beta_),
        beta_luby_budget(beta_, guesses[0]));
  }

 private:
  static AdditiveBound make_bound(int beta) {
    return AdditiveBound{{BoundComponent{
        "budget(n)", [beta](std::int64_t n) {
          return static_cast<double>(beta_luby_budget(beta, n));
        }}}};
  }
  int beta_;
  AdditiveBound bound_;
};

}  // namespace

std::unique_ptr<NonUniformAlgorithm> make_mc_ruling_set(int beta) {
  return std::make_unique<McRulingSet>(beta);
}

}  // namespace unilocal
