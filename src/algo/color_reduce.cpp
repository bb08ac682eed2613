#include "src/algo/color_reduce.h"

#include <algorithm>
#include <vector>

#include "src/runtime/kernel.h"

namespace unilocal {

namespace {

// --- step kernel ------------------------------------------------------------
//
// The per-node neighbour-color cache moves into the engine's per-port state
// arena (one word per directed edge); the smallest-free scan reuses the
// per-thread scratch vector as a used[] flag array.

struct ColorReduceKernelConfig {
  std::int64_t k_start;
  std::int64_t target;
  std::int64_t rounds;
};

struct ColorReduceKernelState {
  std::int64_t color;
};

std::int64_t color_reduce_palette_max(const KernelCtx& ctx,
                                      const ColorReduceKernelConfig& cfg) {
  return cfg.target <= 0 ? static_cast<std::int64_t>(ctx.degree) + 1
                         : cfg.target;
}

// Sleep hint: absent mail, the next step that does anything is this node's
// elimination round (while its color is above the palette) or the final
// round; every round in between only polls an empty inbox.
void color_reduce_sleep(KernelCtx& ctx, const ColorReduceKernelConfig& cfg,
                        std::int64_t color) {
  std::int64_t next = cfg.rounds - 1;
  const std::int64_t eliminated_at = cfg.k_start - color + 1;
  if (color > color_reduce_palette_max(ctx, cfg) && eliminated_at > ctx.round)
    next = std::min(next, eliminated_at);
  ctx.sleep_until(next);
}

void color_reduce_kernel_init(KernelCtx& ctx) {
  const auto* cfg = static_cast<const ColorReduceKernelConfig*>(ctx.config);
  auto& st = ctx.state_as<ColorReduceKernelState>();
  st.color =
      ctx.input.empty() ? 1 : std::max<std::int64_t>(ctx.input[0], 1);
  for (NodeId j = 0; j < ctx.degree; ++j) ctx.port_state[j] = -1;
  if (cfg->rounds == 1) {
    ctx.finish(st.color);
    return;
  }
  ctx.broadcast({st.color});
  color_reduce_sleep(ctx, *cfg, st.color);
}

// Palette intersection: marks each cached neighbour color in used[]. Lane
// structure with used[0] as a branch-free dump slot for out-of-palette
// entries (colors are >= 1, so slot 0 is never scanned) — the inner loop has
// no data-dependent branch and vectorizes as compare/select/scatter.
inline void color_reduce_mark_used(const std::int64_t* port_state,
                                   NodeId degree, std::int64_t palette_max,
                                   std::vector<std::int64_t>& used) {
  constexpr NodeId kLanes = 4;
  used.assign(static_cast<std::size_t>(palette_max) + 1, 0);
  NodeId j = 0;
  for (; j + kLanes <= degree; j += kLanes) {
    for (NodeId l = 0; l < kLanes; ++l) {
      const std::int64_t c = port_state[j + l];
      const bool in_palette = c >= 1 && c <= palette_max;
      used[static_cast<std::size_t>(in_palette ? c : 0)] = 1;
    }
  }
  for (; j < degree; ++j) {
    const std::int64_t c = port_state[j];
    const bool in_palette = c >= 1 && c <= palette_max;
    used[static_cast<std::size_t>(in_palette ? c : 0)] = 1;
  }
}

void color_reduce_kernel_eliminate(KernelCtx& ctx) {
  const auto* cfg = static_cast<const ColorReduceKernelConfig*>(ctx.config);
  auto& st = ctx.state_as<ColorReduceKernelState>();
  // Update the neighbour-color cache (only changed colors arrive).
  for (NodeId j = 0; j < ctx.degree; ++j) {
    bool present = false;
    const auto m = ctx.recv(j, &present);
    if (present) ctx.port_state[j] = m[0];
  }
  const std::int64_t palette_max = color_reduce_palette_max(ctx, *cfg);
  // Round r eliminates color value k_start - r + 1.
  const std::int64_t eliminated = cfg->k_start - ctx.round + 1;
  if (st.color == eliminated && st.color > palette_max) {
    auto& used = *ctx.scratch;
    color_reduce_mark_used(ctx.port_state, ctx.degree, palette_max, used);
    std::int64_t chosen = palette_max;  // unreachable under good inputs
    for (std::int64_t c = 1; c <= palette_max; ++c) {
      if (used[static_cast<std::size_t>(c)] == 0) {
        chosen = c;
        break;
      }
    }
    st.color = chosen;
    if (ctx.round + 1 < cfg->rounds) ctx.broadcast({st.color});
  }
  if (ctx.round + 1 >= cfg->rounds) {
    ctx.finish(st.color);
    return;
  }
  color_reduce_sleep(ctx, *cfg, st.color);
}

// --- batched stepping (phase-grouped buckets; see KernelBatchCtx) -----------

void color_reduce_batch_init(const KernelBatchCtx& b) {
  for (std::size_t i = 0; i < b.count; ++i) {
    KernelCtx ctx = b.node_ctx(i);
    color_reduce_kernel_init(ctx);
    b.latch(i, ctx);
  }
}

void color_reduce_batch_eliminate(const KernelBatchCtx& b) {
  for (std::size_t i = 0; i < b.count; ++i) {
    KernelCtx ctx = b.node_ctx(i);
    color_reduce_kernel_eliminate(ctx);
    b.latch(i, ctx);
  }
}

std::shared_ptr<const StepKernel> make_color_reduce_kernel(
    std::int64_t k_start, std::int64_t target, std::int64_t rounds) {
  auto kernel = std::make_shared<StepKernel>();
  kernel->name = "color-reduce";
  kernel->state_size = sizeof(ColorReduceKernelState);
  kernel->state_align = alignof(ColorReduceKernelState);
  kernel->port_state_words = 1;
  kernel->phases = {
      {"init", color_reduce_kernel_init, color_reduce_batch_init},
      {"eliminate", color_reduce_kernel_eliminate,
       color_reduce_batch_eliminate}};
  kernel->select_fn = [](std::int64_t round, const std::byte*,
                         const void*) -> std::uint16_t {
    return round == 0 ? 0 : 1;
  };
  kernel->config = std::shared_ptr<const void>(
      std::make_shared<ColorReduceKernelConfig>(
          ColorReduceKernelConfig{k_start, target, rounds}));
  return kernel;
}

}  // namespace

ColorReduce::ColorReduce(std::int64_t k_start, std::int64_t target)
    : k_start_(std::max<std::int64_t>(k_start, 1)), target_(target) {
  // Eliminations run from color k_start down to (target+1) in fixed mode
  // and down to 2 in (deg+1) mode; plus the broadcast round 0.
  const std::int64_t floor_color = target_ <= 0 ? 1 : target_;
  rounds_ = std::max<std::int64_t>(k_start_ - floor_color, 0) + 1;
  kernel_ = make_color_reduce_kernel(k_start_, target_, rounds_);
}

std::shared_ptr<const StepKernel> ColorReduce::kernel() const {
  return kernel_;
}

std::string ColorReduce::name() const {
  return "color-reduce(" + std::to_string(k_start_) + "->" +
         (target_ <= 0 ? std::string("deg+1") : std::to_string(target_)) + ")";
}

}  // namespace unilocal
