#include "src/algo/cole_vishkin.h"

#include <algorithm>
#include <queue>

#include "src/runtime/kernel.h"
#include "src/util/math.h"

namespace unilocal {

namespace {

std::vector<std::int64_t> cv_spaces(std::int64_t m_guess) {
  std::vector<std::int64_t> spaces;
  std::int64_t space = std::max<std::int64_t>(m_guess + 1, 8);
  spaces.push_back(space);
  while (space > 6) {
    space = 2 * clog2(static_cast<std::uint64_t>(space));
    space = std::max<std::int64_t>(space, 6);
    spaces.push_back(space);
  }
  return spaces;
}

// --- step kernel ------------------------------------------------------------

struct CvKernelConfig {
  std::vector<std::int64_t> spaces;
};

struct CvKernelState {
  std::int64_t color;
  std::int64_t previous;
  std::int64_t parent_cache;
};

void cv_kernel_init(std::byte* state, const NodeInit&, const void*) {
  auto* st = reinterpret_cast<CvKernelState*>(state);
  st->color = 0;
  st->previous = 0;
  st->parent_cache = -1;
}

/// Reads the parent's current color (falling back to the cache when no
/// message arrived this round) and refreshes the cache.
std::int64_t cv_parent_color(KernelCtx& ctx, CvKernelState& st,
                             std::int64_t parent_port) {
  std::int64_t parent_color = st.parent_cache;
  if (parent_port >= 0) {
    bool present = false;
    const auto m = ctx.recv(static_cast<NodeId>(parent_port), &present);
    if (present) parent_color = m[0];
    st.parent_cache = parent_color;
  }
  return parent_color;
}

void cv_kernel_round0(KernelCtx& ctx) {
  const auto* cfg = static_cast<const CvKernelConfig*>(ctx.config);
  auto& st = ctx.state_as<CvKernelState>();
  st.color = ctx.identity % cfg->spaces[0];
  ctx.broadcast({st.color});
}

void cv_kernel_shrink(KernelCtx& ctx) {
  auto& st = ctx.state_as<CvKernelState>();
  const std::int64_t parent_port = ctx.input.empty() ? -1 : ctx.input[0];
  const std::int64_t parent_color = cv_parent_color(ctx, st, parent_port);
  if (parent_port < 0) {
    st.color = st.color & 1;  // root rule
  } else {
    const std::int64_t diff = st.color ^ parent_color;
    const std::int64_t i = diff == 0 ? 0 : ilog2(diff & (-diff));
    st.color = 2 * i + ((st.color >> i) & 1);
  }
  ctx.broadcast({st.color});
}

void cv_kernel_tail(KernelCtx& ctx) {
  const auto* cfg = static_cast<const CvKernelConfig*>(ctx.config);
  auto& st = ctx.state_as<CvKernelState>();
  const std::int64_t parent_port = ctx.input.empty() ? -1 : ctx.input[0];
  const std::int64_t parent_color = cv_parent_color(ctx, st, parent_port);
  const std::int64_t steps =
      static_cast<std::int64_t>(cfg->spaces.size()) - 1;
  // Three (shift-down; eliminate t) pairs for t = 5, 4, 3.
  const std::int64_t phase = ctx.round - steps - 1;
  const std::int64_t pair = phase / 2;  // 0,1,2
  const bool shift = (phase % 2) == 0;
  if (pair >= 3) {
    ctx.finish(st.color + 1);
    return;
  }
  if (shift) {
    st.previous = st.color;
    st.color = parent_port < 0 ? (st.color + 1) % 3 : parent_color;
    ctx.broadcast({st.color});
    return;
  }
  const std::int64_t t = 5 - pair;
  if (st.color == t) {
    // Conflicts: parent's current color + the single color all children
    // share (our own pre-shift color).
    for (std::int64_t c = 0; c < 3; ++c) {
      if (c != parent_color && c != st.previous) {
        st.color = c;
        break;
      }
    }
  }
  ctx.broadcast({st.color});
}

std::uint16_t cv_kernel_select(std::int64_t round, const std::byte*,
                               const void* config) {
  const auto* cfg = static_cast<const CvKernelConfig*>(config);
  const std::int64_t steps =
      static_cast<std::int64_t>(cfg->spaces.size()) - 1;
  if (round == 0) return 0;
  return round <= steps ? 1 : 2;
}

std::shared_ptr<const StepKernel> make_cv_kernel(
    const std::vector<std::int64_t>& spaces) {
  auto kernel = std::make_shared<StepKernel>();
  kernel->name = "cole-vishkin";
  kernel->state_size = sizeof(CvKernelState);
  kernel->state_align = alignof(CvKernelState);
  kernel->init_fn = cv_kernel_init;
  kernel->phases = {kernel_phase<cv_kernel_round0>("round0"),
                    kernel_phase<cv_kernel_shrink>("shrink"),
                    kernel_phase<cv_kernel_tail>("tail")};
  kernel->select_fn = cv_kernel_select;
  kernel->config = std::shared_ptr<const void>(
      std::make_shared<CvKernelConfig>(CvKernelConfig{spaces}));
  return kernel;
}

}  // namespace

ColeVishkin::ColeVishkin(std::int64_t m_guess)
    : spaces_(cv_spaces(m_guess)), kernel_(make_cv_kernel(spaces_)) {}

std::shared_ptr<const StepKernel> ColeVishkin::kernel() const {
  return kernel_;
}

std::string ColeVishkin::name() const {
  return "cole-vishkin(steps=" + std::to_string(spaces_.size() - 1) + ")";
}

std::int64_t ColeVishkin::schedule_rounds() const noexcept {
  return static_cast<std::int64_t>(spaces_.size() - 1) + 8;
}

Instance make_rooted_forest_instance(Graph forest, std::uint64_t seed) {
  Instance instance =
      make_instance(std::move(forest), IdentityScheme::kRandomPermuted, seed);
  const Graph& g = instance.graph;
  const NodeId n = g.num_nodes();
  std::vector<NodeId> parent(static_cast<std::size_t>(n), -1);
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  // Root each component at its minimum-identity node.
  std::vector<NodeId> order(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) order[static_cast<std::size_t>(v)] = v;
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return instance.identities[static_cast<std::size_t>(a)] <
           instance.identities[static_cast<std::size_t>(b)];
  });
  for (NodeId root : order) {
    if (seen[static_cast<std::size_t>(root)]) continue;
    seen[static_cast<std::size_t>(root)] = true;
    std::queue<NodeId> frontier;
    frontier.push(root);
    while (!frontier.empty()) {
      const NodeId v = frontier.front();
      frontier.pop();
      for (NodeId u : g.neighbors(v)) {
        if (!seen[static_cast<std::size_t>(u)]) {
          seen[static_cast<std::size_t>(u)] = true;
          parent[static_cast<std::size_t>(u)] = v;
          frontier.push(u);
        }
      }
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    std::int64_t port = -1;
    const NodeId p = parent[static_cast<std::size_t>(v)];
    if (p >= 0) {
      const auto& nbrs = g.neighbors(v);
      port = std::lower_bound(nbrs.begin(), nbrs.end(), p) - nbrs.begin();
    }
    instance.inputs[static_cast<std::size_t>(v)] = {port};
  }
  return instance;
}

}  // namespace unilocal
