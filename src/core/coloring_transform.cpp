#include "src/core/coloring_transform.h"

#include <algorithm>
#include <cassert>

#include "src/algo/lambda_coloring.h"
#include "src/algo/linial.h"
#include "src/graph/params.h"
#include "src/problems/slc.h"
#include "src/prune/slc_prune.h"
#include "src/runtime/kernel.h"
#include "src/util/math.h"

namespace unilocal {

namespace {

/// Adapter: runs the base coloring with identities as initial colors and
/// maps the resulting base color c to the packed SLC pair (c, j) with the
/// smallest j still present in the node's list. Valid SLC configurations
/// always retain at least one pair per base color (>= deg+1 survive).
class SlcAdapterProcess final : public Process {
 public:
  explicit SlcAdapterProcess(std::unique_ptr<Process> base)
      : base_(std::move(base)) {}

  void step(Context& ctx) override {
    Context sub = ctx.derived(ctx.round(), {});
    base_->step(sub);
    if (!sub.finished()) return;
    const std::int64_t base_color = std::max<std::int64_t>(sub.output(), 1);
    std::int64_t best = -1;
    for (std::int64_t packed : slc_list(ctx.input())) {
      if (slc_color_base(packed) != base_color) continue;
      if (best < 0 || slc_color_index(packed) < slc_color_index(best))
        best = packed;
    }
    if (best < 0) best = pack_slc_color(base_color, 1);  // bad-guess fallback
    ctx.finish(best);
  }

 private:
  std::unique_ptr<Process> base_;
};

// --- flat-kernel lowering of the adapter (mirrors SlcAdapterProcess) --------
//
// State geometry is the base kernel's verbatim; the wrapper hides the SLC
// input from the base (the base ran on stripped inputs) and, when the base
// finishes, remaps its color to the packed SLC pair before re-latching.

struct SlcAdapterKernelConfig {
  std::shared_ptr<const StepKernel> inner;
};

void slc_adapter_kernel_init(std::byte* state, const NodeInit& init,
                             const void* config) {
  const auto* cfg = static_cast<const SlcAdapterKernelConfig*>(config);
  NodeInit stripped = init;
  stripped.input = {};
  cfg->inner->init_fn(state, stripped, cfg->inner->config.get());
}

void slc_adapter_kernel_step(KernelCtx& ctx) {
  const auto* cfg = static_cast<const SlcAdapterKernelConfig*>(ctx.config);
  const StepKernel& inner = *cfg->inner;
  const auto saved_input = ctx.input;
  ctx.input = {};
  ctx.config = inner.config.get();
  inner.phases[kernel_phase_index(inner, ctx.round, ctx.state)].fn(ctx);
  ctx.config = cfg;
  ctx.input = saved_input;
  if (!ctx.finished) return;
  const std::int64_t base_color = std::max<std::int64_t>(ctx.output, 1);
  std::int64_t best = -1;
  for (std::int64_t packed : slc_list(ctx.input)) {
    if (slc_color_base(packed) != base_color) continue;
    if (best < 0 || slc_color_index(packed) < slc_color_index(best))
      best = packed;
  }
  if (best < 0) best = pack_slc_color(base_color, 1);  // bad-guess fallback
  ctx.output = best;
}

void slc_adapter_kernel_batch(const KernelBatchCtx& b) {
  for (std::size_t i = 0; i < b.count; ++i) {
    KernelCtx ctx = b.node_ctx(i);
    slc_adapter_kernel_step(ctx);
    b.latch(i, ctx);
  }
}

std::shared_ptr<const StepKernel> make_slc_adapter_kernel(
    std::shared_ptr<const StepKernel> inner) {
  if (inner == nullptr) return nullptr;
  auto kernel = std::make_shared<StepKernel>();
  kernel->name = "slc-adapter:" + inner->name;
  kernel->state_size = inner->state_size;
  kernel->state_align = inner->state_align;
  kernel->port_state_words = inner->port_state_words;
  kernel->init_fn =
      inner->init_fn != nullptr ? slc_adapter_kernel_init : nullptr;
  kernel->phases = {
      {"adapt", slc_adapter_kernel_step, slc_adapter_kernel_batch}};
  kernel->config = std::shared_ptr<const void>(
      std::make_shared<SlcAdapterKernelConfig>(
          SlcAdapterKernelConfig{std::move(inner)}));
  return kernel;
}

class SlcAdapterAlgorithm final : public Algorithm {
 public:
  SlcAdapterAlgorithm(std::shared_ptr<const Algorithm> base, std::string name)
      : base_(std::move(base)),
        name_(std::move(name)),
        kernel_(make_slc_adapter_kernel(base_->kernel())) {}
  std::unique_ptr<Process> spawn(const NodeInit& init) const override {
    NodeInit stripped = init;
    stripped.input = {};
    return std::make_unique<SlcAdapterProcess>(base_->spawn(stripped));
  }
  std::shared_ptr<const StepKernel> kernel() const override { return kernel_; }
  std::string name() const override { return name_; }

 private:
  std::shared_ptr<const Algorithm> base_;
  std::string name_;
  std::shared_ptr<const StepKernel> kernel_;
};

/// The per-layer SLC solver B^{Gamma'}: Delta^ is baked in (it arrives with
/// every node's input), leaving m as the only guessed parameter.
class SlcSolver final : public NonUniformAlgorithm {
 public:
  SlcSolver(const GDeltaColoring& base, std::int64_t delta_hat)
      : base_(base),
        delta_hat_(delta_hat),
        bound_({BoundComponent{
            "f(D^,m)", [this](std::int64_t m) {
              return base_.bound(delta_hat_, m) + 2.0;
            }}}) {}

  std::string name() const override {
    return "slc(" + base_.name() + ",D^=" + std::to_string(delta_hat_) + ")";
  }
  ParamSet gamma() const override { return {Param::kMaxIdentity}; }
  ParamSet lambda() const override { return {Param::kMaxIdentity}; }
  const RuntimeBound& bound() const override { return bound_; }
  std::unique_ptr<Algorithm> instantiate(
      std::span<const std::int64_t> guesses) const override {
    return std::make_unique<SlcAdapterAlgorithm>(
        std::shared_ptr<const Algorithm>(
            base_.instantiate(delta_hat_, guesses[0])),
        name());
  }

 private:
  const GDeltaColoring& base_;
  std::int64_t delta_hat_;
  AdditiveBound bound_;
};

}  // namespace

std::vector<std::int64_t> layer_thresholds(const GDeltaColoring& algorithm,
                                           std::int64_t max_degree) {
  std::vector<std::int64_t> thresholds{1};
  while (thresholds.back() <= std::max<std::int64_t>(max_degree, 1)) {
    const std::int64_t d = thresholds.back();
    const std::int64_t want = 2 * algorithm.g(d);
    std::int64_t next = largest_arg_at_most(
        [&](std::int64_t x) { return static_cast<double>(algorithm.g(x)); },
        static_cast<double>(want) - 0.5);
    next += 1;  // smallest l with g(l) >= want
    if (next <= d) next = d + 1;  // safety for degenerate g
    thresholds.push_back(next);
  }
  return thresholds;
}

ColoringTransformResult run_uniform_coloring_transform(
    const Instance& instance, const GDeltaColoring& algorithm,
    const UniformRunOptions& options) {
  ColoringTransformResult result;
  const NodeId n = instance.num_nodes();
  result.colors.assign(static_cast<std::size_t>(n), 0);
  result.solved = true;
  if (n == 0) return result;

  const std::int64_t delta = max_degree(instance.graph);
  const auto thresholds = layer_thresholds(algorithm, delta);
  // layer_of(v): the largest i with D_i <= max(deg(v), 1).
  auto layer_of = [&](NodeId v) {
    const std::int64_t d =
        std::max<std::int64_t>(instance.graph.degree(v), 1);
    int layer = 0;
    while (layer + 1 < static_cast<int>(thresholds.size()) &&
           thresholds[static_cast<std::size_t>(layer + 1)] <= d)
      ++layer;
    return layer;  // 0-based into thresholds
  };

  std::uint64_t seed = options.seed;
  // One arena across every layer's phase-2 run; joins the caller's lent
  // workspace when there is one (campaign cells lend their checked-out one).
  EngineWorkspace local_workspace;
  EngineWorkspace* workspace =
      options.workspace != nullptr ? options.workspace : &local_workspace;
  for (int layer = 0; layer + 1 < static_cast<int>(thresholds.size());
       ++layer) {
    std::vector<bool> keep(static_cast<std::size_t>(n), false);
    NodeId members = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (layer_of(v) == layer) {
        keep[static_cast<std::size_t>(v)] = true;
        ++members;
      }
    }
    if (members == 0) continue;
    const std::int64_t delta_hat =
        thresholds[static_cast<std::size_t>(layer + 1)];
    const std::int64_t g_hat = algorithm.g(delta_hat);

    // ---- Phase 1: uniform SLC on the layer. ----
    const InducedSubgraph sub = induced_subgraph(instance.graph, keep);
    std::vector<Input> slc_inputs(static_cast<std::size_t>(n));
    const auto full_list = full_slc_list(g_hat, delta_hat);
    for (NodeId v = 0; v < n; ++v) {
      if (keep[static_cast<std::size_t>(v)])
        slc_inputs[static_cast<std::size_t>(v)] =
            make_slc_input(delta_hat, full_list);
    }
    Instance layer_instance = restrict_instance(instance, sub, slc_inputs);
    const SlcSolver solver(algorithm, delta_hat);
    const SlcPruning slc_pruning;
    UniformRunOptions phase1_options = options;
    phase1_options.seed = seed++;
    phase1_options.check_problem = nullptr;
    const UniformRunResult phase1 = run_uniform_transformer(
        layer_instance, solver, slc_pruning, phase1_options);
    result.engine_stats.merge(phase1.engine_stats);
    if (!phase1.solved) {
      result.solved = false;
      return result;
    }

    // ---- Phase 2: non-uniform rerun with known guesses. ----
    // Phase 1 pairs become initial colors in [1, g_hat*(delta_hat+1)].
    const std::int64_t m_phase2 = g_hat * (delta_hat + 1);
    Instance recolor_instance = layer_instance;
    for (NodeId v = 0; v < sub.graph.num_nodes(); ++v) {
      const std::int64_t packed =
          phase1.outputs[static_cast<std::size_t>(v)];
      const std::int64_t initial =
          (slc_color_base(packed) - 1) * (delta_hat + 1) +
          slc_color_index(packed);
      recolor_instance.inputs[static_cast<std::size_t>(v)] = {initial};
    }
    const auto phase2_algorithm = algorithm.instantiate(delta_hat, m_phase2);
    RunOptions run_options;
    run_options.seed = seed++;
    run_options.num_threads = std::max(1, options.engine_threads);
    run_options.network = options.network;
    const RunResult phase2 =
        run_local(recolor_instance, *phase2_algorithm, run_options,
                  workspace);
    result.engine_stats.merge(phase2.stats);
    if (!phase2.all_finished) {
      result.solved = false;
      return result;
    }

    // ---- Stitch into the layer's private palette. ----
    for (NodeId v = 0; v < sub.graph.num_nodes(); ++v) {
      const NodeId original = sub.to_old[static_cast<std::size_t>(v)];
      result.colors[static_cast<std::size_t>(original)] =
          g_hat + phase2.outputs[static_cast<std::size_t>(v)];
    }
    LayerTrace trace;
    trace.layer = layer + 1;
    trace.nodes = members;
    trace.delta_hat = delta_hat;
    trace.phase1_rounds = phase1.total_rounds;
    trace.phase2_rounds = phase2.rounds_used;
    trace.palette_lo = g_hat + 1;
    trace.palette_hi = 2 * g_hat;
    result.layers.push_back(trace);
    result.phase1_rounds = std::max(result.phase1_rounds, phase1.total_rounds);
    result.phase2_rounds = std::max(result.phase2_rounds, phase2.rounds_used);
  }
  result.total_rounds = result.phase1_rounds + result.phase2_rounds;
  for (std::int64_t c : result.colors) result.max_color_used = std::max(result.max_color_used, c);
  return result;
}

namespace {

class LambdaGDelta final : public GDeltaColoring {
 public:
  explicit LambdaGDelta(std::int64_t lambda) : lambda_(lambda) {}
  std::string name() const override {
    return "lambda(D+1)[l=" + std::to_string(lambda_) + "]";
  }
  std::int64_t g(std::int64_t delta) const override {
    return lambda_ * (std::max<std::int64_t>(delta, 0) + 1);
  }
  std::unique_ptr<Algorithm> instantiate(
      std::int64_t delta_guess, std::int64_t m_guess) const override {
    return make_lambda_coloring_algorithm(lambda_, delta_guess, m_guess);
  }
  double bound(std::int64_t delta_guess, std::int64_t m_guess) const override {
    return static_cast<double>(linial_final_space_bound(delta_guess) + 6) +
           static_cast<double>(
               log_star(static_cast<std::uint64_t>(
                   std::max<std::int64_t>(m_guess, 2))) +
               43);
  }

 private:
  std::int64_t lambda_;
};

}  // namespace

std::unique_ptr<GDeltaColoring> make_lambda_gdelta_coloring(
    std::int64_t lambda) {
  return std::make_unique<LambdaGDelta>(std::max<std::int64_t>(lambda, 1));
}

}  // namespace unilocal
