// M1 — wall-clock micro-benchmarks of the LOCAL simulator substrate
// (google-benchmark): rounds/second for message-heavy and message-light
// protocols, instance restriction, and the pruning fast path.
#include <benchmark/benchmark.h>

#include "src/algo/color_reduce.h"
#include "src/algo/luby.h"
#include "src/algo/greedy_mis.h"
#include "src/graph/generators.h"
#include "src/graph/subgraph.h"
#include "src/prune/ruling_set_prune.h"
#include "src/runtime/kernel.h"
#include "src/runtime/reference.h"
#include "src/runtime/runner.h"
#include "src/runtime/telemetry.h"

namespace unilocal {
namespace {

void BM_LubyMis(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  Rng rng(1);
  Instance instance =
      make_instance(gnp(n, 8.0 / n, rng), IdentityScheme::kRandomSparse, 2);
  std::uint64_t seed = 1;
  std::int64_t rounds = 0;
  for (auto _ : state) {
    RunOptions options;
    options.seed = seed++;
    const RunResult result = run_local(instance, LubyMis{}, options);
    rounds += result.rounds_used;
    benchmark::DoNotOptimize(result.outputs.data());
  }
  state.counters["rounds/iter"] =
      benchmark::Counter(static_cast<double>(rounds),
                         benchmark::Counter::kAvgIterations);
  state.counters["nodes"] = static_cast<double>(n);
}
BENCHMARK(BM_LubyMis)->Arg(1024)->Arg(8192);

void BM_GreedyMisPath(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  Instance instance = make_instance(path_graph(n), IdentityScheme::kSequential);
  for (auto _ : state) {
    const RunResult result = run_local(instance, GreedyMis{});
    benchmark::DoNotOptimize(result.outputs.data());
  }
  state.counters["nodes"] = static_cast<double>(n);
}
BENCHMARK(BM_GreedyMisPath)->Arg(512)->Arg(2048);

void BM_InducedSubgraph(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  Rng rng(2);
  Graph g = gnp(n, 10.0 / n, rng);
  std::vector<bool> keep(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) keep[static_cast<std::size_t>(v)] = (v % 3) != 0;
  for (auto _ : state) {
    auto sub = induced_subgraph(g, keep);
    benchmark::DoNotOptimize(sub.graph.num_edges());
  }
}
BENCHMARK(BM_InducedSubgraph)->Arg(4096)->Arg(32768);

// A fixed 100k-node list of 800k random draws (duplicates in both
// orientations and self-loops included) through GraphBuilder: the sort and
// unique step plus the one counting pass that writes the flat arrays.
void BM_GraphBuild(benchmark::State& state) {
  const NodeId n = 100000;
  Rng rng(5);
  std::vector<std::pair<NodeId, NodeId>> edges(800000);
  for (auto& [u, v] : edges) {
    u = static_cast<NodeId>(rng.next_below(n));
    v = static_cast<NodeId>(rng.next_below(n));
  }
  std::int64_t built_edges = 0;
  for (auto _ : state) {
    GraphBuilder builder(n);
    for (const auto& [u, v] : edges) builder.add_edge(u, v);
    built_edges = builder.build().num_edges();
    benchmark::DoNotOptimize(built_edges);
  }
  state.counters["edges"] = static_cast<double>(built_edges);
}
BENCHMARK(BM_GraphBuild)->Unit(benchmark::kMillisecond);

void BM_RulingSetPruneApply(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  Rng rng(3);
  Instance instance =
      make_instance(gnp(n, 8.0 / n, rng), IdentityScheme::kRandomSparse, 4);
  std::vector<std::int64_t> yhat(static_cast<std::size_t>(n));
  for (auto& y : yhat) y = rng.next_bool(0.3) ? 1 : 0;
  const RulingSetPruning pruning(1);
  for (auto _ : state) {
    auto result = pruning.apply(instance, yhat);
    benchmark::DoNotOptimize(result.pruned.size());
  }
}
BENCHMARK(BM_RulingSetPruneApply)->Arg(4096)->Arg(32768);

// --- engine before/after (BENCH_engine.json) --------------------------------
//
// The seed engine's loops (run_local_reference: vector-per-message, per-run
// reverse-port recomputation, every unfinished node stepped each round)
// against the arena engine (run_local: CSR + flat double-buffered arena) on
// the acceptance workloads: Luby MIS on a 100k-node random graph and on a
// 100k-node bounded-arboricity graph. Both engines run Luby's kernel phase
// functions. "steps/s" counters are node steps per wall second.

Instance engine_gnp_instance() {
  const NodeId n = 100000;
  Rng rng(7);
  return make_instance(gnp(n, 8.0 / n, rng), IdentityScheme::kRandomSparse, 3);
}

Instance engine_arboricity_instance() {
  Rng rng(8);
  return make_instance(random_layered_forest(100000, 2, rng),
                       IdentityScheme::kRandomSparse, 4);
}

void run_engine_bench(benchmark::State& state, const Instance& instance,
                      bool arena, int threads) {
  std::uint64_t seed = 1;
  std::int64_t steps = 0;
  EngineWorkspace workspace;
  for (auto _ : state) {
    RunOptions options;
    options.seed = seed++;
    options.workspace = &workspace;
    options.engine_threads = threads;
    const RunResult result =
        arena ? run_local(instance, LubyMis{}, options)
              : run_local_reference(instance, LubyMis{}, options);
    steps += result.stats.total_steps;
    benchmark::DoNotOptimize(result.outputs.data());
  }
  state.counters["steps/s"] = benchmark::Counter(
      static_cast<double>(steps), benchmark::Counter::kIsRate);
  state.counters["nodes"] = static_cast<double>(instance.num_nodes());
}

void BM_EngineSeed_Gnp100k(benchmark::State& state) {
  run_engine_bench(state, engine_gnp_instance(), /*arena=*/false, 1);
}
BENCHMARK(BM_EngineSeed_Gnp100k)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_EngineArena_Gnp100k(benchmark::State& state) {
  run_engine_bench(state, engine_gnp_instance(), /*arena=*/true,
                   static_cast<int>(state.range(0)));
}
BENCHMARK(BM_EngineArena_Gnp100k)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

void BM_EngineSeed_Arboricity100k(benchmark::State& state) {
  run_engine_bench(state, engine_arboricity_instance(), /*arena=*/false, 1);
}
BENCHMARK(BM_EngineSeed_Arboricity100k)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

void BM_EngineArena_Arboricity100k(benchmark::State& state) {
  run_engine_bench(state, engine_arboricity_instance(), /*arena=*/true,
                   static_cast<int>(state.range(0)));
}
BENCHMARK(BM_EngineArena_Arboricity100k)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

// --- engine long-tail family (BENCH_engine.json straggler rows) -------------
//
// The paper's pruning/alternation pipelines leave a shrinking straggler
// frontier running long after the bulk of the graph has terminated. These
// workloads reproduce that shape so the engine's fixed per-round costs
// (send-span clears, finished-node scans, the synchronizer's per-round
// timing) are exposed instead of being buried under live stepping work.

/// Broadcasts one word per round until round input[0], then finishes — the
/// canonical long tail: nearly every node retires after a couple of rounds
/// while a few input-marked stragglers run for thousands more.
void straggler_countdown_step(KernelCtx& ctx) {
  const std::int64_t deadline = ctx.input.empty() ? 0 : ctx.input[0];
  if (ctx.round >= deadline) {
    ctx.finish(ctx.round);
    return;
  }
  ctx.broadcast({ctx.round});
}

KernelAlgorithm straggler_countdown() {
  auto kernel = std::make_shared<StepKernel>();
  kernel->name = "straggler-countdown";
  kernel->phases = {kernel_phase<straggler_countdown_step>("countdown")};
  return KernelAlgorithm("straggler-countdown", std::move(kernel));
}

/// High-diameter caterpillar (n = 100k) where every node finishes within 3
/// steps except 100 spine stragglers that run for `tail` rounds.
Instance longtail_caterpillar_instance(std::int64_t tail) {
  const NodeId spine = 50000;
  const NodeId legs = 50000;
  Rng rng(11);
  Instance instance = make_instance(caterpillar(spine, legs, rng),
                                    IdentityScheme::kRandomSparse, 5);
  for (NodeId v = 0; v < instance.num_nodes(); ++v)
    instance.inputs[static_cast<std::size_t>(v)] = {2};
  for (NodeId v = 0; v < spine; v += 500)
    instance.inputs[static_cast<std::size_t>(v)] = {tail};
  return instance;
}

void BM_EngineLongTail_CaterpillarStragglers(benchmark::State& state) {
  const Instance instance = longtail_caterpillar_instance(4000);
  const KernelAlgorithm algorithm = straggler_countdown();
  std::int64_t rounds = 0;
  EngineWorkspace workspace;
  RunOptions options;
  options.workspace = &workspace;
  for (auto _ : state) {
    const RunResult result = run_local(instance, algorithm, options);
    rounds += result.rounds_used;
    benchmark::DoNotOptimize(result.outputs.data());
  }
  state.counters["rounds/iter"] = benchmark::Counter(
      static_cast<double>(rounds), benchmark::Counter::kAvgIterations);
  state.counters["nodes"] = static_cast<double>(instance.num_nodes());
}
BENCHMARK(BM_EngineLongTail_CaterpillarStragglers)
    ->Unit(benchmark::kMillisecond);

/// The same straggler tail under the alpha synchronizer (all nodes wake at
/// 0): after a couple of rounds only the 100 spine stragglers remain live
/// while thousands of rounds elapse, so the per-round cost must track the
/// survivors, not n.
void BM_EngineLongTail_CaterpillarSyncStragglers(benchmark::State& state) {
  const Instance instance = longtail_caterpillar_instance(4000);
  RunOptions options;
  options.wake_rounds.assign(
      static_cast<std::size_t>(instance.num_nodes()), 0);
  const KernelAlgorithm algorithm = straggler_countdown();
  std::int64_t global_rounds = 0;
  EngineWorkspace workspace;
  options.workspace = &workspace;
  for (auto _ : state) {
    const RunResult result = run_local(instance, algorithm, options);
    global_rounds += result.global_rounds;
    benchmark::DoNotOptimize(result.outputs.data());
  }
  state.counters["global_rounds/iter"] = benchmark::Counter(
      static_cast<double>(global_rounds), benchmark::Counter::kAvgIterations);
  state.counters["nodes"] = static_cast<double>(instance.num_nodes());
}
BENCHMARK(BM_EngineLongTail_CaterpillarSyncStragglers)
    ->Unit(benchmark::kMillisecond);

/// Luby on G(n,p) under the alpha synchronizer with 8 late wakers spread up
/// to global round 8000: each node's rounds wait on the late wakers within
/// its distance, so the run spans thousands of global rounds while every
/// node performs only Luby's few local rounds.
void BM_EngineLongTail_GnpLubyWakeTail(benchmark::State& state) {
  const Instance instance = engine_gnp_instance();
  RunOptions options;
  options.wake_rounds.assign(
      static_cast<std::size_t>(instance.num_nodes()), 0);
  for (int k = 0; k < 8; ++k)
    options.wake_rounds[static_cast<std::size_t>(k) * 12503] = 1000 * (k + 1);
  const LubyMis algorithm;
  std::uint64_t seed = 1;
  std::int64_t global_rounds = 0;
  EngineWorkspace workspace;
  options.workspace = &workspace;
  for (auto _ : state) {
    options.seed = seed++;
    const RunResult result = run_local(instance, algorithm, options);
    global_rounds += result.global_rounds;
    benchmark::DoNotOptimize(result.outputs.data());
  }
  state.counters["global_rounds/iter"] = benchmark::Counter(
      static_cast<double>(global_rounds), benchmark::Counter::kAvgIterations);
  state.counters["nodes"] = static_cast<double>(instance.num_nodes());
}
BENCHMARK(BM_EngineLongTail_GnpLubyWakeTail)->Unit(benchmark::kMillisecond);

// --- quiescent nodes (BENCH_engine.json quiescent_engine, clock_jump) -
//
// These benches run color-reduce from a proper coloring of a G(n, 8/n), so
// nearly every logical step is an idle poll the engine can skip while the
// node sleeps. "logical_steps" is EngineStats::total_steps (unchanged by
// sleeping); "executed_steps" subtracts the engine.slept_steps counter;
// "jumped_rounds" is engine.jumped_rounds, the rounds the simultaneous
// clock skipped because every node was asleep. Arg = engine threads.

void run_quiescent(benchmark::State& state, const Instance& instance,
                   const Algorithm& algorithm,
                   const NetworkOptions& network = {},
                   std::vector<std::int64_t> wake_rounds = {}) {
  EngineWorkspace workspace;
  RunOptions options;
  options.workspace = &workspace;
  options.engine_threads = static_cast<int>(state.range(0));
  options.network = network;
  options.wake_rounds = std::move(wake_rounds);
  telemetry::MetricsRegistry metrics;
  std::int64_t logical = 0, messages = 0, global_rounds = 0;
  {
    telemetry::ScopedMetrics scope(&metrics);
    for (auto _ : state) {
      const RunResult result = run_local(instance, algorithm, options);
      logical += result.stats.total_steps;
      messages += result.messages_sent;
      global_rounds += result.global_rounds;
      benchmark::DoNotOptimize(result.outputs.data());
    }
  }
  std::int64_t slept = 0, jumped = 0;
  for (const auto& metric : metrics.snapshot()) {
    if (metric.name == "engine.slept_steps") slept = metric.value;
    if (metric.name == "engine.jumped_rounds") jumped = metric.value;
  }
  const auto per_iteration = [](std::int64_t total) {
    return benchmark::Counter(static_cast<double>(total),
                              benchmark::Counter::kAvgIterations);
  };
  state.counters["logical_steps"] = per_iteration(logical);
  state.counters["executed_steps"] = per_iteration(logical - slept);
  state.counters["messages"] = per_iteration(messages);
  state.counters["global_rounds"] = per_iteration(global_rounds);
  state.counters["jumped_rounds"] = per_iteration(jumped);
}

// From the identity coloring of a 4096-node graph: 4096 rounds in which
// each node recolours at most once.
constexpr NodeId kQuiescentNodes = 4096;

Instance identity_colored_gnp4096() {
  const NodeId n = kQuiescentNodes;
  Rng rng(12);
  Instance instance = make_instance(gnp(n, 8.0 / n, rng),
                                    IdentityScheme::kRandomPermuted, 6);
  for (NodeId v = 0; v < n; ++v)
    instance.inputs[static_cast<std::size_t>(v)] = {
        instance.identities[static_cast<std::size_t>(v)]};
  return instance;
}

void BM_EngineQuiescent_ColorReduceGnp4096(benchmark::State& state) {
  run_quiescent(state, identity_colored_gnp4096(),
                ColorReduce(kQuiescentNodes, /*target=*/0));
}
BENCHMARK(BM_EngineQuiescent_ColorReduceGnp4096)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

// The same run on the heavy-tail delayed network with 5% drops. The
// delayed loop skips sleepers' kernels too, but every node still draws a
// pulse on each out-edge in every round and there is no clock jump, so
// the pulse draws and per-tick tallies dominate. The loop is sequential:
// Arg 1 only.
void BM_EngineQuiescent_ColorReduceGnp4096Delayed(benchmark::State& state) {
  NetworkOptions network;
  network.kind = NetworkKind::kDelayed;
  network.preset = DelayPreset::kHeavyTail;
  network.drop = 0.05;
  run_quiescent(state, identity_colored_gnp4096(),
                ColorReduce(kQuiescentNodes, /*target=*/0), network);
}
BENCHMARK(BM_EngineQuiescent_ColorReduceGnp4096Delayed)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// The same run under the alpha synchronizer, with wake rounds staggered
// over 0..10. The synchronizer is a timed run like the delayed network, at
// unit latency: sleepers skip their kernels and still pulse, and timed
// runs are sequential: Arg 1 only.
void BM_EngineQuiescent_ColorReduceGnp4096Sync(benchmark::State& state) {
  std::vector<std::int64_t> wake_rounds;
  for (NodeId v = 0; v < kQuiescentNodes; ++v)
    wake_rounds.push_back((v * 7) % 11);
  run_quiescent(state, identity_colored_gnp4096(),
                ColorReduce(kQuiescentNodes, /*target=*/0), {},
                std::move(wake_rounds));
}
BENCHMARK(BM_EngineQuiescent_ColorReduceGnp4096Sync)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// From the sparse coloring 1 + 64 * identity of a 512-node graph: only
// one in 64 of the ~32.8k elimination rounds has a node carrying the
// eliminated color. The rounds in between have every node asleep and send
// nothing, so the clock jumps over them.
void BM_EngineQuiescent_SparsePaletteJumps(benchmark::State& state) {
  const NodeId n = 512;
  constexpr std::int64_t kSpacing = 64;
  Rng rng(13);
  Instance instance = make_instance(gnp(n, 8.0 / n, rng),
                                    IdentityScheme::kRandomPermuted, 7);
  std::int64_t k = 1;
  for (NodeId v = 0; v < n; ++v) {
    const std::size_t vi = static_cast<std::size_t>(v);
    instance.inputs[vi] = {1 + kSpacing * instance.identities[vi]};
    k = std::max(k, instance.inputs[vi][0]);
  }
  run_quiescent(state, instance, ColorReduce(k, /*target=*/0));
}
BENCHMARK(BM_EngineQuiescent_SparsePaletteJumps)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace unilocal
