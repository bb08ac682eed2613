// Step-kernel equivalence: for every lowered registry building block the
// flat-kernel engine path (what run_local picks whenever Algorithm::kernel()
// is non-null) must produce RunResult fields bit-identical to the Process
// vtable path (the same algorithm behind VtableOnly) and to the preserved
// seed engine (src/runtime/reference.cpp) — on every instance family,
// thread count, and both engine modes (simultaneous and synchronizer).
// Lowering of whole registry pipelines is pinned separately by
// tests/table1_golden_test.cpp.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/algo/arb_coloring.h"
#include "src/algo/cole_vishkin.h"
#include "src/algo/color_reduce.h"
#include "src/algo/edge_color_mm.h"
#include "src/algo/greedy_mis.h"
#include "src/algo/hpartition.h"
#include "src/algo/linial.h"
#include "src/algo/luby.h"
#include "src/algo/mis_from_coloring.h"
#include "src/algo/ruling_set_mc.h"
#include "src/graph/params.h"
#include "src/runtime/kernel.h"
#include "src/runtime/reference.h"
#include "src/runtime/runner.h"
#include "tests/test_support.h"

namespace unilocal {
namespace {

using testing_support::standard_instances;

void expect_same(const RunResult& want, const RunResult& got,
                 const std::string& label) {
  EXPECT_EQ(want.outputs, got.outputs) << label;
  EXPECT_EQ(want.finish_rounds, got.finish_rounds) << label;
  EXPECT_EQ(want.global_finish_rounds, got.global_finish_rounds) << label;
  EXPECT_EQ(want.all_finished, got.all_finished) << label;
  EXPECT_EQ(want.rounds_used, got.rounds_used) << label;
  EXPECT_EQ(want.global_rounds, got.global_rounds) << label;
  EXPECT_EQ(want.messages_sent, got.messages_sent) << label;
  EXPECT_EQ(want.max_message_words, got.max_message_words) << label;
}

/// Reference engine vs the kernel path and the vtable path at every thread
/// count. `options.wake_rounds` decides the engine mode: empty =
/// simultaneous, non-empty = synchronizer — callers exercise both.
void check_kernel_equivalence(const Instance& instance,
                              const Algorithm& algorithm, RunOptions options,
                              const std::string& label) {
  ASSERT_NE(algorithm.kernel(), nullptr) << label;
  const VtableOnly vtable(algorithm);
  const RunResult want = run_local_reference(instance, algorithm, options);
  for (const int threads : {1, 2, 8}) {
    options.num_threads = threads;
    for (const Algorithm* path : {static_cast<const Algorithm*>(&vtable),
                                  &algorithm}) {
      const bool lowered = path == &algorithm;
      const RunResult got = run_local(instance, *path, options);
      const std::string tag = label + (lowered ? "/kernel" : "/vtable") +
                              "/threads=" + std::to_string(threads);
      expect_same(want, got, tag);
      // The path split must report where the steps actually ran.
      if (lowered) {
        EXPECT_EQ(got.stats.kernel_steps, got.stats.total_steps) << tag;
        EXPECT_EQ(got.stats.vtable_steps, 0) << tag;
      } else {
        EXPECT_EQ(got.stats.kernel_steps, 0) << tag;
        EXPECT_EQ(got.stats.vtable_steps, got.stats.total_steps) << tag;
      }
      // Batched-step accounting: only kernel steps batch, each batch call
      // covers at least one step, and the vtable path never batches.
      EXPECT_LE(got.stats.kernel_batched_steps, got.stats.kernel_steps)
          << tag;
      if (!lowered) {
        EXPECT_EQ(got.stats.kernel_batched_steps, 0) << tag;
        EXPECT_EQ(got.stats.kernel_batch_calls, 0) << tag;
      }
      EXPECT_EQ(got.stats.kernel_batch_calls > 0,
                got.stats.kernel_batched_steps > 0)
          << tag;
      if (got.stats.kernel_batch_calls > 0)
        EXPECT_GE(got.stats.kernel_batched_steps,
                  got.stats.kernel_batch_calls)
            << tag;
    }
  }
}

/// Both engine modes: the simultaneous loop and, via a staggered wake-round
/// grid, the synchronizer loop.
void check_both_engine_modes(const Instance& instance,
                             const Algorithm& algorithm, std::uint64_t seed,
                             const std::string& label) {
  RunOptions options;
  options.seed = seed;
  check_kernel_equivalence(instance, algorithm, options, label + "/simul");

  Rng wake_rng(seed + 1000);
  options.wake_rounds.resize(static_cast<std::size_t>(instance.num_nodes()));
  for (auto& w : options.wake_rounds)
    w = static_cast<std::int64_t>(wake_rng.next_below(5));
  check_kernel_equivalence(instance, algorithm, options, label + "/sync");
}

TEST(KernelEquivalence, LubyAndGreedyAcrossInstances) {
  const LubyMis luby;
  const GreedyMis greedy;
  for (const auto& named : standard_instances(/*seed=*/61)) {
    check_both_engine_modes(named.instance, luby, 7, "luby/" + named.name);
    check_both_engine_modes(named.instance, greedy, 7, "greedy/" + named.name);
  }
}

TEST(KernelEquivalence, TruncatedLubyKeepsKernelPath) {
  // The truncation wrapper lowers by wrapping the inner kernel; a budget
  // that bites mid-run must stay bit-identical on the kernel path too.
  const TruncatedAlgorithm truncated(std::make_shared<LubyMis>(), 3, 0);
  ASSERT_NE(truncated.kernel(), nullptr);
  for (const auto& named : standard_instances(/*seed=*/67))
    check_both_engine_modes(named.instance, truncated, 11,
                            "truncated-luby/" + named.name);
}

TEST(KernelEquivalence, LinialAcrossInstances) {
  for (const auto& named : standard_instances(/*seed=*/71)) {
    const std::int64_t delta =
        std::max<std::int64_t>(max_degree(named.instance.graph), 1);
    const std::int64_t m =
        std::max<std::int64_t>(named.instance.max_identity(), 2);
    const LinialColoring linial(delta, m);
    check_both_engine_modes(named.instance, linial, 13,
                            "linial/" + named.name);
  }
}

TEST(KernelEquivalence, ColorReduceAcrossInstances) {
  // Identity inputs act as the starting coloring; both the deg+1 target
  // (0) and a fixed palette exercise the per-port state cache. The
  // reduction runs one round per eliminated color, so skip the
  // sparse-identity instances whose color space is astronomically large
  // (as tests/algo_coloring_test.cpp does).
  for (const auto& named : standard_instances(/*seed=*/73)) {
    if (named.instance.num_nodes() == 0) continue;
    const std::int64_t m = named.instance.max_identity();
    if (m > 4096) continue;
    Instance seeded = named.instance;
    for (NodeId v = 0; v < seeded.num_nodes(); ++v)
      seeded.inputs[static_cast<std::size_t>(v)] = {
          seeded.identities[static_cast<std::size_t>(v)]};
    const ColorReduce to_deg_plus_one(m, 0);
    const ColorReduce to_fixed(m, 5);
    check_both_engine_modes(seeded, to_deg_plus_one, 17,
                            "color-reduce-d1/" + named.name);
    check_both_engine_modes(seeded, to_fixed, 17,
                            "color-reduce-5/" + named.name);
  }
}

TEST(KernelEquivalence, ColeVishkinOnRootedForests) {
  Rng rng(79);
  std::vector<testing_support::NamedInstance> forests;
  forests.push_back(
      {"tree", make_rooted_forest_instance(random_tree(120, rng), 81)});
  forests.push_back(
      {"forest", make_rooted_forest_instance(random_forest(90, 6, rng), 82)});
  forests.push_back({"path", make_rooted_forest_instance(path_graph(33), 83)});
  forests.push_back({"singleton", make_rooted_forest_instance(Graph(1), 84)});
  for (const auto& named : forests) {
    const ColeVishkin cv(named.instance.max_identity());
    check_both_engine_modes(named.instance, cv, 19, "cv/" + named.name);
  }
}

TEST(KernelEquivalence, BetaLubyRulingSetAcrossInstances) {
  for (const int beta : {1, 2, 3}) {
    const BetaLubyRulingSet ruling(beta);
    ASSERT_NE(ruling.kernel(), nullptr);
    for (const auto& named : standard_instances(/*seed=*/91))
      check_both_engine_modes(named.instance, ruling, 23,
                              "beta-luby-" + std::to_string(beta) + "/" +
                                  named.name);
  }
}

TEST(KernelEquivalence, HPartitionAcrossInstances) {
  for (const auto& named : standard_instances(/*seed=*/97)) {
    const HPartition peel(2, std::max<NodeId>(named.instance.num_nodes(), 2));
    ASSERT_NE(peel.kernel(), nullptr);
    check_both_engine_modes(named.instance, peel, 29,
                            "hpartition/" + named.name);
  }
}

TEST(KernelEquivalence, OutLinialAcrossInstances) {
  // Standalone (all layers 0): every neighbour comparison falls back to
  // the identity tiebreak, which still exercises the orientation port
  // state and the out-restricted reduction.
  for (const auto& named : standard_instances(/*seed=*/101)) {
    const std::int64_t m =
        std::max<std::int64_t>(named.instance.max_identity(), 2);
    const OutLinialColoring coloring(3, m);
    ASSERT_NE(coloring.kernel(), nullptr);
    check_both_engine_modes(named.instance, coloring, 31,
                            "out-linial/" + named.name);
  }
}

TEST(KernelEquivalence, MisColorSweepAcrossInstances) {
  // Inputs seed the sweep color; identity-derived values exercise early
  // finishes, neighbour suppression, and the past-palette cutoff alike
  // (bit-identity does not need the input coloring to be proper).
  for (const auto& named : standard_instances(/*seed=*/103)) {
    const std::int64_t k = 6;
    Instance seeded = named.instance;
    for (NodeId v = 0; v < seeded.num_nodes(); ++v)
      seeded.inputs[static_cast<std::size_t>(v)] = {
          seeded.identities[static_cast<std::size_t>(v)] % k + 1};
    const MisColorSweep sweep(k);
    ASSERT_NE(sweep.kernel(), nullptr);
    check_both_engine_modes(seeded, sweep, 37, "mis-sweep/" + named.name);
  }
}

TEST(KernelEquivalence, ProposalMatchingAcrossInstances) {
  for (const auto& named : standard_instances(/*seed=*/107)) {
    const std::int64_t delta =
        std::max<std::int64_t>(max_degree(named.instance.graph), 1);
    Instance seeded = named.instance;
    for (NodeId v = 0; v < seeded.num_nodes(); ++v)
      seeded.inputs[static_cast<std::size_t>(v)] = {
          seeded.identities[static_cast<std::size_t>(v)] % (delta + 1) + 1};
    const ProposalMatching matching(delta);
    ASSERT_NE(matching.kernel(), nullptr);
    check_both_engine_modes(seeded, matching, 41,
                            "proposal-matching/" + named.name);
  }
}

TEST(KernelEquivalence, ChainPipelinesAcrossInstances) {
  // The composite chain kernel against full registry pipelines: coloring
  // MIS (Linial -> reduce -> sweep), matching (Linial -> reduce ->
  // proposals), and the arboricity coloring (H-partition -> out-Linial).
  for (const auto& named : standard_instances(/*seed=*/109)) {
    if (named.instance.num_nodes() == 0) continue;
    const std::int64_t delta =
        std::max<std::int64_t>(max_degree(named.instance.graph), 1);
    const std::int64_t m =
        std::max<std::int64_t>(named.instance.max_identity(), 2);
    const auto mis = make_coloring_mis_algorithm(delta, m);
    const auto matching = make_matching_algorithm(delta, m);
    const auto arb = make_arb_coloring_algorithm(
        2, std::max<NodeId>(named.instance.num_nodes(), 2), m);
    ASSERT_NE(mis->kernel(), nullptr) << named.name;
    ASSERT_NE(matching->kernel(), nullptr) << named.name;
    ASSERT_NE(arb->kernel(), nullptr) << named.name;
    check_both_engine_modes(named.instance, *mis, 43,
                            "chain-mis/" + named.name);
    check_both_engine_modes(named.instance, *matching, 43,
                            "chain-matching/" + named.name);
    check_both_engine_modes(named.instance, *arb, 43,
                            "chain-arb/" + named.name);
  }
}

TEST(KernelEquivalence, DelayedNetworkBitIdentity) {
  // The event-queue delivery layer runs kernels on the scalar path; the
  // kernel/vtable split must still be output-invariant under every preset.
  Rng rng(113);
  const Instance instance = make_instance(gnp(90, 0.06, rng),
                                          IdentityScheme::kRandomPermuted, 5);
  const LubyMis luby;
  const auto mis = make_coloring_mis_algorithm(
      std::max<std::int64_t>(max_degree(instance.graph), 1),
      std::max<std::int64_t>(instance.max_identity(), 2));
  for (const DelayPreset preset :
       {DelayPreset::kUniform, DelayPreset::kWeighted,
        DelayPreset::kHeavyTail}) {
    RunOptions options;
    options.seed = 47;
    options.network.kind = NetworkKind::kDelayed;
    options.network.preset = preset;
    for (const Algorithm* algorithm :
         std::initializer_list<const Algorithm*>{&luby, mis.get()}) {
      const RunResult off =
          run_local(instance, VtableOnly(*algorithm), options);
      const RunResult on = run_local(instance, *algorithm, options);
      const std::string tag = std::string("delayed/") + algorithm->name();
      expect_same(off, on, tag);
      EXPECT_EQ(on.stats.kernel_steps, on.stats.total_steps) << tag;
      EXPECT_EQ(on.stats.vtable_steps, 0) << tag;
    }
  }
}

}  // namespace
}  // namespace unilocal
