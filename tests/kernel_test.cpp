// Step-kernel equivalence: for every lowered registry building block the
// flat-kernel engine path (what run_local picks whenever Algorithm::kernel()
// is non-null) must produce RunResult fields bit-identical to the Process
// vtable path (the same algorithm behind VtableOnly) and to the preserved
// seed engine (src/runtime/reference.cpp) — on every instance family,
// thread count, and both engine modes (simultaneous and synchronizer).
// Lowering of whole registry pipelines is pinned separately by
// tests/table1_golden_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
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

/// One round of the resend probe: folds every received message, length
/// included, into `acc`, then sends. Port 0 is written twice in the step —
/// 3 words then 1 (a shrink) every round except `grow_round`, where it gets
/// 1 word then 4 (a growth) — and every other port gets 2 words. Only the
/// final writes count, so a run's max_message_words is 2 without a growth
/// round and 4 with one, and every round sends exactly one message per
/// port.
template <typename Recv, typename Send>
std::uint64_t resend_probe_round(std::int64_t round, std::int64_t grow_round,
                                 NodeId degree, std::int64_t identity,
                                 std::uint64_t acc, Recv recv, Send send) {
  for (NodeId j = 0; j < degree; ++j) {
    bool present = false;
    const std::span<const std::int64_t> words = recv(j, &present);
    acc = acc * 31 + (present ? words.size() + 1 : 0);
    for (const std::int64_t w : words)
      acc = acc * 31 + static_cast<std::uint64_t>(w);
  }
  for (NodeId j = 0; j < degree; ++j) {
    const std::int64_t tag = identity * 1000 + round * 10 + j;
    if (j > 0) {
      send(j, {tag, -tag});
    } else if (round == grow_round) {
      send(j, {tag});
      send(j, {tag, tag + 1, tag + 2, tag + 3});
    } else {
      send(j, {tag, tag + 1, tag + 2});
      send(j, {tag + 5});
    }
  }
  return acc;
}

/// Nodes finish after 4 to 6 rounds, by identity, so the live list
/// shrinks while the survivors keep resending.
bool resend_probe_done(std::int64_t round, std::int64_t identity) {
  return round >= 3 + identity % 3;
}

std::int64_t resend_probe_output(std::uint64_t acc) {
  return static_cast<std::int64_t>(acc >> 1);
}

struct ResendProbeState {
  std::uint64_t acc;
};

void resend_probe_kernel(KernelCtx& ctx) {
  const std::int64_t grow_round = *static_cast<const std::int64_t*>(ctx.config);
  std::uint64_t& acc = ctx.state_as<ResendProbeState>().acc;
  acc = resend_probe_round(
      ctx.round, grow_round, ctx.degree, ctx.identity, acc,
      [&ctx](NodeId j, bool* present) { return ctx.recv(j, present); },
      [&ctx](NodeId j, std::initializer_list<std::int64_t> words) {
        ctx.send(j, words);
      });
  if (resend_probe_done(ctx.round, ctx.identity))
    ctx.finish(resend_probe_output(acc));
}

/// Pins last-write-wins message accounting (ContextBackend::send_words):
/// a resend on one port within a step must count once, with its final
/// length.
class ResendProbe final : public Algorithm {
 public:
  explicit ResendProbe(std::int64_t grow_round) {
    auto kernel = std::make_shared<StepKernel>();
    kernel->name = name();
    kernel->state_size = sizeof(ResendProbeState);
    kernel->state_align = alignof(ResendProbeState);
    kernel->phases.push_back({"probe", &resend_probe_kernel, nullptr});
    kernel->config = std::make_shared<const std::int64_t>(grow_round);
    kernel_ = std::move(kernel);
    grow_round_ = grow_round;
  }

  std::unique_ptr<Process> spawn(const NodeInit&) const override {
    return std::make_unique<Node>(grow_round_);
  }
  std::string name() const override { return "resend-probe"; }
  std::shared_ptr<const StepKernel> kernel() const override { return kernel_; }

 private:
  class Node final : public Process {
   public:
    explicit Node(std::int64_t grow_round) : grow_round_(grow_round) {}
    void step(Context& ctx) override {
      acc_ = resend_probe_round(
          ctx.round(), grow_round_, ctx.degree(), ctx.id(), acc_,
          [&ctx](NodeId j, bool* present) {
            return ctx.received_span(j, present);
          },
          [&ctx](NodeId j, std::initializer_list<std::int64_t> words) {
            ctx.send(j, words);
          });
      if (resend_probe_done(ctx.round(), ctx.id()))
        ctx.finish(resend_probe_output(acc_));
    }

   private:
    std::int64_t grow_round_;
    std::uint64_t acc_ = 0;
  };

  std::int64_t grow_round_ = -1;
  std::shared_ptr<const StepKernel> kernel_;
};

TEST(KernelEquivalence, ResendProbeCountsFinalWritesOnly) {
  for (const std::int64_t grow_round : {std::int64_t{-1}, std::int64_t{2}}) {
    const ResendProbe probe(grow_round);
    const VtableOnly vtable(probe);
    const std::string tag = "resend-grow" + std::to_string(grow_round);
    for (const auto& named : standard_instances(/*seed=*/83)) {
      check_both_engine_modes(named.instance, probe, 19,
                              tag + "/" + named.name);

      // Under delay:heavytail the run sees the synchronous messages
      // (Observation 2.1), so its counts match the reference too.
      RunOptions options;
      options.seed = 19;
      const RunResult want =
          run_local_reference(named.instance, probe, options);
      options.network.kind = NetworkKind::kDelayed;
      options.network.preset = DelayPreset::kHeavyTail;
      for (const int threads : {1, 2, 8}) {
        options.num_threads = threads;
        for (const Algorithm* path : {static_cast<const Algorithm*>(&vtable),
                                      static_cast<const Algorithm*>(&probe)}) {
          const RunResult got = run_local(named.instance, *path, options);
          const std::string label = tag + "/delayed/" + named.name +
                                    (path == &probe ? "/kernel" : "/vtable") +
                                    "/threads=" + std::to_string(threads);
          EXPECT_EQ(want.outputs, got.outputs) << label;
          EXPECT_EQ(want.finish_rounds, got.finish_rounds) << label;
          EXPECT_EQ(want.all_finished, got.all_finished) << label;
          EXPECT_EQ(want.rounds_used, got.rounds_used) << label;
          EXPECT_EQ(want.messages_sent, got.messages_sent) << label;
          EXPECT_EQ(want.max_message_words, got.max_message_words) << label;
        }
      }
    }

    // The oracle itself: every node is live and sends on every port in
    // round 0, and only final lengths count.
    const Instance cycle = make_instance(cycle_graph(41),
                                         IdentityScheme::kRandomPermuted, 3);
    const RunResult want = run_local_reference(cycle, probe, RunOptions{});
    EXPECT_EQ(want.max_message_words, grow_round < 0 ? 2 : 4) << tag;
    for (const int threads : {1, 2, 8}) {
      RunOptions options;
      options.num_threads = threads;
      const RunResult got = run_local(cycle, probe, options);
      EXPECT_EQ(got.stats.peak_round_messages, 2 * cycle.graph.num_edges())
          << tag << " threads=" << threads;
    }
  }
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
