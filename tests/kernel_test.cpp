// Building-block kernels: for every registry building block, the arena
// engine (at 1, 2 and 8 threads) and the reference engine
// (src/runtime/reference.cpp) must both reproduce the frozen row of
// tests/golden/kernel-blocks.json, and agree on every RunResult field — on
// every instance family and in both engine modes (simultaneous and
// synchronizer). Whole registry pipelines are pinned separately by
// tests/table1_golden_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
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
#include "src/util/json.h"
#include "tests/test_support.h"

namespace unilocal {
namespace {

using testing_support::fnv1a;
using testing_support::kGoldenHashBasis;
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

// --- the frozen building-block fixture -----------------------------------
//
// tests/golden/kernel-blocks.json holds one row per (block, instance, engine
// mode) case below: digests of the outputs and of the local and global
// finish rounds, plus the run's scalar results. The rows were computed when
// each block still had a second, independently written per-node body (a
// virtual-dispatch object per node), while both bodies agreed; they stay
// the check on each block's logic.
//
// To regenerate after an intended change in a block, copy the
// kernel-blocks.json this test writes into its working directory on a
// mismatch over tests/golden/kernel-blocks.json.

std::string fixture_path() {
  return std::string(UNILOCAL_SOURCE_DIR) + "/tests/golden/kernel-blocks.json";
}

json::Value frozen_row(const std::string& run, const RunResult& result) {
  std::vector<std::int64_t> finishes = result.finish_rounds;
  finishes.insert(finishes.end(), result.global_finish_rounds.begin(),
                  result.global_finish_rounds.end());
  json::Value row = json::Value::object();
  row.set("run", json::Value::string(run));
  row.set("output_hash",
          json::Value::number(fnv1a(result.outputs, kGoldenHashBasis)));
  row.set("finish_hash",
          json::Value::number(fnv1a(finishes, kGoldenHashBasis)));
  row.set("all_finished", json::Value::boolean(result.all_finished));
  row.set("rounds_used", json::Value::number(result.rounds_used));
  row.set("global_rounds", json::Value::number(result.global_rounds));
  row.set("messages_sent", json::Value::number(result.messages_sent));
  row.set("max_message_words",
          json::Value::number(result.max_message_words));
  row.set("total_steps", json::Value::number(result.stats.total_steps));
  return row;
}

/// The checked-in rows by run name, and the rows this process computed;
/// on any mismatch the merged document goes to the working directory.
struct Fixture {
  std::map<std::string, json::Value> golden;
  std::map<std::string, json::Value> computed;
  bool stale = false;

  Fixture() {
    std::ifstream in(fixture_path(), std::ios::binary);
    if (!in) return;
    std::ostringstream text;
    text << in.rdbuf();
    const json::Value rows = json::Value::parse(text.str());
    for (const json::Value& row : rows.as_array())
      golden[row.at("run").as_string()] = row;
  }

  std::string document() const {
    std::map<std::string, json::Value> rows = golden;
    for (const auto& [run, row] : computed) rows[run] = row;
    std::string doc = "[\n";
    bool first = true;
    for (const auto& [run, row] : rows) {
      if (!first) doc += ",\n";
      first = false;
      doc += row.dump();
    }
    return doc + "\n]\n";
  }
};

Fixture& fixture() {
  static Fixture instance;
  return instance;
}

class FixtureWriter final : public ::testing::Environment {
 public:
  void TearDown() override {
    if (!fixture().stale) return;
    std::ofstream("kernel-blocks.json", std::ios::binary)
        << fixture().document();
    ADD_FAILURE() << fixture_path() << " is stale; the computed document "
                  << "was written to kernel-blocks.json in the test's "
                  << "working directory";
  }
};

const auto* const kFixtureWriter =
    ::testing::AddGlobalTestEnvironment(new FixtureWriter);

/// Expects `result` to match the frozen row of `run`, naming each field
/// that differs. The reference run (`record`) also supplies the row a
/// regenerated fixture would hold.
void expect_frozen(const std::string& run, const RunResult& result,
                   const std::string& tag, bool record = false) {
  Fixture& fx = fixture();
  const json::Value row = frozen_row(run, result);
  if (record) fx.computed[run] = row;
  const auto it = fx.golden.find(run);
  if (it == fx.golden.end()) {
    fx.stale = true;
    ADD_FAILURE() << tag << ": no row for " << run << " in " << fixture_path();
    return;
  }
  for (const auto& [key, value] : row.as_object()) {
    const json::Value* want = it->second.find(key);
    if (want != nullptr && *want == value) continue;
    fx.stale = true;
    ADD_FAILURE() << tag << ": " << key << " computed " << value.dump()
                  << ", frozen "
                  << (want != nullptr ? want->dump() : std::string("absent"));
  }
}

/// The reference engine and the arena engine at every thread count, each
/// against the frozen row `label` and against each other.
/// `options.wake_rounds` decides the engine mode: empty = simultaneous,
/// non-empty = synchronizer — callers exercise both.
void check_kernel_equivalence(const Instance& instance,
                              const Algorithm& algorithm, RunOptions options,
                              const std::string& label) {
  const RunResult want = run_local_reference(instance, algorithm, options);
  expect_frozen(label, want, label + "/reference", /*record=*/true);
  for (const int threads : {1, 2, 8}) {
    options.engine_threads = threads;
    const RunResult got = run_local(instance, algorithm, options);
    const std::string tag = label + "/threads=" + std::to_string(threads);
    expect_same(want, got, tag);
    expect_frozen(label, got, tag);
    // Batched-step accounting: each batch call covers at least one step.
    EXPECT_LE(got.stats.kernel_batched_steps, got.stats.total_steps) << tag;
    EXPECT_EQ(got.stats.kernel_batch_calls > 0,
              got.stats.kernel_batched_steps > 0)
        << tag;
    if (got.stats.kernel_batch_calls > 0)
      EXPECT_GE(got.stats.kernel_batched_steps, got.stats.kernel_batch_calls)
          << tag;
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

/// Pins last-write-wins message accounting (KernelCtx::send): a resend on
/// one port within a step must count once, with its final length.
KernelAlgorithm resend_probe(std::int64_t grow_round) {
  auto kernel = std::make_shared<StepKernel>();
  kernel->name = "resend-probe";
  kernel->state_size = sizeof(ResendProbeState);
  kernel->state_align = alignof(ResendProbeState);
  kernel->phases.push_back(kernel_phase<resend_probe_kernel>("probe"));
  kernel->config = std::make_shared<const std::int64_t>(grow_round);
  return KernelAlgorithm("resend-probe", std::move(kernel));
}

/// The broadcast probe: a node sends only in the rounds where
/// (identity + round) % 3 == 0 and sleeps in between, so a receiver is
/// often asleep when mail reaches it and only its sender can wake it.
/// Send rounds alternate two steps: a 3-word broadcast followed by a 1-word
/// resend on port 0, and a 1-word broadcast followed by a 4-word send on
/// the last port. A node without neighbours broadcasts 5 words, which send
/// nothing and must not move max_message_words.
struct BroadcastProbeState {
  std::uint64_t acc;
};

void broadcast_probe_kernel(KernelCtx& ctx) {
  std::uint64_t& acc = ctx.state_as<BroadcastProbeState>().acc;
  for (NodeId j = 0; j < ctx.degree; ++j) {
    bool present = false;
    const std::span<const std::int64_t> words = ctx.recv(j, &present);
    if (!present) continue;  // a step without mail changes nothing
    acc = acc * 31 + static_cast<std::uint64_t>(j) * 7 + words.size() + 1;
    for (const std::int64_t w : words)
      acc = acc * 31 + static_cast<std::uint64_t>(w);
  }
  const std::int64_t round = ctx.round;
  const std::int64_t identity = ctx.identity;
  if ((identity + round) % 3 == 0) {
    const std::int64_t tag = identity * 1000 + round * 10;
    if (ctx.degree == 0) {
      ctx.broadcast({tag, tag, tag, tag, tag});
    } else if ((round / 3) % 2 == 0) {
      ctx.broadcast({tag, tag + 1, tag + 2});
      ctx.send(0, {tag + 5});
    } else {
      ctx.broadcast({tag});
      ctx.send(ctx.degree - 1, {tag, tag + 1, tag + 2, tag + 3});
    }
  }
  const std::int64_t finish_round = 7 + identity % 3;
  if (round >= finish_round) {
    ctx.finish(static_cast<std::int64_t>(acc >> 1));
    return;
  }
  std::int64_t next_send = round + 1;
  while ((identity + next_send) % 3 != 0) ++next_send;
  ctx.sleep_until(std::min(next_send, finish_round));
}

KernelAlgorithm broadcast_probe() {
  auto kernel = std::make_shared<StepKernel>();
  kernel->name = "broadcast-probe";
  kernel->state_size = sizeof(BroadcastProbeState);
  kernel->state_align = alignof(BroadcastProbeState);
  kernel->phases.push_back(kernel_phase<broadcast_probe_kernel>("probe"));
  return KernelAlgorithm("broadcast-probe", std::move(kernel));
}

/// A delayed run against the reference's simultaneous run: by
/// Observation 2.1 every node sees the same messages, so everything but
/// the timing agrees.
void expect_delayed_matches(const RunResult& want, const RunResult& got,
                            const std::string& label) {
  EXPECT_EQ(want.outputs, got.outputs) << label;
  EXPECT_EQ(want.finish_rounds, got.finish_rounds) << label;
  EXPECT_EQ(want.all_finished, got.all_finished) << label;
  EXPECT_EQ(want.rounds_used, got.rounds_used) << label;
  EXPECT_EQ(want.messages_sent, got.messages_sent) << label;
  EXPECT_EQ(want.max_message_words, got.max_message_words) << label;
  EXPECT_EQ(want.stats.total_steps, got.stats.total_steps) << label;
}

TEST(KernelEquivalence, ResendProbeCountsFinalWritesOnly) {
  for (const std::int64_t grow_round : {std::int64_t{-1}, std::int64_t{2}}) {
    const KernelAlgorithm probe = resend_probe(grow_round);
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
        options.engine_threads = threads;
        const RunResult got = run_local(named.instance, probe, options);
        expect_delayed_matches(want, got,
                               tag + "/delayed/" + named.name + "/threads=" +
                                   std::to_string(threads));
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
      options.engine_threads = threads;
      const RunResult got = run_local(cycle, probe, options);
      EXPECT_EQ(got.stats.peak_round_messages, 2 * cycle.graph.num_edges())
          << tag << " threads=" << threads;
    }
  }

  // Broadcasts followed by single-port resends, against the reference
  // (which sends port by port) in the simultaneous loop, where sleeping
  // receivers must be woken by each port of a broadcast, and under
  // delay:heavytail.
  const KernelAlgorithm probe = broadcast_probe();
  for (const auto& named : standard_instances(/*seed=*/89)) {
    RunOptions options;
    options.seed = 23;
    options.network.preset = DelayPreset::kHeavyTail;
    const RunResult want = run_local_reference(named.instance, probe, options);
    EXPECT_EQ(want.max_message_words,
              named.instance.graph.num_edges() > 0 ? 4 : 0)
        << named.name;
    for (const NetworkKind kind :
         {NetworkKind::kSynchronous, NetworkKind::kDelayed}) {
      options.network.kind = kind;
      for (const int threads : {1, 2, 8}) {
        options.engine_threads = threads;
        const RunResult got = run_local(named.instance, probe, options);
        const std::string label =
            "broadcast/" + named.name +
            (kind == NetworkKind::kDelayed ? "/delayed" : "/simul") +
            "/threads=" + std::to_string(threads);
        if (kind == NetworkKind::kDelayed)
          expect_delayed_matches(want, got, label);
        else
          expect_same(want, got, label);
      }
    }
  }
}

// kernel_phase<F> pairs the scalar body F with its generated batch form,
// and check_kernel rejects a row without a batch form, by kernel and phase
// name: the simultaneous loop steps every phase through one. A truncation
// over such a kernel is refused as it is built, since it forwards its
// buckets to the inner batch forms.
TEST(KernelTable, EveryPhaseNeedsABatchForm) {
  const KernelPhase row = kernel_phase<broadcast_probe_kernel>("probe");
  EXPECT_EQ(row.name, "probe");
  EXPECT_EQ(row.fn, &broadcast_probe_kernel);
  EXPECT_EQ(row.batch, &kernel_batch<broadcast_probe_kernel>);

  auto kernel = std::make_shared<StepKernel>();
  kernel->name = "scalar-only";
  kernel->state_size = sizeof(BroadcastProbeState);
  kernel->state_align = alignof(BroadcastProbeState);
  kernel->phases = {row, {"raw", &broadcast_probe_kernel, nullptr}};
  const auto bare = std::make_shared<KernelAlgorithm>("bare", kernel);
  const Instance instance = make_instance(cycle_graph(8));
  for (const NetworkKind kind :
       {NetworkKind::kSynchronous, NetworkKind::kDelayed}) {
    RunOptions options;
    options.network.kind = kind;
    try {
      run_local(instance, *bare, options);
      ADD_FAILURE() << "a null batch form was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(),
                   "kernel 'scalar-only' phase 'raw' has a null batch "
                   "function");
    }
  }
  EXPECT_THROW(TruncatedAlgorithm(bare, 4), std::runtime_error);
}

TEST(KernelEquivalence, LubyAndGreedyAcrossInstances) {
  const LubyMis luby;
  const GreedyMis greedy;
  for (const auto& named : standard_instances(/*seed=*/61)) {
    check_both_engine_modes(named.instance, luby, 7, "luby/" + named.name);
    check_both_engine_modes(named.instance, greedy, 7, "greedy/" + named.name);
  }
}

TEST(KernelEquivalence, TruncatedLubyAcrossInstances) {
  // The truncation wrapper forwards to the inner kernel; a budget that
  // bites mid-run must stay bit-identical too.
  const TruncatedAlgorithm truncated(std::make_shared<LubyMis>(), 3, 0);
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
    for (const auto& named : standard_instances(/*seed=*/91))
      check_both_engine_modes(named.instance, ruling, 23,
                              "beta-luby-" + std::to_string(beta) + "/" +
                                  named.name);
  }
}

TEST(KernelEquivalence, HPartitionAcrossInstances) {
  for (const auto& named : standard_instances(/*seed=*/97)) {
    const HPartition peel(2, std::max<NodeId>(named.instance.num_nodes(), 2));
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
    check_both_engine_modes(named.instance, *mis, 43,
                            "chain-mis/" + named.name);
    check_both_engine_modes(named.instance, *matching, 43,
                            "chain-matching/" + named.name);
    check_both_engine_modes(named.instance, *arb, 43,
                            "chain-arb/" + named.name);
  }
}

TEST(KernelEquivalence, DelayedNetworkBitIdentity) {
  // The delayed loop steps kernels on the scalar path; under every preset
  // its runs must match the reference's simultaneous run.
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
      RunOptions simultaneous;
      simultaneous.seed = options.seed;
      expect_delayed_matches(
          run_local_reference(instance, *algorithm, simultaneous),
          run_local(instance, *algorithm, options),
          std::string("delayed/") + delay_preset_name(preset) + "/" +
              algorithm->name());
    }
  }
}

}  // namespace
}  // namespace unilocal
