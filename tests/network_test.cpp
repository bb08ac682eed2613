// The pluggable delivery layer (src/runtime/network.h): spec/knob parsing,
// the SynchronousNetwork round arena on its own (receiver-keyed slots,
// inline one-word payloads, last-write-wins overwrites, the reset
// strategies), and the DelayedNetwork execution mode's core contracts —
//
//   * asynchrony transparency: when every pulse is eventually delivered
//     (no crashes, drops below the retransmission cap), outputs and local
//     finish rounds are bit-identical to the synchronous run for the same
//     seed — the paper's Observation 2.1, used here as the oracle;
//   * determinism: the full RunResult (timestamps and fault counters
//     included) is invariant under engine thread count and run repetition;
//   * degenerate faults: drop=1.0 and crashes stall the synchronizer
//     cleanly (stalled nodes stop stepping, survivors finalized as cut
//     off) instead of spinning;
//   * the kernel tier works unchanged through the delayed layer.
//
// Campaign/shard-level determinism of delayed grids is covered in
// tests/shard_test.cpp-style form at the bottom of this file.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <sstream>

#include "src/algo/greedy_mis.h"
#include "src/algo/luby.h"
#include "src/algo/ruling_set_mc.h"
#include "src/graph/csr.h"
#include "src/graph/generators.h"
#include "src/runtime/campaign.h"
#include "src/runtime/network.h"
#include "src/runtime/reference.h"
#include "src/runtime/run_log.h"
#include "src/runtime/runner.h"
#include "src/runtime/shard.h"
#include "tests/test_support.h"

namespace unilocal {
namespace {

using testing_support::standard_instances;

NetworkOptions delayed(DelayPreset preset) {
  NetworkOptions network;
  network.kind = NetworkKind::kDelayed;
  network.preset = preset;
  return network;
}

void expect_same_result(const RunResult& want, const RunResult& got,
                        const std::string& label) {
  EXPECT_EQ(want.outputs, got.outputs) << label;
  EXPECT_EQ(want.finish_rounds, got.finish_rounds) << label;
  EXPECT_EQ(want.global_finish_rounds, got.global_finish_rounds) << label;
  EXPECT_EQ(want.all_finished, got.all_finished) << label;
  EXPECT_EQ(want.rounds_used, got.rounds_used) << label;
  EXPECT_EQ(want.global_rounds, got.global_rounds) << label;
  EXPECT_EQ(want.messages_sent, got.messages_sent) << label;
  EXPECT_EQ(want.max_message_words, got.max_message_words) << label;
  EXPECT_EQ(want.stats.total_steps, got.stats.total_steps) << label;
  EXPECT_EQ(want.stats.messages_dropped, got.stats.messages_dropped) << label;
  EXPECT_EQ(want.stats.messages_duplicated, got.stats.messages_duplicated)
      << label;
  EXPECT_EQ(want.stats.max_delivery_skew, got.stats.max_delivery_skew)
      << label;
}

TEST(NetworkSpec, ParseAndName) {
  EXPECT_EQ(parse_network_spec("sync").kind, NetworkKind::kSynchronous);
  const NetworkOptions uniform = parse_network_spec("delay:uniform");
  EXPECT_EQ(uniform.kind, NetworkKind::kDelayed);
  EXPECT_EQ(uniform.preset, DelayPreset::kUniform);
  EXPECT_EQ(parse_network_spec("delay:weighted").preset,
            DelayPreset::kWeighted);
  EXPECT_EQ(parse_network_spec("delay:heavytail").preset,
            DelayPreset::kHeavyTail);
  for (const NetworkOptions& options :
       {parse_network_spec("sync"), parse_network_spec("delay:heavytail")})
    EXPECT_EQ(parse_network_spec(network_spec_name(options)), options);
  EXPECT_THROW(parse_network_spec("delay:pareto"), std::runtime_error);
  EXPECT_THROW(parse_network_spec(""), std::runtime_error);
  try {
    parse_network_spec("async");
    FAIL() << "expected parse failure";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("async"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("delay:uniform"), std::string::npos);
  }
}

TEST(NetworkSpec, StrictKnobParsing) {
  EXPECT_DOUBLE_EQ(parse_unit_interval("--drop", "0.25"), 0.25);
  EXPECT_EQ(parse_positive_ticks("--max-delay", "12"), 12);
  for (const char* bad : {"", "0.5x", "-0.1", "1.5", "nan"})
    EXPECT_THROW(parse_unit_interval("--drop", bad), std::runtime_error);
  for (const char* bad : {"", "7.5", "0", "-3", "12x", "4294967297",
                          "9223372036854775807"})
    EXPECT_THROW(parse_positive_ticks("--late-by", bad), std::runtime_error);
  EXPECT_EQ(parse_positive_ticks("--max-delay", "4294967296"), kMaxTicks);
  try {
    parse_unit_interval("--crash", "oops");
    FAIL() << "expected parse failure";
  } catch (const std::runtime_error& e) {
    // The error must name the flag (the CLI surfaces e.what() directly).
    EXPECT_NE(std::string(e.what()).find("--crash"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("oops"), std::string::npos);
  }
  NetworkOptions bad;
  bad.drop = 1.5;
  EXPECT_THROW(validate_network_options(bad), std::runtime_error);
  bad = NetworkOptions{};
  bad.max_delay = 0;
  EXPECT_THROW(validate_network_options(bad), std::runtime_error);
  bad.max_delay = kMaxTicks + 1;
  EXPECT_THROW(validate_network_options(bad), std::runtime_error);
  bad = NetworkOptions{};
  bad.late_by = std::numeric_limits<std::int64_t>::max();
  EXPECT_THROW(validate_network_options(bad), std::runtime_error);
  bad = NetworkOptions{};
  bad.late = -0.5;
  Instance instance = make_instance(path_graph(4));
  RunOptions options;
  options.network = bad;
  EXPECT_THROW(run_local(instance, LubyMis(), options), std::runtime_error);
}

// --- SynchronousNetwork ----------------------------------------------------

using Words = std::vector<std::int64_t>;

/// What the arena hands `node` on `port` this round; nullopt when absent.
std::optional<Words> received(const SynchronousNetwork& net, NodeId node,
                              NodeId port) {
  bool present = false;
  const std::span<const std::int64_t> words = net.recv(node, port, &present);
  if (!present) return std::nullopt;
  return Words(words.begin(), words.end());
}

void send(SynchronousNetwork& net, int tid, NodeId node, NodeId port,
          const Words& words) {
  net.send(tid, node, port, words.data(), words.size());
}

/// Every receive of the round is absent and nothing is sent yet.
void expect_round_clean(const SynchronousNetwork& net, const CsrGraph& csr,
                        const std::string& label) {
  for (NodeId v = 0; v < csr.num_nodes(); ++v) {
    EXPECT_FALSE(net.has_mail(v)) << label << " node " << v;
    for (NodeId j = 0; j < csr.degree(v); ++j) {
      EXPECT_EQ(received(net, v, j), std::nullopt)
          << label << " node " << v << " port " << j;
      EXPECT_FALSE(net.sent(v, j)) << label << " node " << v << " port " << j;
    }
  }
}

TEST(SynchronousNetwork, DeliversZeroOneAndThreeWordsFromTwoThreads) {
  // K4: node v's port j message has j words (0, 1 or 3 for j = 0, 1, 2),
  // sent by node 0 on thread 0 and node 1 on thread 1; nodes 2 and 3 stay
  // silent.
  const CsrGraph csr(complete_graph(4));
  const auto message = [](NodeId v, NodeId j) {
    Words words;
    for (NodeId k = 0; k < (j == 2 ? 3 : j); ++k)
      words.push_back(100 * v + 10 * j + k);
    return words;
  };
  SynchronousNetwork net;
  net.begin_run(csr, 2);
  net.begin_round(csr.num_directed_edges());
  for (const NodeId v : {0, 1})
    for (NodeId j = 0; j < csr.degree(v); ++j) {
      send(net, /*tid=*/v, v, j, message(v, j));
      EXPECT_TRUE(net.sent(v, j));
    }
  for (NodeId u = 0; u < csr.num_nodes(); ++u) EXPECT_TRUE(net.has_mail(u));
  EXPECT_EQ(net.send_max_words(), 3);
  net.end_round();
  net.begin_round(6);
  for (NodeId u = 0; u < csr.num_nodes(); ++u)
    for (NodeId p = 0; p < csr.degree(u); ++p) {
      const NodeId v = csr.neighbor(u, p);
      const std::string label =
          "receiver " + std::to_string(u) + " port " + std::to_string(p);
      if (v > 1) {
        EXPECT_EQ(received(net, u, p), std::nullopt) << label;
        continue;
      }
      // The sender's port towards u is the reverse port.
      EXPECT_EQ(received(net, u, p), message(v, csr.reverse_port(u, p)))
          << label;
    }
  net.end_run();
}

TEST(SynchronousNetwork, InlineAndBufferedOverwritesOfOneSlot) {
  const CsrGraph csr(complete_graph(3));
  SynchronousNetwork net;
  net.begin_run(csr, 1);
  for (const std::int64_t prev : {std::int64_t{6}, std::int64_t{0}}) {
    // Bulk round (prev = every slot) first, then a dirty-list round.
    net.begin_round(prev);
    const std::string label = prev > 0 ? "bulk" : "dirty";
    // Buffered then inline, inline then buffered, empty then inline.
    EXPECT_EQ(net.send(0, 0, 0, Words{1, 2, 3}.data(), 3), -1) << label;
    EXPECT_EQ(net.send(0, 0, 0, Words{4}.data(), 1), 3) << label;
    EXPECT_EQ(net.send(0, 0, 1, Words{5}.data(), 1), -1) << label;
    EXPECT_EQ(net.send(0, 0, 1, Words{6, 7, 8}.data(), 3), 1) << label;
    EXPECT_EQ(net.send(0, 1, 0, nullptr, 0), -1) << label;
    EXPECT_EQ(net.send(0, 1, 0, Words{9}.data(), 1), 0) << label;
    EXPECT_EQ(net.send_max_words(), 3) << label;
    // Shrinking the only long message leaves a one-word maximum.
    EXPECT_EQ(net.send(0, 0, 1, Words{10}.data(), 1), 3) << label;
    EXPECT_EQ(net.send_max_words(), 1) << label;
    net.end_round();
    net.begin_round(3);
    const NodeId from0_to1 = csr.reverse_port(0, 0);
    const NodeId from0_to2 = csr.reverse_port(0, 1);
    const NodeId from1_to0 = csr.reverse_port(1, 0);
    EXPECT_EQ(received(net, 1, from0_to1), Words{4}) << label;
    EXPECT_EQ(received(net, 2, from0_to2), Words{10}) << label;
    EXPECT_EQ(received(net, 0, from1_to0), Words{9}) << label;
    EXPECT_EQ(received(net, 2, csr.reverse_port(1, 1)), std::nullopt)
        << label;
    net.end_round();
  }
  net.end_run();
}

TEST(SynchronousNetwork, ReceiveSpansStayValidThroughTheRound) {
  const CsrGraph csr(complete_graph(5));
  SynchronousNetwork net;
  net.begin_run(csr, 2);
  net.begin_round(csr.num_directed_edges());
  // Round 0: even senders one inline word, odd senders three words.
  const auto message = [](NodeId v, NodeId j) {
    return v % 2 == 0 ? Words{10 * v + j} : Words{v, j, -v};
  };
  for (NodeId v = 0; v < csr.num_nodes(); ++v)
    for (NodeId j = 0; j < csr.degree(v); ++j)
      send(net, v % 2, v, j, message(v, j));
  net.end_round();
  net.begin_round(csr.num_directed_edges());
  std::vector<std::span<const std::int64_t>> spans;
  for (NodeId u = 0; u < csr.num_nodes(); ++u)
    for (NodeId p = 0; p < csr.degree(u); ++p) {
      bool present = false;
      spans.push_back(net.recv(u, p, &present));
      ASSERT_TRUE(present);
    }
  // Round 1 overwrites every slot of the send half, with long messages
  // that regrow both threads' word buffers, and resends some inline.
  const Words long_message(64, -7);
  for (NodeId v = 0; v < csr.num_nodes(); ++v)
    for (NodeId j = 0; j < csr.degree(v); ++j) {
      send(net, v % 2, v, j, long_message);
      if (j == 0) send(net, v % 2, v, j, Words{-1});
    }
  std::size_t i = 0;
  for (NodeId u = 0; u < csr.num_nodes(); ++u)
    for (NodeId p = 0; p < csr.degree(u); ++p, ++i) {
      const Words want = message(csr.neighbor(u, p), csr.reverse_port(u, p));
      EXPECT_EQ(Words(spans[i].begin(), spans[i].end()), want)
          << "receiver " << u << " port " << p;
    }
  net.end_run();
}

TEST(SynchronousNetwork, BulkAndDirtyResetsLeaveTheArenaClean) {
  // K6 has 30 slots; a round whose predecessor moved fewer than 30 / 4
  // messages writes through the dirty lists.
  const CsrGraph csr(complete_graph(6));
  const std::int64_t slots = csr.num_directed_edges();
  SynchronousNetwork net;
  net.begin_run(csr, 2);

  // Round 0 (bulk, round 0 assumes a dense start): node 0 on every port.
  net.begin_round(slots);
  for (NodeId j = 0; j < csr.degree(0); ++j) send(net, 0, 0, j, Words{j});
  net.end_round();

  // Round 1 (dirty): two slots, one written twice from the other thread.
  net.begin_round(csr.degree(0));
  send(net, 1, 3, 0, Words{1, 2});
  send(net, 1, 3, 0, Words{3});
  send(net, 0, 4, 1, Words{4});
  // K6 ports list the other nodes in ascending order: node 3's port 0
  // reaches node 0 and node 4's port 1 reaches node 1.
  for (NodeId u = 0; u < csr.num_nodes(); ++u)
    EXPECT_EQ(net.has_mail(u), u <= 1) << "node " << u;
  net.end_round();

  // Round 2: round 0's half came back reset by the bulk fill, which the
  // dirty-clear stat does not count.
  net.begin_round(2);
  for (NodeId v = 0; v < csr.num_nodes(); ++v)
    for (NodeId j = 0; j < csr.degree(v); ++j)
      EXPECT_FALSE(net.sent(v, j)) << "node " << v << " port " << j;
  EXPECT_EQ(net.dirty_cleared(), 0);
  EXPECT_EQ(received(net, 0, csr.reverse_port(3, 0)), Words{3});
  EXPECT_EQ(received(net, 1, csr.reverse_port(4, 1)), Words{4});
  for (NodeId u = 0; u < csr.num_nodes(); ++u) EXPECT_FALSE(net.has_mail(u));
  net.end_round();
  net.end_run();
  // end_run cleared round 1's two dirty slots; round 2 wrote nothing.
  EXPECT_EQ(net.dirty_cleared(), 2);

  // The next run starts with both halves clean (and no rebuild needed).
  net.begin_run(csr, 2);
  EXPECT_EQ(net.dirty_cleared(), 0);
  net.begin_round(slots);
  expect_round_clean(net, csr, "rerun round 0");
  net.end_round();
  net.begin_round(0);
  expect_round_clean(net, csr, "rerun round 1");
  net.end_round();
  net.end_run();
  EXPECT_EQ(net.dirty_cleared(), 0);

  // A run that ends on bulk halves is clean afterwards too.
  net.begin_run(csr, 1);
  for (int round = 0; round < 2; ++round) {
    net.begin_round(slots);
    for (NodeId v = 0; v < csr.num_nodes(); ++v)
      for (NodeId j = 0; j < csr.degree(v); ++j) send(net, 0, v, j, Words{v});
    net.end_round();
  }
  net.end_run();
  EXPECT_EQ(net.dirty_cleared(), 0);
  net.begin_run(csr, 1);
  net.begin_round(0);
  expect_round_clean(net, csr, "after bulk run");
  net.end_round();
  net.end_run();
}

// When every pulse is eventually delivered, each node sees the same message
// contents in the same local rounds as under the synchronous network, so
// outputs and local finish rounds are bit-identical (Observation 2.1). This
// holds across presets and across delivery-reordering faults (drops below
// the retransmission cap, duplicates, late joiners).
TEST(DelayedNetwork, AsynchronyTransparentAcrossPresetsAndFaults) {
  const LubyMis luby;
  const GreedyMis greedy;
  const BetaLubyRulingSet ruling(2);
  const std::vector<std::pair<std::string, const Algorithm*>> algorithms = {
      {"luby", &luby}, {"greedy", &greedy}, {"ruling2", &ruling}};
  std::vector<std::pair<std::string, NetworkOptions>> networks;
  for (const DelayPreset preset :
       {DelayPreset::kUniform, DelayPreset::kWeighted,
        DelayPreset::kHeavyTail})
    networks.push_back({std::string("plain-") + delay_preset_name(preset),
                        delayed(preset)});
  NetworkOptions faulty = delayed(DelayPreset::kUniform);
  faulty.drop = 0.3;
  faulty.duplicate = 0.5;
  faulty.late = 0.5;
  networks.push_back({"drop-dup-late", faulty});

  for (const auto& named : standard_instances(/*seed=*/21)) {
    for (const auto& [algo_name, algorithm] : algorithms) {
      RunOptions sync_options;
      sync_options.seed = 17;
      const RunResult want =
          run_local(named.instance, *algorithm, sync_options);
      for (const auto& [net_name, network] : networks) {
        RunOptions options = sync_options;
        options.network = network;
        const RunResult got = run_local(named.instance, *algorithm, options);
        const std::string label =
            named.name + "/" + algo_name + "/" + net_name;
        EXPECT_EQ(want.outputs, got.outputs) << label;
        EXPECT_EQ(want.finish_rounds, got.finish_rounds) << label;
        EXPECT_EQ(want.all_finished, got.all_finished) << label;
        EXPECT_EQ(want.rounds_used, got.rounds_used) << label;
        EXPECT_EQ(want.messages_sent, got.messages_sent) << label;
        EXPECT_EQ(want.max_message_words, got.max_message_words) << label;
      }
    }
  }
}

// Same seed, same options => bit-identical full result (timestamps and
// fault counters included) for any engine thread count and on repetition
// through a reused workspace.
TEST(DelayedNetwork, DeterministicAcrossThreadCountsAndRepetition) {
  const LubyMis luby;
  NetworkOptions network = delayed(DelayPreset::kHeavyTail);
  network.drop = 0.2;
  network.duplicate = 0.3;
  network.late = 0.4;
  for (const auto& named : standard_instances(/*seed=*/23)) {
    RunOptions options;
    options.seed = 5;
    options.network = network;
    options.num_threads = 1;
    const RunResult want = run_local(named.instance, luby, options);
    EngineWorkspace workspace;
    for (const int threads : {1, 2, 8}) {
      options.num_threads = threads;
      const RunResult got =
          run_local(named.instance, luby, options, &workspace);
      expect_same_result(want, got,
                         named.name + "/threads=" + std::to_string(threads));
    }
  }
}

// drop=1.0: nothing is ever delivered. Round 0 needs no messages, so every
// node steps once; from then on every non-isolated node stalls for good,
// and the run exits cleanly with the survivors cut off — it
// must not spin to the round cap (guarded here by the default cap being
// ~2^60: a spinning loop would never return).
TEST(DelayedNetwork, DropEverythingStallsCleanly) {
  const Instance instance =
      make_instance(path_graph(40), IdentityScheme::kRandomPermuted, 3);
  RunOptions options;
  options.seed = 9;
  options.network = delayed(DelayPreset::kUniform);
  options.network.drop = 1.0;
  const RunResult result = run_local(instance, LubyMis(), options);
  EXPECT_FALSE(result.all_finished);
  EXPECT_EQ(result.stats.final_live_nodes, 40);
  EXPECT_EQ(result.stats.total_steps, 40);  // exactly one round each
  EXPECT_GT(result.stats.messages_dropped, 0);
  for (const std::int64_t output : result.outputs) EXPECT_EQ(output, 0);
  for (const std::int64_t finish : result.finish_rounds)
    EXPECT_EQ(finish, options.max_rounds);
}

// Fail-stop crashes starve the crashed nodes' neighbourhoods; the run still
// terminates, deterministically. crash=1.0 is the extreme: nobody ever
// steps.
TEST(DelayedNetwork, CrashedNodesStarveNeighboursAndTerminate) {
  Rng rng(31);
  const Instance instance = make_instance(
      gnp(60, 0.08, rng), IdentityScheme::kRandomPermuted, 4);
  RunOptions options;
  options.seed = 11;
  options.network = delayed(DelayPreset::kUniform);
  options.network.crash = 0.3;
  const RunResult first = run_local(instance, LubyMis(), options);
  EXPECT_FALSE(first.all_finished);
  EXPECT_GT(first.stats.final_live_nodes, 0);
  options.num_threads = 8;
  const RunResult second = run_local(instance, LubyMis(), options);
  expect_same_result(first, second, "crash determinism");

  options.network.crash = 1.0;
  const RunResult nobody = run_local(instance, LubyMis(), options);
  EXPECT_EQ(nobody.stats.total_steps, 0);
  EXPECT_EQ(nobody.stats.final_live_nodes, 60);
  EXPECT_EQ(nobody.global_rounds, 0);
}

// The round cap applies per node in the delayed mode exactly as in the
// synchronous modes: same outputs, same local finish rounds.
TEST(DelayedNetwork, CutoffParityWithSynchronousRun) {
  for (const auto& named : standard_instances(/*seed=*/37)) {
    RunOptions options;
    options.seed = 13;
    options.max_rounds = 3;
    const RunResult want = run_local(named.instance, LubyMis(), options);
    options.network = delayed(DelayPreset::kUniform);
    const RunResult got = run_local(named.instance, LubyMis(), options);
    EXPECT_EQ(want.outputs, got.outputs) << named.name;
    EXPECT_EQ(want.finish_rounds, got.finish_rounds) << named.name;
    EXPECT_EQ(want.all_finished, got.all_finished) << named.name;
  }
}

// Composition (run_sequential) through the delayed layer: stage k+1 wakes
// each node after its stage-k finish time; since outputs are wake-invariant,
// the composition's outputs still match the synchronous composition.
TEST(DelayedNetwork, SequentialCompositionMatchesSynchronous) {
  const LubyMis luby;
  const GreedyMis greedy;
  const std::vector<const Algorithm*> stages = {&luby, &greedy};
  Rng rng(41);
  const Instance instance = make_instance(
      gnp(50, 0.1, rng), IdentityScheme::kRandomPermuted, 6);
  RunOptions options;
  options.seed = 19;
  const auto want = run_sequential(instance, stages, options);
  options.network = delayed(DelayPreset::kHeavyTail);
  options.network.duplicate = 0.4;
  const auto got = run_sequential(instance, stages, options);
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t stage = 0; stage < want.size(); ++stage) {
    EXPECT_EQ(want[stage].outputs, got[stage].outputs) << stage;
    EXPECT_EQ(want[stage].finish_rounds, got[stage].finish_rounds) << stage;
  }
}

// Fault counters must surface: drops, duplicates, and a positive delivery
// skew whenever latencies exceed one tick.
TEST(DelayedNetwork, FaultCountersSurfaceInStats) {
  const Instance instance =
      make_instance(cycle_graph(50), IdentityScheme::kRandomPermuted, 8);
  RunOptions options;
  options.seed = 23;
  options.network = delayed(DelayPreset::kUniform);
  options.network.drop = 0.3;
  options.network.duplicate = 0.4;
  const RunResult result = run_local(instance, LubyMis(), options);
  EXPECT_GT(result.stats.messages_dropped, 0);
  EXPECT_GT(result.stats.messages_duplicated, 0);
  EXPECT_GT(result.stats.max_delivery_skew, 0);
  EXPECT_GT(result.global_rounds, result.rounds_used);

  RunOptions sync_options;
  sync_options.seed = 23;
  const RunResult sync_result = run_local(instance, LubyMis(), sync_options);
  EXPECT_EQ(sync_result.stats.messages_dropped, 0);
  EXPECT_EQ(sync_result.stats.messages_duplicated, 0);
  EXPECT_EQ(sync_result.stats.max_delivery_skew, 0);
}

// The step-kernel tier must work unchanged through the delayed layer:
// kernel and vtable paths produce bit-identical full results, and the
// path-split stats prove both actually ran their own tier.
TEST(DelayedNetwork, KernelTierBitIdenticalThroughDelayedLayer) {
  const LubyMis luby;  // has a kernel lowering
  NetworkOptions network = delayed(DelayPreset::kWeighted);
  network.drop = 0.2;
  for (const auto& named : standard_instances(/*seed=*/43)) {
    RunOptions options;
    options.seed = 29;
    options.network = network;
    const RunResult with_kernel = run_local(named.instance, luby, options);
    const RunResult without =
        run_local(named.instance, VtableOnly(luby), options);
    expect_same_result(with_kernel, without, named.name);
    EXPECT_EQ(with_kernel.stats.vtable_steps, 0) << named.name;
    EXPECT_EQ(without.stats.kernel_steps, 0) << named.name;
  }
}

// --- campaign / shard layer --------------------------------------------------

std::vector<CampaignCell> delayed_grid() {
  GridOptions grid_options;
  NetworkOptions faulty = delayed(DelayPreset::kHeavyTail);
  faulty.drop = 0.05;
  faulty.duplicate = 0.1;
  grid_options.networks = {NetworkOptions{}, delayed(DelayPreset::kUniform),
                           faulty};
  return make_grid({"gnp", "tree"}, ScenarioParams{}, {"luby-mis"},
                   /*seeds_per_combination=*/2, grid_options);
}

std::string canonical_json(const CampaignResult& result) {
  CampaignJsonOptions json_options;
  json_options.canonical = true;
  std::ostringstream out;
  write_campaign_json(out, result, json_options);
  return out.str();
}

// The acceptance bar for the delivery layer at campaign scale: a fixed-seed
// grid crossed with delayed networks reproduces byte-equal canonical JSON
// no matter how it is split across shard processes or which placement
// policy assigned the cells — including a full JSON round trip of every
// manifest and shard result (the network identity must survive
// serialization, or the worker would run a different experiment).
TEST(DelayedCampaign, CanonicalJsonByteEqualAcrossShardingsAndPolicies) {
  const std::vector<CampaignCell> cells = delayed_grid();
  const std::string want = canonical_json(run_campaign(cells, {}));
  EXPECT_NE(want.find("\"network\":\"delay:heavytail\""), std::string::npos);
  for (const ShardPolicy policy :
       {ShardPolicy::kRoundRobin, ShardPolicy::kCostBalanced}) {
    for (const int num_shards : {1, 2, 3, 7}) {
      const ShardPlan plan = plan_shards(cells, num_shards, policy);
      const ShardPlan plan_back =
          ShardPlan::from_json(json::Value::parse(plan.to_json().dump()));
      std::vector<ShardResult> results;
      for (const ShardManifest& manifest : plan_back.shards) {
        const ShardManifest manifest_back = ShardManifest::from_json(
            json::Value::parse(manifest.to_json().dump()));
        const ShardResult result = run_shard(manifest_back, {});
        results.push_back(ShardResult::from_json(
            json::Value::parse(result.to_json().dump())));
      }
      const CampaignResult merged = merge_shard_results(plan_back, results);
      EXPECT_EQ(want, canonical_json(merged))
          << shard_policy_name(policy) << "/" << num_shards;
    }
  }
}

// A campaign over fully-delivered delayed networks stays as solved/valid as
// the synchronous one (Observation 2.1 applies cell-wise), the fault
// percentiles surface, and the delivery layer separates grid identities:
// the same cells under different networks must never share a run-log
// perf baseline.
TEST(DelayedCampaign, VerdictsHoldAndNetworkSeparatesGridIdentity) {
  const std::vector<CampaignCell> cells = delayed_grid();
  const CampaignResult result = run_campaign(cells, {});
  EXPECT_EQ(result.failed, 0);
  EXPECT_EQ(result.valid, static_cast<int>(cells.size()));
  EXPECT_GT(result.percentiles[EngineStat::messages_dropped].max, 0.0);
  EXPECT_GT(result.percentiles[EngineStat::messages_duplicated].max, 0.0);
  EXPECT_GT(result.percentiles[EngineStat::max_delivery_skew].max, 0.0);

  std::vector<CampaignCell> sync_cells = cells;
  for (CampaignCell& cell : sync_cells) cell.network = NetworkOptions{};
  EXPECT_NE(campaign_grid_hash(cells), campaign_grid_hash(sync_cells));
  std::vector<CampaignCell> other_knob = cells;
  other_knob.back().network.drop = 0.051;
  EXPECT_NE(campaign_grid_hash(cells), campaign_grid_hash(other_knob));

  // CampaignOptions::network applies the layer campaign-wide to
  // default-sync cells, and the effective network lands in the artifacts.
  CampaignOptions options;
  options.network = delayed(DelayPreset::kWeighted);
  const CampaignResult overridden = run_campaign(sync_cells, options);
  EXPECT_EQ(overridden.valid, static_cast<int>(sync_cells.size()));
  std::ostringstream csv;
  write_campaign_csv(csv, overridden);
  EXPECT_NE(csv.str().find("delay:weighted"), std::string::npos);
  EXPECT_NE(csv.str().find("messages_dropped"), std::string::npos);
}

}  // namespace
}  // namespace unilocal
