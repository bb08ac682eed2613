// Quiescent nodes: the simultaneous engine stops stepping a kernel node
// between its sleep_until hint and its next message, and the result must
// not change. A probe algorithm that sleeps as aggressively as the sleep
// contract (src/runtime/kernel.h) allows is compared field by field with
// run_local_reference and with a copy whose hints are dropped, at 1, 2 and
// 8 threads, alone and behind the chain and truncation composites that
// clamp hints. The
// engine.steps / engine.slept_steps counters then pin how many steps ran:
// exactly the ones the probe's own bookkeeping says were needed. When no
// node is awake the engine jumps its clock to the next timed wake; the
// per-round span's `jumped` arg and engine.jumped_rounds show the skipped
// rounds, which must change nothing either. The lockstep loop skips
// sleepers too, while they keep pulsing: there the probe and color-reduce
// are compared field by field, stats included, with their hint-dropped
// copies, under heavy-tail latencies, drops, duplicates and late joiners
// on the delayed network, and under staggered wake rounds on the
// synchronous one (the synchronizer).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/algo/color_reduce.h"
#include "src/algo/linial.h"
#include "src/algo/luby.h"
#include "src/graph/generators.h"
#include "src/graph/params.h"
#include "src/runtime/chain.h"
#include "src/runtime/kernel.h"
#include "src/runtime/network.h"
#include "src/runtime/reference.h"
#include "src/runtime/runner.h"
#include "src/runtime/telemetry.h"
#include "tests/test_support.h"

namespace unilocal {
namespace {

// --- the probe ----------------------------------------------------------
//
// Node state: an accumulator and the round of its next action. A step
// folds every received message [value, hops] into the accumulator,
// answers each one with hops > 0 on the same port, and moves the next
// action round when the value is even; an action round draws
// randomness, sends [acc, hops] to one port and picks the next action
// round; round `finish_at` (plus a spread by identity) finishes with the
// accumulator. Between actions, with no mail, a step does nothing, so the
// kernel sleeps until the next action or the finish round.

struct ProbeConfig {
  std::int64_t period = 4;         // action rounds are spaced 1..period apart
  std::int64_t first_act = 1;      // plus identity % period
  std::int64_t finish_at = 40;     // plus identity % finish_spread
  std::int64_t finish_spread = 3;
  std::int64_t hops = 1;           // replies per action message
  // When set, every step adds the steps a sleeping engine must run to
  // *needed (reference or lockstep runs only, which step one node at a
  // time), and those of them that mail woke before their due round to
  // *mail_wakes; max_rounds is the run's cut-off.
  std::int64_t* needed = nullptr;
  std::int64_t* mail_wakes = nullptr;
  std::int64_t max_rounds = RunOptions{}.max_rounds;
};

struct ProbeState {
  std::int64_t acc;
  std::int64_t next_act;
  std::int64_t finish_round;
  std::int64_t due;  // the needed-steps bookkeeping's next due round
};

void probe_init(ProbeState& st, std::int64_t identity,
                const ProbeConfig& cfg) {
  st.acc = identity;
  st.next_act = cfg.first_act + identity % cfg.period;
  st.finish_round = cfg.finish_at + identity % cfg.finish_spread;
}

std::int64_t fold(std::int64_t acc, std::int64_t value, NodeId port) {
  return (acc * 31 + value + port) & 0xffffff;
}

/// One probe round over an abstract transport; returns true when the node
/// finished.
template <typename Recv, typename Send, typename Draw>
bool probe_round(ProbeState& st, const ProbeConfig& cfg, NodeId degree,
                 std::int64_t round, Recv&& recv, Send&& send, Draw&& draw,
                 std::int64_t* output) {
  std::vector<std::pair<NodeId, std::int64_t>> replies;
  for (NodeId j = 0; j < degree; ++j) {
    std::int64_t value = 0, hops = 0;
    if (!recv(j, &value, &hops)) continue;
    st.acc = fold(st.acc, value, j);
    if (hops > 0) replies.emplace_back(j, hops - 1);
    // Even values move the next action, earlier or later.
    if (value % 2 == 0) st.next_act = round + 1 + value % cfg.period;
  }
  for (const auto& [j, hops] : replies) send(j, st.acc, hops);
  if (round == st.next_act) {
    const std::int64_t x = static_cast<std::int64_t>(draw() >> 40);
    st.acc = fold(st.acc, x, 0);
    if (degree > 0) send(static_cast<NodeId>(x % degree), st.acc, cfg.hops);
    st.next_act = round + 1 + x % cfg.period;
  }
  if (round >= st.finish_round) {
    *output = st.acc;
    return true;
  }
  return false;
}

void probe_kernel_init(std::byte* state, const NodeInit& init,
                       const void* config) {
  probe_init(*reinterpret_cast<ProbeState*>(state), init.identity,
             *static_cast<const ProbeConfig*>(config));
}

void probe_kernel_step(KernelCtx& ctx) {
  const auto& cfg = *static_cast<const ProbeConfig*>(ctx.config);
  auto& st = ctx.state_as<ProbeState>();
  bool mail = false;
  auto recv = [&](NodeId j, std::int64_t* value, std::int64_t* hops) {
    bool present = false;
    const auto m = ctx.recv(j, &present);
    if (!present) return false;
    mail = true;
    *value = m[0];
    *hops = m[1];
    return true;
  };
  auto send = [&](NodeId j, std::int64_t value, std::int64_t hops) {
    ctx.send(j, {value, hops});
  };
  auto draw = [&] { return ctx.rng->next(); };
  std::int64_t out = 0;
  const bool done =
      probe_round(st, cfg, ctx.degree, ctx.round, recv, send, draw, &out);
  // Bookkeeping of the steps a sleeping engine must still run: round 0,
  // rounds with mail, and the round the last such step asked to wake at
  // (clamped to the cut-off round, like the engine clamps it).
  if (cfg.needed != nullptr && (ctx.round == 0 || mail || ctx.round >= st.due)) {
    ++*cfg.needed;
    if (cfg.mail_wakes != nullptr && ctx.round < st.due)
      ++*cfg.mail_wakes;
    const std::int64_t wake = std::min(std::min(st.next_act, st.finish_round),
                                       cfg.max_rounds - 1);
    st.due = std::max(wake, ctx.round + 1);
  }
  if (done) {
    ctx.finish(out);
    return;
  }
  ctx.sleep_until(std::min(st.next_act, st.finish_round));
}

/// The probe as an Algorithm.
class Probe final : public Algorithm {
 public:
  explicit Probe(const ProbeConfig& cfg) {
    auto kernel = std::make_shared<StepKernel>();
    kernel->name = "probe";
    kernel->state_size = sizeof(ProbeState);
    kernel->state_align = alignof(ProbeState);
    kernel->init_fn = probe_kernel_init;
    kernel->phases = {kernel_phase<probe_kernel_step>("probe")};
    kernel->config = std::make_shared<ProbeConfig>(cfg);
    kernel_ = std::move(kernel);
  }
  std::shared_ptr<const StepKernel> kernel() const override { return kernel_; }
  std::string name() const override { return "probe"; }

 private:
  std::shared_ptr<const StepKernel> kernel_;
};

void sleepless_init(std::byte* state, const NodeInit& init,
                    const void* config) {
  const auto& inner = *static_cast<const StepKernel*>(config);
  inner.init_fn(state, init, inner.config.get());
}

void sleepless_step(KernelCtx& ctx) {
  step_inner_kernel(*static_cast<const StepKernel*>(ctx.config), ctx);
  ctx.wake_round = 0;
}

/// A copy of `inner` with every sleep hint dropped, so the engine steps
/// each unfinished node every round: a run of it pins what sleeping must
/// not move (dirty_spans_cleared).
class Sleepless final : public Algorithm {
 public:
  explicit Sleepless(const Algorithm& inner) {
    std::shared_ptr<const StepKernel> wrapped = inner.kernel();
    auto kernel = std::make_shared<StepKernel>();
    kernel->name = wrapped->name + "-sleepless";
    kernel->state_size = wrapped->state_size;
    kernel->state_align = wrapped->state_align;
    kernel->port_state_words = wrapped->port_state_words;
    kernel->init_fn = wrapped->init_fn != nullptr ? sleepless_init : nullptr;
    kernel->phases = {kernel_phase<sleepless_step>("sleepless")};
    kernel->config = std::move(wrapped);
    kernel_ = std::move(kernel);
  }
  std::shared_ptr<const StepKernel> kernel() const override { return kernel_; }
  std::string name() const override { return "sleepless"; }

 private:
  std::shared_ptr<const StepKernel> kernel_;
};

/// Finishes in round 0 with its first input word (0 without one): as a
/// chain stage it outputs the carry the previous stage left.
void echo_step(KernelCtx& ctx) {
  ctx.finish(ctx.input.empty() ? 0 : ctx.input[0]);
}

std::shared_ptr<const Algorithm> make_echo() {
  auto kernel = std::make_shared<StepKernel>();
  kernel->name = "echo";
  kernel->phases = {kernel_phase<echo_step>("echo")};
  return std::make_shared<KernelAlgorithm>("echo", std::move(kernel));
}

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
  EXPECT_EQ(want.stats.total_steps, got.stats.total_steps) << label;
}

/// What a run skipped: steps of sleeping nodes and rounds the clock jumped.
struct Skipped {
  std::int64_t slept = 0;
  std::int64_t jumped = 0;
};

std::int64_t counter(const telemetry::MetricsRegistry& reg,
                     const std::string& name) {
  for (const auto& m : reg.snapshot())
    if (m.name == name) return m.value;
  return 0;
}

/// The kernel and its sleepless copy against the reference engine at 1, 2
/// and 8 threads. The sleepless copy never sleeps or jumps, so it also pins
/// the arena's dirty_spans_cleared. Returns what the sleeping runs skipped,
/// the same on every thread count.
Skipped check_against_reference(const Instance& instance,
                                const Algorithm& algorithm,
                                const RunOptions& base,
                                const std::string& label) {
  const RunResult want = run_local_reference(instance, algorithm, base);
  const Sleepless sleepless(algorithm);
  const std::int64_t dirty_cleared =
      run_local(instance, sleepless, base).stats.dirty_spans_cleared;
  std::optional<Skipped> skipped;
  for (const int threads : {1, 2, 8}) {
    RunOptions options = base;
    options.engine_threads = threads;
    for (const Algorithm* path :
         {&algorithm, static_cast<const Algorithm*>(&sleepless)}) {
      const std::string tag =
          label + "/" + (path == &sleepless ? "sleepless" : "kernel") +
          "/threads=" + std::to_string(threads);
      telemetry::MetricsRegistry reg;
      RunResult got;
      {
        telemetry::ScopedMetrics scope(&reg);
        got = run_local(instance, *path, options);
      }
      expect_same(want, got, tag);
      EXPECT_EQ(counter(reg, "engine.steps"), want.stats.total_steps) << tag;
      EXPECT_EQ(got.stats.dirty_spans_cleared, dirty_cleared) << tag;
      const Skipped path_skipped{counter(reg, "engine.slept_steps"),
                                 counter(reg, "engine.jumped_rounds")};
      if (path == &sleepless) {
        EXPECT_EQ(path_skipped.slept, 0) << tag;
        EXPECT_EQ(path_skipped.jumped, 0) << tag;
      } else if (!skipped) {
        skipped = path_skipped;
      } else {
        // Same sleeps and jumps at every thread count.
        EXPECT_EQ(path_skipped.slept, skipped->slept) << tag;
        EXPECT_EQ(path_skipped.jumped, skipped->jumped) << tag;
      }
    }
  }
  return *skipped;
}

/// Runs the probe through check_against_reference and then checks the
/// executed step count is exactly what the probe's bookkeeping needs.
/// Returns what the engine skipped.
Skipped check_probe(const Instance& instance, const ProbeConfig& cfg,
                    const RunOptions& options, const std::string& label) {
  std::int64_t needed = 0;
  ProbeConfig counting_cfg = cfg;
  counting_cfg.needed = &needed;
  counting_cfg.max_rounds = options.max_rounds;
  const Probe counting(counting_cfg);
  const RunResult want = run_local_reference(instance, counting, options);
  const Skipped skipped =
      check_against_reference(instance, Probe(cfg), options, label);
  EXPECT_EQ(want.stats.total_steps - skipped.slept, needed) << label;
  return skipped;
}

/// The per-round spans of one traced run of `algorithm`.
struct RoundSpan {
  std::int64_t round = 0;
  std::int64_t frontier = 0;
  std::int64_t messages = 0;
  std::int64_t jumped = 0;
};

std::vector<RoundSpan> traced_rounds(const Instance& instance,
                                     const Algorithm& algorithm,
                                     const RunOptions& options) {
  telemetry::TraceRecorder recorder;
  telemetry::TraceBinding binding;
  binding.recorder = &recorder;
  binding.trace_rounds = options.max_rounds;
  {
    telemetry::ScopedTraceBinding scope(binding);
    run_local(instance, algorithm, options);
  }
  std::vector<RoundSpan> spans;
  for (const auto& event : recorder.events()) {
    if (event.name != "round") continue;
    RoundSpan span;
    span.round = event.args.find("round")->as_i64();
    span.frontier = event.args.find("frontier")->as_i64();
    span.messages = event.args.find("messages")->as_i64();
    if (const json::Value* jumped = event.args.find("jumped"))
      span.jumped = jumped->as_i64();
    spans.push_back(span);
  }
  return spans;
}

/// Every round is either stepped (one span) or jumped over (counted in the
/// span of the round before the jump), and a jump resumes at the round
/// after the skipped ones. Returns the rounds jumped over.
std::int64_t check_round_spans(const std::vector<RoundSpan>& spans,
                               std::int64_t global_rounds,
                               const std::string& label) {
  std::int64_t jumped = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const RoundSpan& span = spans[i];
    if (span.jumped > 0) EXPECT_EQ(span.messages, 0) << label;
    if (i + 1 < spans.size())
      EXPECT_EQ(spans[i + 1].round, span.round + 1 + span.jumped) << label;
    jumped += span.jumped;
  }
  EXPECT_EQ(static_cast<std::int64_t>(spans.size()) + jumped, global_rounds)
      << label;
  return jumped;
}

Instance gnp_instance(NodeId n, double p, std::uint64_t seed) {
  Rng rng(seed);
  return make_instance(gnp(n, p, rng), IdentityScheme::kRandomPermuted, seed);
}

TEST(Quiescence, ProbeMatchesReferenceAcrossInstances) {
  for (const auto& named : testing_support::standard_instances(/*seed=*/71)) {
    for (const std::int64_t hops : {0, 2}) {
      ProbeConfig cfg;
      cfg.hops = hops;
      cfg.period = 5;
      RunOptions options;
      options.seed = 9;
      check_probe(named.instance, cfg, options,
                  named.name + "/hops=" + std::to_string(hops));
    }
  }
}

TEST(Quiescence, MailInTheRoundANodeParks) {
  // Two neighbours with the same first action round (identities 1 and 5,
  // period 4): each sends to the other in round 2 and then asks to sleep,
  // so each node's mail is sent in the very round it parks. A park that
  // ignored that mail would skip round 3 and lose the message.
  Instance instance = make_instance(path_graph(2), IdentityScheme::kSequential);
  instance.identities = {1, 5};
  ProbeConfig cfg;
  cfg.hops = 0;
  cfg.period = 4;
  check_probe(instance, cfg, RunOptions{}, "park-round-mail");
}

TEST(Quiescence, TimedWakesOnIsolatedNodes) {
  // No edges, so no mail: every executed step after round 0 is a timed
  // wake, and the random draws of each action round must still line up.
  const Instance instance =
      make_instance(Graph(9), IdentityScheme::kRandomPermuted, 3);
  ProbeConfig cfg;
  cfg.period = 7;
  check_probe(instance, cfg, RunOptions{}, "timed");
}

TEST(Quiescence, EarlyMailLeavesStaleWakeEntries) {
  // Dense traffic with replies: sleepers are woken by mail long before
  // their timed wake round and sleep again, often until a different round,
  // so the wake queue holds many stale entries. The exact executed-step
  // count in check_probe fails on any spurious wake they cause.
  ProbeConfig cfg;
  cfg.period = 9;
  cfg.hops = 3;
  cfg.finish_at = 60;
  RunOptions options;
  options.seed = 4;
  check_probe(gnp_instance(60, 0.08, 21), cfg, options, "stale");
}

TEST(Quiescence, SleepersReachTheCutoff) {
  // Finish rounds 40..42 lie past max_rounds, so nodes sleep towards rounds
  // the engine clamps to max_rounds - 1: the cut-off must fire on the same
  // round, with the same finish rounds, as in the reference engine.
  ProbeConfig cfg;
  cfg.period = 6;
  for (const std::int64_t max_rounds : {1, 2, 9, 41}) {
    RunOptions options;
    options.max_rounds = max_rounds;
    options.default_output = -7;
    const Instance instance = gnp_instance(40, 0.1, 5);
    check_probe(instance, cfg, options,
                "cutoff=" + std::to_string(max_rounds));
    const RunResult got = run_local(instance, Probe(cfg), options);
    EXPECT_FALSE(got.all_finished) << max_rounds;
  }
}

TEST(Quiescence, RoundsWithEveryNodeAsleep) {
  // Without replies and with actions far apart, whole rounds pass with no
  // node awake. The clock jumps over them: the spans' `jumped` args add up
  // to engine.jumped_rounds, and the run still matches the reference.
  ProbeConfig cfg;
  cfg.period = 12;
  cfg.hops = 0;
  const Instance instance = gnp_instance(6, 0.3, 8);
  const Skipped skipped =
      check_probe(instance, cfg, RunOptions{}, "all-asleep");
  const RunResult got = run_local(instance, Probe(cfg));
  const std::int64_t jumped = check_round_spans(
      traced_rounds(instance, Probe(cfg), RunOptions{}),
      got.global_rounds, "all-asleep");
  EXPECT_GT(jumped, 0);
  EXPECT_EQ(jumped, skipped.jumped);
}

TEST(Quiescence, EveryNodeSleepsToTheCutoffRound) {
  // Every action and finish round lies past max_rounds, so in round 0 all
  // nodes ask to sleep to a round the engine clamps to max_rounds - 1. The
  // clock jumps straight there (max_rounds = 2 leaves nothing to jump),
  // the cut-off fires on that round, and the finish rounds are the
  // reference's.
  ProbeConfig cfg;
  cfg.first_act = 1000;
  cfg.finish_at = 2000;
  const Instance instance = gnp_instance(30, 0.1, 3);
  for (const std::int64_t max_rounds : {2, 3, 50}) {
    RunOptions options;
    options.max_rounds = max_rounds;
    options.default_output = -1;
    const std::string label = "max_rounds=" + std::to_string(max_rounds);
    const Skipped skipped = check_probe(instance, cfg, options, label);
    EXPECT_EQ(skipped.jumped, max_rounds - 2) << label;
    const RunResult got = run_local(instance, Probe(cfg), options);
    EXPECT_FALSE(got.all_finished) << label;
    EXPECT_EQ(got.global_rounds, max_rounds) << label;
    EXPECT_EQ(got.finish_rounds, std::vector<std::int64_t>(30, max_rounds))
        << label;
    check_round_spans(traced_rounds(instance, Probe(cfg), options),
                      got.global_rounds, label);
  }
}

TEST(Quiescence, MailInTheRoundBeforeAJump) {
  // Identities 13 apart: node v first acts in round 1 + 13v, without
  // replies, and finishes in round 20 + 13v, so rounds with mail are
  // islands between all-asleep stretches. Two kinds of stretch must
  // follow mail: one after a round whose mail woke a receiver, which read
  // it, sent nothing and slept (the jump follows that round at once), and
  // one after a round whose mail went to a finished node, so no one woke
  // (the jump waits one silent round). Both leave dirty arena slots
  // behind, which must be cleared as often as without the jump.
  ProbeConfig cfg;
  cfg.period = 200;
  cfg.hops = 0;
  cfg.finish_at = 20;
  cfg.finish_spread = 400;
  bool woke_then_jumped = false;
  bool silent_then_jumped = false;
  for (const std::uint64_t seed : {1, 2, 3, 4, 5, 6}) {
    Instance instance = gnp_instance(10, 0.4, seed);
    for (NodeId v = 0; v < instance.num_nodes(); ++v)
      instance.identities[static_cast<std::size_t>(v)] = 13 * v;
    RunOptions options;
    options.seed = seed;
    const std::string label = "seed=" + std::to_string(seed);
    check_probe(instance, cfg, options, label);
    const RunResult got = run_local(instance, Probe(cfg), options);
    const std::vector<RoundSpan> spans =
        traced_rounds(instance, Probe(cfg), options);
    check_round_spans(spans, got.global_rounds, label);
    for (std::size_t i = 1; i < spans.size(); ++i) {
      if (spans[i - 1].messages == 0 || spans[i].jumped == 0) continue;
      if (spans[i].frontier > 0) woke_then_jumped = true;
      if (spans[i].frontier == 0) silent_then_jumped = true;
    }
  }
  EXPECT_TRUE(woke_then_jumped);
  EXPECT_TRUE(silent_then_jumped);
}

TEST(Quiescence, JumpsWithTwoThreads) {
  // The jump runs between rounds, outside the pool: a two-thread run jumps
  // over the same rounds as a one-thread run and matches the reference.
  ProbeConfig cfg;
  cfg.period = 2000;
  cfg.hops = 1;
  cfg.finish_at = 100;
  cfg.finish_spread = 400;
  const Instance instance = gnp_instance(300, 0.01, 41);
  RunOptions options;
  options.seed = 5;
  const Skipped skipped = check_probe(instance, cfg, options, "threads");
  EXPECT_GT(skipped.jumped, 0);
  options.engine_threads = 2;
  const RunResult got = run_local(instance, Probe(cfg), options);
  EXPECT_EQ(check_round_spans(traced_rounds(instance, Probe(cfg),
                                            options),
                              got.global_rounds, "threads=2"),
            skipped.jumped);
}

TEST(Quiescence, CompositesClampInnerHints) {
  // A chain stage's hint is moved to absolute rounds and clamped to the
  // stage boundary; the truncation wrapper clamps to its budget, both in
  // its batch fn (run by the engine) and its scalar fn (run by the chain,
  // and by the reference engine).
  // Budgets below the probe's finish round cut stages off while nodes
  // sleep. The echo stage outputs the truncated stage's carry: the budget
  // fallback, or 0 had the truncated probe slept through its budget.
  ProbeConfig cfg;
  cfg.period = 7;
  cfg.finish_at = 20;
  const auto probe = std::make_shared<Probe>(cfg);
  const auto truncated = std::make_shared<TruncatedAlgorithm>(probe, 16, -3);
  const ChainAlgorithm chain("probe-chain", {{probe, 13},
                                             {probe, 30},
                                             {truncated, 19},
                                             {make_echo(), 1}});
  const Instance instance = gnp_instance(50, 0.08, 13);
  RunOptions options;
  options.seed = 17;
  EXPECT_GT(check_against_reference(instance, chain, options, "chain").slept,
            0);
  EXPECT_GT(
      check_against_reference(instance, *truncated, options, "truncated")
          .slept,
      0);
}

/// `base` with each node's Linial color as its input, and the largest
/// color.
std::pair<Instance, std::int64_t> linial_colored(const Instance& base) {
  const std::int64_t delta =
      std::max<std::int64_t>(max_degree(base.graph), 1);
  const LinialColoring linial(delta, base.max_identity());
  const RunResult colors = run_local(base, linial);
  EXPECT_TRUE(colors.all_finished);
  Instance instance = base;
  std::int64_t k = 1;
  for (std::size_t v = 0; v < colors.outputs.size(); ++v) {
    instance.inputs[v] = {colors.outputs[v]};
    k = std::max(k, colors.outputs[v]);
  }
  return {std::move(instance), k};
}

TEST(Quiescence, ColorReduceStepsAreLinearInNodesAndMessages) {
  // Linial colors a fixed gnp instance, then color-reduce runs O(k) rounds
  // in which each node recolours at most once. With sleeping, a node runs
  // round 0, its elimination round, the final round and the rounds it gets
  // mail in: at most 3n + messages executed steps, against n * rounds
  // logical ones.
  const auto [instance, k] = linial_colored(gnp_instance(400, 0.02, 31));
  const ColorReduce reduce(k, /*target=*/0);
  const RunResult want = run_local_reference(instance, reduce);
  const std::int64_t n = instance.num_nodes();
  for (const int threads : {1, 2}) {
    telemetry::MetricsRegistry reg;
    RunOptions options;
    options.engine_threads = threads;
    RunResult got;
    {
      telemetry::ScopedMetrics scope(&reg);
      got = run_local(instance, reduce, options);
    }
    const std::string tag = "threads=" + std::to_string(threads);
    expect_same(want, got, tag);
    const std::int64_t executed =
        counter(reg, "engine.steps") - counter(reg, "engine.slept_steps");
    EXPECT_EQ(counter(reg, "engine.steps"), got.stats.total_steps) << tag;
    EXPECT_LE(executed, 3 * n + got.messages_sent) << tag;
    EXPECT_GT(got.stats.total_steps, 10 * executed) << tag;
  }
}

// --- the lockstep loop: the delayed network and the synchronizer --------

/// Heavy-tail latencies with drops, duplicates and late joiners.
RunOptions delayed_options(std::uint64_t seed) {
  RunOptions options;
  options.seed = seed;
  options.network.kind = NetworkKind::kDelayed;
  options.network.preset = DelayPreset::kHeavyTail;
  options.network.drop = 0.1;
  options.network.duplicate = 0.2;
  options.network.late = 0.3;
  options.network.late_by = 40;
  return options;
}

/// Runs `algorithm` and its hint-dropped copy through the lockstep loop.
/// Every RunResult field and every integral stat but arena_bytes (a
/// capacity) must match: a sleeper that skips its kernel still advances
/// its local round and draws its pulses, so timestamps, faults and skews
/// stay put. The copy never sleeps; the executed steps are
/// engine.steps - engine.slept_steps of the sleeping run, which also has
/// its round spans' `asleep` args add up to engine.slept_steps. Returns the
/// sleeping run's result and executed steps.
std::pair<RunResult, std::int64_t> check_lockstep(const Instance& instance,
                                                 const Algorithm& algorithm,
                                                 const RunOptions& options,
                                                 const std::string& label) {
  const auto run = [&](const Algorithm& path, std::int64_t* slept) {
    telemetry::MetricsRegistry reg;
    telemetry::TraceRecorder recorder;
    telemetry::TraceBinding binding;
    binding.recorder = &recorder;
    binding.trace_rounds = options.max_rounds;
    RunResult result;
    {
      telemetry::ScopedMetrics metrics(&reg);
      telemetry::ScopedTraceBinding trace(binding);
      result = run_local(instance, path, options);
    }
    EXPECT_EQ(counter(reg, "engine.steps"), result.stats.total_steps)
        << label;
    *slept = counter(reg, "engine.slept_steps");
    std::int64_t span_asleep = 0;
    for (const auto& event : recorder.events())
      if (event.name == "round")
        span_asleep += event.args.find("asleep")->as_i64();
    EXPECT_EQ(span_asleep, *slept) << label;
    return result;
  };
  std::int64_t hintless_slept = 0, slept = 0;
  const RunResult want = run(Sleepless(algorithm), &hintless_slept);
  const RunResult got = run(algorithm, &slept);
  EXPECT_EQ(hintless_slept, 0) << label;
  expect_same(want, got, label);
  for_each_engine_stat([&](const EngineStatField& field, auto member) {
    if constexpr (std::is_integral_v<
                      std::remove_reference_t<decltype(got.stats.*member)>>) {
      if (field.id == EngineStat::arena_bytes) return;
      EXPECT_EQ(want.stats.*member, got.stats.*member)
          << label << " " << field.name;
    }
  });
  return {got, got.stats.total_steps - slept};
}

/// A sleeping delayed probe run: its result, executed steps, and the steps
/// mail woke before their due round.
struct LockstepProbe {
  RunResult result;
  std::int64_t executed = 0;
  std::int64_t mail_wakes = 0;
};

/// The probe through check_lockstep: the executed steps must be exactly
/// what the probe's bookkeeping needs in a hint-dropped run.
LockstepProbe check_probe_lockstep(const Instance& instance,
                                 const ProbeConfig& cfg,
                                 const RunOptions& options,
                                 const std::string& label) {
  LockstepProbe out;
  std::int64_t needed = 0;
  ProbeConfig counting_cfg = cfg;
  counting_cfg.needed = &needed;
  counting_cfg.mail_wakes = &out.mail_wakes;
  counting_cfg.max_rounds = options.max_rounds;
  run_local(instance, Sleepless(Probe(counting_cfg)), options);
  std::tie(out.result, out.executed) =
      check_lockstep(instance, Probe(cfg), options, label);
  EXPECT_EQ(out.executed, needed) << label;
  return out;
}

TEST(Quiescence, DelayedProbeMatchesHintDroppedRuns) {
  for (const auto& named : testing_support::standard_instances(/*seed=*/73)) {
    for (const std::int64_t hops : {0, 2}) {
      ProbeConfig cfg;
      cfg.hops = hops;
      cfg.period = 5;
      const std::string label =
          named.name + "/hops=" + std::to_string(hops);
      const LockstepProbe probe =
          check_probe_lockstep(named.instance, cfg, delayed_options(9), label);
      if (named.instance.num_nodes() > 0)
        EXPECT_LT(probe.executed, probe.result.stats.total_steps) << label;
    }
  }
  // Staggered wake rounds on top of the late joiners.
  const Instance instance = gnp_instance(50, 0.1, 2);
  RunOptions options = delayed_options(4);
  for (NodeId v = 0; v < instance.num_nodes(); ++v)
    options.wake_rounds.push_back(3 * (v % 7));
  ProbeConfig cfg;
  cfg.period = 8;
  cfg.hops = 1;
  check_probe_lockstep(instance, cfg, options, "wake-rounds");
}

TEST(Quiescence, DelayedMailLandsMidSleep) {
  // Identities 0 and 10, period 20: node 0 acts in round 1 while node 1
  // sleeps until round 11, so node 0's message lands on a sleeper, which
  // must step that round, reply (hops 1) and sleep again, all at the
  // timestamps of the hint-dropped run.
  Instance instance = make_instance(path_graph(2), IdentityScheme::kSequential);
  instance.identities = {0, 10};
  ProbeConfig cfg;
  cfg.period = 20;
  cfg.hops = 1;
  const LockstepProbe probe =
      check_probe_lockstep(instance, cfg, delayed_options(5), "mid-sleep");
  EXPECT_GT(probe.mail_wakes, 0);
  EXPECT_LT(probe.executed, probe.result.stats.total_steps);
}

TEST(Quiescence, DelayedSleepersReachTheCutoff) {
  // Every action and finish round lies past max_rounds, so in round 0 all
  // nodes ask to sleep to a round clamped to max_rounds - 1: each then
  // sleeps through rounds 1 .. max_rounds - 2 and is cut off in the round
  // it wakes, with the hint-dropped run's finish rounds and timestamps.
  ProbeConfig cfg;
  cfg.first_act = 1000;
  cfg.finish_at = 2000;
  const Instance instance = gnp_instance(30, 0.1, 3);
  const std::int64_t n = instance.num_nodes();
  for (const std::int64_t max_rounds : {1, 2, 3, 50}) {
    RunOptions options = delayed_options(6);
    options.max_rounds = max_rounds;
    options.default_output = -1;
    const std::string label = "max_rounds=" + std::to_string(max_rounds);
    const LockstepProbe probe =
        check_probe_lockstep(instance, cfg, options, label);
    EXPECT_FALSE(probe.result.all_finished) << label;
    EXPECT_EQ(probe.result.finish_rounds,
              std::vector<std::int64_t>(30, max_rounds))
        << label;
    EXPECT_EQ(probe.executed, std::min<std::int64_t>(max_rounds, 2) * n)
        << label;
  }
}

TEST(Quiescence, DelayedColorReduceSkipsSleepers) {
  // color-reduce under the lossy delayed network: the same bound on
  // executed steps as in the simultaneous loop, and the result, stats and
  // timestamps of the hint-dropped run.
  const auto [instance, k] = linial_colored(gnp_instance(300, 0.02, 37));
  const ColorReduce reduce(k, /*target=*/0);
  const std::int64_t n = instance.num_nodes();
  for (const std::uint64_t seed : {1, 2}) {
    const std::string label = "seed=" + std::to_string(seed);
    const auto [got, executed] =
        check_lockstep(instance, reduce, delayed_options(seed), label);
    EXPECT_TRUE(got.all_finished) << label;
    EXPECT_GT(got.stats.messages_dropped, 0) << label;
    EXPECT_LE(executed, 3 * n + got.messages_sent) << label;
    EXPECT_GT(got.stats.total_steps, 10 * executed) << label;
  }
}

/// Staggered wake rounds on the synchronous network: the synchronizer.
RunOptions synchronizer_options(NodeId n, std::uint64_t seed) {
  RunOptions options;
  options.seed = seed;
  for (NodeId v = 0; v < n; ++v) options.wake_rounds.push_back((v * 7) % 11);
  return options;
}

TEST(Quiescence, SynchronizerProbeMatchesHintDroppedRuns) {
  // The synchronizer skips sleepers like the delayed loop, and still
  // agrees with the reference engine's synchronizer, which ignores hints.
  for (const auto& named : testing_support::standard_instances(/*seed=*/79)) {
    for (const std::int64_t hops : {0, 2}) {
      ProbeConfig cfg;
      cfg.hops = hops;
      cfg.period = 5;
      const std::string label =
          named.name + "/hops=" + std::to_string(hops);
      const RunOptions options =
          synchronizer_options(named.instance.num_nodes(), 9);
      const LockstepProbe probe =
          check_probe_lockstep(named.instance, cfg, options, label);
      expect_same(
          run_local_reference(named.instance, Probe(cfg), options),
          probe.result, label + "/reference");
      if (named.instance.num_nodes() > 0)
        EXPECT_LT(probe.executed, probe.result.stats.total_steps) << label;
    }
  }
}

TEST(Quiescence, SynchronizerSleepersReachTheCutoff) {
  // As on the delayed network: every node sleeps from round 0 to the
  // clamped round max_rounds - 1 and is cut off in the round it wakes.
  ProbeConfig cfg;
  cfg.first_act = 1000;
  cfg.finish_at = 2000;
  const Instance instance = gnp_instance(30, 0.1, 3);
  const std::int64_t n = instance.num_nodes();
  for (const std::int64_t max_rounds : {1, 2, 3, 50}) {
    RunOptions options = synchronizer_options(30, 6);
    options.max_rounds = max_rounds;
    options.default_output = -1;
    const std::string label = "max_rounds=" + std::to_string(max_rounds);
    const LockstepProbe probe =
        check_probe_lockstep(instance, cfg, options, label);
    EXPECT_FALSE(probe.result.all_finished) << label;
    EXPECT_EQ(probe.result.finish_rounds,
              std::vector<std::int64_t>(30, max_rounds))
        << label;
    EXPECT_EQ(probe.executed, std::min<std::int64_t>(max_rounds, 2) * n)
        << label;
  }
}

TEST(Quiescence, SynchronizerColorReduceSkipsSleepers) {
  const auto [instance, k] = linial_colored(gnp_instance(300, 0.02, 37));
  const ColorReduce reduce(k, /*target=*/0);
  const std::int64_t n = instance.num_nodes();
  for (const std::uint64_t seed : {1, 2}) {
    const std::string label = "seed=" + std::to_string(seed);
    const auto [got, executed] = check_lockstep(
        instance, reduce, synchronizer_options(instance.num_nodes(), seed),
        label);
    EXPECT_TRUE(got.all_finished) << label;
    EXPECT_LE(executed, 3 * n + got.messages_sent) << label;
    EXPECT_GT(got.stats.total_steps, 10 * executed) << label;
  }
}

}  // namespace
}  // namespace unilocal
