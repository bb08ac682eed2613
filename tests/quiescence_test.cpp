// Quiescent nodes: the simultaneous engine stops stepping a kernel node
// between its sleep_until hint and its next message, and the result must
// not change. A probe algorithm that sleeps as aggressively as the sleep
// contract (src/runtime/kernel.h) allows is compared field by field with
// run_local_reference and the Process path at 1, 2 and 8 threads, alone
// and behind the chain and truncation composites that clamp hints. The
// engine.steps / engine.slept_steps counters then pin how many steps ran:
// exactly the ones the probe's own bookkeeping says were needed. When no
// node is awake the engine jumps its clock to the next timed wake; the
// per-round span's `jumped` arg and engine.jumped_rounds show the skipped
// rounds, which must change nothing either.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/algo/color_reduce.h"
#include "src/algo/linial.h"
#include "src/algo/luby.h"
#include "src/graph/generators.h"
#include "src/graph/params.h"
#include "src/runtime/chain.h"
#include "src/runtime/kernel.h"
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
};

struct ProbeState {
  std::int64_t acc;
  std::int64_t next_act;
  std::int64_t finish_round;
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
/// finished. Shared by the Process and the kernel so they cannot drift.
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

class ProbeProcess final : public Process {
 public:
  ProbeProcess(const ProbeConfig& cfg, std::int64_t identity,
               std::int64_t max_rounds, std::int64_t* needed)
      : cfg_(cfg), max_rounds_(max_rounds), needed_(needed) {
    probe_init(st_, identity, cfg_);
  }

  void step(Context& ctx) override {
    bool mail = false;
    auto recv = [&](NodeId j, std::int64_t* value, std::int64_t* hops) {
      const Message* m = ctx.received(j);
      if (m == nullptr) return false;
      mail = true;
      *value = (*m)[0];
      *hops = (*m)[1];
      return true;
    };
    auto send = [&](NodeId j, std::int64_t value, std::int64_t hops) {
      ctx.send(j, {value, hops});
    };
    auto draw = [&] { return ctx.rng().next(); };
    std::int64_t out = 0;
    const bool done =
        probe_round(st_, cfg_, ctx.degree(), ctx.round(), recv, send, draw,
                    &out);
    if (done) ctx.finish(out);
    // Bookkeeping of the steps a sleeping engine must still run: round 0,
    // rounds with mail, and the round the last such step asked to wake at
    // (clamped to the cut-off round, like the engine clamps it).
    if (needed_ == nullptr) return;
    const std::int64_t r = ctx.round();
    if (r == 0 || mail || r >= due_) {
      ++*needed_;
      const std::int64_t wake =
          std::min(std::min(st_.next_act, st_.finish_round), max_rounds_ - 1);
      due_ = std::max(wake, r + 1);
    }
  }

 private:
  ProbeConfig cfg_;
  std::int64_t max_rounds_;
  std::int64_t* needed_;
  ProbeState st_{};
  std::int64_t due_ = 0;
};

void probe_kernel_init(std::byte* state, const NodeInit& init,
                       const void* config) {
  probe_init(*reinterpret_cast<ProbeState*>(state), init.identity,
             *static_cast<const ProbeConfig*>(config));
}

void probe_kernel_step(KernelCtx& ctx) {
  const auto& cfg = *static_cast<const ProbeConfig*>(ctx.config);
  auto& st = ctx.state_as<ProbeState>();
  auto recv = [&](NodeId j, std::int64_t* value, std::int64_t* hops) {
    bool present = false;
    const auto m = ctx.recv(j, &present);
    if (!present) return false;
    *value = m[0];
    *hops = m[1];
    return true;
  };
  auto send = [&](NodeId j, std::int64_t value, std::int64_t hops) {
    ctx.send(j, {value, hops});
  };
  auto draw = [&] { return ctx.rng->next(); };
  std::int64_t out = 0;
  if (probe_round(st, cfg, ctx.degree, ctx.round, recv, send, draw, &out)) {
    ctx.finish(out);
    return;
  }
  ctx.sleep_until(std::min(st.next_act, st.finish_round));
}

void probe_kernel_batch(const KernelBatchCtx& b) {
  for (std::size_t i = 0; i < b.count; ++i) {
    KernelCtx ctx = b.node_ctx(i);
    probe_kernel_step(ctx);
    b.latch(i, ctx);
  }
}

/// The probe as an Algorithm. `batched` picks whether the engine steps it
/// through the batch fn (latch path) or the scalar fn. A non-null `needed`
/// makes every spawned Process count its needed steps into it (only for
/// single-threaded reference runs).
class Probe final : public Algorithm {
 public:
  Probe(ProbeConfig cfg, bool batched,
        std::int64_t max_rounds = RunOptions{}.max_rounds,
        std::int64_t* needed = nullptr)
      : cfg_(cfg), max_rounds_(max_rounds), needed_(needed) {
    auto kernel = std::make_shared<StepKernel>();
    kernel->name = "probe";
    kernel->state_size = sizeof(ProbeState);
    kernel->state_align = alignof(ProbeState);
    kernel->init_fn = probe_kernel_init;
    kernel->phases = {{"probe", probe_kernel_step,
                       batched ? probe_kernel_batch : nullptr}};
    kernel->config = std::make_shared<ProbeConfig>(cfg_);
    kernel_ = std::move(kernel);
  }
  std::unique_ptr<Process> spawn(const NodeInit& init) const override {
    return std::make_unique<ProbeProcess>(cfg_, init.identity, max_rounds_,
                                          needed_);
  }
  std::shared_ptr<const StepKernel> kernel() const override { return kernel_; }
  std::string name() const override { return "probe"; }

 private:
  ProbeConfig cfg_;
  std::int64_t max_rounds_;
  std::int64_t* needed_;
  std::shared_ptr<const StepKernel> kernel_;
};

/// Finishes in round 0 with its first input word (0 without one): as a
/// chain stage it outputs the carry the previous stage left.
class Echo final : public Algorithm {
 public:
  Echo() {
    auto kernel = std::make_shared<StepKernel>();
    kernel->name = "echo";
    kernel->phases = {{"echo", [](KernelCtx& ctx) {
                         ctx.finish(ctx.input.empty() ? 0 : ctx.input[0]);
                       }}};
    kernel_ = std::move(kernel);
  }
  std::unique_ptr<Process> spawn(const NodeInit&) const override {
    return std::make_unique<EchoProcess>();
  }
  std::shared_ptr<const StepKernel> kernel() const override { return kernel_; }
  std::string name() const override { return "echo"; }

 private:
  struct EchoProcess final : Process {
    void step(Context& ctx) override {
      ctx.finish(ctx.input().empty() ? 0 : ctx.input()[0]);
    }
  };
  std::shared_ptr<const StepKernel> kernel_;
};

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

/// The kernel (batched and scalar) and the Process path against the
/// reference engine at 1, 2 and 8 threads. The Process path never sleeps
/// or jumps, so it also pins the arena's dirty_spans_cleared. Returns what
/// the kernel runs skipped, the same on every kernel path and thread count.
Skipped check_against_reference(const Instance& instance,
                                const Algorithm& batched,
                                const Algorithm& scalar,
                                const RunOptions& base,
                                const std::string& label) {
  const RunResult want = run_local_reference(instance, batched, base);
  const VtableOnly vtable(batched);
  const std::int64_t dirty_cleared =
      run_local(instance, vtable, base).stats.dirty_spans_cleared;
  std::optional<Skipped> skipped;
  for (const int threads : {1, 2, 8}) {
    RunOptions options = base;
    options.num_threads = threads;
    for (const Algorithm* path :
         {&batched, &scalar, static_cast<const Algorithm*>(&vtable)}) {
      const std::string tag =
          label + "/" +
          (path == &batched ? "batched"
           : path == &scalar ? "scalar"
                             : "vtable") +
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
      if (path == &vtable) {
        // Processes give no hints.
        EXPECT_EQ(path_skipped.slept, 0) << tag;
        EXPECT_EQ(path_skipped.jumped, 0) << tag;
      } else if (!skipped) {
        skipped = path_skipped;
      } else {
        // Same sleeps and jumps on every path.
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
  const Probe counting(cfg, true, options.max_rounds, &needed);
  const RunResult want = run_local_reference(instance, counting, options);
  const Probe batched(cfg, true);
  const Probe scalar(cfg, false);
  const Skipped skipped =
      check_against_reference(instance, batched, scalar, options, label);
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
    const RunResult got = run_local(instance, Probe(cfg, true), options);
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
  const RunResult got = run_local(instance, Probe(cfg, true));
  const std::int64_t jumped = check_round_spans(
      traced_rounds(instance, Probe(cfg, true), RunOptions{}),
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
    const RunResult got = run_local(instance, Probe(cfg, true), options);
    EXPECT_FALSE(got.all_finished) << label;
    EXPECT_EQ(got.global_rounds, max_rounds) << label;
    EXPECT_EQ(got.finish_rounds, std::vector<std::int64_t>(30, max_rounds))
        << label;
    check_round_spans(traced_rounds(instance, Probe(cfg, true), options),
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
    const RunResult got = run_local(instance, Probe(cfg, true), options);
    const std::vector<RoundSpan> spans =
        traced_rounds(instance, Probe(cfg, true), options);
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
  options.num_threads = 2;
  const RunResult got = run_local(instance, Probe(cfg, true), options);
  EXPECT_EQ(check_round_spans(traced_rounds(instance, Probe(cfg, true),
                                            options),
                              got.global_rounds, "threads=2"),
            skipped.jumped);
}

TEST(Quiescence, CompositesClampInnerHints) {
  // A chain stage's hint is moved to absolute rounds and clamped to the
  // stage boundary; the truncation wrapper clamps to its budget, both in
  // its batch fn (run by the engine) and its scalar fn (run by the chain).
  // Budgets below the probe's finish round cut stages off while nodes
  // sleep. The echo stage outputs the truncated stage's carry: the budget
  // fallback, or 0 had the truncated probe slept through its budget.
  ProbeConfig cfg;
  cfg.period = 7;
  cfg.finish_at = 20;
  const auto batched = std::make_shared<Probe>(cfg, true);
  const auto scalar = std::make_shared<Probe>(cfg, false);
  const auto trunc_batched =
      std::make_shared<TruncatedAlgorithm>(batched, 16, -3);
  const auto trunc_scalar =
      std::make_shared<TruncatedAlgorithm>(scalar, 16, -3);
  const auto chain = [](std::shared_ptr<const Algorithm> probe,
                        std::shared_ptr<const Algorithm> truncated) {
    return ChainAlgorithm("probe-chain", {{probe, 13},
                                          {probe, 30},
                                          {truncated, 19},
                                          {std::make_shared<Echo>(), 1}});
  };
  const ChainAlgorithm chain_batched = chain(batched, trunc_batched);
  const ChainAlgorithm chain_scalar = chain(scalar, trunc_scalar);
  const Instance instance = gnp_instance(50, 0.08, 13);
  RunOptions options;
  options.seed = 17;
  EXPECT_GT(check_against_reference(instance, chain_batched, chain_scalar,
                                    options, "chain")
                .slept,
            0);
  EXPECT_GT(check_against_reference(instance, *trunc_batched, *trunc_scalar,
                                    options, "truncated")
                .slept,
            0);
}

TEST(Quiescence, ColorReduceStepsAreLinearInNodesAndMessages) {
  // Linial colors a fixed gnp instance, then color-reduce runs O(k) rounds
  // in which each node recolours at most once. With sleeping, a node runs
  // round 0, its elimination round, the final round and the rounds it gets
  // mail in: at most 3n + messages executed steps, against n * rounds
  // logical ones.
  const Instance base = gnp_instance(400, 0.02, 31);
  const std::int64_t delta =
      std::max<std::int64_t>(max_degree(base.graph), 1);
  const LinialColoring linial(delta, base.max_identity());
  const RunResult colors = run_local(base, linial);
  ASSERT_TRUE(colors.all_finished);
  Instance instance = base;
  std::int64_t k = 1;
  for (std::size_t v = 0; v < colors.outputs.size(); ++v) {
    instance.inputs[v] = {colors.outputs[v]};
    k = std::max(k, colors.outputs[v]);
  }
  const ColorReduce reduce(k, /*target=*/0);
  const RunResult want = run_local_reference(instance, reduce);
  const std::int64_t n = instance.num_nodes();
  for (const int threads : {1, 2}) {
    telemetry::MetricsRegistry reg;
    RunOptions options;
    options.num_threads = threads;
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

}  // namespace
}  // namespace unilocal
