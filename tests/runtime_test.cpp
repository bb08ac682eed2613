#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>

#include "src/graph/generators.h"
#include "src/graph/params.h"
#include "src/runtime/chain.h"
#include "src/runtime/instance.h"
#include "src/runtime/runner.h"
#include "tests/test_support.h"

namespace unilocal {
namespace {

/// Finishes immediately with the node degree.
class DegreeEcho final : public Algorithm {
 public:
  class P final : public Process {
   public:
    void step(Context& ctx) override { ctx.finish(ctx.degree()); }
  };
  std::unique_ptr<Process> spawn(const NodeInit&) const override {
    return std::make_unique<P>();
  }
  std::string name() const override { return "degree-echo"; }
};

/// Floods the maximum identity for `rounds` rounds, then outputs it.
class MaxFlood final : public Algorithm {
 public:
  explicit MaxFlood(std::int64_t rounds) : rounds_(rounds) {}
  class P final : public Process {
   public:
    explicit P(std::int64_t rounds) : rounds_(rounds) {}
    void step(Context& ctx) override {
      if (ctx.round() == 0) best_ = ctx.id();
      for (NodeId j = 0; j < ctx.degree(); ++j) {
        const Message* m = ctx.received(j);
        if (m != nullptr) best_ = std::max(best_, (*m)[0]);
      }
      if (ctx.round() >= rounds_) {
        ctx.finish(best_);
        return;
      }
      ctx.broadcast({best_});
    }

   private:
    std::int64_t rounds_;
    std::int64_t best_ = 0;
  };
  std::unique_ptr<Process> spawn(const NodeInit&) const override {
    return std::make_unique<P>(rounds_);
  }
  std::string name() const override { return "max-flood"; }

 private:
  std::int64_t rounds_;
};

/// Never finishes; sends nothing.
class Stubborn final : public Algorithm {
 public:
  class P final : public Process {
   public:
    void step(Context&) override {}
  };
  std::unique_ptr<Process> spawn(const NodeInit&) const override {
    return std::make_unique<P>();
  }
  std::string name() const override { return "stubborn"; }
};

/// Outputs one private random draw (tests per-node stream determinism).
class RandomEcho final : public Algorithm {
 public:
  class P final : public Process {
   public:
    void step(Context& ctx) override {
      ctx.finish(static_cast<std::int64_t>(ctx.rng().next() >> 3));
    }
  };
  std::unique_ptr<Process> spawn(const NodeInit&) const override {
    return std::make_unique<P>();
  }
  std::string name() const override { return "random-echo"; }
};

/// Adds a constant to input[0] and finishes after one round.
class AddConst final : public Algorithm {
 public:
  explicit AddConst(std::int64_t delta) : delta_(delta) {}
  class P final : public Process {
   public:
    explicit P(std::int64_t d) : delta_(d) {}
    void step(Context& ctx) override {
      ctx.finish((ctx.input().empty() ? 0 : ctx.input()[0]) + delta_);
    }

   private:
    std::int64_t delta_;
  };
  std::unique_ptr<Process> spawn(const NodeInit&) const override {
    return std::make_unique<P>(delta_);
  }
  std::string name() const override { return "add-const"; }

 private:
  std::int64_t delta_;
};

/// Runs until round input[0], sending one word per round until then — a
/// controllable straggler tail for the live/frontier observability tests.
class InputCountdown final : public Algorithm {
 public:
  class P final : public Process {
   public:
    void step(Context& ctx) override {
      const std::int64_t deadline = ctx.input().empty() ? 0 : ctx.input()[0];
      if (ctx.round() >= deadline) {
        ctx.finish(ctx.round());
        return;
      }
      ctx.broadcast({ctx.round()});
    }
  };
  std::unique_ptr<Process> spawn(const NodeInit&) const override {
    return std::make_unique<P>();
  }
  std::string name() const override { return "input-countdown"; }
};

TEST(Runner, ImmediateFinish) {
  Instance instance = make_instance(cycle_graph(10));
  const RunResult result = run_local(instance, DegreeEcho{});
  EXPECT_TRUE(result.all_finished);
  EXPECT_EQ(result.rounds_used, 1);
  for (std::int64_t out : result.outputs) EXPECT_EQ(out, 2);
}

TEST(Runner, EmptyGraph) {
  Instance instance = make_instance(Graph(0));
  const RunResult result = run_local(instance, DegreeEcho{});
  EXPECT_TRUE(result.all_finished);
  EXPECT_EQ(result.rounds_used, 0);
}

TEST(Runner, FloodingReachesDiameter) {
  Instance instance = make_instance(path_graph(9), IdentityScheme::kSequential);
  // Identity 9 sits at one end; 8 rounds of flooding reach everyone.
  const RunResult result = run_local(instance, MaxFlood{8});
  EXPECT_TRUE(result.all_finished);
  for (std::int64_t out : result.outputs) EXPECT_EQ(out, 9);
  EXPECT_EQ(result.rounds_used, 9);
}

TEST(Runner, FloodingLimitedByRadius) {
  Instance instance = make_instance(path_graph(9), IdentityScheme::kSequential);
  const RunResult result = run_local(instance, MaxFlood{3});
  // Node 0 (slot 0) only sees identities within distance 3.
  EXPECT_EQ(result.outputs[0], 4);
}

TEST(Runner, TruncationForcesDefaultOutput) {
  Instance instance = make_instance(cycle_graph(6));
  RunOptions options;
  options.max_rounds = 5;
  options.default_output = -7;
  const RunResult result = run_local(instance, Stubborn{}, options);
  EXPECT_FALSE(result.all_finished);
  for (std::int64_t out : result.outputs) EXPECT_EQ(out, -7);
  for (std::int64_t r : result.finish_rounds) EXPECT_EQ(r, 5);
  EXPECT_EQ(result.rounds_used, 5);
}

TEST(Runner, PerNodeRandomnessDeterministicInSeed) {
  Instance instance = make_instance(cycle_graph(12), IdentityScheme::kRandomPermuted, 3);
  RunOptions options;
  options.seed = 99;
  const RunResult a = run_local(instance, RandomEcho{}, options);
  const RunResult b = run_local(instance, RandomEcho{}, options);
  EXPECT_EQ(a.outputs, b.outputs);
  options.seed = 100;
  const RunResult c = run_local(instance, RandomEcho{}, options);
  EXPECT_NE(a.outputs, c.outputs);
  // Distinct nodes get distinct streams.
  EXPECT_NE(a.outputs[0], a.outputs[1]);
}

TEST(Runner, MessageStatsCounted) {
  Instance instance = make_instance(cycle_graph(5));
  const RunResult result = run_local(instance, MaxFlood{2});
  EXPECT_EQ(result.messages_sent, 5 * 2 * 2);  // 5 nodes, 2 rounds, 2 ports
  EXPECT_EQ(result.max_message_words, 1);
}

TEST(RunnerStats, LiveAndFrontierCounters) {
  // One straggler (node 0) outlives everyone by dozens of rounds: the
  // engine must report the full-width peak, an empty finish, and non-zero
  // lazy span-clearing work for the sparse tail rounds.
  Instance instance =
      make_instance(path_graph(40), IdentityScheme::kSequential);
  for (NodeId v = 0; v < 40; ++v)
    instance.inputs[static_cast<std::size_t>(v)] = {2};
  instance.inputs[0] = {30};
  const RunResult result = run_local(instance, InputCountdown{});
  EXPECT_TRUE(result.all_finished);
  EXPECT_EQ(result.stats.peak_live_nodes, 40);
  EXPECT_EQ(result.stats.peak_frontier_nodes, 40);
  EXPECT_EQ(result.stats.final_live_nodes, 0);
  EXPECT_GT(result.stats.dirty_spans_cleared, 0);
  EXPECT_EQ(result.stats.total_steps, 39 * 3 + 31);
}

TEST(RunnerStats, SynchronizerFrontierCounters) {
  // Under the synchronizer the frontier is the eligible set: with node 0
  // asleep until round 10 it never reaches full width, and the history
  // arena does no dirty-span clearing at all.
  Instance instance =
      make_instance(path_graph(40), IdentityScheme::kSequential);
  for (NodeId v = 0; v < 40; ++v)
    instance.inputs[static_cast<std::size_t>(v)] = {3};
  RunOptions options;
  options.wake_rounds.assign(40, 0);
  options.wake_rounds[0] = 10;
  const RunResult result = run_local(instance, InputCountdown{}, options);
  EXPECT_TRUE(result.all_finished);
  EXPECT_EQ(result.stats.peak_live_nodes, 40);
  EXPECT_GT(result.stats.peak_frontier_nodes, 0);
  EXPECT_LT(result.stats.peak_frontier_nodes, 40);
  EXPECT_EQ(result.stats.final_live_nodes, 0);
  EXPECT_EQ(result.stats.dirty_spans_cleared, 0);
  EXPECT_GE(result.global_rounds, 10);
}

TEST(RunnerStats, StatsMergeFoldsLiveCounters) {
  EngineStats a;
  a.peak_live_nodes = 10;
  a.peak_frontier_nodes = 4;
  a.final_live_nodes = 2;
  a.dirty_spans_cleared = 7;
  EngineStats b;
  b.peak_live_nodes = 6;
  b.peak_frontier_nodes = 9;
  b.final_live_nodes = 0;
  b.dirty_spans_cleared = 5;
  a.merge(b);
  EXPECT_EQ(a.peak_live_nodes, 10);
  EXPECT_EQ(a.peak_frontier_nodes, 9);
  EXPECT_EQ(a.final_live_nodes, 0);  // last merged stage wins
  EXPECT_EQ(a.dirty_spans_cleared, 12);

  // Every row folds by its table rule, merged in both directions so max
  // is seen taking either side. The rules are pinned here: a new row fails
  // this test until its rule is listed.
  const std::map<std::string, StatMerge> rules = {
      {"total_messages", StatMerge::kSum},
      {"peak_round_messages", StatMerge::kMax},
      {"total_steps", StatMerge::kSum},
      {"kernel_steps", StatMerge::kSum},
      {"vtable_steps", StatMerge::kSum},
      {"kernel_batched_steps", StatMerge::kSum},
      {"kernel_batch_calls", StatMerge::kSum},
      {"elapsed_seconds", StatMerge::kSum},
      {"steps_per_second", StatMerge::kDerived},
      {"arena_bytes", StatMerge::kMax},
      {"threads", StatMerge::kMax},
      {"peak_live_nodes", StatMerge::kMax},
      {"final_live_nodes", StatMerge::kLast},
      {"peak_frontier_nodes", StatMerge::kMax},
      {"dirty_spans_cleared", StatMerge::kSum},
      {"messages_dropped", StatMerge::kSum},
      {"messages_duplicated", StatMerge::kSum},
      {"max_delivery_skew", StatMerge::kMax},
  };
  const EngineStats small = testing_support::distinct_engine_stats(2);
  const EngineStats large = testing_support::distinct_engine_stats(3);
  for (const auto& [into, from] :
       {std::pair{small, large}, std::pair{large, small}}) {
    EngineStats merged = into;
    merged.merge(from);
    std::size_t rows = 0;
    for_each_engine_stat([&](const EngineStatField& field, auto member) {
      ++rows;
      const auto rule = rules.find(field.name);
      ASSERT_NE(rule, rules.end()) << field.name << " has no pinned rule";
      EXPECT_EQ(field.merge, rule->second) << field.name;
      const auto got = merged.*member;
      switch (field.merge) {
        case StatMerge::kSum:
          EXPECT_EQ(got, into.*member + from.*member) << field.name;
          break;
        case StatMerge::kMax:
          EXPECT_EQ(got, std::max(into.*member, from.*member)) << field.name;
          break;
        case StatMerge::kLast:
          EXPECT_EQ(got, from.*member) << field.name;
          break;
        case StatMerge::kDerived:
          EXPECT_DOUBLE_EQ(static_cast<double>(got),
                           static_cast<double>(merged.total_steps) /
                               merged.elapsed_seconds)
              << field.name;
          break;
      }
    });
    EXPECT_EQ(rows, rules.size());
  }
}

TEST(RunnerSynchronized, StaggeredWakeupsSameAnswer) {
  Instance instance = make_instance(path_graph(7), IdentityScheme::kSequential);
  RunOptions options;
  options.wake_rounds.assign(7, 0);
  for (NodeId v = 0; v < 7; ++v)
    options.wake_rounds[static_cast<std::size_t>(v)] = (v * 3) % 5;
  const RunResult result = run_local(instance, MaxFlood{6}, options);
  EXPECT_TRUE(result.all_finished);
  for (std::int64_t out : result.outputs) EXPECT_EQ(out, 7);
  EXPECT_GE(result.global_rounds, 7);
}

TEST(RunnerSynchronized, TerminationTimeBoundedByRunningTime) {
  Instance instance = make_instance(path_graph(10), IdentityScheme::kSequential);
  RunOptions options;
  options.wake_rounds.assign(10, 0);
  for (NodeId v = 0; v < 10; ++v)
    options.wake_rounds[static_cast<std::size_t>(v)] = (7 * v) % 11;
  const RunResult result = run_local(instance, MaxFlood{4}, options);
  const auto times = termination_times(instance.graph, options.wake_rounds,
                                       result.global_finish_rounds);
  // The paper's running-time definition: every node terminates within t
  // rounds after its t-ball woke, with t <= the simultaneous running time.
  for (std::int64_t t : times) EXPECT_LE(t, result.rounds_used + 1);
}

TEST(RunnerSequential, CompositionPipesOutputs) {
  Instance instance = make_instance(cycle_graph(8), IdentityScheme::kSequential);
  MaxFlood first(8);
  AddConst second(5);
  const auto results = run_sequential(instance, {&first, &second});
  ASSERT_EQ(results.size(), 2u);
  for (std::int64_t out : results[1].outputs) EXPECT_EQ(out, 8 + 5);
}

TEST(RunnerSequential, Observation21RoundSum) {
  Instance instance = make_instance(path_graph(6), IdentityScheme::kSequential);
  MaxFlood a(4);
  MaxFlood b(3);
  const auto results = run_sequential(instance, {&a, &b});
  // Global completion of the pair is bounded by t1 + t2 (Observation 2.1).
  std::int64_t last = 0;
  for (std::int64_t g : results[1].global_finish_rounds)
    last = std::max(last, g);
  EXPECT_LE(last + 1, results[0].rounds_used + results[1].rounds_used + 1);
}

TEST(Chain, CarryFlowsBetweenStages) {
  Instance instance = make_instance(cycle_graph(9), IdentityScheme::kSequential);
  std::vector<ChainStage> stages;
  stages.push_back({std::make_shared<MaxFlood>(9), 11});
  stages.push_back({std::make_shared<AddConst>(100), 2});
  ChainAlgorithm chain("flood-then-add", std::move(stages));
  const RunResult result = run_local(instance, chain);
  EXPECT_TRUE(result.all_finished);
  for (std::int64_t out : result.outputs) EXPECT_EQ(out, 109);
}

TEST(Chain, CutOffStageYieldsArbitraryCarry) {
  Instance instance = make_instance(path_graph(4), IdentityScheme::kSequential);
  std::vector<ChainStage> stages;
  stages.push_back({std::make_shared<Stubborn>(), 3});  // never finishes
  stages.push_back({std::make_shared<AddConst>(42), 2});
  ChainAlgorithm chain("stubborn-then-add", std::move(stages));
  const RunResult result = run_local(instance, chain);
  EXPECT_TRUE(result.all_finished);
  for (std::int64_t out : result.outputs) EXPECT_EQ(out, 42);  // 0 + 42
}

TEST(Chain, SingleStagePassThrough) {
  Instance instance = make_instance(cycle_graph(5));
  std::vector<ChainStage> stages;
  stages.push_back({std::make_shared<DegreeEcho>(), 2});
  ChainAlgorithm chain("echo", std::move(stages));
  const RunResult result = run_local(instance, chain);
  EXPECT_TRUE(result.all_finished);
  for (std::int64_t out : result.outputs) EXPECT_EQ(out, 2);
}

TEST(Instance, ValidityChecks) {
  Instance instance = make_instance(path_graph(5));
  EXPECT_TRUE(instance.valid());
  instance.identities[1] = instance.identities[0];
  EXPECT_FALSE(instance.valid());
}

TEST(Instance, IdentitySchemes) {
  for (auto scheme : {IdentityScheme::kSequential,
                      IdentityScheme::kRandomPermuted,
                      IdentityScheme::kRandomSparse}) {
    Instance instance = make_instance(cycle_graph(40), scheme, 5);
    EXPECT_TRUE(instance.valid());
    if (scheme != IdentityScheme::kRandomSparse) {
      EXPECT_EQ(instance.max_identity(), 40);
    }
  }
}

TEST(Instance, RestrictKeepsIdentities) {
  Instance instance = make_instance(cycle_graph(6), IdentityScheme::kSequential);
  std::vector<bool> keep{true, false, true, true, false, true};
  const auto sub = induced_subgraph(instance.graph, keep);
  const Instance restricted =
      restrict_instance(instance, sub, instance.inputs);
  ASSERT_EQ(restricted.num_nodes(), 4);
  EXPECT_EQ(restricted.identities[0], 1);
  EXPECT_EQ(restricted.identities[1], 3);
  EXPECT_TRUE(restricted.valid());
}

}  // namespace
}  // namespace unilocal
