// Theorem 1 end-to-end: the uniform transformer solves every instance, the
// ledger respects O(f* . s_f(f*)), budgets double across iterations, and
// the inner algorithm never sees the true parameters (it only ever receives
// set-sequence guesses).
#include <gtest/gtest.h>

#include "src/algo/edge_color_mm.h"
#include "src/algo/greedy_mis.h"
#include "src/algo/mis_from_coloring.h"
#include "src/core/transformer.h"
#include "src/problems/matching.h"
#include "src/problems/mis.h"
#include "src/prune/matching_prune.h"
#include "src/prune/ruling_set_prune.h"
#include "tests/test_support.h"

namespace unilocal {
namespace {

using testing_support::standard_instances;

TEST(Theorem1, UniformMisViaColoring) {
  const auto algorithm = make_coloring_mis();
  const RulingSetPruning pruning(1);
  for (const auto& [name, instance] : standard_instances(300)) {
    const UniformRunResult result =
        run_uniform_transformer(instance, *algorithm, pruning);
    EXPECT_TRUE(result.solved) << name;
    EXPECT_TRUE(is_maximal_independent_set(instance.graph, result.outputs))
        << name;
  }
}

TEST(Theorem1, LedgerWithinTheoremBound) {
  const auto algorithm = make_coloring_mis();
  const RulingSetPruning pruning(1);
  for (const auto& [name, instance] : standard_instances(301)) {
    if (instance.num_nodes() == 0) continue;
    const UniformRunResult result =
        run_uniform_transformer(instance, *algorithm, pruning);
    ASSERT_TRUE(result.solved) << name;
    const double f_star = bound_at_correct_params(*algorithm, instance);
    const double s_f = static_cast<double>(
        algorithm->bound().sequence_number(static_cast<std::int64_t>(f_star)));
    // Theorem 1: O(f* s_f(f*)). The constant from the proof is
    // c * sum_i 2^i <= 4c f*, plus pruning overhead per sub-iteration.
    const double c =
        static_cast<double>(algorithm->bound().bounding_constant());
    const double budget = 8.0 * c * f_star * s_f + 64.0;
    EXPECT_LE(static_cast<double>(result.total_rounds), budget) << name;
  }
}

TEST(Theorem1, UniformMatchesNonUniformAsymptotically) {
  // The headline claim: the uniform algorithm costs only a constant factor
  // over the non-uniform original run with correct guesses.
  const auto algorithm = make_coloring_mis();
  const RulingSetPruning pruning(1);
  Rng rng(1);
  std::vector<double> ratios;
  for (NodeId n : {128, 256, 512}) {
    Instance instance = make_instance(random_bounded_degree(n, 4, 0.9, rng),
                                      IdentityScheme::kRandomPermuted, n);
    const auto baseline = instantiate_with_correct_guesses(*algorithm, instance);
    const RunResult non_uniform = run_local(instance, *baseline);
    const UniformRunResult uniform =
        run_uniform_transformer(instance, *algorithm, pruning);
    ASSERT_TRUE(uniform.solved);
    ratios.push_back(static_cast<double>(uniform.total_rounds) /
                     static_cast<double>(non_uniform.rounds_used));
  }
  // Constant-factor overhead: the ratio must not grow across the sweep.
  EXPECT_LE(ratios.back(), 2.0 * ratios.front() + 1.0);
  for (double r : ratios) EXPECT_LE(r, 64.0);
}

TEST(Theorem1, BudgetsDoubleAcrossIterations) {
  const auto algorithm = make_coloring_mis();
  const RulingSetPruning pruning(1);
  Rng rng(2);
  Instance instance = make_instance(gnp(100, 0.08, rng),
                                    IdentityScheme::kRandomPermuted, 3);
  const UniformRunResult result =
      run_uniform_transformer(instance, *algorithm, pruning);
  ASSERT_TRUE(result.solved);
  ASSERT_FALSE(result.trace.empty());
  for (std::size_t k = 1; k < result.trace.size(); ++k) {
    if (result.trace[k].iteration == result.trace[k - 1].iteration + 1) {
      EXPECT_EQ(result.trace[k].budget, 2 * result.trace[k - 1].budget);
    }
  }
  // Rounds actually used never exceed the prescribed budget.
  for (const auto& step : result.trace)
    EXPECT_LE(step.rounds_used, step.budget);
}

TEST(Theorem1, SurvivorsNeverGrow) {
  // Monotone progress (Section 3): greedy-as-A_n on a path with sorted
  // identities settles the next prefix with every doubled guess, never
  // rolls work back, and its last sub-iteration prunes every survivor.
  const auto algorithm = make_global_mis();
  const RulingSetPruning pruning(1);
  const Instance instance =
      make_instance(path_graph(3000), IdentityScheme::kSequential);
  const UniformRunResult result =
      run_uniform_transformer(instance, *algorithm, pruning);
  ASSERT_TRUE(result.solved);
  ASSERT_FALSE(result.trace.empty());
  EXPECT_EQ(result.trace.front().nodes_before, instance.num_nodes());
  for (std::size_t k = 1; k < result.trace.size(); ++k) {
    EXPECT_EQ(result.trace[k].nodes_before,
              result.trace[k - 1].nodes_before -
                  result.trace[k - 1].nodes_pruned)
        << "step " << k;
  }
  EXPECT_EQ(result.trace.back().nodes_pruned,
            result.trace.back().nodes_before);
}

TEST(Theorem1, GuessesComeFromSetSequenceOnly) {
  const auto algorithm = make_coloring_mis();
  const RulingSetPruning pruning(1);
  Rng rng(3);
  Instance instance = make_instance(gnp(60, 0.1, rng),
                                    IdentityScheme::kRandomPermuted, 4);
  const UniformRunResult result =
      run_uniform_transformer(instance, *algorithm, pruning);
  ASSERT_TRUE(result.solved);
  for (const auto& step : result.trace) {
    const std::int64_t scale = std::int64_t{1} << step.iteration;
    const auto expected = algorithm->bound().set_sequence(scale);
    ASSERT_GE(step.sub_iteration, 1);
    ASSERT_LE(static_cast<std::size_t>(step.sub_iteration), expected.size());
    EXPECT_EQ(step.guesses,
              expected[static_cast<std::size_t>(step.sub_iteration - 1)]);
  }
}

TEST(Theorem1, UniformMaximalMatching) {
  const auto algorithm = make_colored_matching();
  const MatchingPruning pruning;
  for (const auto& [name, instance] : standard_instances(302)) {
    const UniformRunResult result =
        run_uniform_transformer(instance, *algorithm, pruning);
    EXPECT_TRUE(result.solved) << name;
    EXPECT_TRUE(is_maximal_matching(instance.graph, result.outputs)) << name;
  }
}

TEST(Theorem1, UniformGlobalMisSubstitute) {
  // The PS-substitute row: bound depends on n only.
  const auto algorithm = make_global_mis();
  const RulingSetPruning pruning(1);
  for (const auto& [name, instance] : standard_instances(303)) {
    const UniformRunResult result =
        run_uniform_transformer(instance, *algorithm, pruning);
    EXPECT_TRUE(result.solved) << name;
    EXPECT_TRUE(is_maximal_independent_set(instance.graph, result.outputs))
        << name;
  }
}

TEST(Theorem1, EmptyInstanceIsImmediatelySolved) {
  const auto algorithm = make_coloring_mis();
  const RulingSetPruning pruning(1);
  Instance instance = make_instance(Graph(0));
  const UniformRunResult result =
      run_uniform_transformer(instance, *algorithm, pruning);
  EXPECT_TRUE(result.solved);
  EXPECT_EQ(result.total_rounds, 0);
  EXPECT_TRUE(result.trace.empty());
}

TEST(Theorem1, RoundCapTruncatesCleanly) {
  const auto algorithm = make_coloring_mis();
  const RulingSetPruning pruning(1);
  Rng rng(4);
  Instance instance = make_instance(gnp(80, 0.08, rng),
                                    IdentityScheme::kRandomPermuted, 5);
  UniformRunOptions options;
  options.round_cap = 8;
  const UniformRunResult result =
      run_uniform_transformer(instance, *algorithm, pruning, options);
  EXPECT_FALSE(result.solved);
  // Overshoot bounded by one sub-iteration.
  EXPECT_LE(result.total_rounds, 8 + result.trace.back().budget +
                                     pruning.running_time());
}

}  // namespace
}  // namespace unilocal
