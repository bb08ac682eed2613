#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "src/algo/cole_vishkin.h"
#include "src/algo/color_reduce.h"
#include "src/algo/dplus1.h"
#include "src/algo/lambda_coloring.h"
#include "src/algo/linial.h"
#include "src/core/param.h"
#include "src/graph/params.h"
#include "src/problems/coloring.h"
#include "src/runtime/runner.h"
#include "src/util/math.h"
#include "tests/test_support.h"

namespace unilocal {
namespace {

using testing_support::standard_instances;

TEST(LinialSchedule, ShrinksToQuadraticFixedPoint) {
  for (std::int64_t delta : {1, 2, 4, 8, 16, 32}) {
    const auto schedule = linial_schedule(delta, std::int64_t{1} << 31);
    EXPECT_LE(schedule.length(), 40u);
    EXPECT_LE(schedule.final_space, linial_final_space_bound(delta))
        << "delta " << delta;
    // Every step must respect the separation and capacity requirements.
    std::int64_t space = schedule.initial_space;
    for (const auto& step : schedule.steps) {
      EXPECT_EQ(step.in_space, space);
      EXPECT_GE(step.prime, step.degree * std::max<std::int64_t>(delta, 1) + 1);
      EXPECT_GE(sat_pow(step.prime, static_cast<int>(step.degree) + 1), space);
      EXPECT_LT(step.out_space, space);
      space = step.out_space;
    }
    EXPECT_EQ(space, schedule.final_space);
  }
}

TEST(LinialSchedule, LogStarLengthGrowth) {
  const auto tiny = linial_schedule(4, 1 << 10);
  const auto huge = linial_schedule(4, std::int64_t{1} << 44);
  EXPECT_LE(huge.length(), tiny.length() + 4);  // log* flavoured growth
}

/// linial_step_apply as it was written before it kept the conflicting
/// colors' digits in scratch: a fresh vector per call, and every conflicting
/// color's digits re-derived for each evaluation point.
std::int64_t linial_step_apply_unhoisted(
    const LinialStep& step, std::int64_t color,
    std::span<const std::int64_t> neighbor_colors) {
  const std::int64_t p = step.prime;
  const int digits = static_cast<int>(step.degree) + 1;
  auto digits_of = [&](std::int64_t c, std::int64_t* out) {
    for (int i = 0; i < digits; ++i) {
      out[i] = c % p;
      c /= p;
    }
  };
  auto eval = [&](const std::int64_t* coeff, std::int64_t a) {
    std::int64_t acc = 0;
    for (int i = digits - 1; i >= 0; --i) acc = (acc * a + coeff[i]) % p;
    return acc;
  };
  const std::int64_t clamped = ((color % step.in_space) + step.in_space) %
                               step.in_space;
  std::int64_t own[64];
  digits_of(clamped, own);
  std::vector<std::int64_t> others;
  for (std::int64_t c : neighbor_colors) {
    if (c < 0) continue;
    const std::int64_t other = ((c % step.in_space) + step.in_space) %
                               step.in_space;
    if (other != clamped) others.push_back(other);
  }
  std::int64_t fallback = 0;
  for (std::int64_t a = 0; a < p; ++a) {
    const std::int64_t mine = eval(own, a);
    bool unique = true;
    std::int64_t buffer[64];
    for (std::int64_t c : others) {
      digits_of(c, buffer);
      if (eval(buffer, a) == mine) {
        unique = false;
        break;
      }
    }
    if (unique) return a * p + mine;
    fallback = a * p + mine;
  }
  return fallback;
}

TEST(LinialStep, MatchesTheUnhoistedStepOnRandomInputs) {
  // Steps from real schedules, small and large; colors and neighbour lists
  // drawn around the step's input space, with duplicates, negative entries,
  // copies of the node's own color and lists long enough to force the
  // fallback.
  std::vector<LinialStep> steps;
  for (const std::int64_t delta : {1, 2, 3, 8, 40})
    for (const std::int64_t space :
         {std::int64_t{50}, std::int64_t{1} << 20, std::int64_t{1} << 40})
      for (const LinialStep& step : linial_schedule(delta, space).steps)
        steps.push_back(step);
  steps.push_back(LinialStep{2, 1, 4, 4});
  ASSERT_FALSE(steps.empty());
  Rng rng(2027);
  for (int trial = 0; trial < 4000; ++trial) {
    const LinialStep& step = steps[rng.next_below(steps.size())];
    const auto draw_color = [&]() -> std::int64_t {
      switch (rng.next_below(6)) {
        case 0:
          return -static_cast<std::int64_t>(rng.next_below(10)) - 1;
        case 1:
          return static_cast<std::int64_t>(
              rng.next_below(static_cast<std::uint64_t>(3 * step.in_space)));
        default:
          return static_cast<std::int64_t>(
              rng.next_below(static_cast<std::uint64_t>(step.in_space)));
      }
    };
    const std::int64_t color = draw_color();
    std::vector<std::int64_t> nbrs(rng.next_below(trial % 10 == 0 ? 200 : 12));
    for (std::int64_t& c : nbrs) {
      const std::uint64_t kind = rng.next_below(8);
      if (kind == 0 && !nbrs.empty()) {
        c = nbrs[rng.next_below(nbrs.size())];  // a duplicate (or a zero)
      } else if (kind == 1) {
        c = color;
      } else {
        c = draw_color();
      }
    }
    const std::int64_t want = linial_step_apply_unhoisted(step, color, nbrs);
    EXPECT_EQ(linial_step_apply(step, color, nbrs), want)
        << "trial " << trial << " prime " << step.prime << " degree "
        << step.degree << " color " << color;
  }
  // Colors 2 and 3 collide with color 0 at both points of F_2, so the
  // fallback (the last point, 1 * 2 + f(1)) is the answer.
  const LinialStep tiny{2, 1, 4, 4};
  const std::vector<std::int64_t> blocking{2, 3, -1, 3};
  EXPECT_EQ(linial_step_apply_unhoisted(tiny, 0, blocking), 2);
  EXPECT_EQ(linial_step_apply(tiny, 0, blocking), 2);
}

TEST(LinialStep, SeparatesFromConflicts) {
  // A node with distinct-colored neighbours must get a distinct new color.
  const LinialStep step{13, 1, 100, 169};
  Rng rng(1);
  for (int trial = 0; trial < 200; ++trial) {
    const std::int64_t mine = static_cast<std::int64_t>(rng.next_below(100));
    std::vector<std::int64_t> nbrs;
    std::vector<std::int64_t> nbr_new;
    for (int j = 0; j < 6; ++j) {
      std::int64_t c = 0;
      do {
        c = static_cast<std::int64_t>(rng.next_below(100));
      } while (c == mine);
      nbrs.push_back(c);
    }
    const std::int64_t my_new = linial_step_apply(step, mine, nbrs);
    EXPECT_LT(my_new, 169);
    // Determinism: re-apply gives the same result.
    EXPECT_EQ(linial_step_apply(step, mine, nbrs), my_new);
    // The new color differs from f_c'(a) for the same evaluation point: we
    // verify via a direct conflict check by re-running each neighbour
    // against the chosen point — their polynomial evaluated at our point
    // must differ, which linial_step_apply guarantees internally. Spot-test:
    for (std::int64_t nc : nbrs) {
      // Two nodes with different colors never map to the same (a, value).
      const std::vector<std::int64_t> just_mine{mine};
      if (linial_step_apply(step, nc, just_mine) == my_new && nc != mine) {
        // Allowed only if they chose different evaluation points: the pair
        // (a, f(a)) encodes a, so equality would mean the same point and
        // same value, which the separation property forbids for our node.
        ADD_FAILURE() << "conflicting projection for colors " << mine
                      << " vs " << nc;
      }
    }
  }
}

TEST(LinialColoring, ProperQuadraticOnSweep) {
  for (const auto& [name, instance] : standard_instances(210)) {
    const std::int64_t delta =
        std::max<std::int64_t>(max_degree(instance.graph), 1);
    const std::int64_t m = instance.max_identity();
    const LinialColoring algorithm(delta, std::max<std::int64_t>(m, 2));
    const RunResult result = run_local(instance, algorithm);
    EXPECT_TRUE(result.all_finished) << name;
    if (instance.num_nodes() == 0) continue;
    EXPECT_TRUE(is_proper_coloring(instance.graph, result.outputs)) << name;
    EXPECT_LE(max_color_used(result.outputs), linial_final_space_bound(delta))
        << name;
    EXPECT_LE(result.rounds_used, 42) << name;  // log* m + O(1)
  }
}

TEST(ColorReduce, ToDegPlusOne) {
  for (const auto& [name, instance] : standard_instances(211)) {
    if (instance.num_nodes() == 0) continue;
    // Start from the identity coloring (proper, colors within [1, m]).
    // The reduction runs one round per eliminated color, so skip the
    // sparse-identity instances whose color space is astronomically large
    // (the real pipelines always feed it Linial's O(Delta^2) space).
    const std::int64_t m = instance.max_identity();
    if (m > 4096) continue;
    Instance seeded = instance;
    for (NodeId v = 0; v < instance.num_nodes(); ++v)
      seeded.inputs[static_cast<std::size_t>(v)] = {
          instance.identities[static_cast<std::size_t>(v)]};
    const ColorReduce algorithm(m, 0);
    const RunResult result = run_local(seeded, algorithm);
    EXPECT_TRUE(result.all_finished) << name;
    EXPECT_TRUE(is_proper_coloring(instance.graph, result.outputs)) << name;
    for (NodeId v = 0; v < instance.num_nodes(); ++v)
      EXPECT_LE(result.outputs[static_cast<std::size_t>(v)],
                instance.graph.degree(v) + 1)
          << name;
  }
}

TEST(ColorReduce, ToFixedTarget) {
  Instance instance = make_instance(cycle_graph(20), IdentityScheme::kSequential);
  for (NodeId v = 0; v < 20; ++v)
    instance.inputs[static_cast<std::size_t>(v)] = {
        instance.identities[static_cast<std::size_t>(v)]};
  const ColorReduce algorithm(20, 5);
  const RunResult result = run_local(instance, algorithm);
  EXPECT_TRUE(result.all_finished);
  EXPECT_TRUE(is_proper_coloring(instance.graph, result.outputs));
  EXPECT_LE(max_color_used(result.outputs), 5);
  EXPECT_EQ(result.rounds_used, algorithm.schedule_rounds());
}

TEST(ColorReduce, AlreadyWithinPaletteIsInstant) {
  Instance instance = make_instance(path_graph(6), IdentityScheme::kSequential);
  for (NodeId v = 0; v < 6; ++v)
    instance.inputs[static_cast<std::size_t>(v)] = {1 + (v % 2)};
  const ColorReduce algorithm(2, 4);
  const RunResult result = run_local(instance, algorithm);
  EXPECT_TRUE(result.all_finished);
  EXPECT_EQ(result.rounds_used, 1);
  EXPECT_TRUE(is_proper_coloring(instance.graph, result.outputs));
}

TEST(DegPlusOne, ValidOnSweepWithinBound) {
  const auto wrapped = make_deg_plus_one_coloring();
  for (const auto& [name, instance] : standard_instances(212)) {
    const auto algorithm = instantiate_with_correct_guesses(*wrapped, instance);
    const RunResult result = run_local(instance, *algorithm);
    EXPECT_TRUE(result.all_finished) << name;
    if (instance.num_nodes() == 0) continue;
    EXPECT_TRUE(is_proper_coloring(instance.graph, result.outputs)) << name;
    for (NodeId v = 0; v < instance.num_nodes(); ++v)
      EXPECT_LE(result.outputs[static_cast<std::size_t>(v)],
                instance.graph.degree(v) + 1)
          << name;
    EXPECT_LE(static_cast<double>(result.rounds_used),
              bound_at_correct_params(*wrapped, instance))
        << name;
  }
}

TEST(LambdaColoring, PaletteShrinksWithLambda) {
  Rng rng(2);
  Instance instance = make_instance(random_bounded_degree(120, 6, 0.95, rng),
                                    IdentityScheme::kRandomPermuted, 3);
  const std::int64_t delta = max_degree(instance.graph);
  for (std::int64_t lambda : {1, 2, 4, 8}) {
    const auto wrapped = make_lambda_coloring(lambda);
    const auto algorithm = instantiate_with_correct_guesses(*wrapped, instance);
    const RunResult result = run_local(instance, *algorithm);
    EXPECT_TRUE(result.all_finished);
    EXPECT_TRUE(is_proper_coloring(instance.graph, result.outputs));
    EXPECT_LE(max_color_used(result.outputs),
              std::max<std::int64_t>(lambda * (delta + 1),
                                     linial_final_space_bound(delta)))
        << "lambda " << lambda;
    if (lambda == 1) {
      EXPECT_LE(max_color_used(result.outputs), delta + 1);
    }
  }
}

TEST(LambdaColoring, LargerLambdaNoSlower) {
  Rng rng(4);
  Instance instance = make_instance(random_bounded_degree(150, 8, 0.95, rng),
                                    IdentityScheme::kRandomPermuted, 5);
  const auto tight = make_lambda_coloring(1);
  const auto loose = make_lambda_coloring(8);
  const auto algo_tight = instantiate_with_correct_guesses(*tight, instance);
  const auto algo_loose = instantiate_with_correct_guesses(*loose, instance);
  const auto r_tight = run_local(instance, *algo_tight);
  const auto r_loose = run_local(instance, *algo_loose);
  EXPECT_LE(r_loose.rounds_used, r_tight.rounds_used);
}

TEST(ColeVishkin, ThreeColorsForests) {
  Rng rng(6);
  for (int trial = 0; trial < 6; ++trial) {
    Graph forest = trial % 2 == 0 ? random_tree(120, rng)
                                  : random_forest(120, 6, rng);
    Instance instance =
        make_rooted_forest_instance(std::move(forest), 40 + trial);
    const ColeVishkin algorithm(instance.max_identity());
    const RunResult result = run_local(instance, algorithm);
    EXPECT_TRUE(result.all_finished);
    EXPECT_TRUE(is_proper_coloring(instance.graph, result.outputs));
    EXPECT_LE(max_color_used(result.outputs), 3);
    EXPECT_LE(result.rounds_used, algorithm.schedule_rounds());
  }
}

TEST(ColeVishkin, LogStarRounds) {
  Rng rng(7);
  Instance instance = make_rooted_forest_instance(random_tree(500, rng), 9);
  const ColeVishkin algorithm(instance.max_identity());
  const RunResult result = run_local(instance, algorithm);
  EXPECT_TRUE(result.all_finished);
  EXPECT_LE(result.rounds_used, 16);  // log*(500) + constants, not log(500)
}

TEST(ColeVishkin, PathAndSingleton) {
  Instance path = make_rooted_forest_instance(path_graph(33), 10);
  const ColeVishkin algorithm(path.max_identity());
  const RunResult result = run_local(path, algorithm);
  EXPECT_TRUE(is_proper_coloring(path.graph, result.outputs));
  EXPECT_LE(max_color_used(result.outputs), 3);

  Instance singleton = make_rooted_forest_instance(Graph(1), 11);
  const ColeVishkin tiny(singleton.max_identity());
  const RunResult r2 = run_local(singleton, tiny);
  EXPECT_TRUE(r2.all_finished);
  EXPECT_GE(r2.outputs[0], 1);
  EXPECT_LE(r2.outputs[0], 3);
}

}  // namespace
}  // namespace unilocal
