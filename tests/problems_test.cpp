#include <gtest/gtest.h>

#include <algorithm>

#include "src/graph/generators.h"
#include "src/problems/coloring.h"
#include "src/problems/matching.h"
#include "src/problems/mis.h"
#include "src/problems/ruling_set.h"
#include "src/problems/slc.h"

namespace unilocal {
namespace {

TEST(MisValidator, AcceptsAndRejects) {
  Graph g = path_graph(4);  // 0-1-2-3
  EXPECT_TRUE(is_maximal_independent_set(g, {1, 0, 1, 0}));
  EXPECT_TRUE(is_maximal_independent_set(g, {0, 1, 0, 1}));
  EXPECT_TRUE(is_maximal_independent_set(g, {1, 0, 0, 1}));
  EXPECT_FALSE(is_maximal_independent_set(g, {1, 1, 0, 0}));  // adjacent
  EXPECT_FALSE(is_maximal_independent_set(g, {0, 1, 0, 0}));  // 3 uncovered
  EXPECT_FALSE(is_maximal_independent_set(g, {0, 0, 0, 0}));  // not maximal
}

TEST(MisValidator, IsolatedNodesMustJoin) {
  Graph g(3);  // no edges
  EXPECT_TRUE(is_maximal_independent_set(g, {1, 1, 1}));
  EXPECT_FALSE(is_maximal_independent_set(g, {1, 0, 1}));
}

TEST(RulingSetValidator, Beta2OnPath) {
  Graph g = path_graph(7);
  // Node 0 and node 4: every node within distance 2.
  EXPECT_TRUE(is_two_beta_ruling_set(g, {1, 0, 0, 0, 1, 0, 0}, 2));
  // Node 0 alone: node 6 at distance 6 > 2.
  EXPECT_FALSE(is_two_beta_ruling_set(g, {1, 0, 0, 0, 0, 0, 0}, 2));
  // Adjacent members violate alpha = 2.
  EXPECT_FALSE(is_two_beta_ruling_set(g, {1, 1, 0, 0, 1, 0, 0}, 2));
}

TEST(RulingSetValidator, MisIsBetaOneRulingSet) {
  Graph g = cycle_graph(9);
  std::vector<std::int64_t> s(9, 0);
  s[0] = s[3] = s[6] = 1;
  EXPECT_TRUE(is_maximal_independent_set(g, s));
  EXPECT_TRUE(is_two_beta_ruling_set(g, s, 1));
}

TEST(ColoringValidator, ProperAndCap) {
  Graph g = cycle_graph(4);
  EXPECT_TRUE(is_proper_coloring(g, {1, 2, 1, 2}));
  EXPECT_FALSE(is_proper_coloring(g, {1, 2, 1, 1}));
  EXPECT_FALSE(is_proper_coloring(g, {0, 1, 2, 1}));  // colors must be >= 1
  Instance instance = make_instance(cycle_graph(4));
  EXPECT_TRUE(ColoringProblem(2).check(instance, {1, 2, 1, 2}));
  EXPECT_FALSE(ColoringProblem(1).check(instance, {1, 2, 1, 2}));
}

TEST(ColoringValidator, DegPlusOneFlavour) {
  Instance instance = make_instance(path_graph(3));
  DegPlusOneColoringProblem problem;
  EXPECT_TRUE(problem.check(instance, {1, 2, 1}));
  EXPECT_FALSE(problem.check(instance, {3, 2, 1}));  // endpoint deg+1 = 2
}

TEST(EdgeColoringValidator, DetectsIncidenceConflicts) {
  Graph g = path_graph(3);  // edges (0,1), (1,2)
  EXPECT_TRUE(is_proper_edge_coloring(g, {1, 2}));
  EXPECT_FALSE(is_proper_edge_coloring(g, {1, 1}));
  EXPECT_FALSE(is_proper_edge_coloring(g, {1, 3}, 2));  // over cap
}

TEST(MatchingEncoding, PackAndSentinels) {
  EXPECT_EQ(match_value(3, 7), match_value(7, 3));
  EXPECT_NE(match_value(3, 7), match_value(3, 8));
  EXPECT_LT(unmatched_value(5), 0);
  EXPECT_NE(unmatched_value(5), unmatched_value(6));
}

TEST(MatchingValidator, PaperEncodingSemantics) {
  Instance instance = make_instance(path_graph(4), IdentityScheme::kSequential);
  const Graph& g = instance.graph;
  // Match (0,1) and (2,3) by identities 1,2 and 3,4.
  const std::int64_t ab = match_value(1, 2);
  const std::int64_t cd = match_value(3, 4);
  EXPECT_TRUE(is_maximal_matching(g, {ab, ab, cd, cd}));
  // Middle edge matched: ends unmatched but dominated.
  const std::int64_t bc = match_value(2, 3);
  EXPECT_TRUE(is_maximal_matching(
      g, {unmatched_value(1), bc, bc, unmatched_value(4)}));
  // No one matched: not maximal.
  EXPECT_FALSE(is_maximal_matching(g, {unmatched_value(1), unmatched_value(2),
                                       unmatched_value(3), unmatched_value(4)}));
}

TEST(MatchingValidator, ValueCollisionBreaksPair) {
  Graph g = path_graph(3);
  // All three nodes share a value: the exclusivity condition fails, so no
  // pair is matched and the output is not a maximal matching.
  EXPECT_FALSE(is_maximal_matching(g, {5, 5, 5}));
}

TEST(MatchingValidator, PartnerDerivation) {
  Graph g = cycle_graph(4);
  Instance instance = make_instance(cycle_graph(4), IdentityScheme::kSequential);
  const std::int64_t m01 = match_value(1, 2);
  const std::int64_t m23 = match_value(3, 4);
  const auto partner = matched_partner(g, {m01, m01, m23, m23});
  EXPECT_EQ(partner[0], 1);
  EXPECT_EQ(partner[1], 0);
  EXPECT_EQ(partner[2], 3);
  EXPECT_EQ(partner[3], 2);
}

TEST(Slc, PackRoundTrip) {
  const std::int64_t packed = pack_slc_color(12, 34);
  EXPECT_EQ(slc_color_base(packed), 12);
  EXPECT_EQ(slc_color_index(packed), 34);
}

TEST(Slc, FullListShape) {
  const auto list = full_slc_list(3, 2);
  EXPECT_EQ(list.size(), 3u * 3u);
  EXPECT_EQ(slc_color_base(list.front()), 1);
  EXPECT_EQ(slc_color_index(list.back()), 3);
}

TEST(Slc, InputRoundTrip) {
  const auto list = full_slc_list(2, 3);
  const Input input = make_slc_input(3, list);
  EXPECT_EQ(slc_delta_hat(input), 3);
  EXPECT_TRUE(std::ranges::equal(slc_list(input), list));
}

TEST(Slc, ConfigurationValidity) {
  Instance instance = make_instance(path_graph(3));
  const auto list = full_slc_list(2, 2);
  for (auto& input : instance.inputs) input = make_slc_input(2, list);
  EXPECT_TRUE(is_valid_slc_configuration(instance));
  // Drop too many entries of base color 1 at the middle node (degree 2).
  std::vector<std::int64_t> small{pack_slc_color(1, 1), pack_slc_color(2, 1),
                                  pack_slc_color(2, 2), pack_slc_color(2, 3)};
  instance.inputs[1] = make_slc_input(2, small);
  EXPECT_FALSE(is_valid_slc_configuration(instance));
}

TEST(Slc, SolutionCheck) {
  Instance instance = make_instance(path_graph(2));
  const auto list = full_slc_list(2, 1);
  for (auto& input : instance.inputs) input = make_slc_input(1, list);
  SlcProblem problem;
  EXPECT_TRUE(problem.check(
      instance, {pack_slc_color(1, 1), pack_slc_color(2, 1)}));
  EXPECT_FALSE(problem.check(
      instance, {pack_slc_color(1, 1), pack_slc_color(1, 1)}));  // conflict
  EXPECT_FALSE(problem.check(
      instance, {pack_slc_color(9, 1), pack_slc_color(2, 1)}));  // off-list
}

}  // namespace
}  // namespace unilocal
