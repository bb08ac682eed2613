// The parameter oracle: the true values Gamma*(instance) that correct
// guesses and f* are evaluated at.
#include <gtest/gtest.h>

#include "src/core/param.h"
#include "tests/test_support.h"

namespace unilocal {
namespace {

TEST(ParamOracle, NamesAndValues) {
  Instance instance = make_instance(complete_graph(5),
                                    IdentityScheme::kSequential);
  EXPECT_EQ(param_name(Param::kNumNodes), "n");
  EXPECT_EQ(param_name(Param::kMaxDegree), "Delta");
  EXPECT_EQ(param_name(Param::kArboricity), "a");
  EXPECT_EQ(param_name(Param::kMaxIdentity), "m");
  EXPECT_EQ(eval_param(Param::kNumNodes, instance), 5);
  EXPECT_EQ(eval_param(Param::kMaxDegree, instance), 4);
  EXPECT_EQ(eval_param(Param::kMaxIdentity, instance), 5);
  EXPECT_EQ(eval_param(Param::kArboricity, instance), 4);  // degeneracy K5
}

TEST(ParamOracle, CorrectGuessesAlignWithSet) {
  Instance instance = make_instance(cycle_graph(9),
                                    IdentityScheme::kSequential);
  const ParamSet params{Param::kMaxDegree, Param::kNumNodes};
  const auto guesses = correct_guesses(params, instance);
  ASSERT_EQ(guesses.size(), 2u);
  EXPECT_EQ(guesses[0], 2);
  EXPECT_EQ(guesses[1], 9);
}

TEST(ParamOracle, ArboricityProxyOnEmptyGraph) {
  Instance instance = make_instance(Graph(3), IdentityScheme::kSequential);
  EXPECT_EQ(eval_param(Param::kArboricity, instance), 1);  // clamped to 1
}

}  // namespace
}  // namespace unilocal
