// Randomized (2, beta)-ruling set by distance-beta Luby phases — the
// library's substitute for the Schneider-Wattenhofer (2, 2(c+1))-ruling-set
// algorithm of Table 1 row 9 (DESIGN.md).
//
// Each phase: undecided nodes draw a random rank and flood the minimum
// (rank, identity) pair beta hops; a node holding the strict minimum of its
// beta-ball joins, then floods a domination wave beta hops that retires the
// nodes it reaches. Members end up pairwise non-adjacent (a joiner's
// neighbours are dominated in the same phase) and every retired node is
// within beta of a member.
//
// Run to completion this is a uniform Las Vegas algorithm; truncated to the
// budget derived from a guess n~ it is the weak Monte-Carlo A_{n} handed to
// the Theorem 2 transformer.
#pragma once

#include <memory>

#include "src/core/nonuniform.h"
#include "src/runtime/local.h"

namespace unilocal {

class BetaLubyRulingSet final : public Algorithm {
 public:
  explicit BetaLubyRulingSet(int beta);
  std::shared_ptr<const StepKernel> kernel() const override;
  std::string name() const override;
  int beta() const noexcept { return beta_; }
  std::int64_t phase_rounds() const noexcept { return 2 * beta_ + 2; }

 private:
  int beta_;
  std::shared_ptr<const StepKernel> kernel_;
};

std::int64_t beta_luby_budget(int beta, std::int64_t n_guess);

/// The weak Monte-Carlo wrapper: Gamma = Lambda = {n},
/// f(n~) = beta_luby_budget(beta, n~).
std::unique_ptr<NonUniformAlgorithm> make_mc_ruling_set(int beta);

}  // namespace unilocal
