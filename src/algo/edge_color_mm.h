// Deterministic maximal matching via colored proposal phases — the
// library's documented stand-in for the Hanckowiak et al. O(log^4 n) MM of
// Table 1 row 8 (DESIGN.md).
//
// After a (deg+1)-coloring, vertex color classes take turns: in its phase,
// an unmatched node proposes to its still-unmatched neighbours one by one; a
// proposal target accepts the smallest-identity proposer. Same-colored nodes
// are non-adjacent, so proposers never race with adjacent proposers. A node
// leaving its phase unmatched has certified that all its neighbours are
// matched — which is exactly the maximal-matching condition, and matching
// edges never dissolve, so the certificate stays valid.
//
// Outputs use the identity-pair encoding of src/problems/matching.h (the
// encoding that makes the paper's P_MM gluing collision-free).
// Gamma = Lambda = {Delta, m}; f = O(Delta~^2) + O(log* m~), additive.
#pragma once

#include <memory>

#include "src/core/nonuniform.h"
#include "src/runtime/local.h"

namespace unilocal {

/// The proposal stage alone (input[0] = vertex color in [1, delta_guess+1]).
class ProposalMatching final : public Algorithm {
 public:
  explicit ProposalMatching(std::int64_t delta_guess);
  std::shared_ptr<const StepKernel> kernel() const override;
  std::string name() const override;
  std::int64_t schedule_rounds() const noexcept { return rounds_; }

 private:
  std::int64_t delta_guess_;
  std::int64_t rounds_;
  std::shared_ptr<const StepKernel> kernel_;
};

/// Full pipeline: Linial -> (deg+1) reduction -> proposal phases.
std::unique_ptr<Algorithm> make_matching_algorithm(std::int64_t delta_guess,
                                                   std::int64_t m_guess);

std::unique_ptr<NonUniformAlgorithm> make_colored_matching();

}  // namespace unilocal
