// P_MM (paper Observation 3.3): with the matched-relation derived from the
// tentative output (see src/problems/matching.h), prune every node that is
// matched and every node all of whose neighbours are matched. Inputs pass
// through untouched, so the algorithm is monotone with respect to every
// non-decreasing parameter.
#pragma once

#include "src/prune/pruning.h"

namespace unilocal {

class MatchingPruning final : public PruningAlgorithm {
 public:
  std::string name() const override { return "P_MM"; }
  std::int64_t running_time() const override { return 4; }
  PruneResult apply(const Instance& instance,
                    const std::vector<std::int64_t>& yhat) const override;
  std::unique_ptr<Algorithm> as_local_algorithm() const override;
};

/// The LOCAL realization of P_MM's membership bit: over 4 rounds, with
/// yhat(v) the last input word, v learns whether it is matched or all its
/// neighbours are, and outputs that bit — or its complement, which is the
/// matching checker's alarm (src/problems/checkers.h).
std::unique_ptr<Algorithm> make_matching_membership_algorithm(
    std::string name, bool complement);

}  // namespace unilocal
