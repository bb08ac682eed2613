// Cole-Vishkin deterministic 3-coloring of rooted forests: the classical
// O(log* n) symmetry-breaking primitive behind the paper's Table 1
// machinery. Each step rewrites a color as (index of the lowest bit
// differing from the parent, that bit), collapsing a K-color space to
// 2*ceil(log2 K) colors; once at 6 colors, three shift-down + recolor pairs
// reach 3.
//
// Input convention: input[0] = the port of the node's parent, or -1 for a
// root (see make_rooted_forest_instance).
#pragma once

#include <memory>

#include "src/runtime/instance.h"
#include "src/runtime/local.h"

namespace unilocal {

class ColeVishkin final : public Algorithm {
 public:
  explicit ColeVishkin(std::int64_t m_guess);
  std::string name() const override;
  std::int64_t schedule_rounds() const noexcept;
  std::shared_ptr<const StepKernel> kernel() const override;

 private:
  std::vector<std::int64_t> spaces_;  // color-space sizes per step
  std::shared_ptr<const StepKernel> kernel_;
};

/// Builds the rooted-forest instance for a forest graph: parent ports from a
/// BFS rooted at each component's minimum-identity node.
Instance make_rooted_forest_instance(Graph forest, std::uint64_t seed);

}  // namespace unilocal
