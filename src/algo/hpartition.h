// The Barenboim-Elkin H-partition (Nash-Williams peeling): with guesses
// (a~, n~), repeatedly peel every node whose residual degree is at most
// 3*a~. While a~ upper-bounds the arboricity, each phase removes at least a
// third of the residual graph (sum of degrees <= 2*a*|V| < (2/3)*3*a~*|V|),
// so ceil(log_{3/2} n~) + 1 phases empty the graph. Output: the 1-based
// layer index (0 when the node never peeled — only possible under bad
// guesses).
//
// Orienting every edge toward the (layer, identity)-larger endpoint yields
// an acyclic orientation with out-degree <= 3*a~: the foundation of the
// forest decomposition and of the arboricity MIS (Table 1 rows 3-4).
#pragma once

#include <memory>

#include "src/runtime/local.h"

namespace unilocal {

class HPartition final : public Algorithm {
 public:
  HPartition(std::int64_t arboricity_guess, std::int64_t n_guess);
  std::shared_ptr<const StepKernel> kernel() const override;
  std::string name() const override;

  std::int64_t threshold() const noexcept { return threshold_; }
  std::int64_t num_phases() const noexcept { return phases_; }
  std::int64_t schedule_rounds() const noexcept { return phases_ + 2; }

  /// ceil(log_{3/2} n~) + 1.
  static std::int64_t phases_for(std::int64_t n_guess);

 private:
  std::int64_t threshold_;
  std::int64_t phases_;
  std::shared_ptr<const StepKernel> kernel_;
};

}  // namespace unilocal
