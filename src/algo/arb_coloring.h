// O(a~^2)-coloring for bounded-arboricity graphs: H-partition layers induce
// an acyclic orientation with out-degree <= 3*a~; running Linial's reduction
// against *out-neighbours only* still yields a proper coloring (every edge
// is outgoing for one endpoint) while the polynomial separation argument
// only has to beat 3*a~ conflicts — so the fixed point is O(a~^2) colors
// instead of O(Delta^2), independent of Delta.
//
// This is the forests-decomposition coloring route of Barenboim-Elkin
// (DESIGN.md substitution notes). Gamma = Lambda = {a, n, m};
// f = O(a~^2) + O(log n~) + O(log* m~), additive — the Theorem 3 showcase
// (a is weakly dominated by n).
#pragma once

#include <memory>

#include "src/core/nonuniform.h"
#include "src/runtime/local.h"

namespace unilocal {

/// The orientation-aware Linial stage: input[0] = H-partition layer.
class OutLinialColoring final : public Algorithm {
 public:
  /// out_degree_bound: the orientation's out-degree cap (3*a~).
  OutLinialColoring(std::int64_t out_degree_bound, std::int64_t m_guess);
  std::shared_ptr<const StepKernel> kernel() const override;
  std::string name() const override;

  std::int64_t final_space() const noexcept;
  std::int64_t schedule_rounds() const noexcept;

  struct Impl;

 private:
  std::shared_ptr<const Impl> impl_;
  std::shared_ptr<const StepKernel> kernel_;
};

/// Full pipeline: H-partition -> out-Linial. Colors in [1, O(a~^2)].
std::unique_ptr<Algorithm> make_arb_coloring_algorithm(
    std::int64_t arboricity_guess, std::int64_t n_guess, std::int64_t m_guess);

std::unique_ptr<NonUniformAlgorithm> make_arb_coloring();

}  // namespace unilocal
