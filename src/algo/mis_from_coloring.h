// From a proper coloring to an MIS by sweeping color classes (the classic
// reduction the paper invokes for its Table 1 MIS rows): in round t the
// nodes of color t with no selected neighbour join. A node with a selected
// neighbour retires as soon as it learns of it. O(#colors) rounds.
#pragma once

#include <memory>

#include "src/core/nonuniform.h"
#include "src/runtime/local.h"

namespace unilocal {

class MisColorSweep final : public Algorithm {
 public:
  /// Sweeps colors 1..num_colors; input[0] = node color. Nodes whose color
  /// exceeds num_colors (possible under bad guesses) output 0 at the end.
  explicit MisColorSweep(std::int64_t num_colors);
  std::shared_ptr<const StepKernel> kernel() const override;
  std::string name() const override;
  std::int64_t schedule_rounds() const noexcept { return num_colors_ + 2; }

 private:
  std::int64_t num_colors_;
  std::shared_ptr<const StepKernel> kernel_;
};

/// The composed non-uniform MIS: Linial shrink -> (deg+1) reduction ->
/// color sweep. Gamma = Lambda = {Delta, m};
/// f = O(Delta~^2) + O(log* m~) (additive). This is the library's
/// documented stand-in for the Barenboim-Elkin'09 / Kuhn'09
/// O(Delta + log* n) MIS (Table 1 row 1; DESIGN.md).
std::unique_ptr<NonUniformAlgorithm> make_coloring_mis();

/// The underlying runnable pipeline for explicit guesses.
std::unique_ptr<Algorithm> make_coloring_mis_algorithm(std::int64_t delta_guess,
                                                       std::int64_t m_guess);

}  // namespace unilocal
