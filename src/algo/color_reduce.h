// One-color-class-per-round palette reduction: from a proper coloring in
// [1, k_start] down to either a fixed palette [1, target] or the per-node
// palette [1, deg(v)+1]. In the elimination round of color t every node
// carrying t (and exceeding its palette) recolors to the smallest free
// color; same-colored nodes are non-adjacent in a proper input coloring, so
// simultaneous recoloring is safe. O(k_start) rounds.
//
// This is the standard reduction the paper's Table 1 rows lean on; the
// library uses it after Linial's log*-round shrink (see DESIGN.md for the
// substitution notes regarding the linear-in-Delta originals).
#pragma once

#include <memory>

#include "src/runtime/local.h"

namespace unilocal {

class ColorReduce final : public Algorithm {
 public:
  /// target <= 0 selects the (deg+1) mode. Initial color is input[0]
  /// (1-based); pass through when already within the palette.
  ColorReduce(std::int64_t k_start, std::int64_t target);
  std::string name() const override;
  /// The neighbour-color cache lives in the per-port state arena.
  std::shared_ptr<const StepKernel> kernel() const override;

  /// Rounds the fixed schedule takes (use as a chain-stage budget).
  std::int64_t schedule_rounds() const noexcept { return rounds_; }

 private:
  std::int64_t k_start_;
  std::int64_t target_;
  std::int64_t rounds_;
  std::shared_ptr<const StepKernel> kernel_;
};

}  // namespace unilocal
