// Linial's iterated color reduction (Linial'92), the O(log* n)-round
// engine behind the paper's Table 1 coloring rows.
//
// One step: with the current colors drawn from [0, k), all nodes share a
// prime p and degree d with p >= d*Delta~ + 1 and p^(d+1) >= k. A color c
// is read as a polynomial f_c over F_p (its base-p digits). Two distinct
// colors agree on at most d points, so a node with at most Delta~ conflicting
// neighbours can pick an evaluation point a with f_c(a) unique among them;
// its new color is a*p + f_c(a) < p^2. Iterating shrinks the color space
// from m~ to O(Delta~^2) within O(log* m~) steps (the schedule below is
// provably <= 40 steps for any 63-bit space; see linial_schedule()).
//
// The step parameters are a deterministic function of the guesses
// (Delta~, m~), so all nodes follow the same schedule without coordination —
// this is exactly where the algorithm is non-uniform.
#pragma once

#include <memory>
#include <span>

#include "src/core/nonuniform.h"
#include "src/runtime/local.h"

namespace unilocal {

struct LinialStep {
  std::int64_t prime = 0;
  std::int64_t degree = 0;      // polynomial degree bound d
  std::int64_t in_space = 0;    // colors enter in [0, in_space)
  std::int64_t out_space = 0;   // colors leave in [0, prime^2)
};

struct LinialSchedule {
  std::vector<LinialStep> steps;
  std::int64_t initial_space = 0;
  std::int64_t final_space = 0;

  std::size_t length() const noexcept { return steps.size(); }
};

/// The deterministic schedule for guesses (delta_guess, initial color space
/// size). Stops at the first step that would not shrink the space.
LinialSchedule linial_schedule(std::int64_t delta_guess,
                               std::int64_t initial_space);

/// Upper bound on the final color-space size for a given Delta~ (DESIGN.md:
/// at most next_prime(2*Delta~+1)^2 <= 16*(Delta~+1)^2).
std::int64_t linial_final_space_bound(std::int64_t delta_guess);

/// Executes one reduction step at a node: own color plus the current
/// neighbour colors (entries < 0 are ignored) -> new color in
/// [0, step.prime^2). Total per-node work O(p * deg * d).
std::int64_t linial_step_apply(const LinialStep& step, std::int64_t color,
                               std::span<const std::int64_t> neighbor_colors);

/// Standalone LOCAL algorithm: runs the schedule and finishes with a color
/// in [1, final_space] after length()+1 rounds. Initial color is input[0]
/// when the node input is non-empty (paper Section 5: initial colors may
/// replace identities), otherwise the identity.
class LinialColoring final : public Algorithm {
 public:
  LinialColoring(std::int64_t delta_guess, std::int64_t space_guess);
  std::unique_ptr<Process> spawn(const NodeInit& init) const override;
  std::string name() const override;
  const LinialSchedule& schedule() const noexcept { return schedule_; }
  /// Flat-kernel lowering; covers the degenerate empty-schedule case too.
  std::shared_ptr<const StepKernel> kernel() const override;

 private:
  LinialSchedule schedule_;
  std::int64_t delta_guess_;
  std::shared_ptr<const StepKernel> kernel_;
};

/// Linial wrapped as the non-uniform O(Delta^2)-ish coloring algorithm:
/// Gamma = Lambda = {Delta, m}, f additive = (log* m~ + 34) + small(Delta~).
std::unique_ptr<NonUniformAlgorithm> make_linial_coloring();

}  // namespace unilocal
