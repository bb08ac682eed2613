// Fixed-schedule sequential composition of LOCAL algorithms.
//
// The paper composes algorithms as A1;A2 (Observation 2.1). Within one
// node's kernel this combinator runs each stage for a *predeclared*
// number of rounds (all nodes share the schedule, so stage boundaries are
// globally synchronous); a stage that finishes early idles until its budget
// elapses, and a stage cut off by its budget contributes the arbitrary
// carry 0 — the same convention as the paper's "restricted to i rounds".
//
// Stage k >= 1 sees as input the single word [carry of stage k-1]; stage 0
// sees the node's original input. The chain finishes with the last stage's
// carry.
#pragma once

#include <memory>
#include <vector>

#include "src/runtime/local.h"

namespace unilocal {

struct ChainStage {
  std::shared_ptr<const Algorithm> algorithm;
  std::int64_t rounds = 0;  // budget; must be >= 1
};

class ChainAlgorithm final : public Algorithm {
 public:
  ChainAlgorithm(std::string name, std::vector<ChainStage> stages);
  std::string name() const override { return name_; }

  /// The composite kernel: a carry/stage header next to the widest stage's
  /// state record, forwarding each round to the active stage's kernel.
  std::shared_ptr<const StepKernel> kernel() const override;

  /// Total rounds of the fixed schedule (+1 for the final finish round).
  std::int64_t total_rounds() const noexcept { return total_rounds_; }

 private:
  std::string name_;
  // Keeps the stage algorithms, and so their kernels, alive.
  std::vector<ChainStage> stages_;
  std::int64_t total_rounds_ = 0;
  std::shared_ptr<const StepKernel> kernel_;
};

}  // namespace unilocal
