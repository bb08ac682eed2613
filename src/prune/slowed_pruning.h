// Section 6.1 of the paper: pruning algorithms with non-constant running
// time. The transformers only use P through apply() plus the accounting
// constant running_time(); this decorator inflates the accounted time (and
// pads the LOCAL realization with idle rounds) without changing the pruning
// decision, so the predicted overhead — extra_rounds per sub-iteration,
// i.e. h(S*) times the (logarithmic) number of sub-iterations — is checked
// directly (PropertySweep.SlowedPruningStillCorrectAndAccounted).
#pragma once

#include <memory>

#include "src/prune/pruning.h"

namespace unilocal {

class SlowedPruning final : public PruningAlgorithm {
 public:
  SlowedPruning(std::shared_ptr<const PruningAlgorithm> inner,
                std::int64_t extra_rounds)
      : inner_(std::move(inner)), extra_(extra_rounds) {}

  std::string name() const override {
    return inner_->name() + "+" + std::to_string(extra_) + "r";
  }
  std::int64_t running_time() const override {
    return inner_->running_time() + extra_;
  }
  PruneResult apply(const Instance& instance,
                    const std::vector<std::int64_t>& yhat) const override {
    return inner_->apply(instance, yhat);
  }
  /// The inner realization after `extra_rounds` idle rounds: padding keeps
  /// the realization honest, computing the same bits, just later.
  std::unique_ptr<Algorithm> as_local_algorithm() const override;

 private:
  std::shared_ptr<const PruningAlgorithm> inner_;
  std::int64_t extra_;
};

}  // namespace unilocal
