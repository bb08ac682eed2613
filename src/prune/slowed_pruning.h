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
  std::unique_ptr<Algorithm> as_local_algorithm() const override {
    // Padding with idle rounds keeps the realization honest: the padded
    // algorithm still computes the same bits, just later.
    class Padded final : public Algorithm {
     public:
      Padded(std::unique_ptr<Algorithm> inner, std::int64_t extra)
          : inner_(std::move(inner)), extra_(extra) {}
      class P final : public Process {
       public:
        P(std::unique_ptr<Process> inner, std::int64_t extra)
            : inner_(std::move(inner)), extra_(extra) {}
        void step(Context& ctx) override {
          if (ctx.round() < extra_) return;  // idle padding
          Context sub = ctx.derived(ctx.round() - extra_, ctx.input());
          inner_->step(sub);
          if (sub.finished()) ctx.finish(sub.output());
        }

       private:
        std::unique_ptr<Process> inner_;
        std::int64_t extra_;
      };
      std::unique_ptr<Process> spawn(const NodeInit& init) const override {
        return std::make_unique<P>(inner_->spawn(init), extra_);
      }
      std::string name() const override { return inner_->name() + "+pad"; }

     private:
      std::unique_ptr<Algorithm> inner_;
      std::int64_t extra_;
    };
    return std::make_unique<Padded>(inner_->as_local_algorithm(), extra_);
  }

 private:
  std::shared_ptr<const PruningAlgorithm> inner_;
  std::int64_t extra_;
};

}  // namespace unilocal
