// Luby-style randomized MIS (Luby'86 / Alon-Babai-Itai'86): the uniform
// randomized O(log n)-expected-round baseline of the paper's Table 1
// (last row), and — truncated to a guess-dependent budget — the weak
// Monte-Carlo non-uniform algorithm fed to Theorem 2.
//
// Protocol (2 rounds per phase): undecided nodes draw a random 64-bit rank;
// a node joins when its (rank, identity) is lexicographically smallest in
// its undecided closed neighbourhood; neighbours of joiners retire.
#pragma once

#include <memory>

#include "src/core/nonuniform.h"
#include "src/runtime/local.h"

namespace unilocal {

class LubyMis final : public Algorithm {
 public:
  std::string name() const override { return "luby-mis"; }
  std::shared_ptr<const StepKernel> kernel() const override;
};

/// Wraps any algorithm so every node force-finishes (with `fallback`) once
/// `budget` local rounds elapse — the paper's "A restricted to i rounds".
class TruncatedAlgorithm final : public Algorithm {
 public:
  TruncatedAlgorithm(std::shared_ptr<const Algorithm> inner,
                     std::int64_t budget, std::int64_t fallback = 0);
  std::string name() const override;
  /// The inner kernel behind a budget check; keeps the inner phases'
  /// batch fns.
  std::shared_ptr<const StepKernel> kernel() const override;

 private:
  std::shared_ptr<const Algorithm> inner_;
  std::int64_t budget_;
  std::shared_ptr<const StepKernel> kernel_;
};

/// The non-uniform weak Monte-Carlo MIS: Luby truncated to
/// budget(n~) = 2 * (6*ceil(log2 n~) + 8) rounds, which empirically succeeds
/// with probability well above the 1/2 guarantee Theorem 2 assumes.
/// Gamma = Lambda = {n}; f(n~) = budget(n~) (additive, s_f = 1).
std::unique_ptr<NonUniformAlgorithm> make_truncated_luby_mis();

/// Budget used by make_truncated_luby_mis.
std::int64_t luby_budget(std::int64_t n_guess);

}  // namespace unilocal
