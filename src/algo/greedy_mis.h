// Deterministic greedy-by-identity MIS: a node joins once its identity is
// the smallest among undecided closed neighbours; neighbours of joiners
// retire. Uniform (never reads a global parameter) and always correct, but
// its worst-case running time is Theta(n) (identities sorted along a path).
//
// This is the library's documented stand-in for the Panconesi-Srinivasan
// 2^O(sqrt(log n)) black box of Table 1 row 2 (see DESIGN.md): wrapped as a
// non-uniform algorithm whose declared running-time bound is f(n~) = 2n~+4,
// it exercises exactly the Theorem 1 setting (a bound depending on n only).
#pragma once

#include <memory>

#include "src/core/nonuniform.h"
#include "src/runtime/local.h"

namespace unilocal {

class GreedyMis final : public Algorithm {
 public:
  std::unique_ptr<Process> spawn(const NodeInit& init) const override;
  std::string name() const override { return "greedy-mis"; }
  /// Flat-kernel lowering.
  std::shared_ptr<const StepKernel> kernel() const override;
};

/// Greedy MIS wrapped as A_{n}: Gamma = Lambda = {n}, f(n~) = 2n~ + 4.
std::unique_ptr<NonUniformAlgorithm> make_global_mis();

}  // namespace unilocal
