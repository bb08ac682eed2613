// Theorem 1 — the deterministic transformer pi (paper Algorithm 1).
//
// Given a non-uniform algorithm A_Gamma with lambda() == gamma(), a bound f
// carrying a sequence-number function, and a Gamma-monotone pruning
// algorithm, run iterations i = 1, 2, ...: in iteration i take the guess
// vectors S_f(2^i) and, for each, execute (A restricted to c*2^i rounds ; P)
// on the surviving subgraph. Solution detection ends the run at the first
// iteration whose guesses dominate the true parameters; the round ledger is
// O(f* . s_f(f*)).
//
// The same driver doubles as the engine inside Theorems 2-5, and the
// options' EngineConfig (workspace, threads, delivery layer) reaches every
// engine run of the schedule unchanged.
#pragma once

#include "src/core/alternating.h"
#include "src/core/nonuniform.h"
#include "src/problems/problem.h"

namespace unilocal {

/// The inherited EngineConfig is the one every sub-iteration runs under:
/// Theorem 4 lends its driver's workspace, campaign cells their checked-out
/// one; outputs are bit-identical for any engine_threads.
struct UniformRunOptions : EngineConfig {
  std::uint64_t seed = 1;
  /// Safety cap on iterations (2^i budgets overflow long before this).
  int max_iterations = 48;
  /// Optional: validate the final output (debug/testing aid).
  const Problem* check_problem = nullptr;
  /// Optional global round cap: stop mid-schedule once the ledger passes it
  /// (used to run a transformer-produced uniform algorithm "restricted to T
  /// rounds" inside Theorem 4). < 0 means unlimited.
  std::int64_t round_cap = -1;
};

struct UniformRunResult {
  std::vector<std::int64_t> outputs;
  std::int64_t total_rounds = 0;
  bool solved = false;
  int iterations_used = 0;
  std::vector<SubIterationTrace> trace;
  /// Aggregated engine stats over every sub-iteration (arena bytes, peak
  /// messages/round, steps/sec).
  EngineStats engine_stats;
};

/// The Theorem 1 transformer (also correct for weak Monte-Carlo inputs in
/// the sense that it never terminates with a wrong output; Theorem 2's tau
/// below has the stronger expected-time guarantee).
UniformRunResult run_uniform_transformer(const Instance& instance,
                                         const NonUniformAlgorithm& algorithm,
                                         const PruningAlgorithm& pruning,
                                         const UniformRunOptions& options = {});

}  // namespace unilocal
