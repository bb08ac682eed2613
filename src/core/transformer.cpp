#include "src/core/transformer.h"

#include <cassert>

#include "src/util/math.h"

namespace unilocal {

UniformRunResult run_uniform_transformer(const Instance& instance,
                                         const NonUniformAlgorithm& algorithm,
                                         const PruningAlgorithm& pruning,
                                         const UniformRunOptions& options) {
  // Theorem 1 requires the running-time bound to range over exactly the
  // guessed parameters (Theorem 3's wrapper establishes this in general).
  assert(algorithm.gamma() == algorithm.lambda());
  assert(algorithm.bound().arity() == algorithm.gamma().size());

  // The driver's workspace carries one message arena through every
  // (A restricted to c*2^i ; P) sub-iteration below — the sequential
  // composition never re-allocates engine state between stages.
  AlternatingDriver driver(instance, pruning, options);
  UniformRunResult result;
  std::uint64_t seed = options.seed;
  const std::int64_t c = algorithm.bound().bounding_constant();
  for (int i = 1; i <= options.max_iterations && !driver.done(); ++i) {
    result.iterations_used = i;
    const std::int64_t scale = sat_pow(2, i);
    const auto guess_vectors = algorithm.bound().set_sequence(scale);
    int sub = 0;
    for (const auto& guesses : guess_vectors) {
      if (driver.done()) break;
      if (options.round_cap >= 0 && driver.total_rounds() >= options.round_cap)
        break;
      SubIterationTrace trace;
      trace.iteration = i;
      trace.sub_iteration = ++sub;
      trace.guesses = guesses;
      const auto runnable = algorithm.instantiate(guesses);
      driver.run_step(*runnable, sat_mul(c, scale), seed++, &trace);
      result.trace.push_back(std::move(trace));
    }
    if (options.round_cap >= 0 && driver.total_rounds() >= options.round_cap)
      break;
  }
  result.outputs = driver.outputs();
  result.total_rounds = driver.total_rounds();
  result.solved = driver.done();
  result.engine_stats = driver.stats();
  if (result.solved && options.check_problem != nullptr) {
    assert(options.check_problem->check(instance, result.outputs));
  }
  return result;
}

}  // namespace unilocal
