// The LOCAL model (Peleg 2000; paper Section 2), as a programming interface.
//
// An Algorithm names one per-node program, written as a StepKernel
// (src/runtime/kernel.h): a POD state record per node plus one plain round
// function per phase. Computation proceeds in synchronous rounds: in each
// round every awake node reads the messages its neighbours sent in the
// previous round, performs arbitrary local computation, sends
// (unrestricted-size) messages to its neighbours, and may terminate by
// writing a final output value. Neighbours are addressed by port number
// 0..degree-1; a node learns anything beyond its own degree/identity/input
// only through messages, which is exactly the locality constraint the paper
// studies.
//
// Uniformity discipline: a kernel receives NO global parameters. Algorithms
// that require guesses of global parameters (the paper's non-uniform
// algorithms A_Gamma) receive them at *instantiation* time through the
// NonUniformAlgorithm interface in src/core/nonuniform.h, baked into the
// kernel's config, never through the runtime.
//
// Two engines run kernels: the arena engine (src/runtime/runner.h) and the
// vector-per-message reference engine (src/runtime/reference.h), which
// share no loop or storage and so check each other.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "src/graph/graph.h"

namespace unilocal {

/// Everything a node knows at wake-up time.
struct NodeInit {
  NodeId degree = 0;
  std::int64_t identity = 0;
  std::span<const std::int64_t> input;
};

struct StepKernel;

/// A distributed algorithm: one named per-node program.
class Algorithm {
 public:
  virtual ~Algorithm() = default;
  virtual std::string name() const = 0;

  /// The per-node program (never null). The returned descriptor is only
  /// guaranteed valid while this Algorithm lives.
  virtual std::shared_ptr<const StepKernel> kernel() const = 0;
};

}  // namespace unilocal
