// The seed round engine, preserved verbatim in behaviour: one heap-allocated
// inbox/outbox vector<Message> per node and per-run reverse-port
// recomputation. It exists for two reasons:
//   1. as the trusted single-threaded oracle the engine-equivalence test
//      compares the arena engine against (identical RunResult fields), and
//   2. as the "before" side of bench_micro_simulator's before/after
//      comparison (BENCH_engine.json).
// Production code paths all use run_local (src/runtime/runner.h).
//
// VtableOnly is the matching oracle for the step-kernel tier: run_local
// takes an algorithm's kernel() whenever it has one, so wrapping the
// algorithm is how a test (or bench) pins the Process vtable path of the
// same algorithm.
#pragma once

#include <memory>
#include <string>

#include "src/runtime/runner.h"

namespace unilocal {

/// Forwards spawn() and name() to `inner` and hides its kernel(), so the
/// engine steps the Process bodies. Holds a reference: `inner` must outlive
/// the wrapper.
class VtableOnly final : public Algorithm {
 public:
  explicit VtableOnly(const Algorithm& inner) : inner_(inner) {}
  std::unique_ptr<Process> spawn(const NodeInit& init) const override {
    return inner_.spawn(init);
  }
  std::string name() const override { return inner_.name(); }

 private:
  const Algorithm& inner_;
};

/// Seed-engine twin of run_local: same semantics (simultaneous and
/// alpha-synchronizer modes, cutoffs, message accounting), vector-per-message
/// storage, always single-threaded (RunOptions::num_threads is ignored).
RunResult run_local_reference(const Instance& instance,
                              const Algorithm& algorithm,
                              const RunOptions& options = {});

}  // namespace unilocal
