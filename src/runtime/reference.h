// The reference round engine: the trusted single-threaded oracle the arena
// engine (src/runtime/runner.h) is compared against (identical RunResult
// fields; tests/engine_equivalence_test.cpp and tests/kernel_test.cpp), and
// the "before" side of bench_micro_simulator's engine comparison
// (BENCH_engine.json). Production code paths all use run_local.
//
// It runs an algorithm's scalar KernelPhase::fn bodies through its own
// KernelCtx transport and shares no loop, arena, batching or sleep logic
// with the arena engine:
//   - every node keeps its own heap state record and per-port words, and a
//     vector-per-message inbox and outbox;
//   - reverse ports are recomputed for each run;
//   - every unfinished node steps every round (sleep hints are ignored, and
//     batch fns are never called).
#pragma once

#include "src/runtime/runner.h"

namespace unilocal {

/// Reference twin of run_local: same semantics (simultaneous and
/// alpha-synchronizer modes, cutoffs, message accounting), vector-per-message
/// storage, always single-threaded (the inherited EngineConfig — workspace,
/// engine_threads, network — is ignored; a delayed run's outputs equal the
/// simultaneous ones by Observation 2.1).
RunResult run_local_reference(const Instance& instance,
                              const Algorithm& algorithm,
                              const RunOptions& options = {});

}  // namespace unilocal
