// Step kernels: the one way to write a LOCAL algorithm's per-node program.
//
// The engine keeps every node's state as a fixed-size POD record packed
// into one engine-owned arena, and runs each local round by calling a free
// function through a plain function pointer. Receives hand out zero-copy
// spans into the engine's message arenas and sends write them directly.
// The reference engine (src/runtime/reference.h) runs the same scalar phase
// functions over its own per-node heap records and vector-per-message
// inboxes; tests/kernel_test.cpp holds both engines, in both modes, to the
// frozen results in tests/golden/kernel-blocks.json.
//
// The shape follows the classic runtime-graph lowering (flat node records,
// a phase table, function-pointer callbacks over a scratchpad): a kernel
// declares its per-node state layout (state_size/state_align), an optional
// per-port state width (port_state_words, for degree-sized caches such as
// color_reduce's neighbour palette), an optional spawn-time initializer,
// and a phase/state-machine table — one KernelStepFn per phase with a
// selector mapping the local round (and state/config) to the phase to run.
// A phase is written once, as its scalar KernelStepFn; kernel_phase<F>
// generates its batched form (KernelBatchFn), which the engine's round
// loop runs over each round's same-phase bucket. Only the reference
// engine and composites forwarding a round (step_inner_kernel) call the
// scalar body.
//
// Sleep contract (KernelCtx::sleep_until): a step may end with
// sleep_until(r), r a local round. It promises that every step of this
// node before round r that receives no message would send nothing, draw no
// randomness, change no state and not finish. The engine's round loop
// (which also runs the delayed network and the synchronizer) then skips
// the node's kernel until round r or until a message lands for it,
// whichever comes first (a step that receives mail is a real step, and it
// may sleep again). Skipped steps still count as steps in EngineStats, and
// in a timed run a sleeper still advances its local round and pulses
// every out-edge, so every stat and canonical byte is the same as with
// the hint ignored.
// Composites keep the promise in the outer round numbering: the chain
// turns an inner stage's request into absolute rounds and clamps it to
// the stage boundary, the truncation wrapper clamps it to its budget, and
// the slc-adapter passes the ctx through unchanged. The engine clamps to
// max_rounds - 1 so the cut-off fires on the same round. When a round
// sends nothing and leaves every unfinished node asleep, the rounds up to
// the earliest wake round would step no one, so an untimed run jumps its
// clock straight there; the skipped rounds' sleepers count as
// slept steps, and one silent round already leaves the network's arena
// as the skipped rounds would, so dirty_spans_cleared does not move. Only
// the reference engine ignores the hint, which is always correct: it only
// marks steps that would do nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/runtime/local.h"
#include "src/util/rng.h"

namespace unilocal {

struct KernelCtx;

/// One phase of a kernel's state machine: a plain function, one local
/// round.
using KernelStepFn = void (*)(KernelCtx&);
/// Spawn-time state initializer; `state` is zero-filled before the call.
using KernelInitFn = void (*)(std::byte* state, const NodeInit& init,
                              const void* config);
/// Maps (local round, node state, config) to the phase index to run.
using KernelSelectFn = std::uint16_t (*)(std::int64_t round,
                                         const std::byte* state,
                                         const void* config);

/// Engine transport installed into every KernelCtx: free functions over the
/// engine's message storage. A receive is one perfectly-predicted indirect
/// call per port. A send is one call per port range: send() passes
/// [j, j+1) and broadcast() the whole row [0, degree), so the engine walks
/// the sender's out-row in one loop and stores a multi-word payload once
/// for every port of the range.
using KernelRecvFn = std::span<const std::int64_t> (*)(void* engine, int tid,
                                                       NodeId node,
                                                       NodeId port,
                                                       bool* present);
/// Sends data[0..words) on each port in [first, last), ascending; never
/// called with an empty range.
using KernelSendFn = void (*)(void* engine, int tid, NodeId node, NodeId first,
                              NodeId last, const std::int64_t* data,
                              std::size_t words);

/// Per-step view handed to a KernelStepFn. Built by the engine per node
/// step; valid only for the call.
struct KernelCtx {
  // What the node knows; round is the local round, 0-based (round 0 sees
  // no messages).
  NodeId node = 0;
  NodeId degree = 0;
  std::int64_t identity = 0;
  std::int64_t round = 0;
  std::span<const std::int64_t> input;
  /// Private randomness stream of this node (split from the run seed by
  /// identity).
  Rng* rng = nullptr;

  /// This node's packed state record (StepKernel::state_size bytes,
  /// zero-filled at spawn unless init_fn wrote it).
  std::byte* state = nullptr;
  /// This node's per-port words (degree * StepKernel::port_state_words
  /// int64s, zero-filled at spawn); null when port_state_words == 0.
  std::int64_t* port_state = nullptr;
  /// The kernel's algorithm-wide read-only config blob.
  const void* config = nullptr;
  /// Per-thread reusable int64 scratch (capacity persists across steps).
  std::vector<std::int64_t>* scratch = nullptr;

  // Finish latch: after a step that finished, the node is never stepped
  // again (messages sent in that step are still delivered).
  bool finished = false;
  std::int64_t output = 0;
  /// Sleep hint (0 = none): the local round at which this node next needs
  /// a step if no message arrives. Set through sleep_until; see the sleep
  /// contract above.
  std::int64_t wake_round = 0;

  // Engine transport; filled by the engine, opaque to kernels.
  void* engine = nullptr;
  int tid = 0;
  KernelRecvFn recv_fn = nullptr;
  KernelSendFn send_fn = nullptr;

  /// The node's state record viewed as T (sizeof(T) == state_size).
  template <typename T>
  T& state_as() {
    return *reinterpret_cast<T*>(state);
  }

  /// Message from neighbour port j sent in the previous round; empty and
  /// absent when none arrived. Zero-copy: the span points into the
  /// receive half of the round arena and stays valid for the whole step.
  std::span<const std::int64_t> recv(NodeId j, bool* present) {
    return recv_fn(engine, tid, node, j, present);
  }

  /// Sends the words to port j (delivered next round; last write wins).
  void send(NodeId j, const std::int64_t* data, std::size_t words) {
    send_fn(engine, tid, node, j, j + 1, data, words);
  }
  void send(NodeId j, std::initializer_list<std::int64_t> words) {
    send_fn(engine, tid, node, j, j + 1, words.begin(), words.size());
  }

  /// Sends the same words to every neighbour, ports in ascending order, in
  /// one transport call (none at degree 0).
  void broadcast(std::initializer_list<std::int64_t> words) {
    if (degree > 0)
      send_fn(engine, tid, node, 0, degree, words.begin(), words.size());
  }

  void finish(std::int64_t out) {
    finished = true;
    output = out;
  }

  /// Promises that steps before local round r without incoming messages
  /// would be no-ops, so the engine may skip them.
  void sleep_until(std::int64_t r) { wake_round = r; }
};

/// Batched counterpart of KernelCtx: one bucket of same-phase nodes per
/// call. The round loop groups the round's live list by resolved
/// kernel_phase_index and hands each bucket to the phase's KernelBatchFn,
/// which loops the bucket itself, so the per-node phase body inlines into
/// one tight loop over the strided state arena instead of one indirect
/// call per node. Aliasing: records of distinct nodes never overlap
/// (stride >= state_size), and within a bucket every node owns its own RNG
/// stream and per-edge send slots, so nodes may be stepped in any order.
struct KernelBatchCtx {
  /// The bucket: count node ids, all stepping local round `round`.
  const NodeId* nodes = nullptr;
  std::size_t count = 0;
  std::int64_t round = 0;

  /// The packed state arena: node v's record lives at
  /// state_base + v * stride.
  std::byte* state_base = nullptr;
  std::size_t stride = 0;

  /// Per-port lane (null / 0 when the kernel declares none): node v's words
  /// start at port_state_base + csr_offsets[v] * port_words.
  std::int64_t* port_state_base = nullptr;
  std::int64_t port_words = 0;

  /// Engine-side per-NodeId tables: CSR adjacency offsets (degree(v) =
  /// csr_offsets[v+1] - csr_offsets[v]), identities, spawn inputs, private
  /// RNG streams, the finish/output latches, and the sleep-hint latch
  /// (null when the running loop ignores hints).
  const std::int64_t* csr_offsets = nullptr;
  const std::int64_t* identities = nullptr;
  const std::vector<std::int64_t>* inputs = nullptr;
  Rng* rngs = nullptr;
  char* finished = nullptr;
  std::int64_t* outputs = nullptr;
  std::int64_t* wake_rounds = nullptr;

  /// Shared per-thread scratch and the kernel's config blob.
  std::vector<std::int64_t>* scratch = nullptr;
  const void* config = nullptr;

  // Engine transport (identical to the scalar path).
  void* engine = nullptr;
  int tid = 0;
  KernelRecvFn recv_fn = nullptr;
  KernelSendFn send_fn = nullptr;

  /// The scalar view of bucket slot i, built by kernel_batch<F> for each
  /// node of the bucket.
  KernelCtx node_ctx(std::size_t i) const {
    const NodeId v = nodes[i];
    KernelCtx ctx;
    ctx.node = v;
    ctx.degree = static_cast<NodeId>(csr_offsets[v + 1] - csr_offsets[v]);
    ctx.identity = identities[v];
    ctx.round = round;
    ctx.input = std::span<const std::int64_t>(
        inputs[v].data(), inputs[v].size());
    ctx.rng = &rngs[v];
    ctx.state = state_base + static_cast<std::size_t>(v) * stride;
    ctx.port_state =
        port_words > 0 ? port_state_base + csr_offsets[v] * port_words
                       : nullptr;
    ctx.config = config;
    ctx.scratch = scratch;
    ctx.engine = engine;
    ctx.tid = tid;
    ctx.recv_fn = recv_fn;
    ctx.send_fn = send_fn;
    return ctx;
  }

  /// Latches a stepped node's finish/output and sleep hint into the engine
  /// arrays (what the engine does after a scalar step).
  void latch(std::size_t i, const KernelCtx& ctx) const {
    if (ctx.finished) {
      finished[nodes[i]] = 1;
      outputs[nodes[i]] = ctx.output;
    }
    if (ctx.wake_round != 0 && wake_rounds != nullptr)
      wake_rounds[nodes[i]] = ctx.wake_round;
  }
};

/// One phase over one bucket of same-phase nodes. Must be bit-identical to
/// running the phase's scalar fn over the bucket in order (kernel_test
/// holds the round loop to the reference engine, which runs the
/// scalar fns, on every family and thread count).
using KernelBatchFn = void (*)(const KernelBatchCtx&);

/// One row of a kernel's phase/state-machine table: the scalar body and its
/// batched form. Build rows with kernel_phase<F>.
struct KernelPhase {
  std::string name;
  KernelStepFn fn = nullptr;
  KernelBatchFn batch = nullptr;
};

/// The batched form of scalar phase F: one KernelCtx per bucket node, F,
/// then the finish/sleep latch. F is a compile-time constant, so the call
/// is direct (no per-node dispatch) and the compiler may inline it.
template <KernelStepFn F>
void kernel_batch(const KernelBatchCtx& b) {
  for (std::size_t i = 0; i < b.count; ++i) {
    KernelCtx ctx = b.node_ctx(i);
    F(ctx);
    b.latch(i, ctx);
  }
}

/// The phase row for scalar body F and its generated batched form.
template <KernelStepFn F>
KernelPhase kernel_phase(std::string name) {
  return {std::move(name), F, &kernel_batch<F>};
}

/// The per-node program descriptor. A kernel (and its config blob) must stay
/// valid for the lifetime of the Algorithm that produced it.
struct StepKernel {
  std::string name;
  /// POD per-node state layout; the engine packs n records of this shape
  /// into one arena (stride = state_size rounded up to state_align).
  std::uint32_t state_size = 0;
  std::uint32_t state_align = 1;
  /// int64 words of per-port state per directed edge (0 = none); addressed
  /// through KernelCtx::port_state.
  std::uint32_t port_state_words = 0;
  /// Optional spawn-time initializer (state is zero-filled either way).
  KernelInitFn init_fn = nullptr;
  /// The state-machine table; local round r runs
  /// phases[select_fn(r, state, config)], or phases[r % phases.size()]
  /// when select_fn is null. Must be non-empty, each row built by
  /// kernel_phase<F> (truncation's hand-written row aside).
  std::vector<KernelPhase> phases;
  KernelSelectFn select_fn = nullptr;
  /// Algorithm-wide read-only parameters (schedules, palettes, budgets)
  /// shared by every node; exposed as KernelCtx::config.
  std::shared_ptr<const void> config;
};

/// Resolves which phase of `kernel` local round `round` runs — the exact
/// dispatch rule every engine loop uses (shared so composed kernels such as
/// the truncation wrapper forward to their inner kernel identically).
inline std::size_t kernel_phase_index(const StepKernel& kernel,
                                      std::int64_t round,
                                      const std::byte* state) {
  if (kernel.select_fn != nullptr)
    return kernel.select_fn(round, state, kernel.config.get());
  const std::size_t n = kernel.phases.size();
  return n == 1 ? 0
               : static_cast<std::size_t>(round % static_cast<std::int64_t>(n));
}

/// Steps `inner` for ctx's node at ctx.round, with inner's config swapped in
/// for the call: how a composite kernel forwards a round to the kernel it
/// wraps (the caller adjusts round, input or state around the call).
inline void step_inner_kernel(const StepKernel& inner, KernelCtx& ctx) {
  const void* outer = ctx.config;
  ctx.config = inner.config.get();
  inner.phases[kernel_phase_index(inner, ctx.round, ctx.state)].fn(ctx);
  ctx.config = outer;
}

/// Throws std::runtime_error unless `kernel` is runnable: non-null, with
/// at least one phase and no null step or batch function.
inline void check_kernel(const StepKernel* kernel, const std::string& algorithm) {
  if (kernel == nullptr)
    throw std::runtime_error("algorithm '" + algorithm + "' has no kernel");
  if (kernel->phases.empty())
    throw std::runtime_error("kernel '" + kernel->name + "' has no phases");
  for (const KernelPhase& phase : kernel->phases) {
    if (phase.fn == nullptr)
      throw std::runtime_error("kernel '" + kernel->name + "' phase '" +
                                  phase.name + "' has a null step function");
    if (phase.batch == nullptr)
      throw std::runtime_error("kernel '" + kernel->name + "' phase '" +
                                  phase.name + "' has a null batch function");
  }
}

/// An Algorithm that is nothing but a named kernel (the pruning
/// realizations, the distributed checkers, test probes).
class KernelAlgorithm final : public Algorithm {
 public:
  KernelAlgorithm(std::string name, std::shared_ptr<const StepKernel> kernel)
      : name_(std::move(name)), kernel_(std::move(kernel)) {}
  std::string name() const override { return name_; }
  std::shared_ptr<const StepKernel> kernel() const override { return kernel_; }

 private:
  std::string name_;
  std::shared_ptr<const StepKernel> kernel_;
};

}  // namespace unilocal
