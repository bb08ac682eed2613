#include "src/runtime/runner.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "src/graph/csr.h"
#include "src/graph/params.h"
#include "src/runtime/frontier.h"
#include "src/runtime/telemetry.h"
#include "src/runtime/tick_table.h"
#include "src/util/thread_pool.h"

namespace unilocal {

namespace {

/// Per-thread accumulators reduced after each round (keeps results
/// independent of the node-stepping interleave). Sends update the message
/// counters, so each thread's delta gets its own cache line.
struct alignas(64) StepDelta {
  /// Slots first written this round, and the longest write. A resend that
  /// shrinks its slot sets `shrunk`: max_words may then exceed the round's
  /// true maximum, which the network rescans.
  std::int64_t messages = 0;
  std::int64_t max_words = 0;
  bool shrunk = false;
  std::int64_t steps = 0;
  std::int64_t batched_steps = 0;
  std::int64_t batch_calls = 0;
  NodeId newly_finished = 0;
  NodeId cut_off = 0;
  /// Per-phase bucket sizes of this thread's step_range call; filled
  /// only while a traced round is in flight (empty otherwise).
  std::vector<std::int64_t> phase_sizes;
  /// Simultaneous-mode sleep traffic: stepped nodes that asked to sleep,
  /// and sleeping receivers of this round's messages (with repeats).
  std::vector<NodeId> parking;
  std::vector<NodeId> mailed;

  /// Zeroes the counters and empties the lists, keeping their capacity.
  void clear() {
    messages = max_words = steps = batched_steps = batch_calls = 0;
    shrunk = false;
    newly_finished = cut_off = 0;
    phase_sizes.clear();
    parking.clear();
    mailed.clear();
  }
};

/// Publishes one finished run's counters into the installed metrics
/// registry; a single null check when none is installed. Counters sum and
/// gauges take the max under the registry's per-thread-cell merge, so the
/// merged snapshot is identical for any worker-thread placement of runs.
/// engine.slept_steps counts the steps of total_steps the simultaneous and
/// lockstep loops skipped because the node was asleep (see kernel.h's sleep
/// contract), and engine.jumped_rounds the rounds the simultaneous clock
/// jumped over because no node was awake.
void publish_engine_metrics(const EngineStats& stats, std::int64_t rounds,
                            std::int64_t slept_steps,
                            std::int64_t jumped_rounds) {
  telemetry::MetricsRegistry* reg = telemetry::metrics();
  if (reg == nullptr) return;
  reg->add("engine.runs", 1);
  reg->observe("engine.rounds", rounds);
  reg->add("engine.slept_steps", slept_steps);
  reg->add("engine.jumped_rounds", jumped_rounds);
  for_each_engine_stat([&](const EngineStatField& field, auto member) {
    if (field.metric == StatMetric::kNone) return;
    const std::string name = std::string("engine.") + field.report;
    const auto value = static_cast<std::int64_t>(stats.*member);
    if (field.metric == StatMetric::kCounter)
      reg->add(name, value);
    else
      reg->record_max(name, value);
  });
}

}  // namespace

/// All storage the engine needs, owned by EngineWorkspace so consecutive
/// runs (alternation steps, run_sequential stages) reuse capacity.
struct EngineWorkspaceState {
  // Struct-of-arrays node state.
  std::vector<Rng> rngs;
  std::vector<char> finished;
  std::vector<std::int64_t> outputs;
  // Local round of each node (lockstep mode). Every unfinished node of a
  // simultaneous run is at the global round, so that loop keeps its slot
  // for the node's sleep hint instead: the requested wake round while it
  // is asleep or just stepped, 0 otherwise.
  std::vector<std::int64_t> local_round;
  std::vector<std::int64_t> finish_local;
  std::vector<std::int64_t> finish_global;

  // Delivery layers (src/runtime/network.h), owned here so consecutive
  // runs reuse their capacity: the double-buffered round arena (which the
  // lockstep rounds use too) and the delayed mode's latency and fault
  // streams.
  SynchronousNetwork sim_net;
  DelayedNetwork delayed_net;

  // Lockstep timing state: step_time[v] is the time of v's latest local
  // round (DelayedNetwork::kNever once v stalls for good), reach[s] the
  // latest arrival among the pulses carried to receiver slot s (the round
  // arena's slot offset(v) + j for v's port j; kNever once one was
  // abandoned or its sender stalled) on the delayed network, and on the
  // synchronous one, where all of a node's pulses land together, reach[u]
  // the latest arrival of node u's pulses; ticks holds the per-timestamp
  // tallies
  // behind the peak stats (src/runtime/tick_table.h). wake[v] is the
  // sleep-hint latch: the local round v's latest hint asks for (0 = none).
  std::vector<std::int64_t> step_time;
  std::vector<std::int64_t> reach;
  std::vector<std::int64_t> wake;
  TickTable ticks;

  // Compacted list of unfinished awake nodes (simultaneous mode),
  // ascending; the per-round thread chunks partition this list, not the
  // node-id space. Sleeping nodes are flagged in asleep (written only
  // between rounds, so stepping threads may read it) and queued by wake
  // round in sleepers; the nodes a round wakes collect in woken until they
  // are merged back into live through the merged buffer.
  std::vector<NodeId> live;
  std::vector<char> asleep;
  SleeperQueue sleepers;
  std::vector<NodeId> woken, merged;

  // Packed per-node kernel state (stride-aligned records; see
  // src/runtime/kernel.h) and the per-port word arena.
  std::vector<std::byte> kernel_state;
  std::vector<std::int64_t> kernel_port_state;

  // Per-thread scratch: kwords is the reusable int64 scratch handed to
  // kernels as KernelCtx::scratch; bucket_nodes are the simultaneous
  // loop's phase buckets (one per kernel phase, capacity persists). Kernels
  // resize kwords on every step, so each thread's record gets its own cache
  // line.
  struct alignas(64) Scratch {
    std::vector<std::int64_t> kwords;
    std::vector<std::vector<NodeId>> bucket_nodes;
  };
  std::vector<Scratch> scratch;

  std::unique_ptr<ThreadPool> pool;
};

EngineWorkspace::EngineWorkspace()
    : state_(std::make_unique<EngineWorkspaceState>()) {}
EngineWorkspace::~EngineWorkspace() = default;
EngineWorkspace::EngineWorkspace(EngineWorkspace&&) noexcept = default;
EngineWorkspace& EngineWorkspace::operator=(EngineWorkspace&&) noexcept =
    default;

namespace {

class ArenaEngine {
 public:
  ArenaEngine(const Instance& instance, const Algorithm& algorithm,
              const RunOptions& options, EngineWorkspaceState& ws)
      : instance_(instance),
        csr_(instance.csr()),
        options_(options),
        ws_(ws),
        n_(instance.graph.num_nodes()) {
    validate_network_options(options.network);
    if (!options.wake_rounds.empty() &&
        options.wake_rounds.size() != static_cast<std::size_t>(n_))
      throw std::invalid_argument(
          "RunOptions::wake_rounds has " +
          std::to_string(options.wake_rounds.size()) + " entries for " +
          std::to_string(n_) + " nodes (expected 0 or " +
          std::to_string(n_) + ")");
    delayed_mode_ = options.network.kind == NetworkKind::kDelayed;
    lockstep_ = delayed_mode_ || !options.wake_rounds.empty();
    // The lockstep loop is sequential; only the simultaneous mode fans the
    // live list out over threads.
    threads_ = lockstep_ ? 1 : std::max(1, options.engine_threads);
    threads_ = std::min(threads_, 1 << 14);  // owner tag fits pack_offset
    if (threads_ > 1) {
      if (!ws_.pool || ws_.pool->threads() != threads_)
        ws_.pool = std::make_unique<ThreadPool>(threads_);
    }

    // Ambient per-thread trace binding: read once per run; when none is
    // bound the only per-round cost is the trace_ null test.
    trace_ = telemetry::trace_binding();
    if (trace_ != nullptr && trace_->recorder == nullptr) trace_ = nullptr;

    kernel_ = algorithm.kernel();
    check_kernel(kernel_.get(), algorithm.name());

    const std::size_t nn = static_cast<std::size_t>(n_);
    ws_.rngs.assign(nn, Rng(0));
    ws_.finished.assign(nn, 0);
    ws_.outputs.assign(nn, 0);
    ws_.local_round.assign(nn, 0);
    ws_.finish_local.assign(nn, -1);
    ws_.finish_global.assign(nn, -1);

    Rng base(options.seed);
    for (NodeId v = 0; v < n_; ++v)
      ws_.rngs[static_cast<std::size_t>(v)] = base.split(
          static_cast<std::uint64_t>(
              instance.identities[static_cast<std::size_t>(v)]));

    // Pack every node's POD state record into one zero-filled arena
    // (stride = state_size rounded up to state_align, base aligned by hand
    // so vector reuse never mis-aligns records).
    const std::size_t align = std::max<std::size_t>(kernel_->state_align, 1);
    kstride_ = (static_cast<std::size_t>(kernel_->state_size) + align - 1) /
               align * align;
    ws_.kernel_state.assign(nn * kstride_ + align, std::byte{0});
    const auto addr = reinterpret_cast<std::uintptr_t>(ws_.kernel_state.data());
    kstate_base_ = ws_.kernel_state.data() +
                   static_cast<std::size_t>((align - addr % align) % align);
    kport_words_ = kernel_->port_state_words;
    ws_.kernel_port_state.assign(
        kport_words_ * static_cast<std::size_t>(csr_.num_directed_edges()), 0);
    if (kernel_->init_fn != nullptr) {
      for (NodeId v = 0; v < n_; ++v) {
        NodeInit init;
        init.degree = csr_.degree(v);
        init.identity = instance.identities[static_cast<std::size_t>(v)];
        init.input = instance.inputs[static_cast<std::size_t>(v)];
        kernel_->init_fn(kstate_base_ + static_cast<std::size_t>(v) * kstride_,
                         init, kernel_->config.get());
      }
    }

    ws_.scratch.resize(static_cast<std::size_t>(threads_));
    deltas_.assign(static_cast<std::size_t>(threads_), StepDelta{});
  }

  RunResult run() { return lockstep_ ? run_lockstep() : run_simultaneous(); }

 private:
  RunResult run_simultaneous() {
    const auto start = std::chrono::steady_clock::now();
    begin_trace_run();
    const std::size_t slots = static_cast<std::size_t>(
        csr_.num_directed_edges());
    SynchronousNetwork& net = ws_.sim_net;
    net.begin_run(csr_, threads_);

    ws_.live.resize(static_cast<std::size_t>(n_));
    std::iota(ws_.live.begin(), ws_.live.end(), NodeId{0});
    ws_.asleep.assign(static_cast<std::size_t>(n_), 0);
    ws_.sleepers.clear();
    ws_.woken.clear();
    wake_at_ = ws_.local_round.data();

    NodeId live = n_;  // unfinished nodes, awake or asleep
    peak_live_ = n_;
    std::int64_t prev_round_messages =
        static_cast<std::int64_t>(slots);  // round 0 assumes a dense start
    std::int64_t round = 0;
    for (; live > 0 && round < options_.max_rounds; ++round) {
      const bool traced = begin_trace_round();
      const std::int64_t trace_t0 =
          traced ? trace_->recorder->now() : 0;
      net.begin_round(prev_round_messages);
      peak_frontier_ = std::max<std::int64_t>(peak_frontier_, live);
      std::int64_t round_messages = 0;
      std::int64_t round_steps = 0;
      const std::size_t live_n = ws_.live.size();
      const std::int64_t round_asleep = live - static_cast<NodeId>(live_n);
      if (threads_ == 1) {
        step_range(0, 0, live_n, round, traced);
      } else {
        // Rebalance every round: chunk the compacted live list, not the
        // node-id space, so workers stay busy as the frontier shrinks.
        const std::size_t chunk =
            (live_n + static_cast<std::size_t>(threads_) - 1) /
            static_cast<std::size_t>(threads_);
        ws_.pool->run(threads_, [&](int t) {
          const std::size_t lo =
              std::min(live_n, static_cast<std::size_t>(t) * chunk);
          const std::size_t hi = std::min(live_n, lo + chunk);
          step_range(t, lo, hi, round, traced);
        });
      }
      // Sleepers count as stepped: total_steps stays the logical count.
      total_steps_ += live;
      slept_steps_ += round_asleep;
      const NodeId live_before = live;
      std::int64_t round_max_words = 0;
      bool shrunk = false;
      for (auto& delta : deltas_) {
        live -= delta.newly_finished;
        messages_sent_ += delta.messages;
        round_messages += delta.messages;
        round_max_words = std::max(round_max_words, delta.max_words);
        shrunk = shrunk || delta.shrunk;
        round_steps += delta.steps;
        batched_steps_ += delta.batched_steps;
        batch_calls_ += delta.batch_calls;
        cut_off_ += delta.cut_off;
        if (traced && !delta.phase_sizes.empty()) {
          if (trace_phases_.size() < delta.phase_sizes.size())
            trace_phases_.resize(delta.phase_sizes.size(), 0);
          for (std::size_t p = 0; p < delta.phase_sizes.size(); ++p)
            trace_phases_[p] += delta.phase_sizes[p];
        }
      }
      if (shrunk) round_max_words = net.send_max_words();
      max_message_words_ = std::max(max_message_words_, round_max_words);
      peak_round_messages_ =
          std::max(peak_round_messages_, round_messages);
      prev_round_messages = round_messages;
      const bool parked = settle_sleepers(round);
      for (auto& delta : deltas_) delta.clear();
      net.end_round();
      if (parked || live < live_before) {
        std::erase_if(ws_.live, [this](NodeId v) {
          const std::size_t vi = static_cast<std::size_t>(v);
          return ws_.finished[vi] != 0 || ws_.asleep[vi] != 0;
        });
      }
      readmit_woken();
      const std::int64_t jumped =
          ws_.live.empty() && live > 0 && round_messages == 0
              ? jump_to_next_wake(round, live)
              : 0;
      if (traced) {
        telemetry::TraceEvent event = make_round_event(trace_t0);
        event.arg("round", round);
        event.arg("frontier", static_cast<std::int64_t>(live_n));
        event.arg("asleep", round_asleep);
        event.arg("messages", round_messages);
        event.arg("steps", round_steps);
        if (jumped > 0) event.arg("jumped", jumped);
        attach_phase_sizes(event);
        trace_->recorder->record(std::move(event));
      }
      if (live == 0) {
        ++round;
        break;
      }
      round += jumped;
    }
    net.end_run();
    dirty_cleared_ = net.dirty_cleared();
    final_live_ = live;
    RunResult result = finalize(live, round, round);
    fill_stats(result, start);
    return result;
  }

  /// The lockstep loop: the delayed network, and staggered wake rounds on
  /// the synchronous one (the alpha synchronizer with every latency 1).
  /// Under the alpha synchronizer a node performs local round r once every
  /// in-edge has delivered its sender's pulses of rounds < r (or all of
  /// them, when the sender finished first). Each pulse's arrival is fixed
  /// when it is sent, and each edge's stream is consumed in its sender's
  /// round order, so step times follow
  ///   t(v,0) = max(wake(v), 0) + late-joiner delay,
  ///   t(v,r) = max(t(v,r-1) + gap, max over in-edges e of R_e(r-1)),
  /// where R_e(k) is the latest arrival among the sender's pulses of rounds
  /// <= min(k, its final round) — infinite when one of those pulses was
  /// abandoned, or when the sender is unfinished and never performs round k
  /// (crashed or stalled). A node whose time is infinite stalls for good.
  /// The gap is 0 on the delayed network and 1 on the synchronous one,
  /// where a node's own rounds are one tick apart, every pulse lands at
  /// the next tick and nothing is drawn (no latency, fault, crash or late
  /// joiner). Every node therefore sees the synchronous run's messages in
  /// each local round it performs (the paper's Observation 2.1), so
  /// payloads move through the round-exact arena; each round first
  /// computes every t(v,r) from round r-1's arrivals, then steps the nodes
  /// whose time is finite and sends their pulses. A node whose latched
  /// sleep hint asks for a later round and whose receive half holds no
  /// mail skips its kernel step, which the sleep contract makes a no-op;
  /// it still counts as stepped, advances its local round and pulses every
  /// out-edge, so the timestamps, faults and stats are those of the full
  /// run.
  ///
  /// The stats read as the timeline of a discrete-event run that delivers
  /// before stepping at equal times: peak_frontier_nodes is the most steps
  /// sharing one timestamp; peak_round_messages (payload pulses) and
  /// max_delivery_skew count the pulses, duplicates included, arriving by
  /// the end. A delayed run ends right after the last finishing step, at
  /// T_end, and global_rounds is T_end, or the latest step or arrival of a
  /// stalled run (which counts every pulse). A synchronous run ends at
  /// T_end + 1, the tick its last pulses land, and global_rounds is that
  /// tick.
  ///
  /// Bookkeeping: on the delayed network reach is keyed by receiver slot,
  /// like the round arena, so a node's time reads its in-edges
  /// contiguously at offset(v); a sender files each pulse at
  /// in_edge_index(v, j), where its payload test also looks, while the
  /// pulse draws stay keyed by the sender's edge. On the synchronous
  /// network every pulse of a step lands at now + 1, so reach keeps one
  /// entry per sender and a node reads it through its neighbour list. The
  /// per-tick tallies are a TickTable (src/runtime/tick_table.h): one
  /// open-addressing array swept at 3/4 full, which folds a silent pulse's
  /// skew at once when a step at or after its arrival is already tallied.
  RunResult run_lockstep() {
    constexpr std::int64_t kNever = DelayedNetwork::kNever;
    const auto start = std::chrono::steady_clock::now();
    begin_trace_run();
    const std::int64_t gap = delayed_mode_ ? 0 : 1;
    DelayedNetwork& net = ws_.delayed_net;
    if (delayed_mode_) net.begin_run(csr_, options_.seed, options_.network);
    const std::size_t slots = static_cast<std::size_t>(
        csr_.num_directed_edges());
    SynchronousNetwork& arena = ws_.sim_net;
    arena.begin_run(csr_, 1);
    StepDelta& delta = deltas_[0];
    auto& time = ws_.step_time;
    auto& reach = ws_.reach;
    time.assign(static_cast<std::size_t>(n_), kNever);
    reach.assign(delayed_mode_ ? slots : static_cast<std::size_t>(n_),
                 std::numeric_limits<std::int64_t>::min());
    auto& wake = ws_.wake;
    wake.assign(static_cast<std::size_t>(n_), 0);
    wake_at_ = wake.data();
    ws_.ticks.reset();
    const auto stall = [&](NodeId v) {
      assert(delayed_mode_);  // unit latency never stalls a node
      for (NodeId j = 0; j < csr_.degree(v); ++j)
        reach[static_cast<std::size_t>(csr_.in_edge_index(v, j))] = kNever;
    };

    // Crashed nodes never step; they stay live and are finalized as cut
    // off, like any node that stalls.
    const std::vector<std::int64_t>& wake_rounds = options_.wake_rounds;
    auto& active = ws_.live;
    active.clear();
    NodeId stalled = 0;
    for (NodeId v = 0; v < n_; ++v) {
      const std::size_t vi = static_cast<std::size_t>(v);
      std::int64_t& t = time[vi];
      t = wake_rounds.empty() ? 0 : std::max<std::int64_t>(wake_rounds[vi], 0);
      if (delayed_mode_) {
        if (net.crashed(v)) {
          t = kNever;
          stall(v);
          ++stalled;
          continue;
        }
        t += net.wake_delay(v);
      }
      active.push_back(v);
    }

    NodeId live = n_;
    peak_live_ = n_;
    std::int64_t last_step = 0, last_arrival = 0;
    std::int64_t prev_round_messages = static_cast<std::int64_t>(slots);
    for (std::int64_t r = 0; !active.empty(); ++r) {
      const bool traced = begin_trace_round();
      const std::int64_t trace_t0 = traced ? trace_->recorder->now() : 0;
      if (r > 0) {
        for (const NodeId v : active) {
          std::int64_t& t = time[static_cast<std::size_t>(v)];
          t += gap;
          if (delayed_mode_) {
            const std::int64_t* in = reach.data() + csr_.offset(v);
            for (NodeId j = 0; j < csr_.degree(v); ++j) t = std::max(t, in[j]);
          } else {
            for (const NodeId u : csr_.neighbors(v))
              t = std::max(t, reach[static_cast<std::size_t>(u)]);
          }
        }
        // Only now, with every round-r time read off round r-1's arrivals,
        // may a newly stalled node's edges turn infinite.
        for (const NodeId v : active) {
          if (time[static_cast<std::size_t>(v)] != kNever) continue;
          stall(v);
          ++stalled;
        }
      }
      arena.begin_round(prev_round_messages);
      std::int64_t stepped = 0, asleep = 0;
      for (const NodeId v : active) {
        const std::size_t vi = static_cast<std::size_t>(v);
        const std::int64_t now = time[vi];
        if (now == kNever) continue;
        const std::int64_t sent_before = delta.messages;
        const bool slept = wake[vi] > r && !arena.received_any(v);
        if (slept) {
          ++asleep;
        } else {
          wake[vi] = 0;
          step_one(0, v, r);
          // Clamped like the simultaneous loop's latch, so a sleeper wakes
          // for the cut-off round.
          if (wake[vi] != 0)
            wake[vi] = std::min(wake[vi], options_.max_rounds - 1);
        }
        ++stepped;
        ws_.ticks.add_step(now);
        last_step = std::max(last_step, now);
        ++ws_.local_round[vi];
        if (ws_.finished[vi]) {
          ws_.finish_local[vi] = r;
          ws_.finish_global[vi] = now;
          --live;
        } else if (ws_.local_round[vi] >= options_.max_rounds) {
          ws_.finished[vi] = 1;
          ws_.outputs[vi] = options_.default_output;
          ++cut_off_;
          ws_.finish_local[vi] = options_.max_rounds;
          ws_.finish_global[vi] = now;
          --live;
        }
        if (!delayed_mode_) {
          // Every pulse lands at now + 1, the messages among them at once.
          reach[vi] = now + 1;
          ws_.ticks.add_arrival(now + 1, 0, delta.messages - sent_before);
          continue;
        }
        const std::int64_t base = csr_.offset(v);
        for (NodeId j = 0; j < csr_.degree(v); ++j) {
          // The draws stay keyed by the sender's edge, reach by the
          // receiver's slot; a node that slept sent nothing.
          const std::int64_t slot = csr_.in_edge_index(v, j);
          const bool payload = !slept && arena.sent_at(slot);
          const DelayedNetwork::Pulse pulse = net.draw_pulse(base + j, now);
          std::int64_t& latest = reach[static_cast<std::size_t>(slot)];
          latest = std::max(latest, pulse.arrival);
          if (pulse.arrival == kNever) continue;
          ws_.ticks.add_arrival(pulse.arrival, pulse.arrival - now - 1,
                                payload);
          last_arrival = std::max(last_arrival, pulse.arrival);
          if (pulse.duplicate == kNever) continue;
          ws_.ticks.add_arrival(pulse.duplicate, pulse.duplicate - now - 1,
                                payload);
          last_arrival = std::max(last_arrival, pulse.duplicate);
        }
      }
      const std::int64_t round_messages = delta.messages;
      max_message_words_ = std::max(
          max_message_words_,
          delta.shrunk ? arena.send_max_words() : delta.max_words);
      delta.clear();
      arena.end_round();
      total_steps_ += stepped;
      slept_steps_ += asleep;
      messages_sent_ += round_messages;
      prev_round_messages = round_messages;
      std::erase_if(active, [&](NodeId v) {
        const std::size_t vi = static_cast<std::size_t>(v);
        return ws_.finished[vi] != 0 || time[vi] == kNever;
      });
      std::int64_t floor = kNever;
      for (const NodeId v : active)
        floor = std::min(floor, time[static_cast<std::size_t>(v)]);
      ws_.ticks.set_floor(floor);
      if (traced) {
        // As in the simultaneous span, frontier and steps count the kernel
        // steps run, and asleep the stepped sleepers that skipped theirs.
        telemetry::TraceEvent event = make_round_event(trace_t0);
        event.arg("round", r);
        event.arg("frontier", stepped - asleep);
        event.arg("asleep", asleep);
        event.arg("stalled", static_cast<std::int64_t>(stalled));
        event.arg("messages", round_messages);
        event.arg("steps", stepped - asleep);
        trace_->recorder->record(std::move(event));
      }
    }
    arena.end_run();
    std::int64_t global = 0, last = 0;
    if (!delayed_mode_) {
      global = last = n_ > 0 ? last_step + 1 : 0;
    } else if (live == 0) {
      global = last = last_step;
    } else {
      global = std::max(last_step, last_arrival);
      last = kNever;
    }
    ws_.ticks.finish(last);
    peak_frontier_ = ws_.ticks.peak_steps();
    peak_round_messages_ = ws_.ticks.peak_payload();
    final_live_ = live;
    std::int64_t max_local = 0;
    for (NodeId v = 0; v < n_; ++v)
      max_local =
          std::max(max_local, ws_.local_round[static_cast<std::size_t>(v)]);
    RunResult result = finalize(live, max_local, global);
    fill_stats(result, start);
    return result;
  }

  /// Round-arena sends are accounted as they happen, one call per port
  /// range: a slot's first write counts the message and notes a sleeping
  /// receiver; a resend overwrites it (last write wins) and only flags a
  /// shrink, which the round's max-words reduction then resolves by
  /// rescanning the send half.
  void do_send(int tid, NodeId node, NodeId first, NodeId last,
               const std::int64_t* data, std::size_t words) {
    StepDelta& delta = deltas_[static_cast<std::size_t>(tid)];
    const auto len = static_cast<std::int64_t>(words);
    // asleep only changes between rounds, so it is safe to read here.
    const bool any_asleep = asleep_ > 0;
    const char* asleep = ws_.asleep.data();
    std::int64_t messages = 0;
    bool shrunk = false;
    ws_.sim_net.send(tid, node, first, last, data, words,
                     [&](NodeId receiver, std::int64_t prev) {
                       if (prev < 0) {
                         ++messages;
                         if (any_asleep &&
                             asleep[static_cast<std::size_t>(receiver)])
                           delta.mailed.push_back(receiver);
                       } else if (len < prev) {
                         shrunk = true;
                       }
                     });
    delta.messages += messages;
    delta.shrunk = delta.shrunk || shrunk;
    delta.max_words = std::max(delta.max_words, len);
  }

  // The transport installed into every KernelCtx: the zero-copy arena
  // lookup and do_send.
  static std::span<const std::int64_t> kernel_recv(void* engine, int tid,
                                                   NodeId node, NodeId port,
                                                   bool* present) {
    (void)tid;
    return static_cast<ArenaEngine*>(engine)->ws_.sim_net.recv(node, port,
                                                               present);
  }
  static void kernel_send(void* engine, int tid, NodeId node, NodeId first,
                          NodeId last, const std::int64_t* data,
                          std::size_t words) {
    static_cast<ArenaEngine*>(engine)->do_send(tid, node, first, last, data,
                                               words);
  }

  /// One local round of node v through its scalar phase body (the lockstep
  /// loop's step).
  void step_one(int tid, NodeId v, std::int64_t round) {
    const std::size_t vi = static_cast<std::size_t>(v);
    KernelCtx ctx;
    ctx.node = v;
    ctx.degree = csr_.degree(v);
    ctx.identity = instance_.identities[vi];
    ctx.round = round;
    ctx.input = instance_.inputs[vi];
    ctx.rng = &ws_.rngs[vi];
    ctx.state = kstate_base_ + vi * kstride_;
    ctx.port_state =
        kport_words_ == 0
            ? nullptr
            : ws_.kernel_port_state.data() +
                  static_cast<std::size_t>(csr_.offset(v)) * kport_words_;
    ctx.config = kernel_->config.get();
    ctx.scratch = &ws_.scratch[static_cast<std::size_t>(tid)].kwords;
    ctx.engine = this;
    ctx.tid = tid;
    ctx.recv_fn = &ArenaEngine::kernel_recv;
    ctx.send_fn = &ArenaEngine::kernel_send;
    kernel_->phases[kernel_phase_index(*kernel_, round, ctx.state)].fn(ctx);
    if (ctx.finished) {
      ws_.finished[vi] = 1;
      ws_.outputs[vi] = ctx.output;
    }
    if (ctx.wake_round != 0) wake_at_[vi] = ctx.wake_round;
  }

  /// The batched bucket view over the engine arrays (KernelBatchCtx must
  /// mirror exactly what step_one puts into a scalar KernelCtx).
  KernelBatchCtx make_batch_ctx(int tid, const NodeId* nodes,
                                std::size_t count, std::int64_t round) {
    KernelBatchCtx b;
    b.nodes = nodes;
    b.count = count;
    b.round = round;
    b.state_base = kstate_base_;
    b.stride = kstride_;
    b.port_state_base =
        kport_words_ == 0 ? nullptr : ws_.kernel_port_state.data();
    b.port_words = static_cast<std::int64_t>(kport_words_);
    b.csr_offsets = csr_.offsets_data();
    b.identities = instance_.identities.data();
    b.inputs = instance_.inputs.data();
    b.rngs = ws_.rngs.data();
    b.finished = ws_.finished.data();
    b.outputs = ws_.outputs.data();
    b.wake_rounds = wake_at_;
    b.scratch = &ws_.scratch[static_cast<std::size_t>(tid)].kwords;
    b.config = kernel_->config.get();
    b.engine = this;
    b.tid = tid;
    b.recv_fn = &ArenaEngine::kernel_recv;
    b.send_fn = &ArenaEngine::kernel_send;
    return b;
  }

  /// Steps the live-list slice [lo, hi) phase-bucketed: bucket its nodes by
  /// resolved kernel_phase_index (one pass over the strided state arena),
  /// run each bucket through its phase's KernelBatchFn, then do each node's
  /// round bookkeeping; a traced round also records the bucket sizes. Every
  /// listed node is unfinished and awake at round start (the list is
  /// compacted after each round). Bucketing reorders
  /// node steps, which is observation-equivalent: every node owns its RNG
  /// stream, its state record, and its per-edge send slots, and no node of
  /// one round reads what another sent in the same round (it is delivered
  /// next round).
  void step_range(int tid, std::size_t lo, std::size_t hi,
                  std::int64_t round, bool traced) {
    StepDelta& delta = deltas_[static_cast<std::size_t>(tid)];
    auto& scratch = ws_.scratch[static_cast<std::size_t>(tid)];
    const std::size_t nphases = kernel_->phases.size();
    scratch.bucket_nodes.resize(nphases);
    for (auto& bucket : scratch.bucket_nodes) bucket.clear();
    for (std::size_t i = lo; i < hi; ++i) {
      const NodeId v = ws_.live[i];
      const std::size_t p = kernel_phase_index(
          *kernel_, round,
          kstate_base_ + static_cast<std::size_t>(v) * kstride_);
      scratch.bucket_nodes[p].push_back(v);
    }
    if (traced) {
      delta.phase_sizes.assign(nphases, 0);
      for (std::size_t p = 0; p < nphases; ++p)
        delta.phase_sizes[p] =
            static_cast<std::int64_t>(scratch.bucket_nodes[p].size());
    }
    for (std::size_t p = 0; p < nphases; ++p) {
      const auto& bucket = scratch.bucket_nodes[p];
      if (bucket.empty()) continue;
      kernel_->phases[p].batch(
          make_batch_ctx(tid, bucket.data(), bucket.size(), round));
      delta.batched_steps += static_cast<std::int64_t>(bucket.size());
      ++delta.batch_calls;
    }
    for (std::size_t i = lo; i < hi; ++i) {
      const NodeId v = ws_.live[i];
      const std::size_t vi = static_cast<std::size_t>(v);
      ++delta.steps;
      std::int64_t wake = 0;
      if (wake_at_[vi] != 0) {
        wake = std::min(wake_at_[vi], options_.max_rounds - 1);
        wake_at_[vi] = 0;
      }
      if (ws_.finished[vi]) {
        ws_.finish_local[vi] = round;
        ws_.finish_global[vi] = round;
        ++delta.newly_finished;
      } else if (round + 1 >= options_.max_rounds) {
        ws_.finished[vi] = 1;
        ws_.outputs[vi] = options_.default_output;
        ++delta.cut_off;
        ws_.finish_local[vi] = options_.max_rounds;
        ws_.finish_global[vi] = round;
        ++delta.newly_finished;
      } else if (wake > round + 1) {
        wake_at_[vi] = wake;
        delta.parking.push_back(v);
      }
    }
  }

  /// Accepts the sleeper-queue entries (r, v) that still stand: v is
  /// asleep and its latest request is round r.
  auto current_sleeper() const {
    return [this](std::int64_t r, NodeId v) {
      const std::size_t vi = static_cast<std::size_t>(v);
      return ws_.asleep[vi] != 0 && wake_at_[vi] == r;
    };
  }

  /// Runs between rounds, while the send half still holds this round's
  /// mail. Parks the stepped nodes that asked to sleep, except those with
  /// mail sent this round (a sleeping receiver is caught by its sender,
  /// but these were awake when the mail went out). Then wakes, into
  /// ws_.woken, every sleeper that got mail or whose wake round is
  /// next. Returns whether any node parked.
  bool settle_sleepers(std::int64_t round) {
    bool parked = false;
    for (const StepDelta& delta : deltas_) {
      for (const NodeId v : delta.parking) {
        const std::size_t vi = static_cast<std::size_t>(v);
        if (ws_.sim_net.has_mail(v)) {
          wake_at_[vi] = 0;
          continue;
        }
        ws_.asleep[vi] = 1;
        ++asleep_;
        ws_.sleepers.push(wake_at_[vi], v);
        parked = true;
      }
    }
    for (const StepDelta& delta : deltas_)
      for (const NodeId u : delta.mailed) wake(u);
    const auto current = current_sleeper();
    ws_.sleepers.pop_due(round + 1, current, [this](NodeId v) { wake(v); });
    if (ws_.sleepers.size() > 2 * static_cast<std::size_t>(asleep_) + 1024)
      ws_.sleepers.prune(current);
    return parked;
  }

  /// Runs after a round that sent nothing and left all `live` unfinished
  /// nodes asleep. Every round until the earliest timed wake w would step
  /// no one and send nothing, and one silent round already leaves both
  /// network halves as those rounds would: the older half is reset at the
  /// next begin_round under the strategy it was written with, whatever
  /// round that is, and the bulk choice sees 0 messages either way. So the
  /// clock skips them: their sleepers count as slept steps, the nodes due
  /// at w wake, and the caller resumes at round w. Returns the number of
  /// rounds skipped (w - round - 1).
  std::int64_t jump_to_next_wake(std::int64_t round, NodeId live) {
    const auto current = current_sleeper();
    const std::optional<std::int64_t> due = ws_.sleepers.next_due(current);
    if (!due) return 0;
    const std::int64_t skipped = *due - round - 1;
    assert(skipped > 0);  // settle_sleepers already woke round + 1
    total_steps_ += static_cast<std::int64_t>(live) * skipped;
    slept_steps_ += static_cast<std::int64_t>(live) * skipped;
    jumped_rounds_ += skipped;
    ws_.sleepers.pop_due(*due, current, [this](NodeId v) { wake(v); });
    readmit_woken();
    return skipped;
  }

  void wake(NodeId v) {
    const std::size_t vi = static_cast<std::size_t>(v);
    if (ws_.asleep[vi] == 0) return;
    ws_.asleep[vi] = 0;
    wake_at_[vi] = 0;
    --asleep_;
    ws_.woken.push_back(v);
  }

  /// Merges the nodes settle_sleepers woke back into the ascending live
  /// list.
  void readmit_woken() {
    auto& woken = ws_.woken;
    if (woken.empty()) return;
    std::sort(woken.begin(), woken.end());
    auto& merged = ws_.merged;
    merged.resize(ws_.live.size() + woken.size());
    std::merge(ws_.live.begin(), ws_.live.end(), woken.begin(), woken.end(),
               merged.begin());
    std::swap(ws_.live, merged);
    woken.clear();
  }

  RunResult finalize(NodeId live, std::int64_t max_local,
                     std::int64_t global) {
    RunResult result;
    result.outputs.resize(static_cast<std::size_t>(n_));
    result.finish_rounds.resize(static_cast<std::size_t>(n_));
    result.global_finish_rounds.resize(static_cast<std::size_t>(n_));
    std::int64_t max_finish = -1;
    for (NodeId v = 0; v < n_; ++v) {
      const std::size_t i = static_cast<std::size_t>(v);
      result.outputs[i] =
          ws_.finished[i] ? ws_.outputs[i] : options_.default_output;
      result.finish_rounds[i] =
          ws_.finish_local[i] >= 0 ? ws_.finish_local[i] : options_.max_rounds;
      result.global_finish_rounds[i] =
          ws_.finish_global[i] >= 0 ? ws_.finish_global[i] : global;
      max_finish = std::max(max_finish, result.finish_rounds[i]);
    }
    result.all_finished = (live == 0 && cut_off_ == 0);
    result.rounds_used = n_ == 0 ? 0 : std::min(max_finish + 1, max_local);
    result.global_rounds = global;
    result.messages_sent = messages_sent_;
    result.max_message_words = max_message_words_;
    return result;
  }

  /// Trace helpers. begin_trace_run stamps the run's start on the recorder
  /// clock; begin_trace_round applies the per-run head-sampling cap and
  /// clears the round's per-phase bucket sizes.
  void begin_trace_run() {
    if (trace_ == nullptr) return;
    trace_run_t0_ = trace_->recorder->now();
  }

  bool begin_trace_round() {
    const bool traced =
        trace_ != nullptr && trace_rounds_recorded_ < trace_->trace_rounds;
    if (traced) {
      ++trace_rounds_recorded_;
      trace_phases_.clear();
    }
    return traced;
  }

  telemetry::TraceEvent make_round_event(std::int64_t t0) {
    telemetry::TraceEvent event;
    event.name = "round";
    event.ts = t0;
    event.dur = trace_->recorder->now() - t0;
    event.pid = trace_->pid;
    event.tid = trace_->tid;
    return event;
  }

  void attach_phase_sizes(telemetry::TraceEvent& event) {
    if (trace_phases_.empty()) return;
    json::Value sizes = json::Value::array();
    for (const std::int64_t s : trace_phases_)
      sizes.push_back(json::Value::number(s));
    event.args.set("phases", std::move(sizes));
  }

  void fill_stats(RunResult& result,
                  std::chrono::steady_clock::time_point start) {
    auto& stats = result.stats;
    stats.total_steps = total_steps_;
    stats.kernel_batched_steps = batched_steps_;
    stats.kernel_batch_calls = batch_calls_;
    stats.peak_round_messages = peak_round_messages_;
    stats.total_messages = messages_sent_;
    stats.peak_live_nodes = peak_live_;
    stats.final_live_nodes = final_live_;
    stats.peak_frontier_nodes = peak_frontier_;
    stats.dirty_spans_cleared = dirty_cleared_;
    stats.threads = threads_;
    std::int64_t bytes = ws_.sim_net.arena_bytes();
    if (delayed_mode_) {
      // Only a delayed run draws; the network keeps its counters until the
      // next delayed run begins.
      const DelayedNetwork& net = ws_.delayed_net;
      stats.messages_dropped = net.dropped();
      stats.messages_duplicated = net.duplicated();
      bytes += net.arena_bytes();
    }
    if (lockstep_) {
      stats.max_delivery_skew = ws_.ticks.max_skew();
      bytes += ws_.ticks.bytes();
      bytes += static_cast<std::int64_t>(
          (ws_.step_time.capacity() + ws_.reach.capacity() +
           ws_.wake.capacity()) *
          8);
    }
    bytes += static_cast<std::int64_t>(ws_.kernel_state.capacity());
    bytes += static_cast<std::int64_t>(ws_.kernel_port_state.capacity()) * 8;
    stats.arena_bytes = bytes;
    stats.elapsed_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    stats.steps_per_second =
        stats.elapsed_seconds > 0.0
            ? static_cast<double>(total_steps_) / stats.elapsed_seconds
            : 0.0;
    if (trace_ != nullptr) {
      telemetry::TraceEvent event;
      event.name = "engine.run";
      event.ts = trace_run_t0_;
      event.dur = trace_->recorder->now() - trace_run_t0_;
      event.pid = trace_->pid;
      event.tid = trace_->tid;
      event.arg("mode", delayed_mode_ ? "delayed"
                        : lockstep_   ? "synchronized"
                                      : "simultaneous");
      event.arg("n", static_cast<std::int64_t>(n_));
      event.arg("rounds", result.rounds_used);
      event.arg("global_rounds", result.global_rounds);
      event.arg("messages", result.messages_sent);
      event.arg("steps", stats.total_steps);
      trace_->recorder->record(std::move(event));
    }
    publish_engine_metrics(stats, result.rounds_used, slept_steps_,
                           jumped_rounds_);
  }

  const Instance& instance_;
  const CsrGraph& csr_;
  const RunOptions& options_;
  EngineWorkspaceState& ws_;
  const NodeId n_;
  int threads_ = 1;
  // The algorithm's kernel and its packed-state geometry.
  std::shared_ptr<const StepKernel> kernel_;
  std::byte* kstate_base_ = nullptr;
  std::size_t kstride_ = 0;
  std::size_t kport_words_ = 0;
  // Simultaneous steps run through batch fns and the batch calls carrying
  // them (the lockstep loop steps scalar and counts neither).
  std::int64_t batched_steps_ = 0;
  std::int64_t batch_calls_ = 0;
  // The delayed network, and the lockstep loop (the delayed network, or
  // staggered wake rounds on the synchronous one).
  bool delayed_mode_ = false;
  bool lockstep_ = false;
  // The sleep-hint latch (ws_.local_round's storage in simultaneous runs,
  // ws_.wake in lockstep ones), the sleeping-node count (simultaneous), the
  // steps skipped because their node was asleep, and the rounds the
  // simultaneous clock jumped over because every node was.
  std::int64_t* wake_at_ = nullptr;
  NodeId asleep_ = 0;
  std::int64_t slept_steps_ = 0;
  std::int64_t jumped_rounds_ = 0;
  // Ambient trace binding (null = untraced run) and per-run trace state.
  const telemetry::TraceBinding* trace_ = nullptr;
  std::int64_t trace_run_t0_ = 0;
  std::int64_t trace_rounds_recorded_ = 0;
  std::vector<std::int64_t> trace_phases_;
  std::vector<StepDelta> deltas_;
  std::int64_t messages_sent_ = 0;
  std::int64_t max_message_words_ = 0;
  std::int64_t peak_round_messages_ = 0;
  std::int64_t total_steps_ = 0;
  std::int64_t peak_live_ = 0;
  std::int64_t final_live_ = 0;
  std::int64_t peak_frontier_ = 0;
  std::int64_t dirty_cleared_ = 0;
  NodeId cut_off_ = 0;
};

}  // namespace

RunResult run_local(const Instance& instance, const Algorithm& algorithm,
                    const RunOptions& options) {
  std::optional<EngineWorkspace> local;
  EngineWorkspace* workspace =
      options.workspace != nullptr ? options.workspace : &local.emplace();
  ArenaEngine engine(instance, algorithm, options, workspace->state());
  return engine.run();
}

std::vector<RunResult> run_sequential(
    const Instance& instance, const std::vector<const Algorithm*>& algorithms,
    const RunOptions& options) {
  std::vector<RunResult> results;
  Instance current = instance;
  std::vector<std::int64_t> wake =
      options.wake_rounds.empty()
          ? std::vector<std::int64_t>(
                static_cast<std::size_t>(instance.num_nodes()), 0)
          : options.wake_rounds;
  std::uint64_t seed = options.seed;
  std::optional<EngineWorkspace> local;  // one arena across all stages
  RunOptions stage_options = options;
  if (stage_options.workspace == nullptr)
    stage_options.workspace = &local.emplace();
  for (const Algorithm* algorithm : algorithms) {
    stage_options.wake_rounds = wake;
    stage_options.seed = seed++;
    RunResult result = run_local(current, *algorithm, stage_options);
    // The next stage starts at each node in the global round right after
    // this one finished there, taking this stage's output as an extra input
    // word (Observation 2.1 composition).
    for (NodeId v = 0; v < current.num_nodes(); ++v) {
      current.inputs[static_cast<std::size_t>(v)].push_back(
          result.outputs[static_cast<std::size_t>(v)]);
      wake[static_cast<std::size_t>(v)] =
          result.global_finish_rounds[static_cast<std::size_t>(v)] + 1;
    }
    results.push_back(std::move(result));
  }
  return results;
}

std::vector<std::int64_t> termination_times(
    const Graph& graph, const std::vector<std::int64_t>& wake_rounds,
    const std::vector<std::int64_t>& global_finish_rounds) {
  const NodeId n = graph.num_nodes();
  std::vector<std::int64_t> result(static_cast<std::size_t>(n), 0);
  for (NodeId u = 0; u < n; ++u) {
    // Incremental BFS from u; for each radius t, the max wake round within
    // distance t.
    std::vector<NodeId> dist(static_cast<std::size_t>(n), -1);
    std::vector<NodeId> frontier{u};
    dist[static_cast<std::size_t>(u)] = 0;
    std::int64_t max_wake = wake_rounds[static_cast<std::size_t>(u)];
    std::int64_t t = 0;
    const std::int64_t finish = global_finish_rounds[static_cast<std::size_t>(u)];
    while (finish > max_wake + t) {
      // Expand to radius t+1.
      std::vector<NodeId> next;
      for (NodeId v : frontier) {
        for (NodeId w : graph.neighbors(v)) {
          if (dist[static_cast<std::size_t>(w)] < 0) {
            dist[static_cast<std::size_t>(w)] =
                dist[static_cast<std::size_t>(v)] + 1;
            max_wake = std::max(max_wake,
                                wake_rounds[static_cast<std::size_t>(w)]);
            next.push_back(w);
          }
        }
      }
      ++t;
      if (next.empty()) {
        // Whole component seen; t larger than any distance, keep growing t
        // until the inequality holds.
        while (finish > max_wake + t) ++t;
        break;
      }
      frontier = std::move(next);
    }
    result[static_cast<std::size_t>(u)] = t;
  }
  return result;
}

json::Value engine_stats_to_json(const EngineStats& stats) {
  json::Value out = json::Value::object();
  for_each_engine_stat([&](const EngineStatField& field, auto member) {
    const auto value = stats.*member;
    if constexpr (std::is_floating_point_v<decltype(value)>)
      out.set(field.name, json::Value::number(value));
    else
      out.set(field.name,
              json::Value::number(static_cast<std::int64_t>(value)));
  });
  return out;
}

EngineStats engine_stats_from_json(const json::Value& value) {
  EngineStats stats;
  for_each_engine_stat([&](const EngineStatField& field, auto member) {
    auto& slot = stats.*member;
    using T = std::remove_reference_t<decltype(slot)>;
    if constexpr (std::is_floating_point_v<T>)
      slot = value.at(field.name).as_double();
    else
      slot = json::int_field<T>(value, field.name);
  });
  return stats;
}

}  // namespace unilocal
