#include "src/runtime/runner.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "src/graph/csr.h"
#include "src/graph/params.h"
#include "src/runtime/frontier.h"
#include "src/runtime/telemetry.h"
#include "src/util/math.h"
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
  /// Per-phase bucket sizes of this thread's step_bucketed calls; filled
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
/// engine.slept_steps counts the steps of total_steps the simultaneous
/// loop skipped because the node was asleep (see kernel.h's sleep contract),
/// and engine.jumped_rounds the rounds its clock jumped over because no
/// node was awake.
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

/// The delayed loop's per-timestamp tallies: the steps taken and the payload
/// pulses (duplicates included) arriving at one timestamp, and the worst
/// skew (arrival - send - 1) of any pulse arriving then. Only the ticks
/// later rounds can still add to are kept: a tick below the floor (the
/// earliest time any node can still step at) is final, and folds into the
/// running maxima whenever the table has doubled since the last sweep.
class TickTable {
 public:
  void reset() {
    ticks_.clear();
    sweep_at_ = kMinSweep;
    floor_ = std::numeric_limits<std::int64_t>::min();
    peak_steps_ = peak_payload_ = max_skew_ = 0;
  }

  /// Ticks below `floor` can no longer change (floors never decrease).
  void set_floor(std::int64_t floor) { floor_ = floor; }

  void add_step(std::int64_t time) { ++at(time).steps; }

  void add_arrival(std::int64_t time, std::int64_t skew, bool payload) {
    // A silent pulse only matters for the skew, and cannot raise it past a
    // maximum already folded from final ticks.
    if (!payload && skew <= max_skew_) return;
    Tick& tick = at(time);
    tick.payload += payload ? 1 : 0;
    tick.skew = std::max(tick.skew, skew);
  }

  /// Folds every tick left: steps always, arrivals only up to `last`.
  void finish(std::int64_t last) {
    for (const auto& [time, tick] : ticks_) fold(tick, time <= last);
    ticks_.clear();
  }

  std::int64_t peak_steps() const { return peak_steps_; }
  std::int64_t peak_payload() const { return peak_payload_; }
  std::int64_t max_skew() const { return max_skew_; }
  std::int64_t bytes() const {
    return static_cast<std::int64_t>(ticks_.bucket_count() * sizeof(void*));
  }

 private:
  struct Tick {
    std::int64_t steps = 0;
    std::int64_t payload = 0;
    std::int64_t skew = 0;
  };
  static constexpr std::size_t kMinSweep = 64;

  Tick& at(std::int64_t time) {
    if (ticks_.size() >= sweep_at_) {
      std::erase_if(ticks_, [this](const auto& entry) {
        if (entry.first >= floor_) return false;
        fold(entry.second, true);
        return true;
      });
      sweep_at_ = 2 * ticks_.size() + kMinSweep;
    }
    return ticks_[time];
  }

  void fold(const Tick& tick, bool arrivals) {
    peak_steps_ = std::max(peak_steps_, tick.steps);
    if (!arrivals) return;
    peak_payload_ = std::max(peak_payload_, tick.payload);
    max_skew_ = std::max(max_skew_, tick.skew);
  }

  std::unordered_map<std::int64_t, Tick> ticks_;
  std::size_t sweep_at_ = kMinSweep;
  std::int64_t floor_ = std::numeric_limits<std::int64_t>::min();
  std::int64_t peak_steps_ = 0;
  std::int64_t peak_payload_ = 0;
  std::int64_t max_skew_ = 0;
};

}  // namespace

/// All storage the engine needs, owned by EngineWorkspace so consecutive
/// runs (alternation steps, run_sequential stages) reuse capacity.
struct EngineWorkspaceState {
  // Struct-of-arrays node state.
  std::vector<Rng> rngs;
  std::vector<char> finished;
  std::vector<std::int64_t> outputs;
  // Local round of each node (synchronizer and delayed modes). Every
  // unfinished node of a simultaneous run is at the global round, so that
  // loop keeps its slot for the node's sleep hint instead: the requested
  // wake round while it is asleep or just stepped, 0 otherwise.
  std::vector<std::int64_t> local_round;
  std::vector<std::int64_t> finish_local;
  std::vector<std::int64_t> finish_global;

  // Delivery layers (src/runtime/network.h), owned here so consecutive
  // runs reuse their capacity: the double-buffered round arena (which the
  // delayed mode's lockstep rounds use too) and the delayed mode's latency
  // and fault streams.
  SynchronousNetwork sim_net;
  DelayedNetwork delayed_net;

  // Delayed-mode timing state: step_time[v] is the time of v's latest
  // local round (DelayedNetwork::kNever once v stalls for good), reach[e]
  // the latest arrival among the pulses edge e has carried (kNever once
  // one was abandoned or its sender stalled), and ticks the per-timestamp
  // tallies behind the peak stats.
  std::vector<std::int64_t> step_time;
  std::vector<std::int64_t> reach;
  TickTable ticks;

  // Compacted list of unfinished awake nodes (simultaneous mode),
  // ascending; the per-round thread chunks partition this list, not the
  // node-id space. Sleeping nodes are flagged in asleep (written only
  // between rounds, so stepping threads may read it) and queued by wake
  // round in sleepers; the loop borrows candidates/next_frontier below as
  // its woken list and merge buffer.
  std::vector<NodeId> live;
  std::vector<char> asleep;
  SleeperQueue sleepers;

  // Grow-only history arena (synchronizer mode): hist[e][i] = what the
  // owner of directed edge e emitted in its local round i.
  std::vector<std::vector<Span>> hist;
  std::vector<std::int64_t> hist_words;

  // Synchronizer scheduling state: lag[v] counts unfinished neighbours
  // whose local round trails v's (v is eligible exactly when awake and
  // lag == 0); stepped_round stamps the global round of v's last step so
  // counter maintenance can reconstruct pre-round values.
  std::vector<std::int32_t> lag;
  std::vector<std::int64_t> stepped_round;
  std::vector<NodeId> frontier, next_frontier, candidates;
  StampSet queued, candidate_set;
  WakeSchedule wake_schedule;

  // Packed per-node kernel state (stride-aligned records; see
  // src/runtime/kernel.h) and the per-port word arena.
  std::vector<std::byte> kernel_state;
  std::vector<std::int64_t> kernel_port_state;

  // Per-thread scratch: kwords is the reusable int64 scratch handed to
  // kernels as KernelCtx::scratch; bucket_nodes/bucket_rounds are the
  // phase-bucketing arrays of the batched path (one slot per kernel phase,
  // capacity persists).
  struct Scratch {
    std::vector<std::int64_t> kwords;
    std::vector<std::vector<NodeId>> bucket_nodes;
    std::vector<std::vector<std::int64_t>> bucket_rounds;
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
    delayed_mode_ = options.network.kind == NetworkKind::kDelayed;
    // The synchronizer and delayed event loops are sequential; only the
    // simultaneous mode fans the live list out over threads.
    threads_ = options.wake_rounds.empty() && !delayed_mode_
                   ? std::max(1, options.num_threads)
                   : 1;
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
    for (const KernelPhase& phase : kernel_->phases)
      if (phase.batch != nullptr) kernel_has_batch_ = true;

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
    ws_.candidates.clear();
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
      std::int64_t round_batched = 0, round_batch_calls = 0;
      const std::size_t live_n = ws_.live.size();
      const std::int64_t round_asleep = live - static_cast<NodeId>(live_n);
      if (threads_ == 1) {
        step_range(0, 0, live_n, round);
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
          step_range(t, lo, hi, round);
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
        round_batched += delta.batched_steps;
        round_batch_calls += delta.batch_calls;
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
        if (kernel_has_batch_) {
          event.arg("batched_steps", round_batched);
          event.arg("batch_calls", round_batch_calls);
        }
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

  RunResult run_synchronized(const std::vector<std::int64_t>& wake_rounds) {
    const auto start = std::chrono::steady_clock::now();
    begin_trace_run();
    assert(wake_rounds.size() == static_cast<std::size_t>(n_));
    const std::size_t slots = static_cast<std::size_t>(
        csr_.num_directed_edges());
    ws_.hist.resize(slots);
    for (auto& h : ws_.hist) h.clear();
    ws_.hist_words.clear();
    sync_mode_ = true;

    const std::size_t nn = static_cast<std::size_t>(n_);
    ws_.lag.assign(nn, 0);
    ws_.stepped_round.assign(nn, -1);
    ws_.queued.reset(nn);
    ws_.candidate_set.reset(nn);
    ws_.wake_schedule.init(wake_rounds);
    ws_.frontier.clear();
    ws_.next_frontier.clear();
    ws_.candidates.clear();

    NodeId live = n_;
    peak_live_ = n_;
    std::int64_t global = 0;
    std::int64_t max_wake = 0;
    for (std::int64_t w : wake_rounds) max_wake = std::max(max_wake, w);
    const std::int64_t global_cap = sat_add(
        max_wake,
        sat_add(sat_mul(4, sat_add(options_.max_rounds, 1)),
                4 * static_cast<std::int64_t>(n_) + 16));
    auto& frontier = ws_.frontier;
    while (live > 0 && global < global_cap) {
      // Admit nodes whose wake round has arrived. A node that has never
      // stepped holds the minimum local round, so its lag counter is
      // necessarily 0 and it goes straight onto the frontier; a node whose
      // counter rose after waking re-enters through the candidate pass when
      // the counter returns to 0.
      ws_.wake_schedule.admit(global, [&](NodeId v) {
        const std::size_t vi = static_cast<std::size_t>(v);
        if (!ws_.finished[vi] && ws_.lag[vi] == 0 &&
            ws_.queued.insert(vi, global))
          frontier.push_back(v);
      });
      if (frontier.empty()) {
        // Every unfinished node is asleep or transitively waiting on a
        // sleeper; the reference engine spins no-op global rounds here, so
        // jumping the clock to the next unfinished wake-up is observation-
        // equivalent and O(1) per skipped stretch.
        const auto next = ws_.wake_schedule.next_pending(ws_.finished);
        global = next.has_value() ? std::min(*next, global_cap) : global_cap;
        continue;
      }
      const bool traced = begin_trace_round();
      const std::int64_t trace_t0 =
          traced ? trace_->recorder->now() : 0;
      peak_frontier_ = std::max<std::int64_t>(
          peak_frontier_, static_cast<std::int64_t>(frontier.size()));
      std::int64_t round_messages = 0;
      const std::int64_t steps_before = total_steps_;
      const std::int64_t batched_before = batched_steps_;
      const std::int64_t batch_calls_before = batch_calls_;
      // Phase 1: step the frontier — exactly the eligible snapshot the
      // per-round rescan used to recompute. A batch-capable kernel steps it
      // phase-bucketed first (frontier nodes are mutually independent this
      // global round: the lag counters guarantee no node reads a message a
      // frontier peer sends in the same global round), then the per-node
      // padding/accounting pass runs unchanged.
      for (const NodeId v : frontier)
        ws_.stepped_round[static_cast<std::size_t>(v)] = global;
      if (kernel_has_batch_)
        step_bucketed(0, frontier.data(), frontier.size(), -1,
                      &batched_steps_, &batch_calls_,
                      traced ? &trace_phases_ : nullptr);
      for (const NodeId v : frontier) {
        const std::size_t vi = static_cast<std::size_t>(v);
        const std::int64_t r = ws_.local_round[vi];
        if (!kernel_has_batch_) step_one(0, v, r);
        // Pad ports that stayed silent so hist[e] stays indexed by the
        // sender's local round, then account the round's traffic.
        const std::int64_t base = csr_.offset(v);
        const NodeId deg = csr_.degree(v);
        for (NodeId j = 0; j < deg; ++j) {
          auto& h = ws_.hist[static_cast<std::size_t>(base + j)];
          if (static_cast<std::int64_t>(h.size()) <= r) h.push_back(Span{});
          const Span& s = h.back();
          if (s.words >= 0) {
            ++messages_sent_;
            ++round_messages;
            max_message_words_ = std::max(max_message_words_, s.words);
          }
        }
        ++ws_.local_round[vi];
        ++total_steps_;
        if (ws_.finished[vi]) {
          ws_.finish_local[vi] = r;
          ws_.finish_global[vi] = global;
          --live;
        } else if (ws_.local_round[vi] >= options_.max_rounds) {
          ws_.finished[vi] = 1;
          ws_.outputs[vi] = options_.default_output;
          ++cut_off_;
          ws_.finish_local[vi] = options_.max_rounds;
          ws_.finish_global[vi] = global;
          --live;
        }
      }
      // Phase 2: dependency-counter maintenance. For each edge touched by a
      // step, re-derive both directions' "lags me" contributions from the
      // before/after local rounds (the stepped_round stamp reconstructs a
      // stepped neighbour's pre-round value). Everything whose counter
      // moved — plus every surviving stepped node — becomes a candidate.
      for (const NodeId v : frontier) {
        const std::size_t vi = static_cast<std::size_t>(v);
        const std::int64_t r_v = ws_.local_round[vi] - 1;  // pre-step round
        const bool fin_v = ws_.finished[vi] != 0;
        const NodeId deg = csr_.degree(v);
        for (NodeId j = 0; j < deg; ++j) {
          const NodeId u = csr_.neighbor(v, j);
          const std::size_t ui = static_cast<std::size_t>(u);
          const bool u_stepped = ws_.stepped_round[ui] == global;
          if (!ws_.finished[ui]) {
            // v's contribution to lag[u], before vs after v's step.
            const std::int64_t lr_u_before =
                ws_.local_round[ui] - (u_stepped ? 1 : 0);
            const int before = r_v < lr_u_before ? 1 : 0;
            const int after =
                (!fin_v && r_v + 1 < ws_.local_round[ui]) ? 1 : 0;
            if (after != before) {
              ws_.lag[ui] += after - before;
              if (ws_.candidate_set.insert(ui, global))
                ws_.candidates.push_back(u);
            }
          }
          if (!u_stepped && !fin_v) {
            // The unchanged neighbour u newly lags v exactly when it sits
            // at v's pre-step round.
            if (!ws_.finished[ui] && ws_.local_round[ui] == r_v)
              ++ws_.lag[vi];
          }
        }
        if (!fin_v && ws_.candidate_set.insert(vi, global))
          ws_.candidates.push_back(v);
      }
      // Phase 3: the next frontier is exactly the candidates that ended the
      // round awake, unfinished, and unlagged.
      for (const NodeId c : ws_.candidates) {
        const std::size_t ci = static_cast<std::size_t>(c);
        if (!ws_.finished[ci] && ws_.lag[ci] == 0 &&
            wake_rounds[ci] <= global + 1 && ws_.queued.insert(ci, global + 1))
          ws_.next_frontier.push_back(c);
      }
      ws_.candidates.clear();
      peak_round_messages_ = std::max(peak_round_messages_, round_messages);
      if (traced) {
        telemetry::TraceEvent event = make_round_event(trace_t0);
        event.arg("global", global);
        event.arg("frontier", static_cast<std::int64_t>(frontier.size()));
        event.arg("messages", round_messages);
        event.arg("steps", total_steps_ - steps_before);
        if (kernel_has_batch_) {
          event.arg("batched_steps", batched_steps_ - batched_before);
          event.arg("batch_calls", batch_calls_ - batch_calls_before);
        }
        attach_phase_sizes(event);
        trace_->recorder->record(std::move(event));
      }
      std::swap(frontier, ws_.next_frontier);
      ws_.next_frontier.clear();
      ++global;
    }
    final_live_ = live;
    std::int64_t max_local = 0;
    for (NodeId v = 0; v < n_; ++v)
      max_local =
          std::max(max_local, ws_.local_round[static_cast<std::size_t>(v)]);
    RunResult result = finalize(live, max_local, global);
    fill_stats(result, start);
    return result;
  }

  /// The asynchronous mode, run as lockstep local rounds plus a max-plus
  /// recurrence for the timestamps. Under the alpha synchronizer a node
  /// performs local round r once every in-edge has delivered its sender's
  /// pulses of rounds < r (or all of them, when the sender finished first).
  /// Each pulse's arrival is fixed when it is sent, and each edge's stream
  /// is consumed in its sender's round order, so step times follow
  ///   t(v,0) = wake(v) + late-joiner delay,
  ///   t(v,r) = max(t(v,r-1), max over in-edges e of R_e(r-1)),
  /// where R_e(k) is the latest arrival among the sender's pulses of rounds
  /// <= min(k, its final round) — infinite when one of those pulses was
  /// abandoned, or when the sender is unfinished and never performs round k
  /// (crashed or stalled). A node whose time is infinite stalls for good.
  /// Every node therefore sees the synchronous run's messages in each local
  /// round it performs (the paper's Observation 2.1), so payloads move
  /// through the round-exact arena; each round first computes every t(v,r)
  /// from round r-1's arrivals, then steps the nodes whose time is finite
  /// and draws their pulses. Sleep hints are ignored: sleepers still pulse.
  ///
  /// The stats read as the timeline of a discrete-event run that delivers
  /// before stepping at equal times and stops right after the last
  /// finishing step, at T_end: peak_frontier_nodes is the most steps
  /// sharing one timestamp; peak_round_messages (payload pulses) and
  /// max_delivery_skew count the pulses, duplicates included, arriving by
  /// T_end — all of them when the run stalls; global_rounds is T_end, or
  /// the latest step or arrival of a stalled run.
  RunResult run_delayed(const std::vector<std::int64_t>& wake_rounds) {
    constexpr std::int64_t kNever = DelayedNetwork::kNever;
    const auto start = std::chrono::steady_clock::now();
    begin_trace_run();
    DelayedNetwork& net = ws_.delayed_net;
    net.begin_run(csr_, options_.seed, options_.network);
    const std::size_t slots = static_cast<std::size_t>(
        csr_.num_directed_edges());
    SynchronousNetwork& arena = ws_.sim_net;
    arena.begin_run(csr_, 1);
    StepDelta& delta = deltas_[0];
    auto& time = ws_.step_time;
    auto& reach = ws_.reach;
    time.assign(static_cast<std::size_t>(n_), kNever);
    reach.assign(slots, std::numeric_limits<std::int64_t>::min());
    ws_.ticks.reset();
    const auto stall = [&](NodeId v) {
      const std::int64_t base = csr_.offset(v);
      for (NodeId j = 0; j < csr_.degree(v); ++j)
        reach[static_cast<std::size_t>(base + j)] = kNever;
    };

    // Crashed nodes never step; they stay live and are finalized as cut
    // off, like any node that stalls.
    auto& active = ws_.live;
    active.clear();
    NodeId stalled = 0;
    for (NodeId v = 0; v < n_; ++v) {
      if (net.crashed(v)) {
        stall(v);
        ++stalled;
        continue;
      }
      time[static_cast<std::size_t>(v)] =
          (wake_rounds.empty() ? 0 : wake_rounds[static_cast<std::size_t>(v)]) +
          net.wake_delay(v);
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
          for (NodeId j = 0; j < csr_.degree(v); ++j)
            t = std::max(t, reach[static_cast<std::size_t>(
                                csr_.in_edge_index(v, j))]);
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
      std::int64_t stepped = 0;
      for (const NodeId v : active) {
        const std::size_t vi = static_cast<std::size_t>(v);
        const std::int64_t now = time[vi];
        if (now == kNever) continue;
        step_one(0, v, r);
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
        const std::int64_t base = csr_.offset(v);
        for (NodeId j = 0; j < csr_.degree(v); ++j) {
          const std::int64_t e = base + j;
          const bool payload = arena.sent(v, j);
          const DelayedNetwork::Pulse pulse = net.draw_pulse(e, now);
          std::int64_t& latest = reach[static_cast<std::size_t>(e)];
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
        telemetry::TraceEvent event = make_round_event(trace_t0);
        event.arg("round", r);
        event.arg("frontier", stepped);
        event.arg("stalled", static_cast<std::int64_t>(stalled));
        event.arg("messages", round_messages);
        event.arg("steps", stepped);
        trace_->recorder->record(std::move(event));
      }
    }
    arena.end_run();
    // A run where every node finished ends at its last step, T_end; a
    // stalled one counts every pulse it sent.
    const std::int64_t global =
        live == 0 ? last_step : std::max(last_step, last_arrival);
    ws_.ticks.finish(live == 0 ? last_step : kNever);
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

 private:
  /// Round-arena sends are accounted as they happen: a slot's first write
  /// counts the message and notes a sleeping receiver; a resend overwrites
  /// it (last write wins) and only flags a shrink, which the round's
  /// max-words reduction then resolves by rescanning the send half.
  void do_send(int tid, NodeId node, NodeId port, const std::int64_t* data,
               std::size_t words) {
    if (!sync_mode_) {
      StepDelta& delta = deltas_[static_cast<std::size_t>(tid)];
      const auto len = static_cast<std::int64_t>(words);
      const std::int64_t prev = ws_.sim_net.send(tid, node, port, data, words);
      if (prev < 0) {
        ++delta.messages;
        // asleep only changes between rounds, so it is safe to read here.
        if (asleep_ > 0) {
          const NodeId u = csr_.neighbor(node, port);
          if (ws_.asleep[static_cast<std::size_t>(u)])
            delta.mailed.push_back(u);
        }
      } else if (len < prev) {
        delta.shrunk = true;
      }
      delta.max_words = std::max(delta.max_words, len);
      return;
    }
    const std::int64_t r = ws_.local_round[static_cast<std::size_t>(node)];
    auto& h =
        ws_.hist[static_cast<std::size_t>(csr_.edge_index(node, port))];
    Span s;
    s.offset = static_cast<std::int64_t>(ws_.hist_words.size());
    s.words = static_cast<std::int64_t>(words);
    ws_.hist_words.insert(ws_.hist_words.end(), data, data + words);
    if (static_cast<std::int64_t>(h.size()) <= r)
      h.push_back(s);     // first send on this port this round
    else
      h.back() = s;       // resend: last write wins
  }

  /// Zero-copy arena lookup. In the synchronizer mode the returned span
  /// points into hist_words, which a same-step send may reallocate (the
  /// kernels' read-before-send contract).
  std::span<const std::int64_t> raw_recv(NodeId node, NodeId port,
                                         bool* present) {
    if (!sync_mode_) return ws_.sim_net.recv(node, port, present);
    const std::int64_t want =
        ws_.local_round[static_cast<std::size_t>(node)] - 1;
    const auto& h = ws_.hist[static_cast<std::size_t>(
        csr_.in_edge_index(node, port))];
    if (want < 0 || want >= static_cast<std::int64_t>(h.size())) {
      *present = false;
      return {};
    }
    const Span s = h[static_cast<std::size_t>(want)];
    if (s.words < 0) {
      *present = false;
      return {};
    }
    *present = true;
    return {ws_.hist_words.data() + s.offset,
            static_cast<std::size_t>(s.words)};
  }

  // The transport installed into every KernelCtx: the zero-copy arena
  // lookup and do_send.
  static std::span<const std::int64_t> kernel_recv(void* engine, int tid,
                                                   NodeId node, NodeId port,
                                                   bool* present) {
    (void)tid;
    return static_cast<ArenaEngine*>(engine)->raw_recv(node, port, present);
  }
  static void kernel_send(void* engine, int tid, NodeId node, NodeId port,
                          const std::int64_t* data, std::size_t words) {
    static_cast<ArenaEngine*>(engine)->do_send(tid, node, port, data, words);
  }

  /// One local round of node v through phase `phase` of the kernel.
  void step_kernel_phase(int tid, NodeId v, std::int64_t round,
                         std::size_t phase) {
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
    kernel_->phases[phase].fn(ctx);
    if (ctx.finished) {
      ws_.finished[vi] = 1;
      ws_.outputs[vi] = ctx.output;
    }
    if (ctx.wake_round != 0 && wake_at_ != nullptr)
      wake_at_[vi] = ctx.wake_round;
  }

  void step_one(int tid, NodeId v, std::int64_t round) {
    const std::byte* state =
        kstate_base_ + static_cast<std::size_t>(v) * kstride_;
    step_kernel_phase(tid, v, round,
                      kernel_phase_index(*kernel_, round, state));
  }

  /// The batched bucket view over the engine arrays (KernelBatchCtx must
  /// mirror exactly what step_kernel_phase puts into a scalar KernelCtx).
  KernelBatchCtx make_batch_ctx(int tid, const NodeId* nodes,
                                const std::int64_t* rounds,
                                std::size_t count) {
    KernelBatchCtx b;
    b.nodes = nodes;
    b.rounds = rounds;
    b.count = count;
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

  /// Phase-grouped kernel stepping: bucket `count` nodes by resolved
  /// kernel_phase_index (one pass over the strided state arena), then run
  /// each bucket through its phase's KernelBatchFn — or the scalar per-node
  /// loop when the phase has none. `uniform_round` >= 0 is the common local
  /// round (simultaneous mode); -1 reads each node's own ws_.local_round
  /// (synchronizer frontiers mix rounds). Bucketing reorders node steps,
  /// which is observation-equivalent: every node owns its RNG stream, its
  /// state record, and its per-edge send slots, and no node of one round's
  /// step set reads what another sent in the same set (simultaneous rounds
  /// deliver next round; synchronizer eligibility forbids same-global-round
  /// dependencies).
  void step_bucketed(int tid, const NodeId* nodes, std::size_t count,
                     std::int64_t uniform_round, std::int64_t* batched_steps,
                     std::int64_t* batch_calls,
                     std::vector<std::int64_t>* phase_sizes = nullptr) {
    auto& scratch = ws_.scratch[static_cast<std::size_t>(tid)];
    const std::size_t nphases = kernel_->phases.size();
    scratch.bucket_nodes.resize(nphases);
    scratch.bucket_rounds.resize(nphases);
    for (std::size_t p = 0; p < nphases; ++p) {
      scratch.bucket_nodes[p].clear();
      scratch.bucket_rounds[p].clear();
    }
    for (std::size_t i = 0; i < count; ++i) {
      const NodeId v = nodes[i];
      const std::int64_t r =
          uniform_round >= 0 ? uniform_round
                             : ws_.local_round[static_cast<std::size_t>(v)];
      const std::size_t p = kernel_phase_index(
          *kernel_, r, kstate_base_ + static_cast<std::size_t>(v) * kstride_);
      scratch.bucket_nodes[p].push_back(v);
      scratch.bucket_rounds[p].push_back(r);
    }
    if (phase_sizes != nullptr) {
      phase_sizes->assign(nphases, 0);
      for (std::size_t p = 0; p < nphases; ++p)
        (*phase_sizes)[p] =
            static_cast<std::int64_t>(scratch.bucket_nodes[p].size());
    }
    for (std::size_t p = 0; p < nphases; ++p) {
      const auto& bucket = scratch.bucket_nodes[p];
      if (bucket.empty()) continue;
      const KernelPhase& phase = kernel_->phases[p];
      if (phase.batch != nullptr) {
        const KernelBatchCtx b = make_batch_ctx(
            tid, bucket.data(), scratch.bucket_rounds[p].data(),
            bucket.size());
        phase.batch(b);
        *batched_steps += static_cast<std::int64_t>(bucket.size());
        ++*batch_calls;
      } else {
        for (std::size_t i = 0; i < bucket.size(); ++i)
          step_kernel_phase(tid, bucket[i], scratch.bucket_rounds[p][i], p);
      }
    }
  }

  /// Steps the live-list slice [lo, hi); every listed node is unfinished
  /// and awake at round start (the list is compacted after each round).
  void step_range(int tid, std::size_t lo, std::size_t hi,
                  std::int64_t round) {
    StepDelta& delta = deltas_[static_cast<std::size_t>(tid)];
    // Batch-capable kernels step the whole slice phase-bucketed up front;
    // the per-node loop below then only does the round bookkeeping.
    if (kernel_has_batch_)
      step_bucketed(tid, ws_.live.data() + lo, hi - lo, round,
                    &delta.batched_steps, &delta.batch_calls,
                    trace_round_active_ ? &delta.phase_sizes : nullptr);
    for (std::size_t i = lo; i < hi; ++i) {
      const NodeId v = ws_.live[i];
      const std::size_t vi = static_cast<std::size_t>(v);
      if (!kernel_has_batch_) step_one(tid, v, round);
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
  /// ws_.candidates, every sleeper that got mail or whose wake round is
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
    ws_.candidates.push_back(v);
  }

  /// Merges the nodes settle_sleepers woke back into the ascending live
  /// list.
  void readmit_woken() {
    auto& woken = ws_.candidates;
    if (woken.empty()) return;
    std::sort(woken.begin(), woken.end());
    auto& merged = ws_.next_frontier;
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
  /// arms per-phase bucket-size collection for the round.
  void begin_trace_run() {
    if (trace_ == nullptr) return;
    trace_run_t0_ = trace_->recorder->now();
  }

  bool begin_trace_round() {
    const bool traced =
        trace_ != nullptr && trace_rounds_recorded_ < trace_->trace_rounds;
    trace_round_active_ = traced && kernel_has_batch_;
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
    std::int64_t bytes = 0;
    if (delayed_mode_) {
      const DelayedNetwork& net = ws_.delayed_net;
      stats.messages_dropped = net.dropped();
      stats.messages_duplicated = net.duplicated();
      stats.max_delivery_skew = ws_.ticks.max_skew();
      bytes += net.arena_bytes() + ws_.sim_net.arena_bytes() +
               ws_.ticks.bytes();
      bytes += static_cast<std::int64_t>(
          (ws_.step_time.capacity() + ws_.reach.capacity()) * 8);
    } else if (sync_mode_) {
      bytes += static_cast<std::int64_t>(ws_.hist_words.capacity()) * 8;
      for (const auto& h : ws_.hist)
        bytes += static_cast<std::int64_t>(h.capacity() * sizeof(Span));
    } else {
      bytes += ws_.sim_net.arena_bytes();
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
      event.arg("mode", delayed_mode_  ? "delayed"
                        : sync_mode_   ? "synchronized"
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
  // True when any kernel phase has a KernelBatchFn: the simultaneous and
  // synchronizer loops then step phase-bucketed (the delayed loop steps
  // scalar).
  bool kernel_has_batch_ = false;
  std::int64_t batched_steps_ = 0;
  std::int64_t batch_calls_ = 0;
  bool sync_mode_ = false;
  bool delayed_mode_ = false;
  // Simultaneous runs only: the sleep-hint latch (ws_.local_round's
  // storage; null when hints are ignored), the sleeping-node count, the
  // steps skipped because their node was asleep, and the rounds the clock
  // jumped over because every node was.
  std::int64_t* wake_at_ = nullptr;
  NodeId asleep_ = 0;
  std::int64_t slept_steps_ = 0;
  std::int64_t jumped_rounds_ = 0;
  // Ambient trace binding (null = untraced run) and per-run trace state.
  const telemetry::TraceBinding* trace_ = nullptr;
  std::int64_t trace_run_t0_ = 0;
  std::int64_t trace_rounds_recorded_ = 0;
  bool trace_round_active_ = false;
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
                    const RunOptions& options, EngineWorkspace* workspace) {
  std::optional<EngineWorkspace> local;
  if (workspace == nullptr) workspace = &local.emplace();
  ArenaEngine engine(instance, algorithm, options, workspace->state());
  if (options.network.kind == NetworkKind::kDelayed)
    return engine.run_delayed(options.wake_rounds);
  if (options.wake_rounds.empty()) return engine.run_simultaneous();
  return engine.run_synchronized(options.wake_rounds);
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
  EngineWorkspace workspace;  // one arena across all stages
  for (const Algorithm* algorithm : algorithms) {
    RunOptions stage_options = options;
    stage_options.wake_rounds = wake;
    stage_options.seed = seed++;
    RunResult result =
        run_local(current, *algorithm, stage_options, &workspace);
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
