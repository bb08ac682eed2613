// Pluggable message-delivery layer of the arena engine.
//
// The engine (src/runtime/runner.cpp) decides WHO steps; a network model
// decides WHEN and WHETHER a sent message reaches its receiver:
//
//   SynchronousNetwork — the round-exact double-buffered span arena, keyed
//     by receiver: everything sent in round r is available in round r+1,
//     nothing is lost. This is the default and stays
//     bit-identical to the seed reference engine. Every run's payloads
//     travel through it, and staggered wake rounds (the alpha
//     synchronizer) time it like the delayed network, with every latency
//     1 and nothing drawn.
//
//   DelayedNetwork — the asynchronous regime the paper's synchronizer
//     exists to tame: every transmission of a directed edge gets a latency
//     drawn from a per-edge stream (uniform, per-edge-weighted, or
//     heavy-tail presets), with fault knobs for message drops (lost
//     transmissions retransmitted after a timeout), duplication, fail-stop
//     crashed nodes, and late joiners. The synchronizer is asynchrony-
//     transparent (Observation 2.1), so a delayed run steps the same local
//     rounds with the same messages as the synchronous one; only the
//     timestamps, fault counters and stalls differ. The engine therefore
//     runs it through its one round loop over the synchronous arena, plus
//     a max-plus recurrence for each node's step time (the timing and
//     pulse passes in src/runtime/runner.cpp). All draws derive from the
//     run seed through dedicated streams consumed in sender-round order,
//     so a run is bit-repeatable for any engine thread count and shards
//     merge byte-identically.
//
// A NetworkOptions value travels with RunOptions (and through the campaign
// and shard layers as a grid dimension); parsing/naming helpers here back
// the `--network=` / fault-knob CLI flags and the manifest round trip.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "src/graph/graph.h"
#include "src/util/rng.h"

namespace unilocal {

/// Which delivery layer a run executes through.
enum class NetworkKind : std::uint8_t {
  kSynchronous,  // round-exact arena (the default)
  kDelayed,      // seeded per-edge latencies + faults
};

/// Latency family of the DelayedNetwork, per directed edge and message.
enum class DelayPreset : std::uint8_t {
  kUniform,    // fresh uniform draw in [1, max_delay] per transmission
  kWeighted,   // fixed per-edge latency drawn once in [1, max_delay]
  kHeavyTail,  // integer Pareto-like: ~half the messages take 1-2 ticks,
               // a 2^-k tail reaches ~2^16 ticks
};

struct NetworkOptions {
  NetworkKind kind = NetworkKind::kSynchronous;
  /// Latency preset (DelayedNetwork only).
  DelayPreset preset = DelayPreset::kUniform;
  /// Probability that one transmission is lost. Lost transmissions are
  /// retransmitted after a timeout of 2*max_delay ticks (so moderate drop
  /// rates delay delivery instead of changing outputs); a transmission
  /// abandoned after 64 consecutive losses — or any transmission when
  /// drop >= 1 — is never delivered and stalls its receiver for good.
  double drop = 0.0;
  /// Probability that a delivered message arrives a second time (the copy
  /// lands strictly later; receivers ignore it).
  double duplicate = 0.0;
  /// Fraction of nodes that fail-stop before their first step: they never
  /// run, never send, and are finalized as cut off with default_output.
  double crash = 0.0;
  /// Fraction of nodes that join late: their wake is delayed by a per-node
  /// draw in [1, late_by] ticks on top of any RunOptions::wake_rounds.
  double late = 0.0;
  /// Latency ceiling of the uniform/weighted presets (in [1, kMaxTicks]);
  /// also sets the retransmission timeout (2*max_delay) for every preset.
  std::int64_t max_delay = 8;
  /// Ceiling of a late joiner's extra wake delay (in [1, kMaxTicks]).
  std::int64_t late_by = 64;

  friend bool operator==(const NetworkOptions&,
                         const NetworkOptions&) = default;
};

/// Ceiling of max_delay and late_by. One local round can add at most
/// 64 attempts x (2*max_delay timeout + a latency below max(max_delay,
/// 2^17)) plus a duplicate's latency to a timestamp, so with both knobs at
/// 2^32 a run of max_rounds rounds ends below about
/// max_rounds x (64 x (2*2^32 + 2^17) + 2^32) + late_by, that is
/// max_rounds x 2^39.01 + 2^32: 2^23 rounds of worst-case pulses still fit
/// an int64 timestamp.
inline constexpr std::int64_t kMaxTicks = std::int64_t{1} << 32;

/// Stable preset names ("uniform", "weighted", "heavytail").
const char* delay_preset_name(DelayPreset preset);

/// Canonical spec string: "sync", or "delay:<preset>". Used by the CSV/JSON
/// writers and the shard manifest round trip.
std::string network_spec_name(const NetworkOptions& options);

/// Parses a spec string ("sync" | "delay:uniform" | "delay:weighted" |
/// "delay:heavytail") into kind + preset, leaving every knob at its
/// default. Throws std::runtime_error naming the valid specs otherwise.
NetworkOptions parse_network_spec(const std::string& spec);

/// Strict CLI knob parsing: the whole text must parse and land in range, or
/// a std::runtime_error naming `flag` is thrown. parse_unit_interval
/// accepts [0, 1]; parse_positive_ticks accepts integers in [1, kMaxTicks].
double parse_unit_interval(const char* flag, const std::string& text);
std::int64_t parse_positive_ticks(const char* flag, const std::string& text);

/// Validates knob ranges (same rules as the parsers); throws
/// std::runtime_error on the first violation. run_local calls this, so a
/// malformed NetworkOptions fails fast instead of mid-run.
void validate_network_options(const NetworkOptions& options);

/// Arena descriptor of one message slot. words < 0 means no message. A
/// one-word message is stored inline: the word itself sits in offset. Any
/// other length lives in the word buffer of the thread that sent it, and
/// offset packs that thread's id into its top bits above the word offset —
/// needed because the live list is re-chunked across threads every round,
/// so a sender's thread cannot be derived from its node id. Every slot of
/// one range send (a broadcast) shares one copy of a multi-word payload:
/// the words are only read through the receive half, and a later send to
/// one of those slots appends its own copy instead of writing in place.
/// Either way the span stays 16 bytes (4 per cache line) on the hot receive
/// path.
struct Span {
  std::int64_t offset = 0;
  std::int64_t words = -1;
};

/// offset layout of a buffered span: bits [kOwnerShift, 63) = writer
/// thread, low bits = word offset. Word buffers stay far below 2^48
/// entries; thread counts below 2^15 are enforced in the engine
/// constructor.
constexpr int kOwnerShift = 48;
constexpr std::int64_t kOffsetMask = (std::int64_t{1} << kOwnerShift) - 1;

inline std::int64_t pack_offset(int owner, std::size_t offset) {
  return (static_cast<std::int64_t>(owner) << kOwnerShift) |
         static_cast<std::int64_t>(offset);
}

/// The round-exact delivery layer: one span per directed edge, keyed by
/// RECEIVER — what node v receives on port j sits in slot offset(v) + j, so
/// v's whole inbox is one contiguous run of spans, and a send from v on port
/// j writes the slot its neighbour u reads as its own port,
/// offset(u) + reverse_port(v, j) = graph.in_edge_index(v, j). Callers speak
/// (node, port), apart from sent_at (a receiver slot), and the class binds
/// the slots to the Graph the run began with.
/// A send covers a range of the sender's ports: one loop over its adjacency row
/// writes every slot, and a multi-word payload is stored once for the
/// whole range.
/// The spans are double-buffered between a send half and a receive half
/// that swap at each round barrier; one-word payloads ride inline in the
/// span and longer ones in per-thread word buffers. Slots are reset lazily
/// through per-thread dirty lists — only the slots written two rounds ago —
/// with an adaptive fallback to a linear fill on dense rounds; the
/// all-clean exit invariant keeps reused workspaces O(m)-init-free. Owned
/// by EngineWorkspaceState so capacity survives across runs. send() may be
/// called from concurrent stepping threads as long as each thread passes
/// its own tid and no two threads send from the same node.
class SynchronousNetwork {
 public:
  /// Per-run preparation over `graph`, which must outlive the run: rebuilds
  /// the span tables only when the slot count changed or the last run
  /// exited dirty (a thrown step).
  void begin_run(const Graph& graph, int threads);

  /// Resets the send half (strategy it was written under) and picks this
  /// round's write strategy: a round whose predecessor moved at least a
  /// quarter of the slot space writes in bulk mode — no dirty recording,
  /// reset by linear fill — because a sequential sweep beats per-slot
  /// indirection when nearly everything was written.
  void begin_round(std::int64_t prev_round_messages);

  /// The round barrier: what was sent becomes receivable.
  void end_round();

  /// Restores the all-clean invariant (both halves reset under the strategy
  /// they were written with).
  void end_run();

  /// Records data[0..words) as `node`'s message on each port in
  /// [first, last) this round, the payload stored once for the range; a
  /// later send on one of those ports overwrites only its own slot (last
  /// write wins). Calls on_slot(receiver, prev) for each port in order,
  /// prev being the length the slot held before this write, -1 on the
  /// round's first write — so callers can count each slot's final message
  /// once. An empty range changes nothing.
  template <typename OnSlot>
  void send(int tid, NodeId node, NodeId first, NodeId last,
            const std::int64_t* data, std::size_t words, OnSlot&& on_slot) {
    if (first >= last) return;
    const std::int64_t* offsets = graph_->offsets_data();
    const NodeId* neighbors = graph_->neighbors_data();
    const NodeId* reverse_ports = graph_->reverse_ports_data();
    const std::int64_t row = offsets[static_cast<std::size_t>(node)];
    std::int64_t offset = 0;
    if (words == 1) {
      offset = data[0];
    } else {
      auto& buf = send_words_[static_cast<std::size_t>(tid)];
      offset = pack_offset(tid, buf.size());
      buf.insert(buf.end(), data, data + words);
    }
    const auto len = static_cast<std::int64_t>(words);
    Span* spans = send_spans_.data();
    // Bulk rounds record nothing; otherwise a slot's first write this round
    // schedules its reset.
    std::vector<std::int64_t>* dirty =
        send_bulk_ ? nullptr : &send_dirty_[static_cast<std::size_t>(tid)];
    for (NodeId j = first; j < last; ++j) {
      const auto edge = static_cast<std::size_t>(row + j);
      const NodeId receiver = neighbors[edge];
      const std::int64_t slot =
          offsets[static_cast<std::size_t>(receiver)] + reverse_ports[edge];
      Span& s = spans[static_cast<std::size_t>(slot)];
      const std::int64_t prev = s.words;
      if (dirty != nullptr && prev < 0) dirty->push_back(slot);
      s.offset = offset;
      s.words = len;
      on_slot(receiver, prev);
    }
  }

  /// What `node` received on `port`: the previous round's message from that
  /// neighbour. The returned span points into the receive half (the span
  /// table itself for an inline word), which no send of the current round
  /// can touch, so it stays valid for the whole step.
  std::span<const std::int64_t> recv(NodeId node, NodeId port,
                                     bool* present) const {
    const Span& s =
        recv_spans_[static_cast<std::size_t>(graph_->offset(node) + port)];
    if (s.words < 0) {
      *present = false;
      return {};
    }
    *present = true;
    if (s.words == 1) return {&s.offset, 1};
    const auto& buf =
        recv_words_[static_cast<std::size_t>(s.offset >> kOwnerShift)];
    return {buf.data() + (s.offset & kOffsetMask),
            static_cast<std::size_t>(s.words)};
  }

  /// Whether receiver slot `slot` (graph.in_edge_index(node, port) of the
  /// sender) holds a message this round — for a caller that keys its own
  /// per-edge state by that slot.
  bool sent_at(std::int64_t slot) const {
    return send_spans_[static_cast<std::size_t>(slot)].words >= 0;
  }

  /// Whether any neighbour has sent to `node` this round.
  bool has_mail(NodeId node) const {
    const auto first = send_spans_.begin() + graph_->offset(node);
    return std::any_of(first, first + graph_->degree(node),
                       [](const Span& s) { return s.words >= 0; });
  }

  /// The longest message in the send half: this round's exact maximum
  /// length after resends that shrank a slot (0 when nothing was sent).
  std::int64_t send_max_words() const;

  /// Slots lazily reset through the dirty lists this run (the clearing-work
  /// stat; bulk fills are not counted).
  std::int64_t dirty_cleared() const { return dirty_cleared_; }

  /// Capacity held by the arena (word buffers + span tables + dirty lists).
  std::int64_t arena_bytes() const;

 private:
  void reset_half(std::vector<Span>& spans,
                  std::vector<std::vector<std::int64_t>>& dirty_lists,
                  bool bulk);

  const Graph* graph_ = nullptr;
  std::vector<Span> send_spans_, recv_spans_;
  std::vector<std::vector<std::int64_t>> send_words_, recv_words_;
  std::vector<std::vector<std::int64_t>> send_dirty_, recv_dirty_;
  // Whether each half was written in bulk mode — travels with the buffer
  // across the per-round swaps so the reset strategy always matches how the
  // half was written.
  bool send_bulk_ = false, recv_bulk_ = false;
  // Whether the all-clean invariant held when the last run exited (a thrown
  // step leaves it false and the next begin_run rebuilds both halves).
  bool clean_ = false;
  std::int64_t bulk_threshold_ = 0;
  std::int64_t dirty_cleared_ = 0;
};

/// The asynchronous delivery layer's randomness: one private latency stream
/// per directed edge plus the crash and late-joiner draws.
///
/// Every (sender, local round, port) transmission is one "pulse", silence
/// included, because under the alpha synchronizer the arrival of round-r
/// traffic IS the signal that the neighbour performed round r (paper,
/// "Synchronicity and time complexity"). draw_pulse() decides a pulse's
/// fate when it is sent: a latency from the edge's stream, losses (each
/// retransmitted after a timeout, up to an abandonment cap) and a possible
/// duplicate. The engine turns these arrival times into step times (see
/// the timing pass in src/runtime/runner.cpp); the payloads themselves
/// travel through the round-exact SynchronousNetwork.
///
/// Determinism contract: all draws come from per-edge streams split off a
/// network-tagged base seed (never the per-node algorithm streams), and an
/// edge's stream is consumed in its sender's round order — so every arrival
/// is a pure function of (topology, seed, options), independent of engine
/// thread count and shard count.
class DelayedNetwork {
 public:
  /// A pulse that never arrives (abandoned), and the "no duplicate" mark.
  static constexpr std::int64_t kNever =
      std::numeric_limits<std::int64_t>::max();

  /// Where one pulse lands: its arrival time (kNever when abandoned) and
  /// the arrival of its duplicate (kNever when none; always later).
  struct Pulse {
    std::int64_t arrival = kNever;
    std::int64_t duplicate = kNever;
  };

  /// Per-run preparation: derives edge/fault streams from `seed` and draws
  /// the crash/late-joiner sets. Capacity is kept across runs (workspace
  /// reuse).
  void begin_run(const Graph& graph, std::uint64_t seed,
                 const NetworkOptions& options);

  bool crashed(NodeId v) const {
    return crashed_[static_cast<std::size_t>(v)] != 0;
  }
  /// Extra wake delay of a late joiner (0 for punctual nodes).
  std::int64_t wake_delay(NodeId v) const {
    return wake_extra_[static_cast<std::size_t>(v)];
  }

  /// Draws the fate of the pulse `edge` carries when its sender steps at
  /// time `now`: the latency, then each loss (a retransmission after
  /// 2*max_delay ticks plus a fresh latency), then the duplicate. Inline,
  /// like the Rng draws under it: the delayed loop draws a pulse on every
  /// out-edge of every node in every local round.
  Pulse draw_pulse(std::int64_t edge, std::int64_t now) {
    Pulse pulse;
    std::int64_t delay = draw_delay(edge);
    if (opts_.drop >= 1.0) {
      // Degenerate knob: nothing is ever delivered, and nothing retries
      // forever.
      ++dropped_;
      return pulse;
    }
    Rng& rng = edge_rngs_[static_cast<std::size_t>(edge)];
    if (opts_.drop > 0.0) {
      int attempts = 0;
      while (rng.next_bool(opts_.drop)) {
        ++dropped_;
        if (++attempts >= kMaxRetransmits) return pulse;  // abandoned
        // Lost transmission: the sender retries after a timeout, so the
        // pulse arrives late rather than never (outputs stay those of the
        // synchronous run; only timestamps move).
        delay += retransmit_after_ + draw_delay(edge);
      }
    }
    pulse.arrival = now + delay;
    if (opts_.duplicate > 0.0 && rng.next_bool(opts_.duplicate)) {
      ++duplicated_;
      pulse.duplicate = pulse.arrival + draw_delay(edge);  // strictly later
    }
    return pulse;
  }

  std::int64_t dropped() const { return dropped_; }
  std::int64_t duplicated() const { return duplicated_; }
  std::int64_t arena_bytes() const;

 private:
  /// A transmission lost this many consecutive times is abandoned — the
  /// receiver stalls for good instead of waiting on endless retries. At
  /// drop=0.05 abandonment has probability 0.05^64: never; it only bites
  /// at adversarial drop rates.
  static constexpr int kMaxRetransmits = 64;

  /// Heavy-tail level cap: delays span [1, 2^17).
  static constexpr int kHeavyTailMaxLevel = 16;

  std::int64_t draw_delay(std::int64_t edge) {
    Rng& rng = edge_rngs_[static_cast<std::size_t>(edge)];
    switch (opts_.preset) {
      case DelayPreset::kUniform:
        return rng.next_in(1, opts_.max_delay);
      case DelayPreset::kWeighted:
        // The per-edge latency was drawn once in begin_run; transmissions
        // on this edge all take the same time (a "distance matrix").
        return edge_base_[static_cast<std::size_t>(edge)];
      case DelayPreset::kHeavyTail: {
        // Integer Pareto-like tail without libm (std::pow is not
        // bit-portable across libm builds): level t has probability
        // 2^-(t+1), the delay is uniform in [2^t, 2^(t+1)).
        const int level = std::min(std::countr_one(rng.next()),
                                   kHeavyTailMaxLevel);
        const std::int64_t lo = std::int64_t{1} << level;
        return lo + static_cast<std::int64_t>(
                        rng.next_below(static_cast<std::uint64_t>(lo)));
      }
    }
    return 1;
  }

  NetworkOptions opts_;
  std::int64_t retransmit_after_ = 0;

  std::vector<Rng> edge_rngs_;
  std::vector<std::int64_t> edge_base_;  // kWeighted per-edge latency
  std::vector<char> crashed_;
  std::vector<std::int64_t> wake_extra_;

  std::int64_t dropped_ = 0;
  std::int64_t duplicated_ = 0;
};

}  // namespace unilocal
