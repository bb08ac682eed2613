#include "src/runtime/network.h"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>

namespace unilocal {

namespace {

/// A transmission lost this many consecutive times is abandoned — the
/// receiver stalls for good instead of waiting on endless retries. At
/// drop=0.05 abandonment has probability 0.05^64: never; it only bites at
/// adversarial drop rates.
constexpr int kMaxRetransmits = 64;

/// Stream-tag salts separating the network's RNG bases from each other and
/// from the per-node algorithm streams (which split Rng(seed) by identity).
constexpr std::uint64_t kEdgeStreamSalt = 0x6e6574776f726b31ULL;   // "network1"
constexpr std::uint64_t kFaultStreamSalt = 0x6e6574776f726b32ULL;  // "network2"

/// Heavy-tail level cap: delays span [1, 2^17).
constexpr int kHeavyTailMaxLevel = 16;

}  // namespace

const char* delay_preset_name(DelayPreset preset) {
  switch (preset) {
    case DelayPreset::kUniform:
      return "uniform";
    case DelayPreset::kWeighted:
      return "weighted";
    case DelayPreset::kHeavyTail:
      return "heavytail";
  }
  return "uniform";
}

std::string network_spec_name(const NetworkOptions& options) {
  if (options.kind == NetworkKind::kSynchronous) return "sync";
  return std::string("delay:") + delay_preset_name(options.preset);
}

NetworkOptions parse_network_spec(const std::string& spec) {
  NetworkOptions options;
  if (spec == "sync") return options;
  options.kind = NetworkKind::kDelayed;
  if (spec == "delay:uniform") {
    options.preset = DelayPreset::kUniform;
    return options;
  }
  if (spec == "delay:weighted") {
    options.preset = DelayPreset::kWeighted;
    return options;
  }
  if (spec == "delay:heavytail") {
    options.preset = DelayPreset::kHeavyTail;
    return options;
  }
  throw std::runtime_error(
      "unknown network model '" + spec +
      "' (expected sync, delay:uniform, delay:weighted, or delay:heavytail)");
}

namespace {

/// Whole-string numeric parse; returns false on empty/trailing garbage.
bool parse_double(const std::string& text, double* value) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  *value = std::strtod(text.c_str(), &end);
  return errno == 0 && end == text.c_str() + text.size();
}

bool parse_i64(const std::string& text, std::int64_t* value) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  *value = std::strtoll(text.c_str(), &end, 10);
  return errno == 0 && end == text.c_str() + text.size();
}

}  // namespace

double parse_unit_interval(const char* flag, const std::string& text) {
  double value = 0.0;
  if (!parse_double(text, &value) || !(value >= 0.0) || !(value <= 1.0))
    throw std::runtime_error(std::string(flag) +
                             ": expected a probability in [0, 1], got '" +
                             text + "'");
  return value;
}

std::int64_t parse_positive_ticks(const char* flag, const std::string& text) {
  std::int64_t value = 0;
  if (!parse_i64(text, &value) || value < 1 || value > kMaxTicks)
    throw std::runtime_error(std::string(flag) +
                             ": expected an integer in [1, " +
                             std::to_string(kMaxTicks) + "], got '" + text +
                             "'");
  return value;
}

void validate_network_options(const NetworkOptions& options) {
  const auto check_unit = [](const char* name, double value) {
    if (!(value >= 0.0) || !(value <= 1.0))
      throw std::runtime_error(std::string("NetworkOptions::") + name +
                               " must be in [0, 1]");
  };
  check_unit("drop", options.drop);
  check_unit("duplicate", options.duplicate);
  check_unit("crash", options.crash);
  check_unit("late", options.late);
  const auto check_ticks = [](const char* name, std::int64_t value) {
    if (value < 1 || value > kMaxTicks)
      throw std::runtime_error(std::string("NetworkOptions::") + name +
                               " must be in [1, " + std::to_string(kMaxTicks) +
                               "], got " + std::to_string(value));
  };
  check_ticks("max_delay", options.max_delay);
  check_ticks("late_by", options.late_by);
}

// --- SynchronousNetwork ----------------------------------------------------

void SynchronousNetwork::begin_run(const CsrGraph& csr, int threads) {
  csr_ = &csr;
  const auto slots = static_cast<std::size_t>(csr.num_directed_edges());
  if (!clean_ || send_spans_.size() != slots || recv_spans_.size() != slots) {
    send_spans_.assign(slots, Span{});
    recv_spans_.assign(slots, Span{});
  }
  clean_ = false;
  const std::size_t nthreads = static_cast<std::size_t>(threads);
  send_words_.resize(nthreads);
  recv_words_.resize(nthreads);
  for (auto& buf : recv_words_) buf.clear();
  send_dirty_.resize(nthreads);
  recv_dirty_.resize(nthreads);
  for (auto& dirty : send_dirty_) dirty.clear();
  for (auto& dirty : recv_dirty_) dirty.clear();
  send_bulk_ = recv_bulk_ = false;
  bulk_threshold_ = static_cast<std::int64_t>(slots) / 4;
  dirty_cleared_ = 0;
}

void SynchronousNetwork::begin_round(std::int64_t prev_round_messages) {
  // Reset the slots written two rounds ago (stale in the send half after
  // the end_round swaps) using the strategy they were written under.
  reset_half(send_spans_, send_dirty_, send_bulk_);
  send_bulk_ = prev_round_messages >= bulk_threshold_;
  for (auto& buf : send_words_) buf.clear();
}

void SynchronousNetwork::end_round() {
  std::swap(send_spans_, recv_spans_);
  std::swap(send_words_, recv_words_);
  std::swap(send_dirty_, recv_dirty_);
  std::swap(send_bulk_, recv_bulk_);
}

void SynchronousNetwork::end_run() {
  // Both halves still hold the last two rounds' spans, each reset under the
  // strategy it was written with.
  reset_half(send_spans_, send_dirty_, send_bulk_);
  reset_half(recv_spans_, recv_dirty_, recv_bulk_);
  send_bulk_ = recv_bulk_ = false;
  clean_ = true;
}

void SynchronousNetwork::reset_half(
    std::vector<Span>& spans,
    std::vector<std::vector<std::int64_t>>& dirty_lists, bool bulk) {
  if (bulk) {
    std::fill(spans.begin(), spans.end(), Span{});
    for (auto& dirty : dirty_lists) dirty.clear();  // empty by invariant
    return;
  }
  for (auto& dirty : dirty_lists) {
    dirty_cleared_ += static_cast<std::int64_t>(dirty.size());
    for (const std::int64_t slot : dirty)
      spans[static_cast<std::size_t>(slot)].words = -1;
    dirty.clear();
  }
}

std::int64_t SynchronousNetwork::send_max_words() const {
  std::int64_t max_words = 0;
  if (send_bulk_) {
    for (const Span& s : send_spans_) max_words = std::max(max_words, s.words);
    return max_words;
  }
  // Every slot written this round is on exactly one dirty list.
  for (const auto& dirty : send_dirty_)
    for (const std::int64_t slot : dirty)
      max_words = std::max(max_words,
                           send_spans_[static_cast<std::size_t>(slot)].words);
  return max_words;
}

std::int64_t SynchronousNetwork::arena_bytes() const {
  std::int64_t bytes = 0;
  for (const auto& buf : send_words_)
    bytes += static_cast<std::int64_t>(buf.capacity()) * 8;
  for (const auto& buf : recv_words_)
    bytes += static_cast<std::int64_t>(buf.capacity()) * 8;
  for (const auto& dirty : send_dirty_)
    bytes += static_cast<std::int64_t>(dirty.capacity()) * 8;
  for (const auto& dirty : recv_dirty_)
    bytes += static_cast<std::int64_t>(dirty.capacity()) * 8;
  bytes += static_cast<std::int64_t>(
      (send_spans_.capacity() + recv_spans_.capacity()) * sizeof(Span));
  return bytes;
}

// --- DelayedNetwork --------------------------------------------------------

void DelayedNetwork::begin_run(const CsrGraph& csr, std::uint64_t seed,
                               const NetworkOptions& options) {
  opts_ = options;
  retransmit_after_ = 2 * opts_.max_delay;
  const std::size_t slots = static_cast<std::size_t>(csr.num_directed_edges());
  const std::size_t nn = static_cast<std::size_t>(csr.num_nodes());

  // One private stream per directed edge, consumed only at that edge's send
  // times — the draw sequence is a function of the sender's schedule alone.
  const Rng edge_base(splitmix64(seed ^ kEdgeStreamSalt));
  edge_rngs_.clear();
  edge_rngs_.reserve(slots);
  for (std::size_t e = 0; e < slots; ++e)
    edge_rngs_.push_back(edge_base.split(static_cast<std::uint64_t>(e)));
  if (opts_.preset == DelayPreset::kWeighted) {
    edge_base_.resize(slots);
    for (std::size_t e = 0; e < slots; ++e)
      edge_base_[e] = edge_rngs_[e].next_in(1, opts_.max_delay);
  }

  // Crash/late-joiner draws from one node-order pass over a dedicated
  // stream, so the fault sets depend only on (seed, n, knobs).
  crashed_.assign(nn, 0);
  wake_extra_.assign(nn, 0);
  if (opts_.crash > 0.0 || opts_.late > 0.0) {
    Rng fault_rng(splitmix64(seed ^ kFaultStreamSalt));
    for (std::size_t v = 0; v < nn; ++v) {
      crashed_[v] = fault_rng.next_bool(opts_.crash) ? 1 : 0;
      if (fault_rng.next_bool(opts_.late))
        wake_extra_[v] = fault_rng.next_in(1, opts_.late_by);
    }
  }
  dropped_ = duplicated_ = 0;
}

std::int64_t DelayedNetwork::draw_delay(std::int64_t edge) {
  Rng& rng = edge_rngs_[static_cast<std::size_t>(edge)];
  switch (opts_.preset) {
    case DelayPreset::kUniform:
      return rng.next_in(1, opts_.max_delay);
    case DelayPreset::kWeighted:
      // The per-edge latency was drawn once in begin_run; transmissions on
      // this edge all take the same time (a "distance matrix").
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

DelayedNetwork::Pulse DelayedNetwork::draw_pulse(std::int64_t edge,
                                                 std::int64_t now) {
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
      // Lost transmission: the sender retries after a timeout, so the pulse
      // arrives late rather than never (outputs stay those of the
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

std::int64_t DelayedNetwork::arena_bytes() const {
  return static_cast<std::int64_t>(edge_rngs_.capacity() * sizeof(Rng)) +
         static_cast<std::int64_t>(edge_base_.capacity()) * 8;
}

}  // namespace unilocal
