// Work-list primitives for the frontier-driven round engine
// (src/runtime/runner.cpp): stamp-keyed membership sets, wake-round
// admission schedules, and the timed-wake queue of sleeping nodes. Kept
// engine-agnostic and header-only so tests can exercise the scheduling
// logic without spinning up a full run (tests/frontier_test.cpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "src/graph/graph.h"

namespace unilocal {

/// O(1) insert-if-absent membership keyed by a monotone stamp (the engine
/// uses the global round number): bumping the stamp empties the set without
/// touching memory, so per-round candidate/frontier dedup costs nothing to
/// reset. reset() is O(n) and only needed when the node count changes or a
/// new run begins.
class StampSet {
 public:
  void reset(std::size_t n) { stamp_.assign(n, -1); }

  /// Records id as a member under `stamp`; true when it was not yet one.
  bool insert(std::size_t id, std::int64_t stamp) {
    if (stamp_[id] == stamp) return false;
    stamp_[id] = stamp;
    return true;
  }

  bool contains(std::size_t id, std::int64_t stamp) const {
    return stamp_[id] == stamp;
  }

 private:
  std::vector<std::int64_t> stamp_;
};

/// Wake-round admission queue for the synchronizer: nodes sorted by
/// (wake round, node id) and popped as the global clock advances. Negative
/// wake rounds are clamped to 0 (the reference engine treats them as
/// immediately awake). next_pending() lets the engine jump the global clock
/// over stretches with an empty eligible set instead of spinning one empty
/// round at a time; it skips (and permanently consumes) entries whose node
/// already finished, since those can never be admitted.
class WakeSchedule {
 public:
  void init(const std::vector<std::int64_t>& wake_rounds) {
    order_.clear();
    order_.reserve(wake_rounds.size());
    for (std::size_t v = 0; v < wake_rounds.size(); ++v)
      order_.emplace_back(std::max<std::int64_t>(wake_rounds[v], 0),
                          static_cast<NodeId>(v));
    std::sort(order_.begin(), order_.end());
    next_ = 0;
  }

  /// Calls f(node) for every not-yet-admitted node whose wake round is
  /// <= global, in (wake round, node id) order.
  template <typename F>
  void admit(std::int64_t global, F&& f) {
    while (next_ < order_.size() && order_[next_].first <= global) {
      f(order_[next_].second);
      ++next_;
    }
  }

  /// Wake round of the earliest pending node that is still unfinished, or
  /// nullopt when none remains.
  std::optional<std::int64_t> next_pending(const std::vector<char>& finished) {
    while (next_ < order_.size() &&
           finished[static_cast<std::size_t>(order_[next_].second)])
      ++next_;
    if (next_ >= order_.size()) return std::nullopt;
    return order_[next_].first;
  }

  bool exhausted() const { return next_ >= order_.size(); }

 private:
  std::vector<std::pair<std::int64_t, NodeId>> order_;
  std::size_t next_ = 0;
};

/// Timed wake-ups of sleeping nodes in the simultaneous loop: a (wake
/// round, node id) min-heap with lazy invalidation. A node woken early by a
/// message leaves its entry behind, and may sleep again with a new entry;
/// pop_due drops every entry the caller's predicate no longer vouches for,
/// so neither case needs a search of the heap. Nodes that wake and sleep
/// again many times before their round pile up stale entries; prune()
/// drops them in one pass when they outnumber the live ones. next_due()
/// lets the engine jump the clock to the earliest timed wake when no node
/// is awake.
class SleeperQueue {
 public:
  void clear() { heap_.clear(); }
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  void push(std::int64_t round, NodeId v) {
    heap_.emplace_back(round, v);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }

  /// Pops every entry with round <= now in (round, node id) order and calls
  /// wake(v) for those current(round, v) accepts; the rest are stale and
  /// are dropped.
  template <typename Current, typename Wake>
  void pop_due(std::int64_t now, Current&& current, Wake&& wake) {
    while (!heap_.empty() && heap_.front().first <= now) {
      const auto [round, v] = heap_.front();
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      heap_.pop_back();
      if (current(round, v)) wake(v);
    }
  }

  /// Round of the earliest entry current(round, v) accepts, or nullopt
  /// when none is left. Stale entries above it are dropped; the current one
  /// stays queued for pop_due.
  template <typename Current>
  std::optional<std::int64_t> next_due(Current&& current) {
    while (!heap_.empty()) {
      const auto [round, v] = heap_.front();
      if (current(round, v)) return round;
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      heap_.pop_back();
    }
    return std::nullopt;
  }

  /// Keeps one copy of each entry current(round, v) accepts and drops the
  /// rest. A sorted array is a valid heap, so no re-heapify is needed.
  template <typename Current>
  void prune(Current&& current) {
    std::erase_if(heap_, [&](const std::pair<std::int64_t, NodeId>& e) {
      return !current(e.first, e.second);
    });
    std::sort(heap_.begin(), heap_.end());
    heap_.erase(std::unique(heap_.begin(), heap_.end()), heap_.end());
  }

 private:
  std::vector<std::pair<std::int64_t, NodeId>> heap_;
};

}  // namespace unilocal
