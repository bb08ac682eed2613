// Work-list primitive of the simultaneous round loop
// (src/runtime/runner.cpp): the timed-wake queue of sleeping nodes. Kept
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
