#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace unilocal {

/// A timed run's per-timestamp tallies (the pulse pass in
/// src/runtime/runner.cpp): the steps taken and the payload pulses
/// (duplicates included) arriving at one timestamp, and the worst skew
/// (arrival - send - 1) of any pulse arriving then, read off as three
/// maxima at the end of a run.
///
/// One open-addressing hash table: a power-of-two array of
/// {time, steps, payload, skew} slots, multiplicative hashing and linear
/// probing, with INT64_MIN (no tick takes it) marking an empty slot. Only
/// the ticks later rounds can still add to are kept: a tick below the
/// floor (the earliest time any node can still step) is final. When an
/// insert would fill the table past 3/4, a sweep folds the final ticks into
/// the running maxima and re-files the rest; if more than half the slots
/// would still be live, the table doubles first. A sweep copies only the
/// surviving ticks aside and frees the old array before it allocates a
/// larger one, so no second full-size table ever exists. Each run
/// starts at kMinSlots slots and grows from there, and finish frees the
/// array, so one long run's table does not stay resident through the
/// short runs after it.
///
/// Consecutive tallies mostly hit one tick, so the last slot looked up is
/// kept at hand until the next sweep. A silent pulse (no payload) only
/// matters for the skew; once a step at or after its arrival has been
/// tallied (`settled`), that arrival lies at or before the run's end
/// whatever the run's outcome (see finish), so its skew folds at once and
/// the table is not touched.
///
/// The caller's rules: floors never decrease, steps happen at or above the
/// floor, a pulse arrives after its sender's step, and finish gets the
/// run's last step time, that time + 1, or a time past every tick.
class TickTable {
 public:
  static constexpr std::size_t kMinSlots = 64;

  TickTable() { reset(); }

  /// Empties the table and zeroes the maxima (also after a run that threw
  /// before finish).
  void reset() {
    slots_.assign(kMinSlots, Slot{});
    shift_ = 64 - std::countr_zero(kMinSlots);
    live_ = 0;
    memo_time_ = kEmpty;
    floor_ = std::numeric_limits<std::int64_t>::min();
    settled_ = std::numeric_limits<std::int64_t>::min();
    peak_steps_ = peak_payload_ = max_skew_ = 0;
    peak_bytes_ = 0;
    note_bytes(kMinSlots);
  }

  /// Ticks below `floor` can no longer change (floors never decrease).
  void set_floor(std::int64_t floor) { floor_ = floor; }

  void add_step(std::int64_t time) {
    ++at(time).steps;
    settled_ = std::max(settled_, time);
  }

  /// Pulses arriving at `time` with `skew` (arrival - send - 1), `payload`
  /// of them messages.
  void add_arrival(std::int64_t time, std::int64_t skew,
                   std::int64_t payload) {
    if (payload == 0) {
      // A silent pulse cannot raise the skew past a maximum already
      // folded, and one landing by the latest step lands by the end.
      if (skew <= max_skew_) return;
      if (time <= settled_) {
        max_skew_ = skew;
        return;
      }
    }
    Slot& slot = at(time);
    slot.payload += payload;
    slot.skew = std::max(slot.skew, skew);
  }

  /// Folds every tick left, steps always and arrivals only up to `last`,
  /// and frees the table; the next run starts with reset.
  void finish(std::int64_t last) {
    for (const Slot& slot : slots_)
      if (slot.time != kEmpty) fold(slot, slot.time <= last);
    std::vector<Slot>().swap(slots_);
    live_ = 0;
    memo_time_ = kEmpty;
  }

  std::int64_t peak_steps() const { return peak_steps_; }
  std::int64_t peak_payload() const { return peak_payload_; }
  std::int64_t max_skew() const { return max_skew_; }
  /// The most slot storage the run held at once (a sweep's side copy
  /// included).
  std::int64_t bytes() const { return peak_bytes_; }

 private:
  static constexpr std::int64_t kEmpty =
      std::numeric_limits<std::int64_t>::min();

  struct Slot {
    std::int64_t time = kEmpty;
    std::int64_t steps = 0;
    std::int64_t payload = 0;
    std::int64_t skew = 0;
  };

  /// Fibonacci hashing: the top bits of time x 2^64/phi index the table.
  std::size_t home(std::int64_t time) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(time) * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  Slot& at(std::int64_t time) {
    if (time == memo_time_) return slots_[memo_];
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = home(time);
    while (slots_[i].time != time) {
      if (slots_[i].time == kEmpty) {
        if (4 * (live_ + 1) > 3 * slots_.size()) {
          sweep();
          return at(time);
        }
        slots_[i].time = time;
        ++live_;
        break;
      }
      i = (i + 1) & mask;
    }
    memo_ = i;
    memo_time_ = time;
    return slots_[i];
  }

  /// Folds the ticks below the floor and re-files the rest, into a table
  /// twice the size when they would fill more than half of this one.
  void sweep() {
    live_ = 0;
    for (Slot& slot : slots_) {
      if (slot.time == kEmpty) continue;
      if (slot.time < floor_) {
        fold(slot, true);
        slot.time = kEmpty;
      } else {
        ++live_;
      }
    }
    std::vector<Slot> survivors;
    survivors.reserve(live_);
    for (const Slot& slot : slots_)
      if (slot.time != kEmpty) survivors.push_back(slot);
    std::size_t size = slots_.size();
    if (2 * live_ > size) {
      size *= 2;
      std::vector<Slot>().swap(slots_);  // before the larger array
    }
    slots_.assign(size, Slot{});
    shift_ = 64 - std::countr_zero(size);
    note_bytes(size + survivors.size());
    const std::size_t mask = size - 1;
    for (const Slot& slot : survivors) {
      std::size_t i = home(slot.time);
      while (slots_[i].time != kEmpty) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  void note_bytes(std::size_t slots) {
    peak_bytes_ = std::max(peak_bytes_,
                           static_cast<std::int64_t>(slots * sizeof(Slot)));
  }

  void fold(const Slot& slot, bool arrivals) {
    peak_steps_ = std::max(peak_steps_, slot.steps);
    if (!arrivals) return;
    peak_payload_ = std::max(peak_payload_, slot.payload);
    max_skew_ = std::max(max_skew_, slot.skew);
  }

  std::vector<Slot> slots_;
  int shift_ = 64;  // 64 - log2(slots_.size())
  std::size_t live_ = 0;
  std::size_t memo_ = 0;
  std::int64_t memo_time_ = kEmpty;
  std::int64_t floor_ = std::numeric_limits<std::int64_t>::min();
  std::int64_t settled_ = std::numeric_limits<std::int64_t>::min();
  std::int64_t peak_steps_ = 0;
  std::int64_t peak_payload_ = 0;
  std::int64_t max_skew_ = 0;
  std::int64_t peak_bytes_ = 0;
};

}  // namespace unilocal
