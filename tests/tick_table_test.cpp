// TickTable (src/runtime/tick_table.h), a timed run's per-timestamp
// tallies, against a brute-force oracle: a std::map of every tick ever
// touched, with no sweeps, no memo and no early fold, whose maxima are read
// off at the end. Seeded random event streams follow the loop's rules —
// floors never decrease, steps happen at or above the floor, a pulse
// arrives after its sender's step, and finish gets the last step time (a
// finished delayed run), that time + 1 (a synchronous run) or kNever (a
// stalled run) — and cover sweeps, doubling, ticks 2^32 apart, pulses
// landing after the last step, and reuse of one table after reset.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "src/runtime/tick_table.h"

namespace unilocal {
namespace {

constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();

struct Oracle {
  struct Tick {
    std::int64_t steps = 0, payload = 0, skew = 0;
  };
  std::map<std::int64_t, Tick> ticks;

  void add_step(std::int64_t time) { ++ticks[time].steps; }
  void add_arrival(std::int64_t time, std::int64_t skew,
                   std::int64_t payload) {
    Tick& tick = ticks[time];
    tick.payload += payload;
    tick.skew = std::max(tick.skew, skew);
  }

  std::int64_t peak_steps = 0, peak_payload = 0, max_skew = 0;
  void finish(std::int64_t last) {
    for (const auto& [time, tick] : ticks) {
      peak_steps = std::max(peak_steps, tick.steps);
      if (time > last) continue;
      peak_payload = std::max(peak_payload, tick.payload);
      max_skew = std::max(max_skew, tick.skew);
    }
  }
};

/// Feeds one event to both tables.
struct Pair {
  TickTable& table;
  Oracle& oracle;
  void step(std::int64_t time) {
    table.add_step(time);
    oracle.add_step(time);
  }
  void arrival(std::int64_t time, std::int64_t skew, std::int64_t payload) {
    table.add_arrival(time, skew, payload);
    oracle.add_arrival(time, skew, payload);
  }
};

enum class Outcome { kFinished, kSynchronous, kStalled };

struct Episode {
  Outcome outcome = Outcome::kFinished;
  int nodes = 1;
  int degree = 1;
  int max_rounds = 1;
  std::int64_t spread = 0;     // start times drawn from [0, spread] x stride
  std::int64_t stride = 1;     // 2^32 puts whole groups of ticks far apart
  std::int64_t long_skew = 0;  // heavy tail of the pulse latencies
};

std::string describe(const Episode& e, std::uint64_t seed) {
  const char* outcome = e.outcome == Outcome::kFinished      ? "finished"
                        : e.outcome == Outcome::kSynchronous ? "synchronous"
                                                             : "stalled";
  return std::string(outcome) + " seed=" + std::to_string(seed) +
         " nodes=" + std::to_string(e.nodes) +
         " degree=" + std::to_string(e.degree) +
         " rounds=" + std::to_string(e.max_rounds) +
         " stride=" + std::to_string(e.stride) +
         " long_skew=" + std::to_string(e.long_skew);
}

/// Uniform in [0, bound).
std::int64_t draw(std::mt19937_64& rng, std::int64_t bound) {
  return static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(bound));
}

/// Plays one timed run: every round each active node steps at its time,
/// then pulses each out-edge; nodes finish after their own round count or
/// (stalled runs) stall for good; the floor is the earliest time an active
/// node can still step. Returns `last` as the loop would pass it.
std::int64_t play(const Episode& e, std::mt19937_64& rng, Pair& feed) {
  const auto below = [&rng](std::int64_t bound) { return draw(rng, bound); };
  const bool sync = e.outcome == Outcome::kSynchronous;
  std::vector<std::int64_t> time(static_cast<std::size_t>(e.nodes));
  std::vector<int> rounds_left(static_cast<std::size_t>(e.nodes));
  for (std::size_t v = 0; v < time.size(); ++v) {
    time[v] = below(e.spread + 1) * e.stride + below(3);
    rounds_left[v] = 1 + static_cast<int>(below(e.max_rounds));
  }
  std::vector<std::size_t> active(time.size());
  for (std::size_t v = 0; v < active.size(); ++v) active[v] = v;
  bool stalled = false;
  std::int64_t last_step = 0;
  for (int r = 0; !active.empty(); ++r) {
    if (r > 0) {
      for (const std::size_t v : active) {
        // The next time: the node's own gap plus a wait for late pulses.
        const std::int64_t wait = below(8);
        time[v] += sync ? 1 : 0;
        if (wait >= 4) time[v] += below(wait == 7 ? 200 : 6);
      }
    }
    for (const std::size_t v : active) {
      const std::int64_t now = time[v];
      feed.step(now);
      last_step = std::max(last_step, now);
      --rounds_left[v];
      for (int j = 0; j < e.degree; ++j) {
        if (sync) {
          feed.arrival(now + 1, 0, below(3) == 0 ? 0 : 1 + below(2));
          break;  // one tally per step, as the loop makes
        }
        const std::int64_t payload = below(3) == 0 ? 1 : 0;
        std::int64_t arrival = 0;
        switch (below(10)) {
          case 0:  // abandoned: never arrives
            continue;
          case 1:  // the tick right after the latest step so far
            arrival = std::max(now, last_step) + 1;
            break;
          case 2:  // exactly the latest step so far
            arrival = std::max(now + 1, last_step);
            break;
          case 3:
            arrival = now + 1 + below(e.long_skew + 1);
            break;
          default:
            arrival = now + 1 + below(4);
        }
        feed.arrival(arrival, arrival - now - 1, payload);
        if (below(4) == 0) {  // a duplicate, later than the original
          const std::int64_t dup = arrival + below(50);
          feed.arrival(dup, dup - now - 1, payload);
        }
      }
    }
    std::erase_if(active, [&](std::size_t v) {
      if (rounds_left[v] == 0) return true;
      if (e.outcome == Outcome::kStalled && below(40) == 0) {
        stalled = true;
        return true;
      }
      return false;
    });
    std::int64_t floor = kNever;
    for (const std::size_t v : active) floor = std::min(floor, time[v]);
    feed.table.set_floor(floor);
  }
  if (stalled) return kNever;
  return sync ? last_step + 1 : last_step;
}

Episode draw_episode(std::mt19937_64& rng, int index) {
  const auto below = [&rng](std::int64_t bound) { return draw(rng, bound); };
  Episode e;
  e.outcome = static_cast<Outcome>(index % 3);
  const bool big = index % 5 == 0;  // enough live ticks to double the table
  e.nodes = 1 + static_cast<int>(below(big ? 200 : 24));
  e.degree = 1 + static_cast<int>(below(6));
  e.max_rounds = 1 + static_cast<int>(below(big ? 80 : 30));
  e.spread = below(big ? 400 : 20);
  e.stride = index % 7 == 3 ? std::int64_t{1} << 32 : 1;
  const std::int64_t tails[] = {0, 5, 300, 20000, std::int64_t{1} << 32};
  e.long_skew = tails[below(5)];
  return e;
}

void expect_matches(const TickTable& table, const Oracle& oracle,
                    const std::string& label) {
  EXPECT_EQ(table.peak_steps(), oracle.peak_steps) << label;
  EXPECT_EQ(table.peak_payload(), oracle.peak_payload) << label;
  EXPECT_EQ(table.max_skew(), oracle.max_skew) << label;
}

TEST(TickTable, MatchesTheOracleOnRandomLockstepStreams) {
  TickTable table;  // one table for every episode: reuse after reset
  for (std::uint64_t seed = 1; seed <= 600; ++seed) {
    std::mt19937_64 rng(seed);
    const Episode episode = draw_episode(rng, static_cast<int>(seed));
    table.reset();
    Oracle oracle;
    Pair feed{table, oracle};
    const std::int64_t last = play(episode, rng, feed);
    table.finish(last);
    oracle.finish(last);
    expect_matches(table, oracle, describe(episode, seed));
    if (HasFailure()) return;
  }
}

TEST(TickTable, SilentPulsesAfterTheLastStepDoNotCount) {
  // A finished delayed run ends at its last step (tick 10): a silent pulse
  // landing one tick later, however skewed, arrives after the end.
  TickTable table;
  table.add_step(0);
  table.add_step(10);
  table.add_arrival(11, 10, 0);  // sent at 0
  table.add_arrival(10, 3, 0);   // sent at 6, lands at the end
  table.set_floor(kNever);
  table.finish(10);
  EXPECT_EQ(table.max_skew(), 3);
  EXPECT_EQ(table.peak_payload(), 0);
  EXPECT_EQ(table.peak_steps(), 1);

  // The same pulses in a synchronous run (which ends one tick later) or a
  // stalled one (which counts every pulse) do count.
  for (const std::int64_t last : {std::int64_t{11}, kNever}) {
    table.reset();
    table.add_step(0);
    table.add_step(10);
    table.add_arrival(11, 10, 0);
    table.set_floor(kNever);
    table.finish(last);
    EXPECT_EQ(table.max_skew(), 10) << last;
  }
}

TEST(TickTable, FinalTicksKeepTheTableSmall) {
  // Every tick but the newest is below the floor: sweeps fold them and
  // the table never doubles.
  TickTable table;
  for (std::int64_t t = 0; t < 100000; ++t) {
    table.add_step(t);
    table.add_arrival(t + 1, 0, 1);
    table.set_floor(t);
  }
  table.finish(kNever);
  EXPECT_EQ(table.peak_steps(), 1);
  EXPECT_EQ(table.peak_payload(), 1);
  EXPECT_LT(table.bytes(),
            static_cast<std::int64_t>(2 * TickTable::kMinSlots * 32));
}

TEST(TickTable, LiveTicksDoubleTheTable) {
  // 10,000 ticks all at or above the floor: the table doubles until they
  // fit at most 3/4 full, and holds at most four slots per live tick
  // (the sweep's side copy of the survivors included).
  constexpr std::int64_t kTicks = 10000;
  TickTable table;
  for (std::int64_t t = 0; t < kTicks; ++t) {
    table.add_step(t << 32);
    table.add_step(t << 32);
  }
  table.set_floor(kNever);
  table.finish(kNever);
  EXPECT_EQ(table.peak_steps(), 2);
  EXPECT_GE(table.bytes(), kTicks * 32 * 4 / 3);
  EXPECT_LE(table.bytes(), kTicks * 32 * 4);
}

TEST(TickTable, ResetForgetsTheLastRun) {
  TickTable table;
  for (int i = 0; i < 5; ++i) table.add_step(7);
  table.add_arrival(8, 4, 3);
  table.finish(kNever);
  EXPECT_EQ(table.peak_steps(), 5);
  table.reset();
  table.add_step(1);
  table.add_arrival(2, 0, 1);
  table.finish(kNever);
  EXPECT_EQ(table.peak_steps(), 1);
  EXPECT_EQ(table.peak_payload(), 1);
  EXPECT_EQ(table.max_skew(), 0);
}

}  // namespace
}  // namespace unilocal
