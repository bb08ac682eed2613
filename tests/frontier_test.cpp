// Unit tests for the frontier-engine work-list primitives
// (src/runtime/frontier.h): stamp-keyed membership, wake-round admission
// with jump-ahead, and the sleeping-node wake queue.
#include <gtest/gtest.h>

#include "src/runtime/frontier.h"

namespace unilocal {
namespace {

TEST(StampSet, InsertIsOncePerStamp) {
  StampSet set;
  set.reset(4);
  EXPECT_TRUE(set.insert(2, 0));
  EXPECT_FALSE(set.insert(2, 0));
  EXPECT_TRUE(set.contains(2, 0));
  EXPECT_FALSE(set.contains(1, 0));
  // Bumping the stamp empties the set without touching memory.
  EXPECT_TRUE(set.insert(2, 1));
  EXPECT_FALSE(set.contains(2, 0));
}

TEST(StampSet, ResetClearsMembership) {
  StampSet set;
  set.reset(2);
  EXPECT_TRUE(set.insert(0, 5));
  set.reset(2);
  EXPECT_TRUE(set.insert(0, 5));
}

TEST(WakeSchedule, AdmitsInWakeThenIdOrder) {
  WakeSchedule schedule;
  schedule.init({3, 0, 0, -2, 5});
  std::vector<NodeId> admitted;
  schedule.admit(0, [&](NodeId v) { admitted.push_back(v); });
  // Negative wake rounds clamp to 0; ties admit by node id.
  EXPECT_EQ(admitted, (std::vector<NodeId>{1, 2, 3}));
  admitted.clear();
  schedule.admit(2, [&](NodeId v) { admitted.push_back(v); });
  EXPECT_TRUE(admitted.empty());
  schedule.admit(4, [&](NodeId v) { admitted.push_back(v); });
  EXPECT_EQ(admitted, (std::vector<NodeId>{0}));
  EXPECT_FALSE(schedule.exhausted());
  schedule.admit(5, [&](NodeId v) { admitted.push_back(v); });
  EXPECT_TRUE(schedule.exhausted());
}

TEST(WakeSchedule, NextPendingSkipsFinishedNodes) {
  WakeSchedule schedule;
  schedule.init({0, 4, 7, 9});
  std::vector<char> finished(4, 0);
  schedule.admit(0, [](NodeId) {});
  // Nodes 1 and 2 finished before their wake rounds matter: the jump target
  // must be node 3's wake round, and the skipped entries are consumed.
  finished[1] = finished[2] = 1;
  const auto next = schedule.next_pending(finished);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, 9);
  std::vector<NodeId> admitted;
  schedule.admit(9, [&](NodeId v) { admitted.push_back(v); });
  EXPECT_EQ(admitted, (std::vector<NodeId>{3}));
  EXPECT_FALSE(schedule.next_pending(finished).has_value());
  EXPECT_TRUE(schedule.exhausted());
}

TEST(WakeSchedule, EmptyInit) {
  WakeSchedule schedule;
  schedule.init({});
  EXPECT_TRUE(schedule.exhausted());
  std::vector<char> finished;
  EXPECT_FALSE(schedule.next_pending(finished).has_value());
}

TEST(SleeperQueue, PopsDueEntriesInRoundThenIdOrder) {
  SleeperQueue queue;
  queue.push(7, 3);
  queue.push(4, 9);
  queue.push(4, 2);
  queue.push(12, 0);
  const auto always = [](std::int64_t, NodeId) { return true; };
  std::vector<NodeId> woken;
  queue.pop_due(3, always, [&](NodeId v) { woken.push_back(v); });
  EXPECT_TRUE(woken.empty());
  queue.pop_due(7, always, [&](NodeId v) { woken.push_back(v); });
  EXPECT_EQ(woken, (std::vector<NodeId>{2, 9, 3}));
  EXPECT_EQ(queue.size(), 1u);
  woken.clear();
  queue.pop_due(100, always, [&](NodeId v) { woken.push_back(v); });
  EXPECT_EQ(woken, (std::vector<NodeId>{0}));
  EXPECT_TRUE(queue.empty());
}

TEST(SleeperQueue, DropsStaleEntries) {
  // Node 5 slept until round 10, woke early on a message and went back to
  // sleep until round 6; node 1 woke early and stayed awake. Only the
  // entries the caller still vouches for wake anyone.
  SleeperQueue queue;
  std::vector<std::int64_t> wake_at(8, 0);
  queue.push(10, 5);
  queue.push(10, 1);
  wake_at[5] = 6;
  queue.push(6, 5);
  const auto current = [&](std::int64_t r, NodeId v) {
    return wake_at[static_cast<std::size_t>(v)] == r;
  };
  std::vector<NodeId> woken;
  const auto wake = [&](NodeId v) {
    woken.push_back(v);
    wake_at[static_cast<std::size_t>(v)] = 0;
  };
  queue.pop_due(6, current, wake);
  EXPECT_EQ(woken, (std::vector<NodeId>{5}));
  queue.pop_due(10, current, wake);
  EXPECT_EQ(woken, (std::vector<NodeId>{5}));  // both round-10 entries stale
  EXPECT_TRUE(queue.empty());
}

TEST(SleeperQueue, DuplicateEntryWakesOnce) {
  // A node woken early that sleeps again until the same round leaves two
  // equal entries; the caller's predicate rejects the second once the
  // first has woken it.
  SleeperQueue queue;
  bool asleep = true;
  queue.push(3, 4);
  queue.push(3, 4);
  int wakes = 0;
  queue.pop_due(
      3, [&](std::int64_t, NodeId) { return asleep; },
      [&](NodeId) {
        ++wakes;
        asleep = false;
      });
  EXPECT_EQ(wakes, 1);
  EXPECT_TRUE(queue.empty());
  queue.clear();
  EXPECT_TRUE(queue.empty());
}

TEST(SleeperQueue, PruneKeepsOneCopyOfCurrentEntries) {
  SleeperQueue queue;
  std::vector<std::int64_t> wake_at{9, 0, 5, 0};
  for (const auto& [round, v] : std::vector<std::pair<std::int64_t, NodeId>>{
           {9, 0}, {4, 0}, {9, 0}, {6, 1}, {5, 2}, {7, 2}, {5, 2}})
    queue.push(round, v);
  const auto current = [&](std::int64_t r, NodeId v) {
    return wake_at[static_cast<std::size_t>(v)] == r;
  };
  queue.prune(current);
  EXPECT_EQ(queue.size(), 2u);
  std::vector<NodeId> woken;
  queue.pop_due(100, current, [&](NodeId v) { woken.push_back(v); });
  EXPECT_EQ(woken, (std::vector<NodeId>{2, 0}));
}

TEST(SleeperQueue, NextDuePeeksTheEarliestCurrentEntry) {
  SleeperQueue queue;
  queue.push(9, 1);
  queue.push(5, 3);
  queue.push(5, 0);
  const auto always = [](std::int64_t, NodeId) { return true; };
  EXPECT_EQ(queue.next_due(always), std::optional<std::int64_t>(5));
  EXPECT_EQ(queue.size(), 3u);  // peeking pops nothing
  std::vector<NodeId> woken;
  queue.pop_due(5, always, [&](NodeId v) { woken.push_back(v); });
  EXPECT_EQ(woken, (std::vector<NodeId>{0, 3}));
  EXPECT_EQ(queue.next_due(always), std::optional<std::int64_t>(9));
}

TEST(SleeperQueue, NextDueDropsStaleEntriesAboveTheCurrentOne) {
  // Node 2 woke early from its round-4 sleep and now sleeps until round 8;
  // node 6's round-3 entry is stale too. Both stale entries sit above the
  // first current one and are dropped; later entries stay untouched.
  SleeperQueue queue;
  std::vector<std::int64_t> wake_at{0, 0, 8, 0, 0, 0, 0, 12};
  queue.push(4, 2);
  queue.push(3, 6);
  queue.push(8, 2);
  queue.push(12, 7);
  queue.push(10, 6);
  const auto current = [&](std::int64_t r, NodeId v) {
    return wake_at[static_cast<std::size_t>(v)] == r;
  };
  EXPECT_EQ(queue.next_due(current), std::optional<std::int64_t>(8));
  EXPECT_EQ(queue.size(), 3u);  // (8, 2), (10, 6), (12, 7)
  std::vector<NodeId> woken;
  queue.pop_due(100, current, [&](NodeId v) { woken.push_back(v); });
  EXPECT_EQ(woken, (std::vector<NodeId>{2, 7}));
}

TEST(SleeperQueue, NextDueIsEmptyWithoutCurrentEntries) {
  SleeperQueue queue;
  const auto never = [](std::int64_t, NodeId) { return false; };
  EXPECT_EQ(queue.next_due(never), std::nullopt);
  queue.push(2, 0);
  queue.push(7, 1);
  EXPECT_EQ(queue.next_due(never), std::nullopt);
  EXPECT_TRUE(queue.empty());
}

}  // namespace
}  // namespace unilocal
