#include "src/sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/task.hpp"

namespace netcache::sim {
namespace {

static_assert(std::is_trivially_copyable_v<ResumeSlot>);
static_assert(sizeof(ResumeSlot) <= 16);

constexpr Cycles kWheel = static_cast<Cycles>(EventQueue::kWheelSize);

/// Schedules `fn` at `time` as the resume of a detached one-shot coroutine.
template <typename F>
void push(EventQueue& q, Cycles time, F fn) {
  auto once = [](F f) -> Task<void> {
    f();
    co_return;
  };
  q.push_resume(time, once(std::move(fn)).release_detached());
}

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  push(q, 30, [&] { order.push_back(3); });
  push(q, 10, [&] { order.push_back(1); });
  push(q, 20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fire();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    push(q, 5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fire();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, NextTimeReportsEarliest) {
  EventQueue q;
  push(q, 42, [] {});
  push(q, 7, [] {});
  EXPECT_EQ(q.next_time(), 7);
  q.pop().fire();
  EXPECT_EQ(q.next_time(), 42);
  q.pop().fire();  // a pending resume would leak its coroutine frame
}

TEST(EventQueue, SizeTracksContents) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  push(q, 1, [] {});
  push(q, 2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.pop().fire();
  EXPECT_EQ(q.size(), 1u);
  q.pop().fire();  // a pending resume would leak its coroutine frame
}

TEST(EventQueue, InterleavedPushPop) {
  EventQueue q;
  std::vector<int> order;
  push(q, 10, [&] { order.push_back(1); });
  q.pop().fire();
  push(q, 5, [&] { order.push_back(2); });
  push(q, 1, [&] { order.push_back(3); });
  q.pop().fire();
  q.pop().fire();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(EventQueue, SameInstantResumesShareTimeline) {
  // Resumes at one instant interleave with earlier ones by insertion order.
  EventQueue q;
  std::vector<int> order;
  push(q, 3, [&] { order.push_back(0); });
  push(q, 3, [&] { order.push_back(1); });
  push(q, 1, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fire();
  EXPECT_EQ(order, (std::vector<int>{2, 0, 1}));
}

// --- timing-wheel determinism ---

TEST(EventQueue, SameCycleFifoAcrossWheelAndOverflow) {
  // Events at one instant must fire in insertion order even when the first
  // insertions land in the far-future overflow heap and later ones land in a
  // wheel bucket (after the cursor advanced within range of T).
  EventQueue q;
  std::vector<int> order;
  const Cycles kT = kWheel + 500;  // beyond the horizon of the first anchor
  push(q, 1, [&] { order.push_back(-2); });       // anchor: cursor near 1
  push(q, kT, [&] { order.push_back(0); });       // -> overflow
  push(q, kT, [&] { order.push_back(1); });       // -> overflow
  push(q, kWheel, [&] { order.push_back(-1); });  // advances cursor when popped
  q.pop().fire();  // @1
  q.pop().fire();  // @kWheel; horizon now covers kT
  push(q, kT, [&] { order.push_back(2); });  // -> wheel bucket
  push(q, kT, [&] { order.push_back(3); });  // -> wheel bucket
  while (!q.empty()) q.pop().fire();
  EXPECT_EQ(order, (std::vector<int>{-2, -1, 0, 1, 2, 3}));
}

TEST(EventQueue, FarFutureOverflowFiresInOrder) {
  // Far-future events parked in the overflow heap fire at the right times in
  // (time, insertion) order once the cursor reaches them.
  EventQueue q;
  std::vector<Cycles> fired;
  for (Cycles k = 8; k >= 1; --k) {
    Cycles t = k * kWheel + 17;
    push(q, t, [&fired, t] { fired.push_back(t); });
  }
  push(q, 3, [&fired] { fired.push_back(3); });
  std::vector<Cycles> times;
  while (!q.empty()) {
    times.push_back(q.next_time());
    q.pop().fire();
  }
  EXPECT_EQ(fired, times);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LT(fired[i - 1], fired[i]);
  }
  EXPECT_EQ(fired.size(), 9u);
}

TEST(EventQueue, WheelWrapKeepsBucketTimesApart) {
  // Times T and T + kWheelSize map to the same bucket index; the earlier one
  // must fire first and the later one must not fire early. Push/pop
  // interleaved right at the wrap edge.
  EventQueue q;
  std::vector<Cycles> fired;
  auto record = [&](Cycles t) {
    push(q, t, [&fired, t] { fired.push_back(t); });
  };
  record(10);              // bucket 10
  record(10 + kWheel);     // same bucket index, one lap later -> overflow
  record(10 + 2 * kWheel); // two laps later
  EXPECT_EQ(q.next_time(), 10);
  q.pop().fire();          // cursor now 10
  record(11);
  q.pop().fire();          // 11
  EXPECT_EQ(q.next_time(), 10 + kWheel);
  while (!q.empty()) q.pop().fire();
  EXPECT_EQ(fired, (std::vector<Cycles>{10, 11, 10 + kWheel, 10 + 2 * kWheel}));
}

TEST(EventQueue, SameCycleFifoSurvivesPushDuringDrain) {
  // Events scheduled for the instant currently being drained (delay-0
  // handoffs) run after the already-queued same-instant events.
  EventQueue q;
  std::vector<int> order;
  push(q, 7, [&] {
    order.push_back(0);
    push(q, 7, [&] { order.push_back(2); });
  });
  push(q, 7, [&] { order.push_back(1); });
  while (!q.empty()) {
    EXPECT_EQ(q.next_time(), 7);
    q.pop().fire();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

/// (time, id) pairs, in push or in fire order.
using Fired = std::vector<std::pair<Cycles, int>>;

/// The reference fire order: the pushes stably sorted by time.
Fired by_time(Fired pushed) {
  std::stable_sort(
      pushed.begin(), pushed.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  return pushed;
}

std::uint64_t xorshift(std::uint64_t& rng) {
  rng ^= rng << 13;
  rng ^= rng >> 7;
  rng ^= rng << 17;
  return rng;
}

/// 5000 times mixing near-future, bucket-colliding, and far-future delays.
std::vector<Cycles> random_times() {
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  std::vector<Cycles> times;
  for (int i = 0; i < 5000; ++i) {
    times.push_back(static_cast<Cycles>(
        xorshift(rng) % (3 * static_cast<std::uint64_t>(kWheel))));
  }
  return times;
}

/// 1.5 x kRegrowMinPushes times, ~1/3 of them past the initial horizon: far
/// over the 10% regrow threshold once enough pushes have accumulated.
std::vector<Cycles> regrow_times() {
  std::uint64_t rng = 0x853c49e6748fea9bull;
  const int n = 3 * static_cast<int>(EventQueue::kRegrowMinPushes) / 2;
  std::vector<Cycles> times;
  for (int i = 0; i < n; ++i) {
    const Cycles t = static_cast<Cycles>(
        xorshift(rng) % static_cast<std::uint64_t>(kWheel));
    times.push_back(i % 3 == 0 ? kWheel + t : t);
  }
  return times;
}

TEST(EventQueue, ManyEventsRandomTimesMatchReferenceOrder) {
  // Cross-check the wheel against a simple reference: stable sort by time.
  EventQueue q;
  Fired ref;
  Fired fired;
  const std::vector<Cycles> times = random_times();
  for (int i = 0; i < static_cast<int>(times.size()); ++i) {
    const Cycles t = times[static_cast<std::size_t>(i)];
    ref.emplace_back(t, i);
    push(q, t, [&fired, t, i] { fired.emplace_back(t, i); });
  }
  while (!q.empty()) q.pop().fire();
  EXPECT_EQ(fired, by_time(ref));
}

TEST(EventQueue, RegrowsOnceUnderFarFutureHeavyLoad) {
  // A workload whose delays routinely exceed the wheel horizon must trigger
  // the one-shot 2x regrow — and the regrow must not change fire order.
  EventQueue q;
  Fired ref;
  Fired fired;
  const std::vector<Cycles> times = regrow_times();
  for (int i = 0; i < static_cast<int>(times.size()); ++i) {
    const Cycles t = times[static_cast<std::size_t>(i)];
    ref.emplace_back(t, i);
    push(q, t, [&fired, t, i] { fired.emplace_back(t, i); });
  }
  EXPECT_EQ(q.stats().wheel_regrows, 1u);
  EXPECT_EQ(q.wheel_size(), 2 * EventQueue::kWheelSize);
  while (!q.empty()) q.pop().fire();
  EXPECT_EQ(fired, by_time(ref));
}

TEST(EventQueue, PushCountersMatchPinnedValues) {
  // wheel_pushes, overflow_pushes and wheel_regrows are serialized in every
  // RunSummary; their classification (by the cursor at push time) and the
  // regrow trigger are pinned to the values the queue has always reported.
  struct Pin {
    std::vector<Cycles> times;
    std::uint64_t wheel, overflow, regrows;
  };
  const Pin pins[] = {
      {random_times(), 1682, 3318, 0},
      {regrow_times(), 9557, 2731, 1},
  };
  for (const Pin& pin : pins) {
    EventQueue q;
    for (Cycles t : pin.times) push(q, t, [] {});
    EXPECT_EQ(q.stats().wheel_pushes, pin.wheel);
    EXPECT_EQ(q.stats().overflow_pushes, pin.overflow);
    EXPECT_EQ(q.stats().wheel_regrows, pin.regrows);
    while (!q.empty()) q.pop().fire();
  }
}

TEST(EventQueue, MigratedFarEventsPrecedeLaterDirectPushes) {
  // Far events at one time T sit in the overflow heap until the cursor's
  // horizon covers T; they then migrate into T's bucket ahead of the direct
  // pushes that can only now reach it. Direct pushes at T-1, T and T+1 made
  // after the migration must interleave exactly as a stable sort by time.
  EventQueue q;
  Fired ref;
  Fired fired;
  int next_id = 0;
  auto record = [&](Cycles t) {
    const int id = next_id++;
    ref.emplace_back(t, id);
    push(q, t, [&fired, t, id] { fired.emplace_back(t, id); });
  };
  const Cycles kT = kWheel + 100;
  record(0);  // anchors the cursor at 0: kT - 1 .. kT + 1 are far
  record(kT);
  record(kT + 1);
  record(kT);
  record(kT - 1);
  record(kT);
  // When the event at kA fires, the horizon covers kT + 1: its pushes land
  // in the wheel, behind the far events migrated on the way to kA.
  const Cycles kA = 200;
  const int anchor = next_id++;
  ref.emplace_back(kA, anchor);
  push(q, kA, [&, anchor] {
    fired.emplace_back(kA, anchor);
    record(kT);
    record(kT - 1);
    record(kT + 1);
    record(kT);
    record(kA);  // delay 0 while kA's bucket drains
  });
  record(kA);
  EXPECT_EQ(q.stats().overflow_pushes, 5u);
  while (!q.empty()) q.pop().fire();
  EXPECT_EQ(q.stats().wheel_pushes, 8u);
  EXPECT_EQ(q.stats().overflow_pushes, 5u);
  EXPECT_EQ(fired, by_time(ref));
}

TEST(EventQueue, NoRegrowForNearFutureWorkloads) {
  // Plenty of pushes but almost no overflow traffic: the wheel keeps its
  // initial size (the regrow guard never trips on healthy workloads).
  EventQueue q;
  for (std::uint64_t i = 0; i < 2 * EventQueue::kRegrowMinPushes; ++i) {
    push(q, static_cast<Cycles>(i % 100), [] {});
  }
  EXPECT_EQ(q.stats().wheel_regrows, 0u);
  EXPECT_EQ(q.wheel_size(), EventQueue::kWheelSize);
  while (!q.empty()) q.pop().fire();
}

}  // namespace
}  // namespace netcache::sim
