// Time-ordered event queue for the discrete-event engine.
//
// Every event is "resume this coroutine", so a pending event is just a
// coroutine address plus a 16-bit trace tag (ResumeSlot) — trivially
// copyable, no allocation, no destructor. The queue is a timing wheel:
//  - Events within wheel_size() cycles of the cursor sit in a power-of-two
//    ring of FIFO buckets, one bucket per cycle. An event's time is not
//    stored; it is the time of the bucket that holds it.
//  - Far-future events go to a small overflow min-heap keyed by
//    (time, insertion seq). Whenever the cursor advances, every heap event
//    that the wider horizon now covers migrates into its bucket, in
//    (time, seq) order. No direct push can have reached such a bucket
//    before (it was beyond the horizon until now), so bucket order stays
//    insertion order, and every wheel event precedes every heap event.
//  - pop() drains the cursor's bucket, including delay-0 events appended
//    while it drains, and scans the occupancy bitmap only once it is empty.
//
// Determinism contract: events fire in (time, insertion-order) order,
// regardless of which internal structure held them.
#pragma once

#include <coroutine>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "src/common/nc_assert.hpp"
#include "src/common/types.hpp"

namespace netcache::sim {

/// One pending event in a wheel bucket: the coroutine to resume and its
/// optional protocol tag (see make_trace_tag in diagnostics.hpp: node id in
/// the low 12 bits, transaction kind in the high 4; 0 means untagged).
struct ResumeSlot {
  void* address;  // std::coroutine_handle<>::address()
  std::uint16_t tag;

  void fire() const { std::coroutine_handle<>::from_address(address).resume(); }
};
static_assert(std::is_trivially_copyable_v<ResumeSlot> &&
              sizeof(ResumeSlot) <= 16);

/// Where pushed events landed, and how often the structures degraded —
/// the observability needed to tune kWheelSize against real workloads
/// (gauss/wf have the longest TDMA frames and stress the overflow heap).
struct EventQueueStats {
  /// Events that landed in an O(1) wheel bucket on insertion.
  std::uint64_t wheel_pushes = 0;
  /// Events whose delay exceeded the wheel horizon (overflow min-heap,
  /// O(log n) push, migrated into the wheel when the cursor nears).
  std::uint64_t overflow_pushes = 0;
  /// Full re-bucketings triggered by below-cursor pushes (engine never does
  /// this; nonzero only in direct queue tests).
  std::uint64_t rebuilds = 0;
  /// One-shot auto-sizing: 1 once overflow traffic crossed the regrow
  /// threshold and the wheel was rebuilt at twice its size, else 0.
  std::uint64_t wheel_regrows = 0;

  double overflow_fraction() const {
    std::uint64_t total = wheel_pushes + overflow_pushes;
    return total > 0 ? static_cast<double>(overflow_pushes) /
                           static_cast<double>(total)
                     : 0.0;
  }
};

/// Timing wheel with far-future overflow heap. Ties in time break by
/// insertion order, which keeps the simulation deterministic.
class EventQueue {
 public:
  EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Near-future horizon: events within [cursor, cursor + wheel_size()) live
  /// in O(1) ring buckets; anything further sits in the overflow heap until
  /// the cursor approaches. kWheelSize is the initial size; a workload whose
  /// overflow traffic crosses the regrow threshold gets one rebuild at
  /// double the horizon (see wheel_regrows in stats()).
  static constexpr std::size_t kWheelBits = 12;
  static constexpr std::size_t kWheelSize = std::size_t{1} << kWheelBits;

  /// Auto-sizing guard: once at least kRegrowMinPushes events have been
  /// pushed, an overflow fraction above kRegrowOverflowFraction triggers the
  /// one-shot 2x regrow. Checked on overflow pushes only, so the fast wheel
  /// path pays nothing.
  static constexpr std::uint64_t kRegrowMinPushes = 8192;
  static constexpr double kRegrowOverflowFraction = 0.10;

  /// Schedules a resume of `h` at `time`.
  void push_resume(Cycles time, std::coroutine_handle<> h,
                   std::uint16_t tag = 0) {
    push_resume_batch(time, &h, 1, tag);
  }

  /// Schedules `n` same-time resumes in one call — the target bucket is
  /// located once and the handles appended in order (a barrier release
  /// resumes every party at one instant). Fire order matches n individual
  /// push_resume calls exactly. All n events share `tag`.
  void push_resume_batch(Cycles time, const std::coroutine_handle<>* hs,
                         std::size_t n, std::uint16_t tag = 0);

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Time of the earliest pending event. Undefined when empty.
  Cycles next_time() const;

  /// Removes and returns the earliest event (FIFO among same-time events).
  /// Its time is cursor() afterwards.
  ResumeSlot pop() {
    NC_ASSERT(size_ > 0, "pop on empty queue");
    std::size_t idx = static_cast<std::size_t>(cursor_) & wheel_mask_;
    if (wheel_[idx].empty()) idx = advance();
    std::vector<ResumeSlot>& bucket = wheel_[idx];
    const ResumeSlot slot = bucket[head_];
    if (++head_ == bucket.size()) {
      bucket.clear();
      head_ = 0;
      occupied_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
    }
    --size_;
    return slot;
  }

  /// Time of the bucket being drained: the time of the last popped event.
  /// Every pending event is at or after it.
  Cycles cursor() const { return cursor_; }

  /// Wheel/overflow occupancy counters since construction.
  const EventQueueStats& stats() const { return stats_; }

  /// Current wheel horizon (kWheelSize until a regrow fires, then 2x).
  std::size_t wheel_size() const { return wheel_size_; }

 private:
  /// A far-future event: the only place a time and an insertion seq are
  /// stored.
  struct FarEvent {
    Cycles time;
    std::uint64_t seq;
    ResumeSlot slot;
  };

  /// Appends `slot` at `time` (>= cursor_) to its bucket or the heap.
  void place(Cycles time, ResumeSlot slot);
  /// The cursor's bucket is drained: moves the cursor to the next occupied
  /// bucket (or the heap's earliest time), migrates, returns the bucket.
  std::size_t advance();
  /// Moves every heap event now inside the horizon into its bucket.
  void migrate();
  /// Re-buckets every pending event against `new_cursor` and a wheel of
  /// `new_size` buckets. Used by below-cursor pushes (which the engine never
  /// does; unit tests may) and by the one-shot regrow.
  void rebucket(Cycles new_cursor, std::size_t new_size);
  /// Earliest occupied wheel slot time, or -1 if the wheel is empty.
  Cycles wheel_next_time() const;

  std::vector<std::vector<ResumeSlot>> wheel_;  // wheel_size_ FIFO buckets
  std::vector<std::uint64_t> occupied_;  // wheel_size_ / 64 bitmap words
  std::size_t wheel_size_ = kWheelSize;  // always a power of two
  std::size_t wheel_mask_ = kWheelSize - 1;
  std::size_t head_ = 0;  // consumed prefix of the cursor's bucket
  std::vector<FarEvent> overflow_;  // min-heap by (time, seq)
  Cycles cursor_ = 0;  // wheel times in [cursor_, cursor_ + wheel_size_),
                       // heap times at or after cursor_ + wheel_size_
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
  EventQueueStats stats_;
};

}  // namespace netcache::sim
