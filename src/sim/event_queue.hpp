// Time-ordered event queue for the discrete-event engine.
//
// Allocation-free in steady state:
//  - Events are tagged records, not std::function. The dominant event kind —
//    "resume this coroutine" — stores a raw coroutine handle. The rare
//    genuine-callback case stores the callable in a small inline buffer
//    (callables bigger than the buffer are boxed once on the heap).
//  - The queue is a hierarchical timing wheel: events within kWheelSize
//    cycles of the cursor go into a power-of-two ring of FIFO buckets
//    (O(1) push/pop); far-future events go to a small overflow min-heap and
//    are merged back by (time, seq) when the cursor reaches them.
//
// Determinism contract (same as the old priority-queue implementation):
// events fire in (time, insertion-order) order, regardless of which internal
// structure held them.
#pragma once

#include <coroutine>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/types.hpp"

namespace netcache::sim {

/// One scheduled event: either a coroutine to resume (common case, a raw
/// handle — no allocation, no indirection) or an arbitrary callable held in
/// inline storage. Movable, fire-once.
class Event {
 public:
  static constexpr std::size_t kInlineBytes = 40;

  Event() = default;

  Event(Event&& o) noexcept
      : time(o.time), seq(o.seq), tag(o.tag), ops_(o.ops_) {
    if (ops_) {
      ops_->relocate(storage_, o.storage_);
    } else {
      handle_ = o.handle_;
    }
    o.ops_ = nullptr;
    o.handle_ = nullptr;
  }

  Event& operator=(Event&& o) noexcept {
    if (this != &o) {
      reset();
      time = o.time;
      seq = o.seq;
      tag = o.tag;
      ops_ = o.ops_;
      if (ops_) {
        ops_->relocate(storage_, o.storage_);
      } else {
        handle_ = o.handle_;
      }
      o.ops_ = nullptr;
      o.handle_ = nullptr;
    }
    return *this;
  }

  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;
  ~Event() { reset(); }

  static Event make_resume(Cycles time, std::uint64_t seq,
                           std::coroutine_handle<> h, std::uint16_t tag = 0) {
    Event e;
    e.time = time;
    e.seq = seq;
    e.tag = tag;
    e.handle_ = h.address();
    return e;
  }

  template <typename F>
  static Event make_callback(Cycles time, std::uint64_t seq, F&& f,
                             std::uint16_t tag = 0) {
    using Fn = std::decay_t<F>;
    Event e;
    e.time = time;
    e.seq = seq;
    e.tag = tag;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(e.storage_)) Fn(std::forward<F>(f));
      e.ops_ = &ops_for<Fn>;
    } else {
      // Oversized/overaligned callable: box it once; the box pointer fits.
      auto box = std::make_unique<Fn>(std::forward<F>(f));
      auto thunk = [p = std::move(box)] { (*p)(); };
      using Thunk = decltype(thunk);
      static_assert(sizeof(Thunk) <= kInlineBytes);
      ::new (static_cast<void*>(e.storage_)) Thunk(std::move(thunk));
      e.ops_ = &ops_for<Thunk>;
    }
    return e;
  }

  /// Runs the event. Consumes it: afterwards the Event is empty.
  void fire() {
    if (ops_) {
      const Ops* ops = std::exchange(ops_, nullptr);
      ops->invoke(storage_);  // invoke destroys the callable when done
    } else if (handle_) {
      void* h = std::exchange(handle_, nullptr);
      std::coroutine_handle<>::from_address(h).resume();
    }
  }

  bool is_resume() const { return ops_ == nullptr && handle_ != nullptr; }

  Cycles time = 0;
  std::uint64_t seq = 0;
  /// Optional protocol tag (see make_trace_tag in diagnostics.hpp): node id
  /// in the low 12 bits, transaction kind in the high 4. Copied into the
  /// TraceRing record when the event fires; 0 means untagged.
  std::uint16_t tag = 0;

 private:
  struct Ops {
    void (*invoke)(void*);                 // call, then destroy in place
    void (*relocate)(void*, void*) noexcept;  // move-construct dst, destroy src
    void (*destroy)(void*) noexcept;
  };

  template <typename Fn>
  static constexpr Ops ops_for = {
      [](void* p) {
        Fn* f = std::launder(reinterpret_cast<Fn*>(p));
        Fn local(std::move(*f));
        f->~Fn();
        local();
      },
      [](void* dst, void* src) noexcept {
        Fn* s = std::launder(reinterpret_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*s));
        s->~Fn();
      },
      [](void* p) noexcept { std::launder(reinterpret_cast<Fn*>(p))->~Fn(); },
  };

  void reset() {
    if (ops_) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
    handle_ = nullptr;
  }

  const Ops* ops_ = nullptr;  // null: resume-or-empty; set: inline callback
  union {
    void* handle_;  // resume case: coroutine_handle address
    alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  };
};

/// Where pushed events landed, and how often the structures degraded —
/// the observability needed to tune kWheelSize against real workloads
/// (gauss/wf have the longest TDMA frames and stress the overflow heap).
struct EventQueueStats {
  /// Events that landed in an O(1) wheel bucket on insertion.
  std::uint64_t wheel_pushes = 0;
  /// Events whose delay exceeded the wheel horizon (overflow min-heap,
  /// O(log n) push/pop).
  std::uint64_t overflow_pushes = 0;
  /// Full re-bucketings triggered by below-cursor pushes (engine never does
  /// this; nonzero only in direct queue tests).
  std::uint64_t rebuilds = 0;
  /// One-shot auto-sizing: 1 once overflow traffic crossed the regrow
  /// threshold and the wheel was rebuilt at twice its size, else 0.
  std::uint64_t wheel_regrows = 0;
  /// High-water mark of the overflow heap.
  std::uint64_t max_overflow_size = 0;

  double overflow_fraction() const {
    std::uint64_t total = wheel_pushes + overflow_pushes;
    return total > 0 ? static_cast<double>(overflow_pushes) /
                           static_cast<double>(total)
                     : 0.0;
  }
};

/// Hierarchical timing wheel with far-future overflow heap. Ties in time
/// break by insertion order, which keeps the simulation deterministic.
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

  template <typename F>
  void push(Cycles time, F&& action, std::uint16_t tag = 0) {
    insert(Event::make_callback(time, next_seq_++, std::forward<F>(action),
                                tag));
  }

  /// Fast path: schedule a bare coroutine resume; no closure is built.
  void push_resume(Cycles time, std::coroutine_handle<> h,
                   std::uint16_t tag = 0) {
    insert(Event::make_resume(time, next_seq_++, h, tag));
  }

  /// Bulk fast path: schedules `n` same-time resumes in one call — the
  /// target bucket is located once and the handles appended in order (a
  /// barrier release resumes every party at one instant; pushing them one by
  /// one re-ran the bucket-selection logic per waiter). Fire order matches n
  /// individual push_resume calls exactly. All n events share `tag`.
  void push_resume_batch(Cycles time, const std::coroutine_handle<>* hs,
                         std::size_t n, std::uint16_t tag = 0);

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Time of the earliest pending event. Undefined when empty.
  Cycles next_time() const;

  /// Removes and returns the earliest event (FIFO among same-time events).
  Event pop();

  /// Wheel/overflow occupancy counters since construction.
  const EventQueueStats& stats() const { return stats_; }

  /// Current wheel horizon (kWheelSize until a regrow fires, then 2x).
  std::size_t wheel_size() const { return wheel_size_; }

 private:
  void insert(Event&& e);
  void place(Event&& e, bool account = true);
  /// Re-buckets every wheel event relative to a lower cursor. Only reachable
  /// by pushing a time below the cursor, which the engine never does (its
  /// clock is monotone); unit tests may.
  void rebuild(Cycles new_cursor);
  /// One-shot auto-sizing: doubles the wheel and re-buckets every pending
  /// event (preserving (time, seq) fire order) once overflow traffic shows
  /// the horizon is too short for this workload.
  void maybe_regrow();
  /// Earliest occupied wheel slot time, or -1 if the wheel is empty.
  Cycles wheel_next_time() const;

  std::vector<std::vector<Event>> wheel_;  // wheel_size_ FIFO buckets
  std::vector<std::uint32_t> heads_;       // consumed prefix per bucket
  std::vector<std::uint64_t> occupied_;    // wheel_size_ / 64 bitmap words
  std::size_t wheel_size_ = kWheelSize;    // always a power of two
  std::size_t wheel_mask_ = kWheelSize - 1;
  bool regrown_ = false;
  std::vector<Event> overflow_;  // min-heap by (time, seq)
  Cycles cursor_ = 0;            // all pending events have time >= cursor_
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
  EventQueueStats stats_;
};

}  // namespace netcache::sim
