#include "src/sim/event_queue.hpp"

#include <algorithm>
#include <bit>

namespace netcache::sim {

namespace {

/// Heap comparator: true when `a` fires after `b` (min-heap on (time, seq)).
struct Later {
  template <typename E>
  bool operator()(const E& a, const E& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

}  // namespace

EventQueue::EventQueue() : wheel_(kWheelSize), occupied_(kWheelSize / 64, 0) {}

void EventQueue::push_resume_batch(Cycles time,
                                   const std::coroutine_handle<>* hs,
                                   std::size_t n, std::uint16_t tag) {
  if (n == 0) return;
  if (size_ == 0) {
    // Empty queue: the cursor can snap anywhere, no events constrain it.
    cursor_ = time;
  } else if (time < cursor_) {
    rebucket(time, wheel_size_);
    ++stats_.rebuilds;
  }
  size_ += n;
  if (time - cursor_ < static_cast<Cycles>(wheel_size_)) {
    std::size_t idx = static_cast<std::size_t>(time) & wheel_mask_;
    std::vector<ResumeSlot>& bucket = wheel_[idx];
    for (std::size_t i = 0; i < n; ++i) {
      bucket.push_back({hs[i].address(), tag});
    }
    occupied_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
    stats_.wheel_pushes += n;
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    overflow_.push_back({time, next_seq_++, {hs[i].address(), tag}});
    std::push_heap(overflow_.begin(), overflow_.end(), Later{});
  }
  stats_.overflow_pushes += n;
  // One-shot auto-sizing: double the horizon once overflow traffic shows it
  // is too short for this workload.
  if (stats_.wheel_regrows == 0 &&
      stats_.wheel_pushes + stats_.overflow_pushes >= kRegrowMinPushes &&
      stats_.overflow_fraction() > kRegrowOverflowFraction) {
    rebucket(cursor_, 2 * wheel_size_);
    ++stats_.wheel_regrows;
  }
}

void EventQueue::place(Cycles time, ResumeSlot slot) {
  if (time - cursor_ < static_cast<Cycles>(wheel_size_)) {
    std::size_t idx = static_cast<std::size_t>(time) & wheel_mask_;
    wheel_[idx].push_back(slot);
    occupied_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
  } else {
    overflow_.push_back({time, next_seq_++, slot});
    std::push_heap(overflow_.begin(), overflow_.end(), Later{});
  }
}

void EventQueue::migrate() {
  const Cycles horizon = cursor_ + static_cast<Cycles>(wheel_size_);
  while (!overflow_.empty() && overflow_.front().time < horizon) {
    std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
    const FarEvent& e = overflow_.back();
    std::size_t idx = static_cast<std::size_t>(e.time) & wheel_mask_;
    wheel_[idx].push_back(e.slot);
    occupied_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
    overflow_.pop_back();
  }
}

std::size_t EventQueue::advance() {
  // Every wheel event precedes every heap event, so the heap is consulted
  // only when the wheel is empty.
  const Cycles tw = wheel_next_time();
  cursor_ = tw >= 0 ? tw : overflow_.front().time;
  migrate();
  return static_cast<std::size_t>(cursor_) & wheel_mask_;
}

void EventQueue::rebucket(Cycles new_cursor, std::size_t new_size) {
  // Collect the wheel's pending events in fire order: bucket by bucket from
  // the cursor, FIFO within each.
  std::vector<FarEvent> pending;
  pending.reserve(size_);
  for (std::size_t k = 0; k < wheel_size_; ++k) {
    const Cycles t = cursor_ + static_cast<Cycles>(k);
    std::vector<ResumeSlot>& bucket =
        wheel_[static_cast<std::size_t>(t) & wheel_mask_];
    for (std::size_t i = k == 0 ? head_ : 0; i < bucket.size(); ++i) {
      pending.push_back({t, 0, bucket[i]});
    }
    bucket.clear();
  }
  wheel_.resize(new_size);
  occupied_.assign(new_size / 64, 0);
  wheel_size_ = new_size;
  wheel_mask_ = new_size - 1;
  head_ = 0;
  cursor_ = new_cursor;
  // Wheel events that fall past a lowered horizon take fresh seqs, in fire
  // order; no heap event shares their time, so that order is kept. A wider
  // horizon instead pulls heap events in.
  for (const FarEvent& e : pending) place(e.time, e.slot);
  migrate();
}

Cycles EventQueue::wheel_next_time() const {
  const std::size_t words = occupied_.size();
  std::size_t start = static_cast<std::size_t>(cursor_) & wheel_mask_;
  std::size_t w0 = start >> 6;
  // First word: only bits at/after the cursor's slot belong to this lap.
  std::uint64_t first = occupied_[w0] & (~std::uint64_t{0} << (start & 63));
  for (std::size_t step = 0; step <= words; ++step) {
    std::size_t w = (w0 + step) & (words - 1);
    std::uint64_t bits = (step == 0) ? first
                         : (step == words)
                             ? occupied_[w] & ~(~std::uint64_t{0} << (start & 63))
                             : occupied_[w];
    if (bits) {
      std::size_t idx = (w << 6) +
                        static_cast<std::size_t>(std::countr_zero(bits));
      return cursor_ + static_cast<Cycles>((idx - start) & wheel_mask_);
    }
  }
  return -1;
}

Cycles EventQueue::next_time() const {
  NC_ASSERT(size_ > 0, "next_time on empty queue");
  const Cycles tw = wheel_next_time();
  return tw >= 0 ? tw : overflow_.front().time;
}

}  // namespace netcache::sim
