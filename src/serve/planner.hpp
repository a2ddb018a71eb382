// Dedup planner for the sweep-serving daemon and for isolated grids
// (sweep::run_supervised admits its whole grid as one request).
//
// The planner is the daemon's admission and fan-out brain, kept free of any
// process or socket machinery so it is unit-testable in isolation. It turns
// each admitted request into jobs — one per *distinct* cell — so a cell
// shared by concurrent requests (or repeated within one grid) simulates
// exactly once. The probe order is:
//
//   1. result cache: a warm cell is delivered at admission time (O(µs),
//      never a fork);
//   2. in-flight table: a cell already queued or running attaches this
//      request as another waiter;
//   3. otherwise a new job enters the bounded queue.
//
// Admission is two-phase: the planner first *counts* the new jobs a request
// would create, and only mutates its tables when the whole request fits the
// queue budget. An overloaded daemon therefore rejects the excess request
// with a diagnosis and provably retains no partial state from it — memory
// is bounded by (queue budget + running jobs + connected clients), never by
// offered load.
//
// Identity: jobs are keyed by the result cache's canonical key_description
// — the same text the cache fingerprints — so "same cell" here is exactly
// "same cell" there, version fingerprint included.
#pragma once

#include <cstddef>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "src/sweep/result_cache.hpp"
#include "src/sweep/sweep.hpp"

namespace netcache::serve {

class Planner {
 public:
  /// One finished cell addressed to one request: `index` is the cell's
  /// position in that request's grid (clients reassemble their grid by
  /// index, whatever order cells land in).
  struct Delivery {
    int request_id = 0;
    std::size_t index = 0;
    std::string label;
    sweep::CellResult result;
  };

  struct Admission {
    bool accepted = false;
    std::string reject_reason;  // set when !accepted
    std::size_t total_cells = 0;
    std::size_t new_jobs = 0;      // jobs this request added to the queue
    std::size_t attached = 0;      // cells joined to already-in-flight jobs
    /// Cache hits, served immediately at admission.
    std::vector<Delivery> immediate;
  };

  /// `cache` may be null (dedup still works via the in-flight table; there
  /// is just no warm path). `max_queued` bounds the number of queued
  /// (not-yet-running) jobs across all requests.
  Planner(sweep::ResultCache* cache, std::size_t max_queued);

  /// Admits or rejects one request's expanded grid atomically (see file
  /// comment). Request ids are caller-chosen and must be unique among live
  /// requests.
  Admission admit(int request_id, const std::vector<sweep::Cell>& cells);

  /// Pops the next queued job, marking it running. Returns the job id, or
  /// -1 when the queue is empty. FIFO across requests: cells are served in
  /// admission order (the paper's service-discipline framing — fair, no
  /// starvation under skew).
  long next_job();

  /// The cell a job id refers to (valid until complete(id)).
  const sweep::Cell& job_cell(long id) const;

  /// Finishes a running job: stores a verified success in the cache (the
  /// daemon is the parent-side writer, workers never touch the cache),
  /// fans the result out to every waiter, removes the job. Appends one
  /// Delivery per waiter to *out.
  void complete(long id, const sweep::CellResult& result,
                std::vector<Delivery>* out);

  /// Fails every *queued* job (drain path): each waiter gets a failed
  /// delivery with `error`. Running jobs are untouched — the server decides
  /// whether to let them finish or kill them.
  void fail_queued(const std::string& error, std::vector<Delivery>* out);

  /// Detaches a disconnected request everywhere. Queued jobs left with no
  /// waiters are dropped; running jobs keep executing (their result still
  /// lands in the cache for the next asker).
  void drop_request(int request_id);

  /// Cells not yet delivered for this request (0 = grid complete).
  std::size_t pending(int request_id) const;

  std::size_t queued_jobs() const { return queue_.size(); }
  std::size_t running_jobs() const;
  std::size_t max_queued() const { return max_queued_; }

 private:
  struct Waiter {
    int request_id = 0;
    std::size_t index = 0;
  };
  struct Job {
    sweep::Cell cell;
    std::string label;
    bool running = false;
    std::vector<Waiter> waiters;
  };

  std::string job_key(const sweep::Cell& cell);

  sweep::ResultCache* cache_;
  std::size_t max_queued_;
  long next_id_ = 1;
  long uncacheable_keys_ = 0;
  std::map<long, Job> jobs_;
  std::map<std::string, long> in_flight_;  // job_key -> job id
  std::deque<long> queue_;                 // queued job ids, FIFO
  std::map<int, std::size_t> pending_;     // request -> undelivered cells
};

}  // namespace netcache::serve
