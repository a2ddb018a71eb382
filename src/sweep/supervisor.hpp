// Process-isolated sweep execution (the --isolate mode).
//
// The in-process driver is fast but fragile: one crashing cell (a simulator
// bug, an unrecovered fault, a pathological big-machine config) aborts the
// whole binary and loses the grid; one livelocked cell hangs it forever.
// The supervisor runs each cell *attempt* in its own forked child process —
// the run_cell entrypoint — so the blast radius of a crash is exactly one
// cell, a wall-clock timeout can SIGKILL a livelock, and the grid always
// completes with the poisoned cells marked failed.
//
// Isolation boundary (documented in DESIGN.md section 14): the child is
// fork()ed, not exec()ed. Cells carry std::function closures (tweak,
// make_workload) that cannot be serialized across an exec boundary; fork
// inherits them for free, and the parent stays single-threaded during
// supervision (its parallelism is the set of child processes), so the
// classic fork-from-a-threaded-process hazards do not apply. The child
// resets signal dispositions, runs exactly one cell, writes one result
// frame to a pipe — the RunSummary in the result cache's %a hex-float
// serialization, bit-identical to an in-process run — and _exit()s.
//
// Failure taxonomy:
//  - in-band failure: the child caught a SimError (deadlock diagnosis,
//    watchdog, bad config) and reported it over the pipe, exiting 0. That is
//    a *deterministic* simulation outcome: recorded as failed, never
//    retried.
//  - process-level failure: the child died on a signal, exited nonzero,
//    produced a garbled/partial frame, or outlived the timeout. Possibly
//    transient (OOM kill, machine pressure): retried with exponential
//    backoff up to cell_retries, then quarantined with a FailureRecord
//    holding exit status, signal, and the stderr tail (the FailureReporter
//    forensics for crashes).
//
// Successful verified results are stored in the result cache by the parent,
// so re-running a partially failed grid re-executes only the failed cells.
// The same ChildPool runs the serving daemon's workers (src/serve/).
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include <poll.h>
#include <sys/types.h>

#include "src/sweep/sweep.hpp"

namespace netcache::serve {
class Planner;
}

namespace netcache::sweep {

// --- Graceful-stop support (SIGINT/SIGTERM) --------------------------------
// A sweep driver (bench_main, netcache_sim) installs the handlers around
// run(); both execution modes then honor the flag: the threaded pool stops
// popping tasks, the supervisor stops dispatching, SIGKILLs active children,
// and reaps them. Cells that never ran are marked failed with an
// "interrupted" error so callers can print a partial-grid summary and exit
// nonzero. Completed results are untouched (and already in the cache).

/// Installs SIGINT/SIGTERM handlers that set the stop flag. Idempotent.
void install_stop_handlers();
/// Restores the dispositions saved by install_stop_handlers().
void remove_stop_handlers();
/// True once a stop signal arrived (or request_stop was called).
bool stop_requested();
/// The signal that requested the stop, 0 if none.
int stop_signal();
/// Sets the stop flag programmatically (tests; also the signal handler).
void request_stop(int sig);
/// Clears the flag (tests; a process that chooses to continue).
void clear_stop();

/// Runs `cells` under process isolation with at most `jobs` concurrent
/// children and returns results in submission order. The grid is admitted
/// as one request to a serve::Planner, so duplicate cells simulate once and
/// `cache` (may be null) is consulted at admission and populated by the
/// parent as each verified result lands — children never touch it. Called
/// by SweepDriver::run(); callable directly by tests.
std::vector<CellResult> run_supervised(const std::vector<Cell>& cells,
                                       int jobs,
                                       const IsolationOptions& opts,
                                       ResultCache* cache);

/// The supervised child pool shared by run_supervised() and netcache_sweepd.
/// It owns every attempt from fork to verdict: the forked child runs exactly
/// one cell and writes one length-prefixed result frame (the result cache's
/// %a hex-float RunSummary serialization) over a pipe; the pool enforces the
/// attempt_timeout_s() deadline with SIGKILL, decodes the frame, classifies
/// the exit, writes per-attempt forensics, retries process-level failures
/// after backoff_s * 2^(attempt-1) up to cell_retries, and finally
/// quarantines them with a FailureRecord. In-band failures are never retried.
///
/// The pool never blocks: its owner polls the fds from add_pollfds() (plus
/// its own) with a timeout no later than next_wakeup(), then hands the
/// revents back to handle(). Jobs come from a serve::Planner; each finished
/// job is returned as one Outcome for the owner to complete in the planner.
class ChildPool {
 public:
  using Clock = std::chrono::steady_clock;

  struct Outcome {
    long job = -1;
    CellResult result;
  };

  ChildPool(const IsolationOptions& opts, int slots);
  /// Kills and reaps any child still running: the pool never orphans one.
  ~ChildPool();
  ChildPool(const ChildPool&) = delete;
  ChildPool& operator=(const ChildPool&) = delete;

  /// Fills free slots: retries whose backoff has elapsed first, then new jobs
  /// from planner.next_job(). `close_in_child` lists the owner's fds a child
  /// must not inherit (listening sockets, client connections). A failed
  /// pipe()/fork() finishes its job at once.
  void fill(serve::Planner& planner, const std::vector<int>& close_in_child,
            std::vector<Outcome>* out);

  /// Appends one pollfd per running child, in the order handle() expects.
  void add_pollfds(std::vector<pollfd>* fds) const;
  /// Earliest attempt deadline or retry ready time (time_point::max() when
  /// there is neither).
  Clock::time_point next_wakeup() const;
  /// Consumes the revents of the pollfds add_pollfds() appended: drains the
  /// pipes, SIGKILLs attempts past their deadline, reaps finished children.
  void handle(const pollfd* revents, std::vector<Outcome>* out);

  /// SIGKILLs and reaps every running child; each job fails with `reason`.
  void kill_all(const std::string& reason, std::vector<Outcome>* out);
  /// Fails every job waiting out a backoff with `reason`; from now on a
  /// process-level failure is quarantined at once instead of retried.
  void drop_retries(const std::string& reason, std::vector<Outcome>* out);

  std::size_t running() const { return children_.size(); }
  std::size_t retrying() const { return backoffs_.size(); }
  bool idle() const { return children_.empty() && backoffs_.empty(); }

 private:
  /// One running attempt, parent side.
  struct Child {
    long job = -1;
    const Cell* cell = nullptr;  // owned by the planner until completion
    int attempt = 1;             // 1-based
    pid_t pid = -1;
    int fd = -1;  // nonblocking read end of the result pipe
    std::string stderr_path;  // the child's captured stderr
    bool timed_out = false;
    Clock::time_point deadline = Clock::time_point::max();
    std::string buf{};  // the result frame read so far
  };
  /// A failed attempt waiting out its backoff before the next one.
  struct Backoff {
    long job = -1;
    const Cell* cell = nullptr;
    int attempt = 1;  // the attempt to run next
    Clock::time_point ready;
  };

  void start(long job, const Cell* cell, int attempt,
             const std::vector<int>& close_in_child,
             std::vector<Outcome>* out);
  void reap(Child& c, std::vector<Outcome>* out);

  IsolationOptions opts_;
  std::size_t slots_;
  bool retrying_ = true;
  std::vector<Child> children_;
  std::vector<Backoff> backoffs_;
};

/// Wall-clock budget for attempt number `attempt` (1-based): the base
/// cell_timeout_s doubled per retry and capped at 8x. A slow-but-correct
/// cell that times out is therefore not SIGKILLed identically on every
/// retry until its whole budget is burned — each retry gets more room,
/// while a true livelock still dies within a bounded multiple of the base
/// budget. Returns 0 (no timeout) when cell_timeout_s is 0.
double attempt_timeout_s(const IsolationOptions& opts, int attempt);

}  // namespace netcache::sweep
