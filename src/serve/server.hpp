// netcache_sweepd's engine: a single-threaded poll() event loop serving
// grid requests over a Unix or TCP socket.
//
// Parallelism is the set of fork-isolated worker children run by the same
// sweep::ChildPool as --isolate sweeps (supervisor.hpp: fork, deadline
// SIGKILL, retry/backoff, quarantine), so a crashing or hung cell never
// takes the daemon down; its quarantine diagnosis is forwarded in-band to
// every waiting client. The Planner (planner.hpp) dedups cells across
// concurrent requests and enforces the bounded admission queue; this file
// owns the sockets, admission, per-request deadlines and the drain state
// machine, and polls the pool's pipes alongside its own fds.
//
// Robustness contract (DESIGN.md section 15):
//  - bounded memory: admission queue bound (reject with a diagnosis, never
//    grow), connection bound, per-connection output buffer bound (a client
//    that stops reading is dropped, not buffered forever);
//  - per-cell deadlines: cell_timeout_s escalated x2 per retry attempt
//    (attempt_timeout_s), then quarantine; per-request deadlines: a
//    `timeout` request meta fails the request (not the daemon) when it
//    expires;
//  - graceful drain: SIGTERM/SIGINT stops accepting, rejects new requests,
//    fails queued cells in-band, lets running children finish within
//    drain_timeout_s (then SIGKILLs them), sends every client its `done`
//    frame with the partial grid, flushes, exits 0;
//  - crash-resume: completed cells are in the result cache (written by this
//    parent process the instant each child is harvested), so a daemon
//    SIGKILLed mid-grid and restarted re-serves the same request with only
//    the unfinished cells re-executed.
#pragma once

#include <cstddef>
#include <string>

#include "src/sweep/sweep.hpp"

namespace netcache::sweep {
class ResultCache;
}

namespace netcache::serve {

struct ServerOptions {
  /// Unix-domain socket path ("" = use tcp_port). A stale socket file from
  /// a crashed daemon is unlinked before bind — restart must always work.
  std::string socket_path;
  /// TCP listen port on 127.0.0.1 (used when socket_path is empty).
  int tcp_port = 0;
  /// Concurrent worker children (0 = sweep::default_jobs()).
  int jobs = 0;
  /// Admission-queue bound: queued (not yet running) jobs across all
  /// requests. Requests that would exceed it are rejected with a diagnosis.
  std::size_t max_queue = 256;
  /// Concurrent client connections; excess connects are turned away.
  std::size_t max_connections = 64;
  /// Per-connection output buffer bound; a slower reader is disconnected.
  std::size_t max_outbuf_bytes = 8u << 20;
  /// Grace period for running children after a stop signal.
  double drain_timeout_s = 30.0;
  /// Per-cell supervision (cell_timeout_s, cell_retries, backoff_s,
  /// forensics_dir). `enabled` is ignored: daemon workers are always
  /// process-isolated — that is the point of the daemon.
  sweep::IsolationOptions isolation;
  /// Log admissions/harvests/drain steps to stderr.
  bool verbose = false;
};

/// Runs the daemon to completion: bind + listen + serve until a stop signal
/// drains it. `cache` may be null (no warm path, no crash-resume). Returns
/// the process exit code (0 = clean drain; 1 = could not start, with the
/// reason on stderr).
int run_server(const ServerOptions& options, sweep::ResultCache* cache);

}  // namespace netcache::serve
