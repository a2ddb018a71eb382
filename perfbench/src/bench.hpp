// Shared pieces of the repository benchmark driver: options, the host-speed
// calibration loop, the in-memory span tracer, per-pass bookkeeping and the
// metric/report output. The three workloads live in grid.cpp (paper-grid,
// wide-256) and served.cpp (served-verified); layers.cpp holds the traced
// run's per-layer measurements.
#pragma once

#include <sched.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/core/run_summary.hpp"
#include "src/sweep/sweep.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string sweepd;   // netcache_sweepd binary (served-verified)
  std::string workdir;  // scratch directory inside the checkout
  std::string source_hash;  // content hash of the sources, from run.py
};

/// Keeps a timed loop's result observable so the compiler cannot drop it.
inline void keep(std::uint64_t v) { asm volatile("" : : "r"(v) : "memory"); }

/// SplitMix64 step: every seed-derived choice in the benchmark goes through
/// this, so one --seed fixes the whole input.
std::uint64_t mix(std::uint64_t x);

// ---- Host-speed calibration -----------------------------------------------------

/// Times a fixed benchmark-owned loop (dependent loads over a 4 MiB
/// permutation) and returns the median of five repetitions in ms. It never
/// changes with the program and rises when other tenants load the host, so
/// it tells a host slowdown from a program slowdown.
double calib_ms();

/// Host times are reported at the host speed where calib_ms() reads this
/// many ms: raw x (kCalibRefMs / the run's calibration)^kCalibExponent. The
/// run's calibration is the median of dozens of readings timed while the
/// passes run (PassResult::dense_calib_ms). The exponent is the measured
/// sensitivity: over 32 wide-256 runs, log(sum of per-cell fastest times)
/// rose with log(that median) at a slope of 0.62 and 0.72 (correlation 0.93
/// and 0.96); over 8 paper-grid runs, log(fastest pass) at 0.63 (0.75). Two
/// readings per pass, around it, correlated at 0.5-0.57 only.
constexpr double kCalibRefMs = 6.0;
constexpr double kCalibExponent = 0.7;

/// Times calib_ms() every 0.5 s on a thread of its own, from construction
/// until stop(): host-speed readings taken while a pass runs, for passes
/// whose work runs in other processes. The pass may fork while the thread
/// runs: the thread takes only its own mutex, which no forked child uses.
class CalibSampler {
 public:
  CalibSampler();
  ~CalibSampler();
  CalibSampler(const CalibSampler&) = delete;
  CalibSampler& operator=(const CalibSampler&) = delete;
  /// Stops the thread and returns its readings (at least one).
  std::vector<double> stop();

 private:
  std::mutex mu_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::vector<double> readings_;
  std::thread thread_;
};

/// Pins the calling thread to one CPU at a time out of the set it was
/// allowed when constructed, and restores that set when destroyed. On a
/// shared host each vCPU slows down on its own, for about a second at a
/// time, so serial work that stays on one vCPU inherits that vCPU's luck.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  /// Pins to allowed CPU number `k` modulo the number of allowed CPUs.
  void pin(std::size_t k);

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
};

// ---- Spans ------------------------------------------------------------------

struct Span {
  std::string name;
  double start_s = 0;  // seconds since the tracer's origin
  double end_s = 0;
  int parent = -1;     // index into spans(), -1 for a root
  long request = 0;    // request id shared by a request's spans (0 = none)
};

/// In-memory span recorder for the traced run. Disabled tracers record
/// nothing and cost one branch per call.
class Tracer {
 public:
  /// Call only while no other thread records spans.
  void enable(bool on) { enabled_ = on; }
  /// Opens a span; returns its index (or -1 when disabled).
  int begin(const std::string& name, int parent = -1, long request = 0);
  void end(int index);
  /// Call only while no other thread records spans.
  const std::vector<Span>& spans() const { return spans_; }
  /// Self time per span name: duration minus the part covered by children.
  std::map<std::string, double> self_seconds() const;
  /// Writes every span as one JSON document.
  bool write_json(const std::string& path) const;

 private:
  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  // Client threads of served-verified record spans concurrently.
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

Tracer& tracer();

/// RAII span.
class Scoped {
 public:
  Scoped(const std::string& name, int parent = -1, long request = 0)
      : index_(tracer().begin(name, parent, request)) {}
  ~Scoped() { tracer().end(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  int index() const { return index_; }

 private:
  int index_;
};

// ---- Results ----------------------------------------------------------------

/// One ok cell's canonical result for the digest: the serialized summary
/// with wall_seconds zeroed.
std::string canonical(const netcache::core::RunSummary& s);
std::uint64_t fnv1a(const std::string& text, std::uint64_t h);
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/// Everything one whole pass produced.
struct PassResult {
  double wall_s = 0;        // host seconds
  double calib_ms = 0;      // mean of the calibrations around the pass
  /// Calibrations timed during the pass: before each cell on the cell's CPU
  /// (wide-256), or by a CalibSampler (paper-grid, served-verified).
  std::vector<double> dense_calib_ms;
  std::size_t cells = 0;    // attempted
  std::size_t ok = 0;
  std::uint64_t refs = 0;   // simulated shared reads + writes
  std::uint64_t digest = 0;
  /// Per-item latency in a fixed item order (a cell, or a served request);
  /// +inf = failed.
  std::vector<double> latencies_s;
  std::vector<netcache::core::RunSummary> summaries;  // ok cells, cell order
  double busy_s = 0;        // sum of simulated cells' wall_seconds
  int workers = 1;
  // served-verified only
  std::size_t from_cache = 0;
  std::size_t attached = 0;
  std::size_t simulations = 0;
  std::vector<double> first_cell_s;
};

/// A metric as printed: value with unit.
struct Metric {
  double value;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Runs whole passes until the next one would overrun `seconds` (at least
/// two), timing the calibration loop before the first pass and after every
/// pass. Passes whose ok count or digest disagree with the first fail the
/// run.
std::vector<PassResult> run_passes(const Options& opt,
                                   const std::function<PassResult(int)>& pass,
                                   std::string* error);

/// Percentile (linear between closest ranks, so a rank swap at a gap moves
/// it smoothly) and median of `v`; 0 when `v` is empty.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// Peak resident set (MB) of this process and every waited-for descendant.
double peak_rss_mb();

/// How wall_s is estimated from the passes of one run.
enum class WallEstimate {
  kBestPass,     // fastest whole pass (parallel workers)
  kBestPerItem,  // sum over items of each item's fastest pass (serial cells)
};

/// End-to-end metrics common to every workload. Interference on this host
/// only ever slows work down: in bursts within a run, which the estimators
/// drop by taking the fastest of the passes (wall_s per `wall`, latency
/// percentiles over each item's fastest latency), and in phases of minutes,
/// which the calibration scales out (kCalibRefMs, over every pass's
/// dense_calib_ms). `setup_s` is the median set-up time. Every host time is
/// scaled. The latency percentiles are taken
/// over requests of `items_per_request` consecutive items each (a request's
/// latency is the sum of its items' fastest latencies).
Metrics end_to_end(const std::vector<PassResult>& passes, double setup_s,
                   WallEstimate wall, std::size_t items_per_request);

/// Prints "name = value unit" lines followed by the final JSON object.
void emit(const Options& opt, bool correct, std::size_t attempted,
          std::size_t failed, const Metrics& metrics);

// ---- Workloads ----------------------------------------------------------------

struct WorkloadRun {
  bool correct = false;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  Metrics metrics;
  std::string error;
};

WorkloadRun run_paper_grid(const Options& opt);
WorkloadRun run_wide_256(const Options& opt);
WorkloadRun run_served_verified(const Options& opt);

// ---- Traced-run per-layer metrics (layers.cpp) -------------------------------

/// Result of one in-process cell replay under spans.
struct Replay {
  netcache::core::RunSummary summary;
  double run_s = 0;
};

/// Runs `cell` in-process exactly as sweep::run_cell would (Machine, then
/// the workload, then Machine::run), under apps.build / core.machine_ctor /
/// core.run spans. `verify_override` < 0 keeps the cell's setting.
Replay replay_cell(const netcache::sweep::Cell& cell, int parent,
                   int verify_override = -1);

/// Per-layer metrics derived from replayed summaries (exact simulator
/// counters) plus the microbenchmarks of the cache, ring and result-cache
/// public APIs. Every per-layer name is present; layers a workload leaves
/// idle read 0.
Metrics layer_metrics(const Options& opt,
                      const std::vector<netcache::sweep::Cell>& cells,
                      const std::vector<Replay>& replays,
                      const std::vector<PassResult>& passes);

}  // namespace perfbench
