#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <numeric>

#include "perfbench/src/bench.hpp"

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// ---- Calibration ------------------------------------------------------------

namespace {

constexpr std::uint32_t kCalibSlots = 1u << 20;  // 4 MiB of uint32
constexpr int kCalibSteps = 1 << 16;

const std::vector<std::uint32_t>& calib_ring() {
  // One cycle through every slot (Sattolo), fixed seed: the same loop on
  // every run and every commit.
  static const std::vector<std::uint32_t> ring = [] {
    std::vector<std::uint32_t> r(kCalibSlots);
    std::iota(r.begin(), r.end(), 0u);
    std::uint64_t s = 42;
    for (std::uint32_t i = kCalibSlots - 1; i > 0; --i) {
      s = mix(s);
      std::swap(r[i], r[static_cast<std::uint32_t>(s % i)]);
    }
    return r;
  }();
  return ring;
}

}  // namespace

double calib_ms() {
  const auto& ring = calib_ring();
  std::vector<double> reps;
  std::uint32_t at = 0;
  std::uint64_t acc = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kCalibSteps; ++i) {
      at = ring[at];
      acc = (acc ^ at) * 0x100000001B3ull;
      if (acc & 1u) acc += at >> 3;
    }
    reps.push_back(seconds_since(t0) * 1e3);
  }
  keep(acc);
  return median(reps);
}

CalibSampler::CalibSampler() {
  calib_ms();  // builds the loop's ring before the thread exists
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      lock.unlock();
      const double ms = calib_ms();
      lock.lock();
      readings_.push_back(ms);
      wake_.wait_for(lock, std::chrono::milliseconds(500),
                     [this] { return stop_; });
    }
  });
}

CalibSampler::~CalibSampler() { stop(); }

std::vector<double> CalibSampler::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
  return readings_;
}

CpuRotation::CpuRotation() {
  CPU_ZERO(&allowed_);
  if (::sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) ::sched_setaffinity(0, sizeof(allowed_), &allowed_);
}

void CpuRotation::pin(std::size_t k) {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[k % cpus_.size()], &one);
  ::sched_setaffinity(0, sizeof(one), &one);
}

// ---- Spans ------------------------------------------------------------------

Tracer& tracer() {
  static Tracer t;
  return t;
}

int Tracer::begin(const std::string& name, int parent, long request) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.start_s = seconds_since(origin_);
  s.parent = parent;
  s.request = request;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int index) {
  if (index < 0) return;
  const double now = seconds_since(origin_);
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_s = now;
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const auto& s : spans_) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double own = spans_[i].end_s - spans_[i].start_s - child[i];
    self[spans_[i].name] += std::max(0.0, own);
  }
  return self;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                  "\"end_s\": %.9f, \"parent\": %d, \"request\": %ld}%s\n",
                  i, s.name.c_str(), s.start_s, s.end_s, s.parent, s.request,
                  i + 1 < spans_.size() ? "," : "");
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// ---- Results ----------------------------------------------------------------

std::string canonical(const netcache::core::RunSummary& s) {
  netcache::core::RunSummary c = s;
  c.wall_seconds = 0.0;
  return netcache::core::serialize_summary(c);
}

std::uint64_t fnv1a(const std::string& text, std::uint64_t h) {
  for (unsigned char ch : text) {
    h ^= ch;
    h *= 0x100000001b3ull;
  }
  return h;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double h = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(h);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  if (std::isinf(v[hi])) return v[hi];
  return v[lo] + (h - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage self{};
  rusage kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(std::max(self.ru_maxrss, kids.ru_maxrss)) /
         1024.0;
}

std::vector<PassResult> run_passes(const Options& opt,
                                   const std::function<PassResult(int)>& pass,
                                   std::string* error) {
  std::vector<PassResult> out;
  const auto t0 = Clock::now();
  double before = calib_ms();
  double longest = 0;
  for (int i = 0; i < 64; ++i) {
    if (i >= 2 && seconds_since(t0) + longest > opt.seconds) break;
    const auto p0 = Clock::now();
    PassResult p = pass(i);
    const double after = calib_ms();
    longest = std::max(longest, seconds_since(p0));
    p.calib_ms = 0.5 * (before + after);
    before = after;
    std::printf(
        "pass %d: wall_s=%.4f host.calib_ms=%.4f during=%.4f ok=%zu/%zu "
        "refs=%llu digest=%016llx\n",
        i + 1, p.wall_s, p.calib_ms, median(p.dense_calib_ms), p.ok, p.cells,
        static_cast<unsigned long long>(p.refs),
        static_cast<unsigned long long>(p.digest));
    std::fflush(stdout);
    if (!out.empty() && (p.cells != out[0].cells || p.ok != out[0].ok ||
                         p.digest != out[0].digest || p.refs != out[0].refs)) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "pass %d disagrees with pass 1: ok %zu/%zu vs %zu/%zu, "
                    "digest %016llx vs %016llx",
                    i + 1, p.ok, p.cells, out[0].ok, out[0].cells,
                    static_cast<unsigned long long>(p.digest),
                    static_cast<unsigned long long>(out[0].digest));
      *error = buf;
      return {};
    }
    out.push_back(std::move(p));
  }
  return out;
}

namespace {

/// Each item's fastest latency over the passes (+inf if it always failed).
std::vector<double> best_per_item(const std::vector<PassResult>& passes) {
  std::vector<double> best = passes[0].latencies_s;
  for (const auto& p : passes) {
    for (std::size_t i = 0; i < best.size(); ++i) {
      best[i] = std::min(best[i], p.latencies_s[i]);
    }
  }
  return best;
}

}  // namespace

Metrics end_to_end(const std::vector<PassResult>& passes, double setup_s,
                   WallEstimate wall, std::size_t items_per_request) {
  std::vector<double> dense;
  for (const auto& p : passes) {
    dense.insert(dense.end(), p.dense_calib_ms.begin(), p.dense_calib_ms.end());
  }
  const double scale = std::pow(kCalibRefMs / median(dense), kCalibExponent);
  std::printf("host-time scale: x%.4f (run median host.calib_ms %.4f over "
              "%zu readings during the passes)\n",
              scale, median(dense), dense.size());
  std::vector<double> lat = best_per_item(passes);
  for (double& l : lat) l *= scale;
  double wall_s = passes[0].wall_s;
  for (const auto& p : passes) wall_s = std::min(wall_s, p.wall_s);
  wall_s *= scale;
  setup_s *= scale;
  if (wall == WallEstimate::kBestPerItem) {
    wall_s = std::accumulate(lat.begin(), lat.end(), 0.0);
  }
  std::vector<double> requests;
  for (std::size_t i = 0; i < lat.size(); i += items_per_request) {
    requests.push_back(std::accumulate(
        lat.begin() + static_cast<long>(i),
        lat.begin() + static_cast<long>(i + items_per_request), 0.0));
  }
  std::size_t cells = 0;
  std::size_t ok = 0;
  for (const auto& p : passes) {
    cells += p.cells;
    ok += p.ok;
  }
  Metrics m;
  m["setup_s"] = {setup_s, "s"};
  m["wall_s"] = {wall_s, "s"};
  m["sim_mrefs_per_s"] = {static_cast<double>(passes[0].refs) / wall_s / 1e6,
                          "Mref/s"};
  m["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  m["ok_frac"] = {cells == 0 ? 0.0 : static_cast<double>(ok) /
                                         static_cast<double>(cells),
                  "frac"};
  m["req_p50_s"] = {percentile(requests, 0.50), "s"};
  m["req_p90_s"] = {percentile(requests, 0.90), "s"};
  const auto beyond = static_cast<std::size_t>(std::count_if(
      requests.begin(), requests.end(),
      [&](double l) { return l > m["req_p90_s"].value; }));
  std::printf("latency: %zu requests of %zu item(s), each item the fastest "
              "of %zu passes (beyond p90: %zu, failed: %zu)\n",
              requests.size(), items_per_request, passes.size(), beyond,
              static_cast<std::size_t>(std::count_if(
                  requests.begin(), requests.end(),
                  [](double l) { return std::isinf(l); })));
  return m;
}

void emit(const Options& opt, bool correct, std::size_t attempted,
          std::size_t failed, const Metrics& metrics) {
  for (const auto& [name, m] : metrics) {
    std::printf("%s/%s = %.9g %s\n", opt.workload.c_str(), name.c_str(),
                m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  char buf[128];
  std::snprintf(buf, sizeof(buf), ", \"attempted\": %zu, \"failed\": %zu",
                attempted, failed);
  json += buf;
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, ",
                  first ? "" : ", ", name.c_str(), m.value);
    json += buf;
    json += "\"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
