// perfbench — the repository benchmark driver. Normally started by
// perfbench/run.py, which builds it; see perfbench/README.md.
//
//   perfbench --workload=paper-grid|wide-256|served-verified --seed=N
//             --seconds=S --trace=0|1 --workdir=DIR --sweepd=PATH
//
// Prints a header of noise witnesses, one line per pass, every metric as
// "workload/name = value unit", and as the last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Exits nonzero, printing no
// result, when a pass cannot complete or two passes disagree.
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/bench.hpp"
#include "src/sweep/result_cache.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

extern char** environ;

namespace {

/// Removes every NETCACHE_* variable, so the driver, the daemon and every
/// child it forks run the defaults whatever the caller's environment holds.
void scrub_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "NETCACHE_", 9) == 0) {
      const char* eq = std::strchr(*e, '=');
      names.emplace_back(*e, eq == nullptr ? std::strlen(*e)
                                           : static_cast<std::size_t>(eq - *e));
    }
  }
  for (const auto& n : names) ::unsetenv(n.c_str());
}

bool flag(const char* arg, const char* name, std::string* value) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload=paper-grid|"
               "wide-256|served-verified --seed=N --seconds=S --trace=0|1 "
               "--workdir=DIR --sweepd=PATH [--source-hash=H]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  scrub_environment();
  // Deliberately crashing cells (the known oracle abort) must not drop core
  // files into the checkout.
  rlimit no_core{0, 0};
  ::setrlimit(RLIMIT_CORE, &no_core);

  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (flag(argv[i], "--workload", &v)) {
      opt.workload = v;
    } else if (flag(argv[i], "--seed", &v)) {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag(argv[i], "--seconds", &v)) {
      opt.seconds = std::atoi(v.c_str());
    } else if (flag(argv[i], "--trace", &v)) {
      opt.trace = v == "1";
    } else if (flag(argv[i], "--workdir", &v)) {
      opt.workdir = v;
    } else if (flag(argv[i], "--sweepd", &v)) {
      opt.sweepd = v;
    } else if (flag(argv[i], "--source-hash", &v)) {
      opt.source_hash = v;
    } else {
      return usage((std::string("unknown argument ") + argv[i]).c_str());
    }
  }
  if (opt.seconds < 1 || opt.seconds > 600) return usage("bad --seconds");
  if (opt.workdir.empty() || ::chdir(opt.workdir.c_str()) != 0) {
    return usage("--workdir must name an existing directory");
  }

  std::printf("perfbench workload=%s seed=%llu seconds=%d trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::printf("witness: build_type=%s compiler=\"%s\" host_threads=%u "
              "fingerprint=%s sources=%s\n",
              PERFBENCH_BUILD_TYPE, __VERSION__,
              std::thread::hardware_concurrency(),
              netcache::sweep::version_fingerprint().c_str(),
              opt.source_hash.empty() ? "unknown" : opt.source_hash.c_str());
  std::printf("estimator: wall_s is the fastest whole pass (paper-grid, "
              "served-verified) or the sum of each cell's fastest pass "
              "(wide-256, each cell on a rotating CPU); req_p50_s/req_p90_s "
              "are percentiles over requests (grids: an app's row of cells) "
              "of the sum of their items' fastest latencies; setup_s is a "
              "median of repeats; all x (%.1f ms / the run's median "
              "host.calib_ms during the passes)^%.1f\n",
              perfbench::kCalibRefMs, perfbench::kCalibExponent);
  std::fflush(stdout);

  perfbench::tracer().enable(opt.trace);
  perfbench::WorkloadRun run;
  if (opt.workload == "paper-grid") {
    run = perfbench::run_paper_grid(opt);
  } else if (opt.workload == "wide-256") {
    run = perfbench::run_wide_256(opt);
  } else if (opt.workload == "served-verified") {
    if (opt.sweepd.empty()) return usage("served-verified needs --sweepd");
    run = perfbench::run_served_verified(opt);
  } else {
    return usage("unknown workload");
  }
  if (!run.error.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", run.error.c_str());
    return 1;
  }
  for (const auto& [name, m] : run.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: %s is not finite\n", name.c_str());
      return 1;
    }
  }
  if (opt.trace) {
    const std::string path = "trace-" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".json";
    if (!perfbench::tracer().write_json(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("trace: %zu spans written to %s\n",
                perfbench::tracer().spans().size(), path.c_str());
  }
  perfbench::emit(opt, run.correct, run.attempted, run.failed, run.metrics);
  return 0;
}
