// paper-grid and wide-256: whole passes over a fixed, seed-shuffled list of
// cells. paper-grid runs through the sweep layer's supervised children (two
// workers, no result cache); wide-256 runs serially in-process.
#include <cstdio>
#include <limits>
#include <memory>

#include "perfbench/src/bench.hpp"
#include "src/apps/workload.hpp"
#include "src/common/config.hpp"
#include "src/core/machine.hpp"

namespace perfbench {

namespace nc = netcache;

namespace {

const nc::SystemKind kSystems[] = {
    nc::SystemKind::kNetCache, nc::SystemKind::kLambdaNet,
    nc::SystemKind::kDmonUpdate, nc::SystemKind::kDmonInvalidate};

// paper-grid cells at this scale take 0.02-1.5 s each; one pass keeps two
// workers busy for ~6 s on a 4-core host.
constexpr double kPaperGridScale = 0.1;
// wide-256 cells at this scale take 0.12-0.5 s each (building all twelve
// machines and workloads takes ~5 ms): 5-7 passes in a 30 s run, so each
// cell's fastest pass is taken over as many vCPUs and moments as possible.
constexpr double kWideScale = 0.1;
constexpr int kPaperGridWorkers = 2;
constexpr int kSetupReps = 45;
constexpr int kSetupRounds = 4;

/// Cells in canonical order (apps outer, systems inner). The workload seed
/// comes from --seed, through a make_workload closure.
std::vector<nc::sweep::Cell> make_cells(const std::vector<std::string>& apps,
                                        int nodes, double scale,
                                        std::uint64_t seed) {
  std::vector<nc::sweep::Cell> cells;
  const std::uint64_t wseed = mix(seed ^ 0x5EEDull);
  for (const auto& app : apps) {
    for (nc::SystemKind sys : kSystems) {
      nc::sweep::Cell c;
      c.app = app;
      c.system = sys;
      c.nodes = nodes;
      c.scale = scale;
      if (nodes > 128 && sys == nc::SystemKind::kNetCache) {
        // The default 128 ring channels do not divide among 256 homes; the
        // CLI requires --channels=256 here (a known invalid default).
        c.tweak = [](nc::MachineConfig& cfg) { cfg.ring.channels = 256; };
      }
      c.make_workload = [app, scale, wseed] {
        nc::apps::WorkloadParams p;
        p.scale = scale;
        p.seed = wseed;
        return nc::apps::make_workload(app, p);
      };
      cells.push_back(std::move(c));
    }
  }
  return cells;
}

/// Seed-shuffled order of `n` items (Fisher-Yates).
std::vector<std::size_t> shuffled(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::uint64_t s = seed;
  for (std::size_t i = n; i > 1; --i) {
    s = mix(s);
    std::swap(order[i - 1], order[s % i]);
  }
  return order;
}

// paper-grid apps by host cost at kPaperGridScale, heaviest first.
const char* const kPaperGridAppsByCost[] = {
    "mg", "radix", "raytrace", "gauss", "lu", "wf",
    "em3d", "fft", "cg", "ocean", "sor", "water"};

/// paper-grid dispatch order: tiers of three apps, heaviest tier first, the
/// tier's 12 cells in seed order. Two workers pulling a heaviest-first queue
/// end within one small cell of each other whatever the seed, so the pass
/// wall measures the cells, not an unlucky tail.
std::vector<std::size_t> tiered_order(const std::vector<nc::sweep::Cell>& cells,
                                      std::uint64_t seed) {
  std::vector<std::size_t> order;
  for (std::size_t tier = 0; tier < 4; ++tier) {
    std::vector<std::size_t> members;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      for (std::size_t k = 0; k < 3; ++k) {
        if (cells[i].app == kPaperGridAppsByCost[3 * tier + k]) {
          members.push_back(i);
        }
      }
    }
    for (std::size_t j : shuffled(members.size(), mix(seed + tier))) {
      order.push_back(members[j]);
    }
  }
  return order;
}

/// Median time to construct every machine and workload of one pass, the
/// set-up each pass pays before its first simulated event. Each sample
/// builds the pass kSetupRounds times, so it spans several milliseconds.
double measure_setup(const std::vector<nc::sweep::Cell>& cells) {
  std::vector<double> samples;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    for (int round = 0; round < kSetupRounds; ++round) {
      for (const auto& cell : cells) {
        nc::MachineConfig cfg;
        cfg.nodes = cell.nodes;
        cfg.system = cell.system;
        if (cell.tweak) cell.tweak(cfg);
        nc::core::Machine machine(cfg);
        auto workload = cell.make_workload();
      }
    }
    samples.push_back(seconds_since(t0) / kSetupRounds);
  }
  return median(samples);
}

/// Adds one cell, in canonical order, to the pass. `latency_s` is the time
/// the benchmark could observe for it.
void fold(PassResult& p, const nc::core::RunSummary& s, bool ok,
          double latency_s) {
  p.cells += 1;
  if (!ok) {
    p.digest = fnv1a("FAILED", p.digest);
    p.latencies_s.push_back(std::numeric_limits<double>::infinity());
    return;
  }
  p.ok += 1;
  p.refs += s.totals.reads + s.totals.writes;
  p.digest = fnv1a(canonical(s), p.digest);
  p.latencies_s.push_back(latency_s);
  p.busy_s += s.wall_seconds;
  p.summaries.push_back(s);
}

/// Replays every cell in-process under spans (the traced run's per-layer
/// source) and finishes the run.
WorkloadRun finish(const Options& opt,
                   const std::vector<nc::sweep::Cell>& cells,
                   const std::vector<PassResult>& passes, double setup_s,
                   WallEstimate wall, Metrics extra) {
  WorkloadRun run;
  for (const auto& p : passes) {
    run.attempted += p.cells;
    run.failed += p.cells - p.ok;
  }
  run.correct = run.failed == 0;
  for (const auto& p : passes) {
    for (const auto& s : p.summaries) run.correct = run.correct && s.verified;
  }
  if (!opt.trace) {
    // A grid "request" is one app's row of the figure: its four systems.
    run.metrics = end_to_end(passes, setup_s, wall, std::size(kSystems));
    return run;
  }
  // With every cell ok, summaries[i] is cell i's result.
  std::vector<Replay> replays;
  if (run.correct) {
    Scoped root("replay");
    for (std::size_t i = 0; i < cells.size(); ++i) {
      try {
        replays.push_back(replay_cell(cells[i], root.index()));
      } catch (const std::exception& e) {
        std::printf("FAILED in-process %s: %s\n", cells[i].label().c_str(),
                    e.what());
        run.correct = false;
        break;
      }
      if (canonical(replays.back().summary) !=
          canonical(passes[0].summaries[i])) {
        std::printf("MISMATCH: in-process %s differs from the pass result\n",
                    cells[i].label().c_str());
        run.correct = false;
      }
    }
  }
  run.metrics = layer_metrics(opt, cells, replays, passes);
  for (auto& [name, m] : extra) run.metrics[name] = m;
  return run;
}

}  // namespace

WorkloadRun run_paper_grid(const Options& opt) {
  const auto cells = make_cells(nc::apps::workload_names(), 16,
                                kPaperGridScale, opt.seed);
  const auto order = tiered_order(cells, mix(opt.seed));
  const double setup_s = measure_setup(cells);

  auto pass = [&](int index) {
    tracer().enable(opt.trace && index % 2 == 0);
    Scoped span("sweep.pass");
    nc::sweep::SweepDriver driver(kPaperGridWorkers);
    nc::sweep::IsolationOptions iso;
    iso.enabled = true;
    driver.set_isolation(iso);
    driver.set_result_cache(nullptr);
    for (std::size_t k : order) driver.submit(cells[k]);
    CalibSampler sampler;
    const auto t0 = Clock::now();
    driver.run();
    PassResult p;
    p.wall_s = seconds_since(t0);
    p.dense_calib_ms = sampler.stop();
    p.workers = kPaperGridWorkers;
    p.digest = kFnvBasis;
    std::vector<const nc::sweep::CellResult*> by_cell(cells.size());
    for (std::size_t k = 0; k < order.size(); ++k) {
      by_cell[order[k]] = &driver.result(k);
    }
    // The child's own Machine::run time: the parent sees no per-cell clock.
    for (const auto* r : by_cell) {
      fold(p, r->summary, r->ok, r->summary.wall_seconds);
    }
    return p;
  };
  WorkloadRun run;
  const auto passes = run_passes(opt, pass, &run.error);
  tracer().enable(opt.trace);
  if (passes.empty()) return run;

  Metrics extra;
  if (opt.trace) {
    // Supervised-child overhead: each cell alone through a one-worker
    // isolated driver; its wall minus the child's own Machine::run time.
    std::vector<double> overhead_ms;
    Scoped root("sweep.child_probe");
    for (std::size_t k : order) {
      nc::sweep::SweepDriver one(1);
      nc::sweep::IsolationOptions iso;
      iso.enabled = true;
      one.set_isolation(iso);
      one.set_result_cache(nullptr);
      one.submit(cells[k]);
      Scoped span("sweep.child", root.index());
      const auto t0 = Clock::now();
      one.run();
      const double wall = seconds_since(t0);
      if (one.result(0).ok) {
        overhead_ms.push_back((wall - one.result(0).summary.wall_seconds) *
                              1e3);
      }
    }
    extra["sweep.child_overhead_ms"] = {median(overhead_ms), "ms"};
  }
  return finish(opt, cells, passes, setup_s, WallEstimate::kBestPass, extra);
}

WorkloadRun run_wide_256(const Options& opt) {
  const auto cells = make_cells({"gauss", "ocean", "em3d"}, 256, kWideScale,
                                opt.seed);
  const auto order = shuffled(cells.size(), mix(opt.seed));
  const double setup_s = measure_setup(cells);

  // Each cell runs on the next CPU of the rotation, a different one in every
  // pass, after a calibration on that CPU. A vCPU that is slow for a while
  // then slows one sample of a cell, which the cell's fastest pass drops,
  // and the run's median calibration sees the host's slow phases.
  auto pass = [&](int index) {
    tracer().enable(opt.trace && index % 2 == 0);
    Scoped span("wide.pass");
    CpuRotation cpus;
    std::vector<Replay> done(cells.size());
    std::vector<bool> ok(cells.size(), false);
    std::vector<double> cell_s(cells.size());
    std::vector<double> dense_calib_ms;
    const auto t0 = Clock::now();
    for (std::size_t j = 0; j < order.size(); ++j) {
      const std::size_t k = order[j];
      cpus.pin(static_cast<std::size_t>(index) + j);
      dense_calib_ms.push_back(calib_ms());
      try {
        const auto c0 = Clock::now();
        done[k] = replay_cell(cells[k], span.index());
        cell_s[k] = seconds_since(c0);
        ok[k] = true;
      } catch (const std::exception& e) {
        std::printf("FAILED %s: %s\n", cells[k].label().c_str(), e.what());
      }
    }
    PassResult p;
    p.wall_s = seconds_since(t0);
    p.dense_calib_ms = std::move(dense_calib_ms);
    p.digest = kFnvBasis;
    for (std::size_t k = 0; k < cells.size(); ++k) {
      fold(p, done[k].summary, ok[k], cell_s[k]);
    }
    return p;
  };
  WorkloadRun run;
  const auto passes = run_passes(opt, pass, &run.error);
  tracer().enable(opt.trace);
  if (passes.empty()) return run;
  return finish(opt, cells, passes, setup_s, WallEstimate::kBestPerItem, {});
}

}  // namespace perfbench
