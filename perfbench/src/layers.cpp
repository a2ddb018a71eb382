// The traced run's per-layer numbers: counters from replayed RunSummaries,
// span self times, and timed calls into the cache, ring-cache and
// result-cache public APIs.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "perfbench/src/bench.hpp"
#include "src/apps/workload.hpp"
#include "src/cache/cache.hpp"
#include "src/common/config.hpp"
#include "src/common/rng.hpp"
#include "src/core/machine.hpp"
#include "src/net/netcache/ring_cache.hpp"
#include "src/sweep/result_cache.hpp"

namespace perfbench {

namespace nc = netcache;

Replay replay_cell(const nc::sweep::Cell& cell, int parent,
                   int verify_override) {
  Scoped span("cell", parent);
  nc::MachineConfig cfg;
  cfg.nodes = cell.nodes;
  cfg.system = cell.system;
  if (cell.tweak) cell.tweak(cfg);
  if (verify_override >= 0) cfg.verify = verify_override != 0;
  std::unique_ptr<nc::core::Machine> machine;
  {
    Scoped s("core.machine_ctor", span.index());
    machine = std::make_unique<nc::core::Machine>(cfg);
  }
  std::unique_ptr<nc::apps::Workload> workload;
  {
    Scoped s("apps.build", span.index());
    if (cell.make_workload) {
      workload = cell.make_workload();
    } else {
      nc::apps::WorkloadParams p;
      p.scale = cell.scale;
      p.paper_size = cell.paper_size;
      workload = nc::apps::make_workload(cell.app, p);
    }
  }
  Replay r;
  Scoped s("core.run", span.index());
  const auto t0 = Clock::now();
  r.summary = machine->run(*workload, cell.limits);
  r.run_s = seconds_since(t0);
  return r;
}

namespace {

/// ns per access of cache::Cache::probe/insert over a seed-drawn address
/// stream: 3/4 of accesses hit a set of hot blocks that fits the L2, the
/// rest scatter over 16 MiB. Median of five timed rounds.
double cache_probe_ns(std::uint64_t seed) {
  const nc::CacheConfig l2 = nc::MachineConfig{}.l2;
  nc::Rng rng(seed);
  std::vector<nc::Addr> addrs(1 << 16);
  for (auto& a : addrs) {
    a = rng.next_below(4) != 0 ? rng.next_below(192) * 64u
                               : rng.next_below(1u << 24);
  }
  nc::cache::Cache cache(l2);
  std::vector<double> reps;
  nc::Cycles now = 0;
  std::uint64_t hits = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    for (nc::Addr a : addrs) {
      if (cache.probe(a, ++now)) {
        ++hits;
      } else {
        cache.insert(a, nc::cache::LineState::kValid, now);
      }
    }
    reps.push_back(seconds_since(t0) * 1e9 / static_cast<double>(addrs.size()));
  }
  keep(hits);
  return median(reps);
}

/// ns per operation of the RingCache home/reader API (arrival_time, touch
/// on a hit, insert on a miss, refresh after every fourth access) at the
/// paper's 16-node, 128-channel geometry.
double ring_probe_ns(std::uint64_t seed) {
  const nc::MachineConfig cfg;
  const nc::LatencyParams lat = nc::derive_latencies(cfg);
  nc::Rng rng(seed);
  nc::Rng ring_rng(seed + 1);
  nc::net::RingCache ring(cfg.ring, lat.ring_roundtrip, lat.ring_read_overhead,
                          cfg.nodes, cfg.ring.block_bytes, ring_rng);
  std::vector<nc::Addr> addrs(1 << 15);
  for (auto& a : addrs) {
    a = static_cast<nc::Addr>(rng.next_below(1024)) * 64u;
  }
  std::vector<double> reps;
  nc::Cycles now = 0;
  std::uint64_t hits = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    std::size_t i = 0;
    for (nc::Addr a : addrs) {
      now += 3;
      const auto reader = static_cast<nc::NodeId>(i % 16);
      if (ring.arrival_time(a, reader, now)) {
        ring.touch(a, now);
        ++hits;
      } else {
        ring.insert(a, now);
      }
      if (++i % 4 == 0) ring.refresh(a, now);
    }
    reps.push_back(seconds_since(t0) * 1e9 / static_cast<double>(addrs.size()));
  }
  keep(hits);
  return median(reps);
}

}  // namespace

Metrics layer_metrics(const Options& opt,
                      const std::vector<nc::sweep::Cell>& cells,
                      const std::vector<Replay>& replays,
                      const std::vector<PassResult>& passes) {
  Metrics m;
  auto set = [&](const char* name, double v, const char* unit) {
    m[name] = {v, unit};
  };
  auto ratio = [](double a, double b) { return b == 0 ? 0.0 : a / b; };

  // Exact simulator counters, summed over one pass's distinct cells.
  double refs = 0, reads = 0, writes = 0, events = 0, wheel = 0, overflow = 0;
  double l1 = 0, l2miss = 0, wbstall = 0, ring_hits = 0, ring_misses = 0;
  double updates = 0, invals = 0, local = 0, miss_cycles = 0;
  double deliveries = 0, probes = 0, avoided = 0, peak_blocks = 0;
  double checked = 0, verified_refs = 0, injected = 0, retries = 0;
  double run_s = 0;
  for (const auto& r : replays) {
    const auto& s = r.summary;
    const auto& t = s.totals;
    reads += static_cast<double>(t.reads);
    writes += static_cast<double>(t.writes);
    events += static_cast<double>(s.events);
    wheel += static_cast<double>(s.wheel_pushes);
    overflow += static_cast<double>(s.overflow_pushes);
    l1 += static_cast<double>(t.l1_hits);
    l2miss += static_cast<double>(t.l2_misses);
    wbstall += static_cast<double>(t.wb_full_stall_cycles);
    ring_hits += static_cast<double>(t.shared_cache_hits);
    ring_misses += static_cast<double>(t.shared_cache_misses);
    updates += static_cast<double>(t.updates_sent);
    invals += static_cast<double>(t.invalidations_received);
    local += static_cast<double>(t.local_mem_reads);
    miss_cycles += static_cast<double>(t.l2_miss_cycles);
    deliveries += static_cast<double>(s.snoop.deliveries);
    probes += static_cast<double>(s.snoop.probes);
    avoided += static_cast<double>(s.snoop.probes_avoided);
    peak_blocks = std::max(peak_blocks, static_cast<double>(s.snoop.peak_blocks));
    if (s.verify_enabled) {
      checked += static_cast<double>(s.oracle.loads_checked);
      verified_refs += static_cast<double>(t.reads + t.writes);
    }
    injected += static_cast<double>(s.faults.injected);
    retries += static_cast<double>(s.faults.retries);
    run_s += r.run_s;
  }
  refs = reads + writes;

  // Span self times (spans recorded by this process only).
  const auto self = tracer().self_seconds();
  auto self_of = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  std::size_t ctor_n = 0;
  std::size_t build_n = 0;
  for (const auto& sp : tracer().spans()) {
    ctor_n += sp.name == "core.machine_ctor";
    build_n += sp.name == "apps.build";
  }
  std::printf("span self time (s):");
  for (const auto& [name, secs] : self) std::printf(" %s=%.4f", name.c_str(), secs);
  std::printf("\n");

  set("sim.events_per_ref", ratio(events, refs), "events/ref");
  set("sim.overflow_push_frac", ratio(overflow, wheel + overflow), "frac");
  set("sim.host_ns_per_event", ratio(run_s * 1e9, events), "ns");
  set("cache.l1_hit_frac", ratio(l1, reads), "frac");
  set("cache.l2_miss_frac", ratio(l2miss, reads - l1), "frac");
  set("cache.wb_stall_cycles_per_write", ratio(wbstall, writes), "cycles/write");
  set("cache.probe_ns_per_access", cache_probe_ns(mix(opt.seed + 11)), "ns");
  set("net.ring_hit_rate", ratio(ring_hits, ring_hits + ring_misses), "frac");
  set("net.updates_per_write", ratio(updates, writes), "updates/write");
  set("net.invalidations_per_write", ratio(invals, writes), "inv/write");
  set("net.ring_probe_ns_per_op", ring_probe_ns(mix(opt.seed + 13)), "ns");
  set("memory.local_reads_per_ref", ratio(local, refs), "reads/ref");
  set("memory.miss_cycles_per_l2_miss", ratio(miss_cycles, l2miss), "cycles/miss");
  set("core.machine_ctor_ms", ratio(self_of("core.machine_ctor") * 1e3,
                                    static_cast<double>(ctor_n)), "ms");
  set("core.run_s", run_s, "s");
  set("core.snoop.probes_per_delivery", ratio(probes, deliveries), "probes/delivery");
  set("core.snoop.avoided_frac", ratio(avoided, probes + avoided), "frac");
  set("core.snoop.peak_blocks", peak_blocks, "count");
  set("apps.build_ms", ratio(self_of("apps.build") * 1e3,
                             static_cast<double>(build_n)), "ms");
  set("verify.loads_checked_per_ref", ratio(checked, verified_refs), "loads/ref");
  set("verify.overhead_ratio", 0.0, "ratio");
  set("faults.injected", injected, "count");
  set("faults.retries", retries, "count");

  // ResultCache store + lookup of every replayed summary, in a scratch dir.
  {
    const std::string dir = opt.workdir + "/result-cache-probe";
    std::filesystem::remove_all(dir);
    std::vector<double> store_ms;
    std::vector<double> lookup_ms;
    {
      nc::sweep::ResultCache rc(dir);
      for (std::size_t i = 0; i < replays.size(); ++i) {
        nc::sweep::Cell key = cells[i];
        key.make_workload = nullptr;  // closures have no cache identity
        auto t0 = Clock::now();
        rc.store(key, replays[i].summary);
        store_ms.push_back(seconds_since(t0) * 1e3);
        nc::core::RunSummary back;
        t0 = Clock::now();
        const bool hit = rc.lookup(key, &back);
        lookup_ms.push_back(seconds_since(t0) * 1e3);
        if (!hit) std::printf("result-cache probe: lookup missed %s\n",
                              key.label().c_str());
      }
    }
    std::filesystem::remove_all(dir);
    set("sweep.result_cache.store_ms", store_ms.empty() ? 0 : median(store_ms), "ms");
    set("sweep.result_cache.lookup_ms", lookup_ms.empty() ? 0 : median(lookup_ms), "ms");
  }

  std::vector<double> idle;
  std::vector<double> calib;
  std::vector<double> traced;
  std::vector<double> untraced;
  double from_cache = 0, served = 0;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const auto& p = passes[i];
    idle.push_back(1.0 - p.busy_s / (p.workers * p.wall_s));
    calib.push_back(p.calib_ms);
    (i % 2 == 0 ? traced : untraced).push_back(p.wall_s);
    from_cache += static_cast<double>(p.from_cache);
    served += static_cast<double>(p.cells);
  }
  set("sweep.cache_hit_frac", ratio(from_cache, served), "frac");
  set("sweep.worker_idle_frac", median(idle), "frac");
  set("sweep.child_overhead_ms", 0.0, "ms");
  set("serve.first_cell_ms", 0.0, "ms");
  set("serve.dedup_frac", 0.0, "frac");
  set("serve.simulations", 0.0, "count");
  set("host.calib_ms", median(calib), "ms");
  set("trace.overhead_s",
      untraced.empty() ? 0.0
                       : *std::min_element(traced.begin(), traced.end()) -
                             *std::min_element(untraced.begin(), untraced.end()),
      "s");
  set("trace.spans", static_cast<double>(tracer().spans().size()), "count");
  return m;
}

}  // namespace perfbench
