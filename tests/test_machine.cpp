// Machine-level integration tests: counter consistency, determinism, and
// end-to-end behaviour of small driven workloads.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "src/apps/workload.hpp"
#include "src/core/machine.hpp"
#include "src/core/run_summary.hpp"

extern char** environ;

namespace netcache {
namespace {

using core::Cpu;
using core::Machine;

// The pinned digests below describe the default machine, so no NETCACHE_*
// environment opt-in (a CI leg's NETCACHE_VERIFY=1, say) may reach it.
const bool g_env_cleared = [] {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "NETCACHE_", 9) == 0) {
      const char* eq = std::strchr(*e, '=');
      names.emplace_back(*e, eq != nullptr ? eq - *e : std::strlen(*e));
    }
  }
  for (const std::string& n : names) unsetenv(n.c_str());
  return true;
}();

class Script : public apps::Workload {
 public:
  std::function<sim::Task<void>(Machine&, Cpu&, int)> body;
  Machine* machine = nullptr;
  const char* name() const override { return "machine-script"; }
  void setup(core::Machine& m) override { machine = &m; }
  sim::Task<void> run(Cpu& cpu, int tid) override {
    if (body) co_await body(*machine, cpu, tid);
  }
  bool verify() override { return true; }
};

TEST(Machine, ReadCountersAreConsistent) {
  MachineConfig cfg;
  cfg.nodes = 8;
  Machine m(cfg);
  Script s;
  s.body = [](Machine& mach, Cpu& cpu, int tid) -> sim::Task<void> {
    Addr base = 0;
    if (tid == 0) {
      base = mach.address_space().alloc_shared(64 * 1024);
    }
    for (int i = 0; i < 200; ++i) {
      co_await cpu.read(base + static_cast<Addr>((i * 7 + tid * 131) % 512) *
                                   64);
    }
  };
  auto summary = m.run(s);
  NodeStats t = summary.totals;
  // Every read lands in exactly one of the accounting buckets.
  EXPECT_EQ(t.reads, t.l1_hits + t.l2_hits + t.l2_misses + t.local_mem_reads);
  EXPECT_EQ(t.reads, 8u * 200u);
  // NetCache: every remote miss probed the shared cache.
  EXPECT_EQ(t.l2_misses, t.shared_cache_hits + t.shared_cache_misses);
}

TEST(Machine, DeterministicAcrossRuns) {
  auto run_once = [] {
    MachineConfig cfg;
    cfg.nodes = 8;
    Machine m(cfg);
    Script s;
    s.body = [](Machine&, Cpu& cpu, int tid) -> sim::Task<void> {
      for (int i = 0; i < 100; ++i) {
        co_await cpu.read(static_cast<Addr>((i * 13 + tid * 7) % 256) * 64);
        if (i % 3 == 0) {
          co_await cpu.write(static_cast<Addr>(i % 64) * 64, 4);
        }
      }
      co_await cpu.node().fence();
    };
    return m.run(s).run_time;
  };
  Cycles a = run_once();
  Cycles b = run_once();
  EXPECT_EQ(a, b);
}

TEST(Machine, RunTimeIsMaxOfNodeFinishTimes) {
  MachineConfig cfg;
  cfg.nodes = 4;
  Machine m(cfg);
  Script s;
  s.body = [](Machine&, Cpu& cpu, int tid) -> sim::Task<void> {
    co_await cpu.compute((tid + 1) * 1000);
  };
  auto summary = m.run(s);
  EXPECT_GE(summary.run_time, 4000);
  EXPECT_EQ(m.stats().node(3).finish_time, summary.run_time);
  for (int n = 0; n < 4; ++n) {
    EXPECT_LE(m.stats().node(n).finish_time, summary.run_time);
  }
}

TEST(Machine, WriteBufferFullStallsProcessor) {
  MachineConfig cfg;
  cfg.nodes = 4;
  cfg.write_buffer_entries = 2;
  Machine m(cfg);
  Script s;
  s.body = [](Machine& mach, Cpu& cpu, int tid) -> sim::Task<void> {
    if (tid != 0) co_return;
    // Burst of writes to distinct blocks overwhelms a 2-entry buffer.
    for (int i = 0; i < 32; ++i) {
      co_await cpu.write(static_cast<Addr>(i + 1) * 64, 4);
    }
    co_await cpu.node().fence();
    EXPECT_GT(mach.stats().node(0).wb_full_stall_cycles, 0);
  };
  m.run(s);
}

TEST(Machine, SingleNodeMachineWorks) {
  MachineConfig cfg;
  cfg.nodes = 1;
  for (SystemKind kind :
       {SystemKind::kNetCache, SystemKind::kLambdaNet,
        SystemKind::kDmonUpdate, SystemKind::kDmonInvalidate}) {
    cfg.system = kind;
    Machine m(cfg);
    Script s;
    s.body = [](Machine&, Cpu& cpu, int) -> sim::Task<void> {
      for (int i = 0; i < 100; ++i) {
        co_await cpu.read(static_cast<Addr>(i) * 64);
        co_await cpu.write(static_cast<Addr>(i) * 64, 4);
      }
      co_await cpu.node().fence();
    };
    auto summary = m.run(s);
    EXPECT_GT(summary.run_time, 0) << to_string(kind);
    // On one node all shared data is local: no remote misses.
    EXPECT_EQ(summary.totals.l2_misses, 0u) << to_string(kind);
  }
}

TEST(Machine, SummaryCarriesSystemAndAppNames) {
  MachineConfig cfg;
  cfg.nodes = 2;
  cfg.system = SystemKind::kDmonUpdate;
  Machine m(cfg);
  Script s;
  s.body = [](Machine&, Cpu& cpu, int) -> sim::Task<void> {
    co_await cpu.compute(1);
  };
  auto summary = m.run(s);
  EXPECT_EQ(summary.system, "DMON-U");
  EXPECT_EQ(summary.app, "machine-script");
  EXPECT_EQ(summary.nodes, 2);
  EXPECT_TRUE(summary.verified);
  EXPECT_FALSE(core::format_summary(summary).empty());
}

TEST(Machine, ComputeAccumulatesBusyTime) {
  MachineConfig cfg;
  cfg.nodes = 2;
  Machine m(cfg);
  Script s;
  s.body = [](Machine&, Cpu& cpu, int) -> sim::Task<void> {
    co_await cpu.compute(500);
  };
  m.run(s);
  EXPECT_EQ(m.stats().node(0).compute_cycles, 500);
  EXPECT_EQ(m.stats().node(1).compute_cycles, 500);
}

// --- Cross-commit result pin ----------------------------------------------

/// FNV-1a (64-bit) of `bytes`, continuing from `h`.
std::uint64_t fnv1a(const std::string& bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

core::RunSummary run_pinned(const std::string& app, SystemKind system,
                            const std::string& faults = "", int nodes = 8,
                            double scale = 0.05) {
  MachineConfig cfg;
  cfg.nodes = nodes;
  cfg.system = system;
  cfg.faults.spec = faults;
  if (nodes > cfg.ring.channels) cfg.ring.channels = nodes;
  Machine m(cfg);
  apps::WorkloadParams params;
  params.scale = scale;
  auto workload = apps::make_workload(app, params);
  return m.run(*workload);
}

/// Everything serialize_summary() writes except host wall-clock.
std::string canonical(core::RunSummary s) {
  s.wall_seconds = 0.0;
  return core::serialize_summary(s);
}

// Pins every simulated result of a small grid — 12 apps x 5 systems at 8
// nodes, plus one fault-plan cell per fault family — to digests recorded
// from a known-good build. Unlike DeterministicAcrossRuns, which compares
// two runs of one binary, this catches a refactor that changes results in
// every run the same way. A deliberate model change updates the digests and
// says why in its commit.
TEST(Machine, ResultsMatchPinnedDigests) {
  struct Pin {
    SystemKind system;
    std::uint64_t digest;
  };
  const Pin grid[] = {
      {SystemKind::kNetCache, 0x5a8da57a7d38cf14ull},
      {SystemKind::kNetCacheNoRing, 0x49d0d6e2fcc279f2ull},
      {SystemKind::kLambdaNet, 0x0a2acc3462cb9cd2ull},
      {SystemKind::kDmonUpdate, 0x679ff313690aaff0ull},
      {SystemKind::kDmonInvalidate, 0x66c6a7ed0dce4e7eull},
  };
  for (const Pin& pin : grid) {
    std::uint64_t h = fnv1a("");
    for (const std::string& app : apps::workload_names()) {
      h = fnv1a(canonical(run_pinned(app, pin.system)), h);
    }
    EXPECT_EQ(h, pin.digest)
        << to_string(pin.system) << " grid digest 0x" << std::hex << h;
  }

  struct FaultPin {
    SystemKind system;
    const char* spec;
    std::uint64_t digest;
  };
  const FaultPin faulted[] = {
      {SystemKind::kNetCache, "drop-update:2", 0x381bdbc64dad115dull},
      {SystemKind::kDmonInvalidate, "drop-invalidate:2", 0x966572a95ef16045ull},
  };
  for (const FaultPin& pin : faulted) {
    core::RunSummary s = run_pinned("water", pin.system, pin.spec);
    EXPECT_GT(s.faults.injected, 0u) << pin.spec;
    const std::uint64_t h = fnv1a(canonical(s));
    EXPECT_EQ(h, pin.digest) << to_string(pin.system) << " " << pin.spec
                             << " digest 0x" << std::hex << h;
  }
}

// The 8-node pins never put hundreds of same-instant resumes in one
// timing-wheel bucket; a 256-node barrier release does. Pins gauss and em3d
// on the four paper systems at 256 nodes (NetCache with 256 ring channels).
TEST(Machine, WideResultsMatchPinnedDigests) {
  struct Pin {
    const char* app;
    SystemKind system;
    std::uint64_t digest;
  };
  const Pin wide[] = {
      {"gauss", SystemKind::kNetCache, 0xe11b5ea9d7e727a4ull},
      {"gauss", SystemKind::kLambdaNet, 0xfe7d4c2013404690ull},
      {"gauss", SystemKind::kDmonUpdate, 0x4581cef1385bd48cull},
      {"gauss", SystemKind::kDmonInvalidate, 0xc03d591dcf45950bull},
      {"em3d", SystemKind::kNetCache, 0xc507dfe7052eaf9bull},
      {"em3d", SystemKind::kLambdaNet, 0x3b61b01935e44e7cull},
      {"em3d", SystemKind::kDmonUpdate, 0x89dbe1e2d5af2a54ull},
      {"em3d", SystemKind::kDmonInvalidate, 0x37e105a84c7ceb0aull},
  };
  for (const Pin& pin : wide) {
    const std::uint64_t h =
        fnv1a(canonical(run_pinned(pin.app, pin.system, "", 256, 0.02)));
    EXPECT_EQ(h, pin.digest) << pin.app << "/" << to_string(pin.system)
                             << " digest 0x" << std::hex << h;
  }
}

}  // namespace
}  // namespace netcache
