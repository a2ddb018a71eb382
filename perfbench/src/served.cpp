// served-verified: netcache_sweepd with two workers and an empty result
// cache at the start of every pass, driven by two closed-loop client
// connections. Every request is --verify; the stream mixes cold requests,
// fault plans, partial and whole repeats (result-cache hits), one request
// both clients share (a dedup attach) and 64-node requests, one of which
// holds the known water/DMON-I oracle failure.
#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <set>
#include <thread>

#include "perfbench/src/bench.hpp"
#include "src/apps/workload.hpp"
#include "src/serve/client.hpp"
#include "src/serve/spec.hpp"

namespace perfbench {

namespace nc = netcache;

namespace {

constexpr double kServedScale = 0.05;
constexpr int kClients = 2;
constexpr int kDaemonWorkers = 2;
constexpr int kRepeatsPerClient = 9;
constexpr const char* kSocket = "sweepd.sock";

// Fault plans per protocol family (a kind a system cannot take is a config
// error, so each fault request names one family). Recovery stays on.
constexpr const char* kUpdateFaults =
    "drop-update:2,corrupt-update:1,outage:1@200";
constexpr const char* kInvalidateFaults = "drop-invalidate:2,stall:1@200";

const char* const kSystemNames[] = {"netcache", "lambdanet", "dmon-u",
                                    "dmon-i"};

struct Request {
  nc::serve::GridSpec spec;
  long id = 0;  // span request id
};

nc::serve::GridSpec spec_of(const std::string& apps, const std::string& systems,
                            int nodes, const std::string& faults = "") {
  nc::serve::GridSpec s;
  s.app = apps;
  s.system = systems;
  s.nodes = nodes;
  s.scale = kServedScale;
  s.verify = true;
  s.faults = faults;
  return s;
}

/// One request of the stream shape both clients share. Each client owns two
/// of the four systems; an entry names the app and which of the client's
/// two systems, and instantiate() fills in the client's. At every position
/// the two clients therefore simulate the same app on disjoint cells, so
/// the two closed loops carry the same load whatever the seed.
struct Entry {
  enum Kind { kCold, kPartial, kFault, kWide, kShared } kind;
  std::size_t app = 0;    // index into the app list
  std::size_t other = 0;  // kPartial: the second app; else 0/1, the system
};

/// The shared stream shape. Its request multiset is fixed (the same apps
/// carry the partial repeats and the fault plans for every seed), so cell
/// counts, the failed share, the all-cache-hit share and the latency mix
/// are the same for every seed; the seed picks the order and which
/// systems each client owns.
std::vector<Entry> stream_template(const std::vector<std::string>& apps,
                                   std::uint64_t seed) {
  std::uint64_t s = mix(seed ^ 0xC11E47ull);
  auto draw = [&](std::size_t bound) {
    s = mix(s);
    return static_cast<std::size_t>(s % bound);
  };
  auto index = [&](const char* name) {
    return static_cast<std::size_t>(
        std::find(apps.begin(), apps.end(), name) - apps.begin());
  };
  // Single-cell cold requests: two closed-loop clients then never queue a
  // simulation behind another on the two workers, so a request's latency is
  // its cell's, not an accident of what the other client sent.
  std::vector<Entry> body;
  for (std::size_t a = 0; a < apps.size(); ++a) {
    body.push_back({Entry::kCold, a, 0});
    body.push_back({Entry::kCold, a, 1});
  }
  for (std::size_t i = body.size(); i > 1; --i) {
    std::swap(body[i - 1], body[draw(i)]);
  }
  // Two partial repeats {a, b} x {the client's first system},
  // placed after the first of the two apps' cold requests for that system
  // and before the second, so exactly one of the two cells is cached.
  for (const auto& [x, y] : {std::pair{"cg", "lu"}, std::pair{"wf", "fft"}}) {
    std::size_t i = 0;
    std::size_t j = 0;
    for (std::size_t k = 0; k < body.size(); ++k) {
      if (body[k].kind != Entry::kCold || body[k].other != 0) continue;
      if (body[k].app == index(x)) i = k;
      if (body[k].app == index(y)) j = k;
    }
    if (i > j) std::swap(i, j);
    const std::size_t at = i + 1 + draw(j - i);
    body.insert(body.begin() + static_cast<long>(at),
                {Entry::kPartial, body[i].app, body[j].app});
  }
  // Fault plans on one cell each of ocean and sor, and the 64-node request.
  const Entry extra[] = {{Entry::kFault, index("ocean"), 0},
                         {Entry::kFault, index("sor"), 1},
                         {Entry::kWide, 0, 0}};
  for (const auto& e : extra) {
    body.insert(body.begin() + static_cast<long>(draw(body.size() + 1)), e);
  }
  // Whole repeats of earlier single-cell cold requests: all cache hits.
  for (int k = 0; k < kRepeatsPerClient; ++k) {
    for (;;) {
      const std::size_t at = 1 + draw(body.size());
      const std::size_t src = draw(at);
      if (body[src].kind == Entry::kCold) {
        body.insert(body.begin() + static_cast<long>(at), body[src]);
        break;
      }
    }
  }
  // Both clients open with the same request: one simulates, one attaches.
  body.insert(body.begin(), {Entry::kShared, 0, 0});
  return body;
}

/// One client's requests. Client 0's 64-node request is water (whose DMON-I
/// cell fails in the oracle), client 1's is sor.
/// `split` (0..5, from the seed) picks how the four systems divide into the
/// two clients' halves.
std::vector<Request> instantiate(const std::vector<Entry>& shape,
                                 const std::vector<std::string>& apps,
                                 int split, int client) {
  static const int kSplits[3][2][2] = {
      {{0, 1}, {2, 3}}, {{0, 2}, {1, 3}}, {{0, 3}, {1, 2}}};
  const auto& own = kSplits[split / 2][(split % 2) ^ client];
  const std::string sys[2] = {kSystemNames[own[0]], kSystemNames[own[1]]};
  std::vector<Request> out;
  for (const Entry& e : shape) {
    nc::serve::GridSpec spec;
    switch (e.kind) {
      case Entry::kCold:
        spec = spec_of(apps[e.app], sys[e.other], 16);
        break;
      case Entry::kPartial:
        spec = spec_of(apps[e.app] + "," + apps[e.other], sys[0], 16);
        break;
      case Entry::kFault:
        // Each system takes the fault kinds its protocol family can.
        spec = spec_of(apps[e.app], sys[e.other], 16,
                       sys[e.other] == "dmon-i" ? kInvalidateFaults
                                                : kUpdateFaults);
        break;
      case Entry::kWide:
        spec = spec_of(client == 0 ? "water" : "sor", "dmon-u,dmon-i", 64);
        break;
      case Entry::kShared:
        spec = spec_of("em3d", "netcache,lambdanet", 64);
        break;
    }
    out.push_back({spec, (client + 1) * 1000L + static_cast<long>(out.size())});
  }
  return out;
}

struct Record {
  double submit_s = 0;
  double first_s = -1;
  double done_s = 0;
  nc::serve::ServeReply reply;
};

bool socket_accepts() {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, kSocket, sizeof(addr.sun_path) - 1);
  const bool ok =
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  ::close(fd);
  return ok;
}

/// A running daemon; the destructor drains it with SIGTERM and reaps it.
class Daemon {
 public:
  Daemon(const Options& opt, const std::string& cache_dir) {
    ::unlink(kSocket);
    const auto t0 = Clock::now();
    const std::string cache_flag = "--cache=" + cache_dir;
    const std::string jobs_flag = "--jobs=" + std::to_string(kDaemonWorkers);
    pid_ = ::fork();
    if (pid_ == 0) {
      // The daemon's log (start, drain, quarantine forensics) goes to a file
      // in the run directory, not into the benchmark's output.
      const int log = ::open("sweepd.log", O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (log >= 0) {
        ::dup2(log, STDOUT_FILENO);
        ::dup2(log, STDERR_FILENO);
      }
      // Admission bound far above two closed-loop clients' worst case, so
      // only the program's own failures can fail a request.
      ::execl(opt.sweepd.c_str(), "netcache_sweepd",
              (std::string("--socket=") + kSocket).c_str(), cache_flag.c_str(),
              jobs_flag.c_str(), "--max-queue=100000", nullptr);
      ::_exit(127);
    }
    while (pid_ > 0 && seconds_since(t0) < 30.0) {
      if (socket_accepts()) {
        listen_s_ = seconds_since(t0);
        return;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        break;
      }
      ::usleep(200);
    }
    error_ = "netcache_sweepd did not start listening";
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Drains the daemon; false unless it exited 0.
  bool stop() {
    if (pid_ <= 0) return false;
    ::kill(pid_, SIGTERM);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }
  double listen_s() const { return listen_s_; }
  const std::string& error() const { return error_; }

 private:
  pid_t pid_ = -1;
  double listen_s_ = 0;
  std::string error_;
};

std::string cell_key(const nc::serve::GridSpec& spec,
                     const nc::serve::ServedCell& c) {
  return c.label + "@" + std::to_string(spec.nodes) + "|" + spec.faults;
}

}  // namespace

WorkloadRun run_served_verified(const Options& opt) {
  WorkloadRun run;
  // Every app but mg: its verified cells cost four times the next app's,
  // so its few requests alone would set the latency tail and most of the
  // pass. paper-grid times mg.
  std::vector<std::string> apps;
  for (const auto& a : nc::apps::workload_names()) {
    if (a != "mg") apps.push_back(a);
  }
  const auto shape = stream_template(apps, opt.seed);
  const int split = static_cast<int>(mix(opt.seed ^ 0x5B117ull) % 6);
  std::vector<std::vector<Request>> streams;
  for (int c = 0; c < kClients; ++c) {
    streams.push_back(instantiate(shape, apps, split, c));
  }

  // Set-up: daemon spawn until it accepts connections, 15 times.
  std::vector<double> listen;
  for (int i = 0; i < 15; ++i) {
    Daemon d(opt, opt.workdir + "/setup-cache");
    if (!d.error().empty()) {
      run.error = d.error();
      return run;
    }
    listen.push_back(d.listen_s());
  }
  std::filesystem::remove_all(opt.workdir + "/setup-cache");
  const double setup_s = median(listen);

  // Distinct ok cells of pass 1, for the traced run's in-process replays.
  std::map<std::string, std::pair<nc::sweep::Cell, nc::core::RunSummary>>
      distinct;
  bool transport_ok = true;

  auto pass = [&](int index) {
    tracer().enable(opt.trace && index % 2 == 0);
    const std::string cache_dir =
        opt.workdir + "/served-cache-" + std::to_string(index);
    std::filesystem::remove_all(cache_dir);
    PassResult p;
    p.workers = kDaemonWorkers;
    p.digest = kFnvBasis;
    std::vector<std::vector<Record>> records(kClients);
    {
      Daemon daemon(opt, cache_dir);
      if (!daemon.error().empty()) {
        std::printf("%s\n", daemon.error().c_str());
        transport_ok = false;
        return p;
      }
      Scoped root("serve.pass");
      const int root_index = root.index();
      CalibSampler sampler;
      const auto t0 = Clock::now();
      std::vector<std::thread> clients;
      for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          nc::serve::ClientOptions copt;
          copt.socket_path = kSocket;
          for (const Request& r : streams[static_cast<std::size_t>(c)]) {
            Record rec;
            Scoped span("serve.request", root_index, r.id);
            rec.submit_s = seconds_since(t0);
            rec.reply = nc::serve::submit_grid(
                copt, r.spec, [&](const nc::serve::ServedCell&) {
                  if (rec.first_s < 0) rec.first_s = seconds_since(t0);
                });
            rec.done_s = seconds_since(t0);
            records[static_cast<std::size_t>(c)].push_back(std::move(rec));
          }
        });
      }
      for (auto& t : clients) t.join();
      p.wall_s = seconds_since(t0);
      p.dense_calib_ms = sampler.stop();
      if (!daemon.stop()) {
        std::printf("netcache_sweepd did not drain cleanly\n");
        transport_ok = false;
      }
    }
    std::filesystem::remove_all(cache_dir);

    std::set<std::string> simulated;
    std::size_t fresh_ok = 0;
    for (int c = 0; c < kClients; ++c) {
      const auto& stream = streams[static_cast<std::size_t>(c)];
      for (std::size_t j = 0; j < stream.size(); ++j) {
        const Record& rec = records[static_cast<std::size_t>(c)][j];
        const auto& spec = stream[j].spec;
        const auto& rep = rec.reply;
        const auto expanded = nc::serve::to_cells(spec);
        if (!rep.accepted || !rep.done) {
          std::printf("request %ld not served: %s\n", stream[j].id,
                      rep.reject_reason.c_str());
          transport_ok = false;
        }
        std::vector<const nc::serve::ServedCell*> by_index(expanded.size());
        for (const auto& cell : rep.cells) {
          if (cell.index < by_index.size()) by_index[cell.index] = &cell;
        }
        bool request_ok = rep.accepted && rep.done;
        for (std::size_t i = 0; i < expanded.size(); ++i) {
          const auto* cell = by_index[i];
          p.cells += 1;
          if (cell == nullptr || !cell->ok) {
            request_ok = false;
            p.digest = fnv1a("FAILED", p.digest);
            if (cell != nullptr) simulated.insert(cell_key(spec, *cell));
            continue;
          }
          p.ok += 1;
          p.digest = fnv1a(canonical(cell->summary), p.digest);
          const std::string key = cell_key(spec, *cell);
          if (cell->from_cache) {
            p.from_cache += 1;
            continue;
          }
          fresh_ok += 1;
          if (!simulated.insert(key).second) continue;
          p.refs += cell->summary.totals.reads + cell->summary.totals.writes;
          p.busy_s += cell->summary.wall_seconds;
          p.summaries.push_back(cell->summary);
          if (index == 0) distinct.emplace(key, std::make_pair(expanded[i],
                                                               cell->summary));
        }
        p.latencies_s.push_back(request_ok
                                    ? rec.done_s - rec.submit_s
                                    : std::numeric_limits<double>::infinity());
        if (rec.first_s >= 0) p.first_cell_s.push_back(rec.first_s - rec.submit_s);
      }
    }
    p.simulations = simulated.size();
    p.attached = fresh_ok - p.summaries.size();
    return p;
  };
  const auto passes = run_passes(opt, pass, &run.error);
  tracer().enable(opt.trace);
  if (passes.empty()) return run;

  for (const auto& p : passes) {
    run.attempted += p.cells;
    run.failed += p.cells - p.ok;
  }
  run.correct = transport_ok;
  for (const auto& p : passes) {
    for (const auto& s : p.summaries) {
      run.correct = run.correct && s.verified && s.verify_enabled;
    }
  }
  std::printf("served: %zu requests/pass, %zu cells/pass, %zu ok, %zu from "
              "cache, %zu attached, %zu simulations\n",
              passes[0].latencies_s.size(), passes[0].cells, passes[0].ok,
              passes[0].from_cache, passes[0].attached, passes[0].simulations);
  if (!opt.trace) {
    run.metrics = end_to_end(passes, setup_s, WallEstimate::kBestPass, 1);
    return run;
  }

  // Traced run: byte-compare every distinct served cell with an in-process
  // Machine::run of the same cell, then time it again unverified.
  std::vector<nc::sweep::Cell> cells;
  std::vector<Replay> replays;
  double verified_s = 0;
  double unverified_s = 0;
  std::size_t mismatches = 0;
  {
    Scoped root("replay");
    for (const auto& [key, entry] : distinct) {
      Replay r;
      try {
        r = replay_cell(entry.first, root.index());
        unverified_s += replay_cell(entry.first, root.index(), 0).run_s;
      } catch (const std::exception& e) {
        std::printf("FAILED in-process %s: %s\n", key.c_str(), e.what());
        ++mismatches;
        continue;
      }
      if (canonical(r.summary) != canonical(entry.second)) {
        std::printf("MISMATCH: served %s differs from in-process\n",
                    key.c_str());
        ++mismatches;
      }
      verified_s += r.run_s;
      cells.push_back(entry.first);
      replays.push_back(std::move(r));
    }
  }
  std::printf("served-vs-in-process: %zu distinct cells compared, %zu "
              "mismatches\n",
              distinct.size(), mismatches);
  run.correct = run.correct && mismatches == 0;
  run.metrics = layer_metrics(opt, cells, replays, passes);
  std::vector<double> first_ms;
  double attached = 0;
  double served = 0;
  for (const auto& p : passes) {
    for (double f : p.first_cell_s) first_ms.push_back(f * 1e3);
    attached += static_cast<double>(p.attached);
    served += static_cast<double>(p.cells);
  }
  run.metrics["verify.overhead_ratio"] = {
      unverified_s > 0 ? verified_s / unverified_s : 0.0, "ratio"};
  run.metrics["serve.first_cell_ms"] = {median(first_ms), "ms"};
  run.metrics["serve.dedup_frac"] = {attached / served, "frac"};
  run.metrics["serve.simulations"] = {
      static_cast<double>(passes[0].simulations), "count"};
  return run;
}

}  // namespace perfbench
