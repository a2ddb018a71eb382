// The sweep-serving daemon, bottom-up: frame protocol (round-trips, framing
// violations poison the stream), GridSpec (exact %a round-trip, strict
// parsing, shared cell-expansion order), dedup planner (cross-request
// dedup, two-phase overload rejection with no state leak, drop/drain
// fan-out), and the daemon end-to-end over a real Unix socket: served
// results byte-identical to in-process runs, crash cells quarantined
// in-band while the daemon survives, overload rejected with a diagnosis,
// SIGTERM drain flushing a partial grid with exit 0, and the chaos pin —
// SIGKILL mid-grid, restart, resume re-executing only the unfinished cells.
#include "src/serve/client.hpp"
#include "src/serve/planner.hpp"
#include "src/serve/protocol.hpp"
#include "src/serve/server.hpp"
#include "src/serve/spec.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "src/apps/workload.hpp"
#include "src/core/run_summary.hpp"
#include "src/sweep/result_cache.hpp"
#include "src/sweep/supervisor.hpp"
#include "src/sweep/sweep.hpp"

namespace netcache {
namespace {

namespace fs = std::filesystem;

/// Every daemon child forked by a test registers here so a failed ASSERT
/// (early return) cannot leak a live daemon holding the test's stdout pipe.
std::vector<pid_t>& daemon_registry() {
  static std::vector<pid_t> pids;
  return pids;
}

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sweep::clear_stop();
    dir_ = fs::temp_directory_path() /
           ("netcache-serve-" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    for (pid_t pid : daemon_registry()) {
      ::kill(pid, SIGKILL);                // no-op if already exited + reaped
      ::waitpid(pid, nullptr, 0);          // ECHILD if already reaped
    }
    daemon_registry().clear();
    sweep::clear_stop();
    fs::remove_all(dir_);
  }

  fs::path dir_;
};

// ---------------------------------------------------------------------------
// Frame protocol

TEST(ServeProtocol, FrameRoundTripsThroughAByteStream) {
  serve::Frame frame;
  frame.type = "cell";
  frame.meta["index"] = "3";
  frame.meta["label"] = "sor/NetCache";
  frame.meta["ok"] = "1";
  frame.payload = "line one\nline two with end\nbinary\0byte";
  const std::string wire = serve::encode_frame(frame);

  // Feed the encoded bytes one at a time: the reader must never need more
  // than the stream eventually provides, and never yield early.
  serve::FrameReader reader;
  serve::Frame out;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    reader.append(wire.data() + i, 1);
    EXPECT_FALSE(reader.next(&out)) << "frame complete at byte " << i;
  }
  reader.append(wire.data() + wire.size() - 1, 1);
  ASSERT_TRUE(reader.next(&out));
  EXPECT_FALSE(reader.error());
  EXPECT_EQ(out.type, frame.type);
  EXPECT_EQ(out.meta, frame.meta);
  EXPECT_EQ(out.payload, frame.payload);
  EXPECT_EQ(reader.buffered(), 0u);
  EXPECT_FALSE(reader.next(&out));  // stream drained
}

TEST(ServeProtocol, BackToBackFramesDecodeInOrder) {
  serve::Frame a;
  a.type = "ack";
  a.meta["cells"] = "4";
  serve::Frame b;
  b.type = "done";
  b.payload = "tail";
  const std::string wire = serve::encode_frame(a) + serve::encode_frame(b);

  serve::FrameReader reader;
  reader.append(wire.data(), wire.size());
  serve::Frame out;
  ASSERT_TRUE(reader.next(&out));
  EXPECT_EQ(out.type, "ack");
  EXPECT_EQ(out.get("cells"), "4");
  ASSERT_TRUE(reader.next(&out));
  EXPECT_EQ(out.type, "done");
  EXPECT_EQ(out.payload, "tail");
  EXPECT_FALSE(reader.next(&out));
  EXPECT_FALSE(reader.error());
}

TEST(ServeProtocol, BadMagicPoisonsTheStream) {
  serve::FrameReader reader;
  const std::string junk = "HTTP/1.1 200 OK\r\n\r\n";
  reader.append(junk.data(), junk.size());
  serve::Frame out;
  EXPECT_FALSE(reader.next(&out));
  EXPECT_TRUE(reader.error());
  EXPECT_FALSE(reader.error_text().empty());
  // Poisoned for good: more bytes never un-poison a framing error.
  serve::Frame ack;
  ack.type = "ack";
  const std::string more = serve::encode_frame(ack);
  reader.append(more.data(), more.size());
  EXPECT_FALSE(reader.next(&out));
  EXPECT_TRUE(reader.error());
}

TEST(ServeProtocol, OversizedPayloadIsRejectedNotBuffered) {
  std::string wire = "netcache-serve-frame v1\ntype cell\nbytes 999999999\n";
  serve::FrameReader reader;
  reader.append(wire.data(), wire.size());
  serve::Frame out;
  EXPECT_FALSE(reader.next(&out));
  EXPECT_TRUE(reader.error());
  EXPECT_NE(reader.error_text().find("payload"), std::string::npos)
      << reader.error_text();
}

TEST(ServeProtocol, MissingEndTrailerIsAFramingError) {
  serve::Frame frame;
  frame.type = "ack";
  frame.payload = "abc";
  std::string wire = serve::encode_frame(frame);
  // Corrupt the trailer: the length said 3 bytes, the trailer must follow.
  wire[wire.size() - 4] = 'X';
  serve::FrameReader reader;
  reader.append(wire.data(), wire.size());
  serve::Frame out;
  EXPECT_FALSE(reader.next(&out));
  EXPECT_TRUE(reader.error());
}

// ---------------------------------------------------------------------------
// GridSpec

TEST(ServeSpec, SerializeParseRoundTripIsExact) {
  serve::GridSpec spec;
  spec.app = "sor,fft";
  spec.system = "all";
  spec.nodes = 32;
  spec.scale = 0.3;
  spec.paper_size = true;
  spec.l2_kb = 64;
  spec.channels = 256;
  spec.gbps = 2.5;
  spec.mem = 100;
  spec.policy = RingReplacement::kLru;
  spec.assoc = RingAssociativity::kDirectMapped;
  spec.prefetch = true;
  spec.ring_only_reads = true;
  spec.verify = true;
  spec.faults = "crash:2";
  spec.fault_apps = "fft";
  spec.fault_seed_set = true;
  spec.fault_seed = 77;
  spec.fault_recovery = false;

  const std::string text = serve::serialize_spec(spec);
  serve::GridSpec parsed;
  std::string error;
  ASSERT_TRUE(serve::parse_spec(text, &parsed, &error)) << error;
  // Exact round-trip, hex-float doubles included: re-serializing must give
  // the same bytes, which is what makes the spec a stable cache identity.
  EXPECT_EQ(serve::serialize_spec(parsed), text);
  EXPECT_EQ(parsed.scale, spec.scale);
  EXPECT_EQ(parsed.gbps, spec.gbps);
  EXPECT_EQ(parsed.policy, spec.policy);
  EXPECT_EQ(parsed.fault_seed, spec.fault_seed);
  EXPECT_TRUE(parsed.fault_seed_set);
  EXPECT_FALSE(parsed.fault_recovery);
}

TEST(ServeSpec, ParseRejectsMalformedInput) {
  serve::GridSpec spec;
  std::string error;
  EXPECT_FALSE(serve::parse_spec("not a spec", &spec, &error));
  EXPECT_FALSE(error.empty());

  const std::string good = serve::serialize_spec(serve::GridSpec{});
  EXPECT_TRUE(serve::parse_spec(good, &spec, &error)) << error;
  EXPECT_FALSE(serve::parse_spec(good + "trailing", &spec, &error));
  EXPECT_FALSE(
      serve::parse_spec(good.substr(0, good.size() - 5), &spec, &error));

  std::string unknown = good;
  unknown.insert(unknown.find("end\n"), "flux_capacitance 88\n");
  EXPECT_FALSE(serve::parse_spec(unknown, &spec, &error));
  EXPECT_NE(error.find("flux_capacitance"), std::string::npos) << error;
}

TEST(ServeSpec, CellsExpandAppsOuterSystemsInner) {
  serve::GridSpec spec;
  spec.app = "sor,fft";
  spec.system = "netcache,lambdanet";
  spec.nodes = 4;
  spec.scale = 0.15;
  const std::vector<sweep::Cell> cells = serve::to_cells(spec);
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[0].label(), "sor/NetCache");
  EXPECT_EQ(cells[1].label(), "sor/LambdaNet");
  EXPECT_EQ(cells[2].label(), "fft/NetCache");
  EXPECT_EQ(cells[3].label(), "fft/LambdaNet");
  for (const sweep::Cell& cell : cells) {
    EXPECT_EQ(cell.nodes, 4);
    EXPECT_TRUE(sweep::ResultCache::cacheable(cell));
  }
}

TEST(ServeSpec, GridFlagsParseAndDiagnose) {
  serve::GridSpec spec;
  std::string error;
  EXPECT_EQ(serve::parse_grid_flag("--app=fft,sor", &spec, &error),
            sweep::FlagParse::kConsumed);
  EXPECT_EQ(spec.app, "fft,sor");
  EXPECT_EQ(serve::parse_grid_flag("--policy=lru", &spec, &error),
            sweep::FlagParse::kConsumed);
  EXPECT_EQ(spec.policy, RingReplacement::kLru);
  EXPECT_EQ(serve::parse_grid_flag("--nodes=zero", &spec, &error),
            sweep::FlagParse::kBadValue);
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(serve::parse_grid_flag("--socket=/x", &spec, &error),
            sweep::FlagParse::kNotSweepFlag);
}

// ---------------------------------------------------------------------------
// Planner

sweep::Cell plan_cell(const std::string& app, int nodes = 4) {
  sweep::Cell cell;
  cell.app = app;
  cell.system = SystemKind::kNetCache;
  cell.nodes = nodes;
  cell.scale = 0.15;
  return cell;
}

sweep::CellResult ok_result(double run_time = 1000.0) {
  sweep::CellResult r;
  r.ok = true;
  r.summary.verified = true;
  r.summary.run_time = static_cast<std::uint64_t>(run_time);
  return r;
}

TEST(ServePlanner, SharedCellsAcrossRequestsSimulateOnce) {
  serve::Planner planner(nullptr, 16);

  serve::Planner::Admission first =
      planner.admit(1, {plan_cell("sor"), plan_cell("fft")});
  ASSERT_TRUE(first.accepted) << first.reject_reason;
  EXPECT_EQ(first.new_jobs, 2u);
  EXPECT_EQ(first.attached, 0u);

  // Second request shares "sor": it attaches instead of queueing a copy.
  serve::Planner::Admission second =
      planner.admit(2, {plan_cell("sor"), plan_cell("lu")});
  ASSERT_TRUE(second.accepted) << second.reject_reason;
  EXPECT_EQ(second.new_jobs, 1u);
  EXPECT_EQ(second.attached, 1u);
  EXPECT_EQ(planner.queued_jobs(), 3u);

  // Completing the shared job fans out to both requests at their own grid
  // indexes.
  const long sor = planner.next_job();
  ASSERT_GE(sor, 0);
  EXPECT_EQ(planner.job_cell(sor).app, "sor");
  std::vector<serve::Planner::Delivery> out;
  planner.complete(sor, ok_result(), &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].request_id, 1);
  EXPECT_EQ(out[0].index, 0u);
  EXPECT_EQ(out[1].request_id, 2);
  EXPECT_EQ(out[1].index, 0u);
  EXPECT_EQ(planner.pending(1), 1u);
  EXPECT_EQ(planner.pending(2), 1u);
}

TEST(ServePlanner, DuplicateCellsWithinOneRequestShareOneJob) {
  serve::Planner planner(nullptr, 16);
  serve::Planner::Admission a =
      planner.admit(7, {plan_cell("sor"), plan_cell("sor")});
  ASSERT_TRUE(a.accepted);
  EXPECT_EQ(a.total_cells, 2u);
  EXPECT_EQ(a.new_jobs, 1u);
  EXPECT_EQ(a.attached, 1u);

  const long id = planner.next_job();
  std::vector<serve::Planner::Delivery> out;
  planner.complete(id, ok_result(), &out);
  ASSERT_EQ(out.size(), 2u);  // both grid slots filled by the one run
  EXPECT_EQ(out[0].index, 0u);
  EXPECT_EQ(out[1].index, 1u);
  EXPECT_EQ(planner.pending(7), 0u);
}

TEST(ServePlanner, UncacheableCellsNeverDedupEvenWithEqualLabels) {
  // Custom-workload cells cannot be compared: two with the same label (same
  // app and system, different node counts) in one request are two jobs.
  std::vector<sweep::Cell> cells = {plan_cell("sor", 4), plan_cell("sor", 8)};
  for (sweep::Cell& cell : cells) {
    cell.make_workload = [] {
      return apps::make_workload("sor", apps::WorkloadParams{});
    };
  }
  serve::Planner planner(nullptr, 16);
  serve::Planner::Admission a = planner.admit(1, cells);
  ASSERT_TRUE(a.accepted) << a.reject_reason;
  EXPECT_EQ(a.new_jobs, 2u);
  EXPECT_EQ(a.attached, 0u);
  EXPECT_EQ(planner.queued_jobs(), 2u);
}

TEST(ServePlanner, OverloadRejectionIsAtomicAndLeavesNoState) {
  serve::Planner planner(nullptr, 2);
  ASSERT_TRUE(planner.admit(1, {plan_cell("sor"), plan_cell("fft")}).accepted);
  ASSERT_EQ(planner.queued_jobs(), 2u);

  // Three new cells against a full queue: rejected as a unit — not two
  // admitted and one refused, and nothing of the request survives.
  serve::Planner::Admission over = planner.admit(
      2, {plan_cell("lu"), plan_cell("mg"), plan_cell("ocean")});
  EXPECT_FALSE(over.accepted);
  EXPECT_NE(over.reject_reason.find("overloaded"), std::string::npos)
      << over.reject_reason;
  EXPECT_EQ(planner.queued_jobs(), 2u);
  EXPECT_EQ(planner.pending(2), 0u);

  // A request that only attaches to in-flight jobs costs no queue slots and
  // is admitted even at the bound.
  serve::Planner::Admission attach = planner.admit(3, {plan_cell("sor")});
  EXPECT_TRUE(attach.accepted) << attach.reject_reason;
  EXPECT_EQ(attach.new_jobs, 0u);
  EXPECT_EQ(attach.attached, 1u);
}

TEST_F(ServeTest, PlannerServesWarmCellsAtAdmission) {
  sweep::ResultCache cache((dir_ / "cache").string());
  const sweep::Cell warm = plan_cell("sor");
  cache.store(warm, ok_result().summary);

  serve::Planner planner(&cache, 16);
  serve::Planner::Admission a = planner.admit(1, {warm, plan_cell("fft")});
  ASSERT_TRUE(a.accepted);
  ASSERT_EQ(a.immediate.size(), 1u);
  EXPECT_EQ(a.immediate[0].index, 0u);
  EXPECT_TRUE(a.immediate[0].result.from_cache);
  EXPECT_TRUE(a.immediate[0].result.ok);
  EXPECT_EQ(a.new_jobs, 1u);
  EXPECT_EQ(planner.pending(1), 1u);

  // Completing the cold job through the planner writes the cache, so the
  // next identical request is a pure-hit grid finished at admission.
  const long id = planner.next_job();
  std::vector<serve::Planner::Delivery> out;
  planner.complete(id, ok_result(2000.0), &out);
  EXPECT_EQ(planner.pending(1), 0u);

  serve::Planner::Admission again = planner.admit(2, {warm, plan_cell("fft")});
  ASSERT_TRUE(again.accepted);
  EXPECT_EQ(again.immediate.size(), 2u);
  EXPECT_EQ(again.new_jobs, 0u);
  EXPECT_EQ(planner.pending(2), 0u);
}

TEST(ServePlanner, FailQueuedDeliversTheDrainDiagnosisToEveryWaiter) {
  serve::Planner planner(nullptr, 16);
  ASSERT_TRUE(planner.admit(1, {plan_cell("sor"), plan_cell("fft")}).accepted);
  ASSERT_TRUE(planner.admit(2, {plan_cell("sor")}).accepted);

  std::vector<serve::Planner::Delivery> out;
  planner.fail_queued("daemon draining", &out);
  ASSERT_EQ(out.size(), 3u);  // 2 waiters on sor + 1 on fft
  for (const serve::Planner::Delivery& d : out) {
    EXPECT_FALSE(d.result.ok);
    EXPECT_NE(d.result.error.find("draining"), std::string::npos);
  }
  EXPECT_EQ(planner.queued_jobs(), 0u);
  EXPECT_EQ(planner.pending(1), 0u);
  EXPECT_EQ(planner.pending(2), 0u);
}

TEST(ServePlanner, DropRequestOrphansQueuedJobsButNotRunningOnes) {
  serve::Planner planner(nullptr, 16);
  ASSERT_TRUE(planner.admit(1, {plan_cell("sor"), plan_cell("fft")}).accepted);
  const long running = planner.next_job();
  ASSERT_GE(running, 0);

  planner.drop_request(1);
  // The queued job had no other waiter: dropped. The running one finishes
  // (its result is still worth caching) but delivers to nobody.
  EXPECT_EQ(planner.queued_jobs(), 0u);
  EXPECT_EQ(planner.running_jobs(), 1u);
  std::vector<serve::Planner::Delivery> out;
  planner.complete(running, ok_result(), &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(planner.running_jobs(), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end daemon over a real Unix socket. The daemon runs as a forked
// child process (exactly how it deploys), the test is the client.

struct Daemon {
  pid_t pid = -1;
  std::string socket_path;
};

Daemon start_daemon(const fs::path& dir, const std::string& cache_dir,
                    serve::ServerOptions options) {
  Daemon d;
  d.socket_path = (dir / "sweepd.sock").string();
  options.socket_path = d.socket_path;
  d.pid = ::fork();
  if (d.pid == 0) {
    sweep::ResultCache* cache =
        cache_dir.empty() ? nullptr : new sweep::ResultCache(cache_dir);
    std::_Exit(serve::run_server(options, cache));
  }
  if (d.pid > 0) daemon_registry().push_back(d.pid);
  return d;
}

int wait_for_exit(pid_t pid) {
  int status = 0;
  ::waitpid(pid, &status, 0);
  return status;
}

/// Submits with connect retries: the daemon child needs a beat to bind.
serve::ServeReply submit(const Daemon& d, const serve::GridSpec& spec,
                         const std::function<void(const serve::ServedCell&)>&
                             on_cell = nullptr) {
  serve::ClientOptions options;
  options.socket_path = d.socket_path;
  options.timeout_s = 120;
  for (int attempt = 0; attempt < 200; ++attempt) {
    serve::ServeReply reply = serve::submit_grid(options, spec, on_cell);
    if (reply.reject_reason.find("connect(") == std::string::npos) {
      return reply;
    }
    ::usleep(20'000);
  }
  return serve::submit_grid(options, spec, on_cell);
}

serve::GridSpec small_grid() {
  serve::GridSpec spec;
  spec.app = "sor";
  spec.system = "netcache,lambdanet";
  spec.nodes = 4;
  spec.scale = 0.15;
  return spec;
}

std::string summary_bytes_sans_wall(core::RunSummary s) {
  s.wall_seconds = 0.0;
  return core::serialize_summary(s);
}

TEST_F(ServeTest, DaemonServesGridsByteIdenticalToInProcessRuns) {
  serve::ServerOptions options;
  options.jobs = 2;
  Daemon daemon = start_daemon(dir_, (dir_ / "cache").string(), options);
  ASSERT_GT(daemon.pid, 0);

  const serve::GridSpec spec = small_grid();
  const std::vector<sweep::Cell> cells = serve::to_cells(spec);

  serve::ServeReply cold = submit(daemon, spec);
  ASSERT_TRUE(cold.accepted) << cold.reject_reason;
  ASSERT_TRUE(cold.done) << cold.reject_reason;
  ASSERT_EQ(cold.cells.size(), cells.size());
  EXPECT_EQ(cold.completed, cells.size());
  EXPECT_EQ(cold.failed, 0u);

  std::vector<const serve::ServedCell*> by_index(cells.size(), nullptr);
  for (const serve::ServedCell& cell : cold.cells) {
    ASSERT_LT(cell.index, by_index.size());
    by_index[cell.index] = &cell;
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    ASSERT_NE(by_index[i], nullptr) << "cell " << i << " never served";
    ASSERT_TRUE(by_index[i]->ok) << by_index[i]->error;
    EXPECT_EQ(by_index[i]->label, cells[i].label());
    EXPECT_FALSE(by_index[i]->from_cache);
    // The pin: a served summary is bit-identical to running the same cell
    // in-process (wall_seconds excepted — observability, not result).
    sweep::CellResult direct = sweep::run_cell(cells[i], nullptr);
    ASSERT_TRUE(direct.ok) << direct.error;
    EXPECT_EQ(summary_bytes_sans_wall(by_index[i]->summary),
              summary_bytes_sans_wall(direct.summary))
        << cells[i].label();
  }

  // Warm resubmit: every cell is a cache hit, byte-identical to the cold
  // serve including wall_seconds (the cache preserves the original record).
  serve::ServeReply warm = submit(daemon, spec);
  ASSERT_TRUE(warm.done) << warm.reject_reason;
  ASSERT_EQ(warm.cells.size(), cells.size());
  for (const serve::ServedCell& cell : warm.cells) {
    EXPECT_TRUE(cell.from_cache) << cell.label;
    ASSERT_TRUE(cell.ok) << cell.error;
    ASSERT_LT(cell.index, by_index.size());
    EXPECT_EQ(core::serialize_summary(cell.summary),
              core::serialize_summary(by_index[cell.index]->summary));
  }

  ASSERT_EQ(::kill(daemon.pid, SIGTERM), 0);
  const int status = wait_for_exit(daemon.pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_FALSE(fs::exists(daemon.socket_path));  // unlinked on clean drain
}

TEST_F(ServeTest, CrashCellIsQuarantinedInBandAndTheDaemonSurvives) {
  serve::ServerOptions options;
  options.jobs = 2;
  options.isolation.cell_retries = 0;
  options.isolation.backoff_s = 0.01;
  Daemon daemon = start_daemon(dir_, "", options);
  ASSERT_GT(daemon.pid, 0);

  serve::GridSpec poisoned = small_grid();
  poisoned.faults = "crash:1";
  poisoned.fault_seed_set = true;
  poisoned.fault_seed = 1;

  serve::ServeReply reply = submit(daemon, poisoned);
  ASSERT_TRUE(reply.done) << reply.reject_reason;
  ASSERT_EQ(reply.cells.size(), 2u);
  EXPECT_EQ(reply.failed, 2u);
  for (const serve::ServedCell& cell : reply.cells) {
    EXPECT_FALSE(cell.ok);
    EXPECT_NE(cell.error.find("signal"), std::string::npos) << cell.error;
  }

  // The crashes were the workers', not the daemon's: a healthy grid on the
  // same connection-point still completes.
  serve::ServeReply healthy = submit(daemon, small_grid());
  ASSERT_TRUE(healthy.done) << healthy.reject_reason;
  EXPECT_EQ(healthy.failed, 0u);

  ASSERT_EQ(::kill(daemon.pid, SIGTERM), 0);
  const int status = wait_for_exit(daemon.pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST_F(ServeTest, OverloadedDaemonRejectsTheExcessRequestWithADiagnosis) {
  serve::ServerOptions options;
  options.jobs = 1;
  options.max_queue = 1;
  Daemon daemon = start_daemon(dir_, "", options);
  ASSERT_GT(daemon.pid, 0);

  serve::GridSpec big = small_grid();
  big.app = "sor,fft";  // 4 cells against a 1-slot queue
  serve::ServeReply reply = submit(daemon, big);
  EXPECT_FALSE(reply.accepted);
  EXPECT_FALSE(reply.done);
  EXPECT_NE(reply.reject_reason.find("overloaded"), std::string::npos)
      << reply.reject_reason;

  // Rejection leaked nothing: a grid that fits is admitted and served.
  serve::GridSpec one = small_grid();
  one.system = "netcache";
  serve::ServeReply fits = submit(daemon, one);
  ASSERT_TRUE(fits.done) << fits.reject_reason;
  EXPECT_EQ(fits.failed, 0u);

  ASSERT_EQ(::kill(daemon.pid, SIGTERM), 0);
  wait_for_exit(daemon.pid);
}

TEST_F(ServeTest, SigtermDrainFailsTheGridInBandAndExitsZero) {
  serve::ServerOptions options;
  options.jobs = 1;
  options.drain_timeout_s = 0.3;
  Daemon daemon = start_daemon(dir_, "", options);
  ASSERT_GT(daemon.pid, 0);

  // Both cells livelock: one occupies the single worker slot, one queues.
  serve::GridSpec stuck = small_grid();
  stuck.faults = "hang:1";
  stuck.fault_seed_set = true;
  stuck.fault_seed = 1;

  std::thread terminator([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(700));
    ::kill(daemon.pid, SIGTERM);
  });
  serve::ServeReply reply = submit(daemon, stuck);
  terminator.join();

  // The drain is a protocol event, not a dropped connection: the client got
  // its done frame with every cell failed in-band.
  ASSERT_TRUE(reply.accepted) << reply.reject_reason;
  ASSERT_TRUE(reply.done) << reply.reject_reason;
  ASSERT_EQ(reply.cells.size(), 2u);
  for (const serve::ServedCell& cell : reply.cells) {
    EXPECT_FALSE(cell.ok);
    EXPECT_NE(cell.error.find("draining"), std::string::npos) << cell.error;
  }

  const int status = wait_for_exit(daemon.pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST_F(ServeTest, KilledDaemonResumesFromTheCacheReExecutingOnlyTheRest) {
  const std::string cache_dir = (dir_ / "cache").string();
  serve::ServerOptions options;
  options.jobs = 1;  // sequential cells => a mid-grid kill leaves a partial
  Daemon first = start_daemon(dir_, cache_dir, options);
  ASSERT_GT(first.pid, 0);

  serve::GridSpec spec = small_grid();
  spec.app = "sor,fft";  // 4 cells
  const std::vector<sweep::Cell> cells = serve::to_cells(spec);

  // SIGKILL the daemon the moment the first cell lands — no drain, no
  // cleanup, exactly the crash the resume path exists for.
  std::vector<std::size_t> seen;
  serve::ServeReply cut = submit(first, spec,
                                 [&](const serve::ServedCell& cell) {
                                   seen.push_back(cell.index);
                                   if (seen.size() == 1) {
                                     ::kill(first.pid, SIGKILL);
                                   }
                                 });
  ASSERT_TRUE(cut.accepted) << cut.reject_reason;
  EXPECT_FALSE(cut.done);
  EXPECT_NE(cut.reject_reason.find("re-submit"), std::string::npos)
      << cut.reject_reason;
  ASSERT_FALSE(seen.empty());
  wait_for_exit(first.pid);

  // Every cell the client saw was already persisted: the store happens
  // before the frame is sent.
  std::size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(cache_dir)) {
    entries += entry.path().extension() == ".ncr" ? 1 : 0;
  }
  EXPECT_GE(entries, seen.size());

  // Restart on the same socket path (the stale socket file must not block
  // the bind) and the same cache: the grid completes, the cells served
  // before the kill come from the cache, and the merged result is
  // byte-identical to an in-process run.
  Daemon second = start_daemon(dir_, cache_dir, options);
  ASSERT_GT(second.pid, 0);
  serve::ServeReply resumed = submit(second, spec);
  ASSERT_TRUE(resumed.done) << resumed.reject_reason;
  ASSERT_EQ(resumed.cells.size(), cells.size());
  EXPECT_EQ(resumed.failed, 0u);

  std::vector<const serve::ServedCell*> by_index(cells.size(), nullptr);
  for (const serve::ServedCell& cell : resumed.cells) {
    ASSERT_LT(cell.index, by_index.size());
    by_index[cell.index] = &cell;
  }
  for (std::size_t index : seen) {
    ASSERT_NE(by_index[index], nullptr);
    EXPECT_TRUE(by_index[index]->from_cache)
        << "cell " << index << " was re-executed despite being cached";
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    ASSERT_NE(by_index[i], nullptr) << "cell " << i << " never served";
    ASSERT_TRUE(by_index[i]->ok) << by_index[i]->error;
    sweep::CellResult direct = sweep::run_cell(cells[i], nullptr);
    ASSERT_TRUE(direct.ok) << direct.error;
    EXPECT_EQ(summary_bytes_sans_wall(by_index[i]->summary),
              summary_bytes_sans_wall(direct.summary))
        << cells[i].label();
  }

  ASSERT_EQ(::kill(second.pid, SIGTERM), 0);
  const int status = wait_for_exit(second.pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
}  // namespace netcache
