#include "src/sweep/supervisor.hpp"

#include <cctype>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "src/common/nc_assert.hpp"
#include "src/serve/planner.hpp"

namespace netcache::sweep {

// --- Stop flag --------------------------------------------------------------

namespace {

// Written by the signal handler and request_stop(), read by supervising
// threads: an atomic, and a lock-free one so the handler stays
// async-signal-safe.
std::atomic<int> g_stop_signal{0};
static_assert(std::atomic<int>::is_always_lock_free);
bool g_handlers_installed = false;
struct sigaction g_old_int;
struct sigaction g_old_term;

void stop_handler(int sig) { g_stop_signal = sig; }

}  // namespace

void install_stop_handlers() {
  if (g_handlers_installed) return;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = stop_handler;
  sigemptyset(&sa.sa_mask);
  // No SA_RESTART: a pending stop should interrupt blocking syscalls (the
  // supervisor's poll() already wakes on a short timeout regardless).
  ::sigaction(SIGINT, &sa, &g_old_int);
  ::sigaction(SIGTERM, &sa, &g_old_term);
  g_handlers_installed = true;
}

void remove_stop_handlers() {
  if (!g_handlers_installed) return;
  ::sigaction(SIGINT, &g_old_int, nullptr);
  ::sigaction(SIGTERM, &g_old_term, nullptr);
  g_handlers_installed = false;
}

bool stop_requested() { return g_stop_signal != 0; }
int stop_signal() { return g_stop_signal; }
void request_stop(int sig) { g_stop_signal = sig; }
void clear_stop() { g_stop_signal = 0; }

// --- Option defaults --------------------------------------------------------

namespace {

bool env_number(const char* name, double* out) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return false;
  char* end = nullptr;
  double v = std::strtod(env, &end);
  if (end == env || *end != '\0' || v < 0) return false;
  *out = v;
  return true;
}

}  // namespace

IsolationOptions default_isolation() {
  IsolationOptions opts;
  if (const char* env = std::getenv("NETCACHE_SWEEP_ISOLATE")) {
    opts.enabled = std::strcmp(env, "1") == 0;
  }
  double v = 0;
  if (env_number("NETCACHE_CELL_TIMEOUT", &v)) opts.cell_timeout_s = v;
  if (env_number("NETCACHE_CELL_RETRIES", &v)) {
    opts.cell_retries = static_cast<int>(v);
  }
  if (env_number("NETCACHE_CELL_BACKOFF", &v)) opts.backoff_s = v;
  if (const char* env = std::getenv("NETCACHE_FORENSICS_DIR")) {
    opts.forensics_dir = env;
  }
  return opts;
}

// --- Child side -------------------------------------------------------------

namespace {

constexpr const char* kFrameMagic = "netcache-cell-frame v1";

bool write_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

/// Runs exactly one cell in the forked child and reports the outcome over
/// `result_fd` as one frame:
///
///   netcache-cell-frame v1\n
///   ok <0|1>\n
///   bytes <payload-size>\n
///   <payload>end\n
///
/// ok=1: payload is the %a hex-float serialize_summary() text (bit-exact
/// round trip). ok=0: payload is the diagnosed error text (in-band failure).
/// Anything else the parent reads — a partial frame, no frame, a nonzero
/// exit — is a process-level failure of this child.
[[noreturn]] void run_cell_entrypoint(const Cell& cell, int result_fd) {
  CellResult r = run_cell(cell, /*cache=*/nullptr);
  const std::string payload =
      r.ok ? core::serialize_summary(r.summary) : r.error;
  char head[96];
  std::snprintf(head, sizeof(head), "%s\nok %d\nbytes %zu\n", kFrameMagic,
                r.ok ? 1 : 0, payload.size());
  std::string frame = head;
  frame += payload;
  frame += "end\n";
  const bool sent = write_all(result_fd, frame.data(), frame.size());
  // _exit, not exit: the child shares the parent's atexit/static state and
  // must not run destructors or flush shared stdio buffers twice.
  _exit(sent ? 0 : 3);
}

// --- Parent side ------------------------------------------------------------

using Clock = ChildPool::Clock;

Clock::time_point after_seconds(double s) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(s));
}

/// Decodes one complete child result frame. False on a partial or garbled
/// buffer — a process-level failure of the attempt.
bool decode_cell_frame(const std::string& buf, CellResult* out) {
  const std::string magic = std::string(kFrameMagic) + "\n";
  if (buf.compare(0, magic.size(), magic) != 0) return false;
  std::size_t pos = magic.size();
  int ok = -1;
  std::size_t bytes = 0;
  if (std::sscanf(buf.c_str() + pos, "ok %d\nbytes %zu\n", &ok, &bytes) != 2 ||
      (ok != 0 && ok != 1)) {
    return false;
  }
  const std::size_t payload_at = buf.find('\n', buf.find('\n', pos) + 1);
  if (payload_at == std::string::npos) return false;
  const std::size_t start = payload_at + 1;
  if (buf.size() != start + bytes + 4 ||
      buf.compare(start + bytes, 4, "end\n") != 0) {
    return false;
  }
  const std::string payload = buf.substr(start, bytes);
  CellResult r;
  r.ok = ok == 1;
  if (!r.ok) {
    r.error = payload;
  } else if (!core::deserialize_summary(payload, &r.summary)) {
    return false;
  }
  *out = std::move(r);
  return true;
}

/// Last `max_bytes` of the file at `path` ("" when unreadable).
std::string read_stderr_tail(const std::string& path, std::size_t max_bytes) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  if (size < 0) size = 0;
  long start = size > static_cast<long>(max_bytes)
                   ? size - static_cast<long>(max_bytes)
                   : 0;
  std::fseek(f, start, SEEK_SET);
  std::string out(static_cast<std::size_t>(size - start), '\0');
  out.resize(std::fread(out.data(), 1, out.size(), f));
  std::fclose(f);
  return out;
}

std::string sanitize_label(const std::string& label) {
  std::string out;
  for (char c : label) {
    out += std::isalnum(static_cast<unsigned char>(c)) ? c : '-';
  }
  return out;
}

/// Human-readable diagnosis of a process-level failure (signal, exit code,
/// timeout, attempts) with the harvested stderr tail appended.
std::string describe_process_failure(const FailureRecord& rec) {
  char buf[160];
  if (rec.timed_out) {
    std::snprintf(buf, sizeof(buf),
                  "cell timed out and was killed (attempt %d)", rec.attempts);
  } else if (rec.signaled) {
    std::snprintf(buf, sizeof(buf),
                  "cell process died on signal %d (%s) (attempt %d)",
                  rec.term_signal, strsignal(rec.term_signal), rec.attempts);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "cell process exited with status %d (attempt %d)",
                  rec.exit_code, rec.attempts);
  }
  std::string out = buf;
  if (!rec.stderr_tail.empty()) {
    out += "; stderr tail:\n";
    out += rec.stderr_tail;
  }
  return out;
}

/// Writes one per-attempt forensics file: a status header plus the child's
/// full captured stderr.
void write_forensics(const std::string& dir, const Cell& cell, long job,
                     const FailureRecord& rec,
                     const std::string& stderr_path) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  char name[128];
  std::snprintf(name, sizeof(name), "cell-%03ld-%s-attempt%d.log", job,
                sanitize_label(cell.label()).c_str(), rec.attempts);
  const std::string path = dir + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return;
  std::fprintf(f, "cell %ld %s\nattempt %d\ntimed_out %d\nsignal %d\n"
                  "exit_code %d\n--- stderr ---\n",
               job, cell.label().c_str(), rec.attempts,
               rec.timed_out ? 1 : 0, rec.signaled ? rec.term_signal : 0,
               rec.signaled ? -1 : rec.exit_code);
  const std::string full = read_stderr_tail(stderr_path, 1 << 20);
  std::fwrite(full.data(), 1, full.size(), f);
  std::fclose(f);
}

std::string stderr_capture_path(long job, int attempt) {
  const char* tmp = std::getenv("TMPDIR");
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s/netcache-cell-%ld-%ld-%d.stderr",
                tmp != nullptr && *tmp != '\0' ? tmp : "/tmp",
                static_cast<long>(::getpid()), job, attempt);
  return buf;
}

/// Closes the result pipe and waits for the child; returns its wait status.
int close_and_wait(int fd, pid_t pid) {
  ::close(fd);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return status;
}

ChildPool::Outcome failed(long job, int attempts, const std::string& why) {
  ChildPool::Outcome o;
  o.job = job;
  o.result.failure.attempts = attempts;
  o.result.error = why;
  return o;
}

}  // namespace

double attempt_timeout_s(const IsolationOptions& opts, int attempt) {
  if (opts.cell_timeout_s <= 0) return 0;
  const int shift = std::clamp(attempt - 1, 0, 3);
  return opts.cell_timeout_s * static_cast<double>(1 << shift);
}

// --- ChildPool --------------------------------------------------------------

ChildPool::ChildPool(const IsolationOptions& opts, int slots)
    : opts_(opts), slots_(static_cast<std::size_t>(std::max(slots, 1))) {}

ChildPool::~ChildPool() {
  std::vector<Outcome> ignored;
  kill_all({}, &ignored);
}

void ChildPool::fill(serve::Planner& planner,
                     const std::vector<int>& close_in_child,
                     std::vector<Outcome>* out) {
  const Clock::time_point now = Clock::now();
  // Due retries first (their jobs already hold planner "running" slots),
  // then new jobs in planner FIFO order.
  for (std::size_t i = 0;
       i < backoffs_.size() && children_.size() < slots_;) {
    if (backoffs_[i].ready > now) {
      ++i;
      continue;
    }
    const Backoff b = backoffs_[i];
    backoffs_.erase(backoffs_.begin() + static_cast<long>(i));
    start(b.job, b.cell, b.attempt, close_in_child, out);
  }
  while (children_.size() < slots_) {
    const long job = planner.next_job();
    if (job < 0) break;
    start(job, &planner.job_cell(job), 1, close_in_child, out);
  }
}

void ChildPool::start(long job, const Cell* cell, int attempt,
                      const std::vector<int>& close_in_child,
                      std::vector<Outcome>* out) {
  int fds[2];
  if (::pipe(fds) != 0) {
    return out->push_back(failed(job, 0, "supervisor: pipe() failed"));
  }
  const std::string err_path = stderr_capture_path(job, attempt);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return out->push_back(failed(job, 0, "supervisor: fork() failed"));
  }
  if (pid == 0) {
    // Child: default signal dispositions (a terminal Ctrl+C must kill the
    // children while the parent shuts down gracefully), private stderr
    // capture file, and no inherited parent fds but our own pipe write end.
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGPIPE, SIG_DFL);
    ::close(fds[0]);
    for (int fd : close_in_child) ::close(fd);
    for (const Child& c : children_) ::close(c.fd);
    int err_fd = ::open(err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
    if (err_fd >= 0) {
      ::dup2(err_fd, 2);
      ::close(err_fd);
    }
    run_cell_entrypoint(*cell, fds[1]);
  }
  ::close(fds[1]);
  ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
  Child c{.job = job, .cell = cell, .attempt = attempt, .pid = pid,
          .fd = fds[0], .stderr_path = err_path};
  // Retries get an escalated wall-clock budget (x2 per attempt, capped): a
  // slow-but-correct cell should not burn its whole retry budget on
  // identical SIGKILLs.
  const double timeout_s = attempt_timeout_s(opts_, attempt);
  if (timeout_s > 0) c.deadline = after_seconds(timeout_s);
  children_.push_back(std::move(c));
}

void ChildPool::add_pollfds(std::vector<pollfd>* fds) const {
  for (const Child& c : children_) fds->push_back(pollfd{c.fd, POLLIN, 0});
}

Clock::time_point ChildPool::next_wakeup() const {
  Clock::time_point next = Clock::time_point::max();
  for (const Child& c : children_) next = std::min(next, c.deadline);
  for (const Backoff& b : backoffs_) next = std::min(next, b.ready);
  return next;
}

void ChildPool::handle(const pollfd* revents, std::vector<Outcome>* out) {
  std::vector<Child> still_running;
  for (std::size_t i = 0; i < children_.size(); ++i) {
    Child& c = children_[i];
    // EOF (all write ends closed — only the owning child ever held one)
    // means the attempt is done.
    ssize_t n = -1;
    if (revents[i].revents & (POLLIN | POLLHUP | POLLERR)) {
      char chunk[4096];
      while ((n = ::read(c.fd, chunk, sizeof(chunk))) > 0) {
        c.buf.append(chunk, static_cast<std::size_t>(n));
      }
    }
    if (n == 0) {
      reap(c, out);
      continue;
    }
    if (Clock::now() >= c.deadline) {
      // Budget exhausted: SIGKILL; the pipe EOF arrives on a later poll
      // round and reap() sees timed_out.
      c.timed_out = true;
      c.deadline = Clock::time_point::max();
      ::kill(c.pid, SIGKILL);
    }
    still_running.push_back(std::move(c));
  }
  children_ = std::move(still_running);
}

void ChildPool::reap(Child& c, std::vector<Outcome>* out) {
  const int status = close_and_wait(c.fd, c.pid);
  Outcome o;
  o.job = c.job;
  const bool clean_exit = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  if (decode_cell_frame(c.buf, &o.result) && clean_exit && !c.timed_out) {
    // In-band outcome — success or a diagnosed (deterministic) failure.
    o.result.failure.attempts = c.attempt;
    std::remove(c.stderr_path.c_str());
    out->push_back(std::move(o));
    return;
  }
  // Process-level failure: crash, timeout, or a garbled frame.
  FailureRecord rec;
  rec.attempts = c.attempt;
  rec.timed_out = c.timed_out;
  if (WIFSIGNALED(status)) {
    rec.signaled = true;
    rec.term_signal = WTERMSIG(status);
  } else if (WIFEXITED(status)) {
    rec.exit_code = WEXITSTATUS(status);
  }
  rec.stderr_tail = read_stderr_tail(c.stderr_path, 8192);
  if (!opts_.forensics_dir.empty()) {
    write_forensics(opts_.forensics_dir, *c.cell, c.job, rec, c.stderr_path);
  }
  std::remove(c.stderr_path.c_str());
  if (retrying_ && c.attempt <= opts_.cell_retries) {
    // Possibly transient: exponential backoff, then another child.
    const double factor = static_cast<double>(1 << std::min(c.attempt - 1,
                                                            20));
    backoffs_.push_back(Backoff{c.job, c.cell, c.attempt + 1,
                                after_seconds(opts_.backoff_s * factor)});
    return;
  }
  // Quarantined: deterministic (or budget-exhausted) process failure.
  o.result = CellResult{};
  o.result.failure = rec;
  o.result.error = describe_process_failure(rec);
  out->push_back(std::move(o));
}

void ChildPool::kill_all(const std::string& reason,
                         std::vector<Outcome>* out) {
  for (Child& c : children_) {
    ::kill(c.pid, SIGKILL);
    close_and_wait(c.fd, c.pid);
    std::remove(c.stderr_path.c_str());
    out->push_back(failed(c.job, c.attempt, reason));
  }
  children_.clear();
}

void ChildPool::drop_retries(const std::string& reason,
                             std::vector<Outcome>* out) {
  retrying_ = false;
  for (const Backoff& b : backoffs_) out->push_back(failed(b.job, 0, reason));
  backoffs_.clear();
}

// --- Isolated grids ---------------------------------------------------------

std::vector<CellResult> run_supervised(const std::vector<Cell>& cells,
                                       int jobs,
                                       const IsolationOptions& opts,
                                       ResultCache* cache) {
  std::vector<CellResult> results(cells.size());
  // The whole grid is one planner request: cache hits are served at
  // admission, duplicate cells run once, verified results are stored as
  // they complete.
  constexpr int kGrid = 1;
  serve::Planner planner(cache, cells.size());
  serve::Planner::Admission adm = planner.admit(kGrid, cells);
  NC_ASSERT(adm.accepted, "supervisor: a grid always fits its own planner");
  std::vector<serve::Planner::Delivery> delivered = std::move(adm.immediate);
  ChildPool pool(opts, jobs);
  std::vector<ChildPool::Outcome> finished;
  auto settle = [&] {
    for (const ChildPool::Outcome& o : finished) {
      planner.complete(o.job, o.result, &delivered);
    }
    finished.clear();
    for (serve::Planner::Delivery& d : delivered) {
      results[d.index] = std::move(d.result);
    }
    delivered.clear();
  };
  for (;;) {
    settle();
    if (planner.pending(kGrid) == 0) break;
    if (stop_requested()) {
      pool.kill_all("interrupted: stop requested while running", &finished);
      pool.drop_retries("interrupted: stopped before dispatch", &finished);
      planner.fail_queued("interrupted: stopped before dispatch", &delivered);
      settle();
      break;
    }
    pool.fill(planner, {}, &finished);
    // Wait for child output/EOF, a deadline, or a retry's ready time —
    // capped at 200 ms so a stop request is always noticed.
    std::vector<pollfd> fds;
    pool.add_pollfds(&fds);
    const auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(
        pool.next_wakeup() - Clock::now());
    ::poll(fds.data(), fds.size(),
           static_cast<int>(std::clamp<long long>(wait.count(), 0, 200)));
    pool.handle(fds.data(), &finished);
  }
  return results;
}

}  // namespace netcache::sweep
