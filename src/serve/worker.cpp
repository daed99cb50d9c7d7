#include "serve/worker.hpp"

#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/format.hpp"
#include "core/scenario.hpp"
#include "serve/json.hpp"
#include "util/fault_injection.hpp"

namespace megflood::serve {

namespace {

// Matches the daemon's fault-plan seed (server.cpp kInjectSeed) so a
// given --inject spec fires identically under both isolation modes.
constexpr std::uint64_t kWorkerInjectSeed = 1;

constexpr int kHeartbeatIntervalMs = 500;

constexpr const char* kCancelLine = "{\"op\": \"cancel\"}";
constexpr const char* kExitLine = "{\"op\": \"exit\"}";
constexpr const char* kHeartbeatLine = "{\"event\": \"heartbeat\"}";

// RLIMIT_AS starves ASan/TSan shadow memory long before it bounds the
// campaign, so budgets are applied only in uninstrumented builds — the
// sanitizer lanes still exercise every other sandbox path.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MEGFLOOD_WORKER_RLIMITS_OFF 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define MEGFLOOD_WORKER_RLIMITS_OFF 1
#endif
#endif

std::string format_double(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string signal_name(int signal) {
  switch (signal) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGFPE: return "SIGFPE";
    case SIGILL: return "SIGILL";
    case SIGKILL: return "SIGKILL";
    case SIGTERM: return "SIGTERM";
    case SIGINT: return "SIGINT";
    case SIGXCPU: return "SIGXCPU";
    default: return "signal " + std::to_string(signal);
  }
}

// Per-job rlimit budgets.  Soft limits only — the hard limits stay where
// the operator put them — restored after the job so the worker runtime
// between jobs (the result line, reading the next job) is never
// constrained.
struct RlimitGuard {
  RlimitGuard(std::uint64_t memory_mb, double deadline_s) {
#if !defined(MEGFLOOD_WORKER_RLIMITS_OFF)
    if (memory_mb > 0 && ::getrlimit(RLIMIT_AS, &saved_as_) == 0) {
      rlimit lim = saved_as_;
      const rlim_t budget = static_cast<rlim_t>(memory_mb) << 20;
      lim.rlim_cur =
          (lim.rlim_max == RLIM_INFINITY || budget < lim.rlim_max)
              ? budget
              : lim.rlim_max;
      if (::setrlimit(RLIMIT_AS, &lim) == 0) as_set_ = true;
    }
    if (deadline_s > 0.0 && ::getrlimit(RLIMIT_CPU, &saved_cpu_) == 0) {
      // The cooperative watchdog (deadline_s, wall clock) fires first in
      // every sane run; the CPU ceiling is the non-cooperative backstop
      // for a truly wedged kernel, so it gets generous headroom.
      rusage usage{};
      ::getrusage(RUSAGE_SELF, &usage);
      const rlim_t used = static_cast<rlim_t>(usage.ru_utime.tv_sec) +
                          static_cast<rlim_t>(usage.ru_stime.tv_sec);
      const rlim_t headroom = static_cast<rlim_t>(
          std::ceil(deadline_s) * 4.0 + 10.0);
      rlimit lim = saved_cpu_;
      const rlim_t budget = used + headroom;
      lim.rlim_cur =
          (lim.rlim_max == RLIM_INFINITY || budget < lim.rlim_max)
              ? budget
              : lim.rlim_max;
      if (::setrlimit(RLIMIT_CPU, &lim) == 0) cpu_set_ = true;
    }
#else
    (void)memory_mb;
    (void)deadline_s;
#endif
  }
  ~RlimitGuard() {
#if !defined(MEGFLOOD_WORKER_RLIMITS_OFF)
    if (as_set_) ::setrlimit(RLIMIT_AS, &saved_as_);
    if (cpu_set_) ::setrlimit(RLIMIT_CPU, &saved_cpu_);
#endif
  }
  RlimitGuard(const RlimitGuard&) = delete;
  RlimitGuard& operator=(const RlimitGuard&) = delete;

 private:
#if !defined(MEGFLOOD_WORKER_RLIMITS_OFF)
  rlimit saved_as_{};
  rlimit saved_cpu_{};
  bool as_set_ = false;
  bool cpu_set_ = false;
#endif
};

// The string member `name` of a JSON line, "" when absent.
std::string string_member(const std::string& line, const char* name) {
  std::string error;
  const auto parsed = parse_json(line, error);
  if (!parsed || !parsed->is_object()) return "";
  const JsonValue* field = parsed->find(name);
  return field != nullptr && field->is_string() ? field->string : "";
}

std::string trial_line(std::size_t done) {
  return "{\"event\": \"trial\", \"done\": " + std::to_string(done) + "}";
}

std::string result_line(const CampaignOutcome& outcome) {
  std::string line = "{\"event\": \"result\"";
  line += std::string(", \"deadline\": ") +
          (outcome.deadline ? "true" : "false");
  line += std::string(", \"interrupted\": ") +
          (outcome.interrupted ? "true" : "false");
  line += ", \"error\": " + json_quote(outcome.error);
  if (!outcome.result_json.empty()) {
    line += ", \"result\": " + outcome.result_json;
  }
  line += "}";
  return line;
}

// The inverse of trial_line and result_line.
WorkerEvent parse_worker_event(const std::string& line) {
  WorkerEvent event;
  std::string error;
  const auto parsed = parse_json(line, error);
  if (!parsed || !parsed->is_object()) return event;
  const JsonValue* kind = parsed->find("event");
  if (kind == nullptr || !kind->is_string()) return event;
  if (kind->string == "trial") {
    const JsonValue* done = parsed->find("done");
    if (done == nullptr || !done->is_number()) return event;
    event.kind = WorkerEvent::Kind::kTrial;
    event.done = static_cast<std::uint64_t>(done->number);
  } else if (kind->string == "result") {
    event.kind = WorkerEvent::Kind::kResult;
    CampaignOutcome& outcome = event.outcome;
    const JsonValue* flag = parsed->find("deadline");
    outcome.deadline = flag && flag->is_bool() && flag->boolean;
    flag = parsed->find("interrupted");
    outcome.interrupted = flag && flag->is_bool() && flag->boolean;
    if (const JsonValue* err = parsed->find("error");
        err != nullptr && err->is_string()) {
      outcome.error = err->string;
    }
    // The result object is the line's final member; its bytes are
    // spliced out verbatim so cache entries stay byte-identical to
    // thread mode.  (The marker cannot appear earlier: `error` is the
    // only free-form field before it and json_quote escapes quotes.)
    const std::string marker = ", \"result\": ";
    const std::size_t at = line.find(marker);
    if (at != std::string::npos && line.size() > at + marker.size()) {
      outcome.result_json = line.substr(
          at + marker.size(), line.size() - at - marker.size() - 1);
    }
  }
  return event;
}

}  // namespace

std::string worker_job_line(const WorkerJob& job) {
  std::string line = "{\"op\": \"job\", \"cli\": " + json_quote(job.cli);
  line += ", \"journal\": " + json_quote(job.journal);
  line += ", \"deadline_s\": " + format_double(job.deadline_s);
  line += ", \"memory_mb\": " + std::to_string(job.memory_mb);
  line += ", \"attempt\": " + std::to_string(job.attempt);
  line += "}";
  return line;
}

bool parse_worker_job_line(const std::string& line, WorkerJob& out,
                           std::string& error) {
  const auto parsed = parse_json(line, error);
  if (!parsed || !parsed->is_object()) {
    if (error.empty()) error = "job line is not a JSON object";
    return false;
  }
  const JsonValue* op = parsed->find("op");
  if (op == nullptr || !op->is_string() || op->string != "job") {
    error = "job line has no op=job";
    return false;
  }
  const JsonValue* cli = parsed->find("cli");
  if (cli == nullptr || !cli->is_string() || cli->string.empty()) {
    error = "job line needs a non-empty string 'cli'";
    return false;
  }
  out = WorkerJob{};
  out.cli = cli->string;
  if (const JsonValue* journal = parsed->find("journal");
      journal != nullptr && journal->is_string()) {
    out.journal = journal->string;
  }
  if (const JsonValue* deadline = parsed->find("deadline_s");
      deadline != nullptr && deadline->is_number() && deadline->number > 0) {
    out.deadline_s = deadline->number;
  }
  if (const JsonValue* memory = parsed->find("memory_mb");
      memory != nullptr && memory->is_number() && memory->number > 0) {
    out.memory_mb = static_cast<std::uint64_t>(memory->number);
  }
  if (const JsonValue* attempt = parsed->find("attempt");
      attempt != nullptr && attempt->is_number() && attempt->number > 0) {
    out.attempt = static_cast<std::uint64_t>(attempt->number);
  }
  return true;
}

std::string WorkerDeath::describe() const {
  switch (kind) {
    case Kind::kSignal:
      return signal_name(code);
    case Kind::kExit:
      return "exit(" + std::to_string(code) + ")";
    case Kind::kHeartbeat:
      return "heartbeat_timeout";
  }
  return "unknown";
}

WorkerProcess::WorkerProcess(std::string binary, std::string inject_spec)
    : binary_(std::move(binary)), inject_spec_(std::move(inject_spec)) {}

WorkerProcess::~WorkerProcess() { shutdown(); }

bool WorkerProcess::spawn(std::string& error) {
  if (alive()) {
    error = "worker already running";
    return false;
  }
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    error = std::string("socketpair: ") + std::strerror(errno);
    return false;
  }
  // Everything the child needs is prepared before fork: the daemon is
  // multithreaded, so the child may only make async-signal-safe calls
  // (dup2/close_range/close/execv/_exit) between fork and exec.
  std::string inject_arg;
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary_.c_str()));
  argv.push_back(const_cast<char*>("--worker"));
  if (!inject_spec_.empty()) {
    inject_arg = "--inject=" + inject_spec_;
    argv.push_back(const_cast<char*>(inject_arg.c_str()));
  }
  argv.push_back(nullptr);
  const long open_max = ::sysconf(_SC_OPEN_MAX);

  const pid_t pid = ::fork();
  if (pid < 0) {
    error = std::string("fork: ") + std::strerror(errno);
    ::close(fds[0]);
    ::close(fds[1]);
    return false;
  }
  if (pid == 0) {
    // Child: the socketpair becomes stdin/stdout (dup2 clears CLOEXEC on
    // the copies); every other inherited descriptor — client sockets,
    // the listener, sibling workers' sockets — is closed so a worker can
    // never hold a connection open past the daemon's intent.
    ::dup2(fds[1], 0);
    ::dup2(fds[1], 1);
    if (::close_range(3, ~0U, 0) != 0) {
      for (long fd = 3; fd < open_max; ++fd) ::close(static_cast<int>(fd));
    }
    ::execv(binary_.c_str(), argv.data());
    _exit(127);
  }
  ::close(fds[1]);
  channel_ = LineClient::adopt(fds[0]);
  pid_ = pid;
  return true;
}

bool WorkerProcess::send_job(const WorkerJob& job) {
  return channel_.send_line(worker_job_line(job), -1);
}

void WorkerProcess::send_cancel() { channel_.send_line(kCancelLine, -1); }

RecvStatus WorkerProcess::next_event(int timeout_ms, WorkerEvent& event) {
  RecvStatus status = RecvStatus::kClosed;
  if (const auto line = channel_.recv_line(timeout_ms, &status)) {
    event = parse_worker_event(*line);
  }
  return status;
}

WorkerDeath WorkerProcess::reap_after_close() {
  WorkerDeath death;
  // Close first: a worker that is somehow still alive sees EOF and
  // exits, so the wait below cannot hang.
  channel_.close();
  if (pid_ <= 0) return death;
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  if (WIFSIGNALED(status)) {
    death.kind = WorkerDeath::Kind::kSignal;
    death.code = WTERMSIG(status);
  } else {
    death.kind = WorkerDeath::Kind::kExit;
    death.code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
  pid_ = -1;
  return death;
}

WorkerDeath WorkerProcess::kill_and_reap() {
  if (pid_ > 0) ::kill(pid_, SIGKILL);
  WorkerDeath death = reap_after_close();
  death.kind = WorkerDeath::Kind::kHeartbeat;
  death.code = 0;
  return death;
}

void WorkerProcess::shutdown() {
  if (pid_ <= 0) {
    channel_.close();
    return;
  }
  channel_.send_line(kExitLine, -1);
  channel_.close();  // EOF is the second, unmissable shutdown signal
  // Bounded grace: a worker mid-trial finishes its write and exits on
  // the closed socket; one that doesn't within ~2 s is not coming back.
  for (int waited_ms = 0; waited_ms < 2000; waited_ms += 20) {
    int status = 0;
    const pid_t got = ::waitpid(pid_, &status, WNOHANG);
    if (got == pid_ || (got < 0 && errno != EINTR)) {
      pid_ = -1;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

std::string self_executable_path(const char* argv0) {
#if defined(__linux__)
  char buffer[4096];
  const ssize_t got = ::readlink("/proc/self/exe", buffer,
                                 sizeof(buffer) - 1);
  if (got > 0) {
    buffer[got] = '\0';
    return buffer;
  }
#endif
  return argv0 != nullptr ? argv0 : "";
}

// ---------------------------------------------------------------------------
// Worker-mode body
// ---------------------------------------------------------------------------

namespace {

// State shared by the worker's main thread and its heartbeat thread.
// Both send, so sends take `send_mutex`; only the main thread receives.
struct WorkerState {
  explicit WorkerState(int fd) : channel(LineClient::adopt(fd)) {}

  LineClient channel;
  std::mutex send_mutex;

  std::mutex stop_mutex;
  std::condition_variable stop_cv;
  bool stop = false;  // guarded by stop_mutex: ends the heartbeat

  // Main thread only.
  std::atomic<bool> cancel{false};  // stops the running job between trials
  bool exiting = false;             // an exit line or EOF arrived

  bool send(const std::string& line) {
    std::lock_guard<std::mutex> lock(send_mutex);
    return channel.send_line(line, -1);
  }
};

// Drains the lines that arrived during the running job, without
// blocking.  A cancel, an exit or EOF stops the job after its current
// trial; an exit or EOF also ends the worker once the result is sent.
void check_control(WorkerState& state) {
  RecvStatus status = RecvStatus::kTimeout;
  while (!state.exiting) {
    const auto line = state.channel.recv_line(0, &status);
    if (!line) {
      state.exiting = status == RecvStatus::kClosed;
      break;
    }
    const std::string op = string_member(*line, "op");
    if (op == "cancel") state.cancel.store(true, std::memory_order_relaxed);
    if (op == "exit") state.exiting = true;
  }
  if (state.exiting) state.cancel.store(true, std::memory_order_relaxed);
}

void worker_heartbeat_loop(WorkerState& state) {
  std::unique_lock<std::mutex> lock(state.stop_mutex);
  while (!state.stop_cv.wait_for(
      lock, std::chrono::milliseconds(kHeartbeatIntervalMs),
      [&] { return state.stop; })) {
    lock.unlock();
    const bool sent = state.send(kHeartbeatLine);
    lock.lock();
    if (!sent) return;  // supervisor gone; the main thread sees EOF
  }
}

void worker_run_job(WorkerState& state, const WorkerJob& job,
                    FaultPlan* plan) {
  state.cancel.store(false, std::memory_order_relaxed);
  RunOptions options;
  options.journal_path = job.journal;
  options.deadline_s = job.deadline_s;
  options.cancel = &state.cancel;
  options.attempt = job.attempt;
  options.fault_plan = plan;
  options.on_progress = [&state](std::size_t done) {
    state.send(trial_line(done));
    check_control(state);
  };

  CampaignOutcome outcome;
  check_control(state);
  try {
    ScenarioSpec spec = parse_scenario_cli(job.cli);
    spec.trial.threads = 1;
    const RlimitGuard budgets(job.memory_mb, job.deadline_s);
    outcome = run_campaign(spec, options);
  } catch (const std::exception& e) {
    outcome.error = e.what();
  }
  state.send(result_line(outcome));
}

}  // namespace

int run_worker_main(int fd, const std::string& inject_spec) {
  FaultPlan plan;
  if (!inject_spec.empty()) {
    plan = FaultPlan::parse(inject_spec, kWorkerInjectSeed);
  }
  // Socket sends pass MSG_NOSIGNAL; this covers a closed stderr pipe.
  std::signal(SIGPIPE, SIG_IGN);

  WorkerState state(fd);
  std::thread heartbeat([&state] { worker_heartbeat_loop(state); });
  // Between jobs the main thread blocks on the next line.  A cancel read
  // here is a leftover for a job that already sent its result.
  while (!state.exiting) {
    const auto line = state.channel.recv_line(-1);
    if (!line) break;  // EOF: the supervisor is gone
    WorkerJob job;
    std::string error;
    if (parse_worker_job_line(*line, job, error)) {
      worker_run_job(state, job, plan.empty() ? nullptr : &plan);
    } else if (string_member(*line, "op") == "exit") {
      break;
    }
  }
  {
    std::lock_guard<std::mutex> lock(state.stop_mutex);
    state.stop = true;
  }
  state.stop_cv.notify_all();
  heartbeat.join();
  return 0;
}

}  // namespace megflood::serve
