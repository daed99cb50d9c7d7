#pragma once

// Process-isolated campaign execution for megflood_serve (ISSUE 10).
//
// In `--isolation=process` mode the scheduler does not run campaign
// sub-jobs on its own threads: each pool thread owns a WorkerProcess — a
// self-exec of the daemon binary in `--worker` mode — and ships sub-jobs
// to it as NDJSON lines over a socketpair.  A scenario kernel that
// segfaults, aborts, or blows past its rlimit budget kills *the worker*,
// which the supervisor observes via waitpid and classifies (signal vs
// exit code vs heartbeat timeout); the daemon and every other client's
// work survive.
//
// Wire protocol (one JSON object per line, both directions):
//
//   supervisor -> worker
//     {"op": "job", "job": N, "cli": "<canonical scenario CLI>",
//      "journal": "<path or empty>", "deadline_s": D, "memory_mb": M,
//      "attempt": A}
//     {"op": "cancel", "job": N}        cooperative cancel
//     {"op": "exit"}                    graceful shutdown (EOF works too)
//
//   worker -> supervisor
//     {"event": "trial", "job": N, "done": D}
//         one durable trial; D counts replayed-from-journal plus fresh
//         trials (RunOptions::on_progress), the same cumulative count
//         thread mode reports
//     {"event": "heartbeat"}
//         emitted every ~500 ms by a side thread; its absence past the
//         supervisor's timeout classifies a wedged worker
//     {"event": "result", "job": N, "deadline": B, "interrupted": B,
//      "error": "...", "result": {...}}
//         terminal.  On success `error` is "" and `result` carries the
//         campaign's result object *verbatim* (spliced, never re-parsed),
//         which is what keeps process-mode results byte-identical to
//         thread mode.  On failure the `result` key is absent.
//
// A worker runs each job through run_campaign()
// (serve/campaign_runner.hpp) — the same body thread mode runs — inside
// its rlimit budgets, and the result line is the CampaignOutcome member
// for member.  The runner opens the supervisor-provided `.mfj` journal,
// so a crash leaves the journal on disk and the retried dispatch resumes
// bit-for-bit — the crash-recovery contract holds across worker deaths.
// `attempt` carries the campaign's prior crash count into the fault plan
// so `once=1` sites fire only on the first dispatch.
//
// Every raw process-control primitive (socketpair/fork/execv/waitpid/
// kill/setrlimit) lives in this translation unit; the megflood_lint
// `process-control` rule keeps it that way.

#include <sys/types.h>

#include <cstdint>
#include <string>

namespace megflood::serve {

// One dispatched sub-job, as carried by the "job" line.
struct WorkerJob {
  std::uint64_t job = 0;      // supervisor-side dispatch id
  std::string cli;            // canonical scenario CLI (scenario_to_cli)
  std::string journal;        // .mfj path, empty = unjournaled
  double deadline_s = 0.0;    // cooperative per-trial watchdog, 0 = off
  std::uint64_t memory_mb = 0;  // RLIMIT_AS budget, 0 = unlimited
  std::uint64_t attempt = 0;  // prior crash count for once= fault sites
};

std::string worker_job_line(const WorkerJob& job);
bool parse_worker_job_line(const std::string& line, WorkerJob& out,
                           std::string& error);

// How a worker process ended, classified from waitpid (or from the
// supervisor's own heartbeat watchdog).
struct WorkerDeath {
  enum class Kind { kExit, kSignal, kHeartbeat };
  Kind kind = Kind::kExit;
  int code = 0;  // exit status (kExit) or signal number (kSignal)
  // "SIGSEGV" / "exit(3)" / "heartbeat_timeout" — the `signal` field of
  // the terminal `failed` event and the quarantine marker.
  std::string describe() const;
};

// Supervisor-side handle for one worker subprocess.  Not thread-safe:
// exactly one scheduler thread owns a WorkerProcess at a time (stats
// reads go through the scheduler's own mirror fields, never this class).
class WorkerProcess {
 public:
  // `binary` is the daemon's own executable (self_executable_path);
  // `inject_spec` is forwarded as --inject= so trial-level fault sites
  // fire inside the worker, where the containment story needs them.
  WorkerProcess(std::string binary, std::string inject_spec);
  ~WorkerProcess();
  WorkerProcess(const WorkerProcess&) = delete;
  WorkerProcess& operator=(const WorkerProcess&) = delete;

  // socketpair + fork + execv.  False (with `error` set) when the kernel
  // refuses; a worker that fails *exec* surfaces later as exit(127).
  bool spawn(std::string& error);

  bool alive() const noexcept { return pid_ > 0; }
  pid_t pid() const noexcept { return pid_; }

  // False when the worker is gone (EPIPE and friends).
  bool send_line(const std::string& line);

  enum class ReadStatus { kLine, kTimeout, kClosed };
  ReadStatus read_line(int timeout_ms, std::string& out);

  // Classification after read_line returned kClosed: reap via waitpid.
  WorkerDeath reap_after_close();
  // Heartbeat-timeout path: SIGKILL, reap, classify as kHeartbeat.
  WorkerDeath kill_and_reap();
  // Graceful stop for a healthy worker: "exit" line + close, bounded
  // wait, SIGKILL fallback.  Idempotent.
  void shutdown();

 private:
  void close_fd() noexcept;

  std::string binary_;
  std::string inject_spec_;
  pid_t pid_ = -1;
  int fd_ = -1;
  std::string buffer_;
};

// The `--worker` mode body: consumes job lines on `in_fd`, emits
// trial/heartbeat/result lines on `out_fd`, runs until EOF or an "exit"
// line.  Returns the process exit code.  `inject_spec` arms the worker's
// own FaultPlan (seeded like the daemon's, so thread- and process-mode
// injections match); a malformed spec throws std::invalid_argument for
// the tool's config-error exit.
int run_worker_main(int in_fd, int out_fd, const std::string& inject_spec);

// Resolves the running executable (/proc/self/exe when available,
// `argv0` otherwise) — what the daemon self-execs as `--worker`.
std::string self_executable_path(const char* argv0);

}  // namespace megflood::serve
