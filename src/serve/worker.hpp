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
// Wire protocol (one JSON object per line, both directions, framed by
// serve/client.hpp's LineClient on each end).  A worker holds at most one
// job: the supervisor sends a job line and then only reads, until that
// job's result line or the worker's death.  A dead worker is replaced by
// a new process on a new socketpair, so no line ever outlives its job and
// no line carries a job id.
//
//   supervisor -> worker
//     {"op": "job", "cli": "<canonical scenario CLI>",
//      "journal": "<path or empty>", "deadline_s": D, "memory_mb": M,
//      "attempt": A}
//     {"op": "cancel"}                  cooperative cancel of the job
//     {"op": "exit"}                    graceful shutdown (EOF works too)
//
//   worker -> supervisor
//     {"event": "trial", "done": D}
//         one durable trial; D counts replayed-from-journal plus fresh
//         trials (RunOptions::on_progress), the same cumulative count
//         thread mode reports
//     {"event": "heartbeat"}
//         emitted every ~500 ms by the heartbeat thread; its absence past
//         the supervisor's timeout classifies a wedged worker
//     {"event": "result", "deadline": B, "interrupted": B,
//      "error": "...", "result": {...}}
//         terminal.  On success `error` is "" and `result` carries the
//         campaign's result object *verbatim* (spliced, never re-parsed),
//         which is what keeps process-mode results byte-identical to
//         thread mode.  On failure the `result` key is absent.
//
// The worker has two threads.  The main thread blocks on the next job
// line, runs the job, and sends its trial and result lines; during a job
// it checks the socket without blocking before the campaign starts and
// after every recorded trial, so a cancel, an exit or EOF stops the job
// between trials — where the campaign reads its cancel flag anyway.  The
// heartbeat thread only sends.
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

#include "serve/campaign_runner.hpp"
#include "serve/client.hpp"

namespace megflood::serve {

// One dispatched sub-job, as carried by the "job" line.
struct WorkerJob {
  std::string cli;            // canonical scenario CLI (scenario_to_cli)
  std::string journal;        // .mfj path, empty = unjournaled
  double deadline_s = 0.0;    // cooperative per-trial watchdog, 0 = off
  std::uint64_t memory_mb = 0;  // RLIMIT_AS budget, 0 = unlimited
  std::uint64_t attempt = 0;  // prior crash count for once= fault sites
};

std::string worker_job_line(const WorkerJob& job);
bool parse_worker_job_line(const std::string& line, WorkerJob& out,
                           std::string& error);

// One worker -> supervisor line.  Heartbeats, and lines that do not
// parse, read as kHeartbeat: all they prove is that the worker is alive.
struct WorkerEvent {
  enum class Kind { kHeartbeat, kTrial, kResult };
  Kind kind = Kind::kHeartbeat;
  std::uint64_t done = 0;   // kTrial: cumulative durable trials
  CampaignOutcome outcome;  // kResult
};

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

  // Sends block until the worker takes the line.  A failed send means
  // the worker is gone: send_job returns false, and a lost cancel
  // surfaces as kClosed on the next read.
  bool send_job(const WorkerJob& job);
  void send_cancel();
  // The worker's next line: kLine fills `event`; kTimeout means nothing
  // arrived within timeout_ms; kClosed means the worker is gone.
  RecvStatus next_event(int timeout_ms, WorkerEvent& event);

  // Classification after a closed channel or failed send: reap via
  // waitpid.
  WorkerDeath reap_after_close();
  // Heartbeat-timeout path: SIGKILL, reap, classify as kHeartbeat.
  WorkerDeath kill_and_reap();
  // Graceful stop for a healthy worker: "exit" line + close, bounded
  // wait, SIGKILL fallback.  Idempotent.
  void shutdown();

 private:
  std::string binary_;
  std::string inject_spec_;
  pid_t pid_ = -1;
  LineClient channel_;
};

// The `--worker` mode body: serves the protocol above on the connected
// socket `fd` until EOF or an "exit" line.  Returns the process exit
// code.  `inject_spec` arms the worker's own FaultPlan (seeded like the
// daemon's, so thread- and process-mode injections match); a malformed
// spec throws std::invalid_argument for the tool's config-error exit.
int run_worker_main(int fd, const std::string& inject_spec);

// Resolves the running executable (/proc/self/exe when available,
// `argv0` otherwise) — what the daemon self-execs as `--worker`.
std::string self_executable_path(const char* argv0);

}  // namespace megflood::serve
