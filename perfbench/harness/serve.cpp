// Serve workloads (serve_thread_miss, serve_process_repeat): a fresh
// megflood_serve daemon per run, driven by four closed-loop connections.
// Each connection sends its next submit only after the previous job's
// terminal event, the way callers that wait for `done` load the daemon.
// Stage latencies come from the arrival times of each job's events on the
// client, so the daemon runs unmodified.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/campaign.hpp"
#include "core/format.hpp"
#include "core/scenario.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "util/rng.hpp"

extern char** environ;

namespace perfbench {

using megflood::serve::LineClient;
using megflood::serve::RecvStatus;

namespace {

constexpr std::size_t kConnections = 4;
constexpr int kEventTimeoutMs = 30000;

std::string submit_line(const std::string& id,
                        const std::vector<std::string>& args) {
  std::string line = "{\"op\": \"submit\", \"id\": " +
                     megflood::json_quote(id) + ", \"args\": [";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i) line += ", ";
    line += megflood::json_quote(args[i]);
  }
  return line + "]}";
}

// `{"event": "<name>", ...` -> name; empty when the line is not an event.
std::string event_name(const std::string& line) {
  static const std::string prefix = "{\"event\": \"";
  if (line.compare(0, prefix.size(), prefix) != 0) return "";
  const std::size_t end = line.find('"', prefix.size());
  if (end == std::string::npos) return "";
  return line.substr(prefix.size(), end - prefix.size());
}

std::uint64_t number_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtoull(line.c_str() + at + needle.size(), nullptr, 10);
}

// Peak resident set (VmHWM) of a live process, MiB; 0 when unreadable.
double vm_hwm_mb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, 6, "VmHWM:") == 0) {
      return static_cast<double>(std::strtoull(line.c_str() + 6, nullptr,
                                               10)) /
             1024.0;
    }
  }
  return 0.0;
}

// One fresh megflood_serve process on a Unix socket inside `dir`, so its
// result cache starts empty; stopped (graceful drain, SIGKILL past ten
// seconds) and reaped by stop() or the destructor.  The cache is memory
// only: the benchmark may write only inside its checkout, and on the
// shared disk there the disk tier swung throughput by half between runs
// (README.md).  The disk tier is timed directly in cache.store_us.
class Daemon {
 public:
  Daemon(const Options& o, const std::string& dir, bool process_isolation)
      : socket_(dir + "/s.sock") {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string binary = o.bin_dir + "/megflood_serve";
    std::vector<std::string> argv_s = {
        binary, "--socket=" + socket_, "--workers=2",
        process_isolation ? "--isolation=process" : "--isolation=thread"};
    std::vector<char*> argv;
    for (std::string& a : argv_s) argv.push_back(a.data());
    argv.push_back(nullptr);
    const std::string log = dir + "/daemon.log";

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    const auto t0 = Clock::now();
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot start " + binary);
    }
    // Ready = the first pong on a fresh connection.
    for (;;) {
      if (seconds_since(t0) > 10.0 || exited()) {
        stop();
        throw std::runtime_error("megflood_serve did not come up (" + log +
                                 ")");
      }
      try {
        LineClient client = LineClient::connect_unix(socket_, 100);
        if (client.send_line("{\"op\": \"ping\"}") &&
            event_name(client.recv_line(kEventTimeoutMs).value_or("")) ==
                "pong") {
          setup_s_ = seconds_since(t0);
          return;
        }
      } catch (const std::runtime_error&) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  ~Daemon() { stop(); }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  double setup_s() const { return setup_s_; }
  pid_t pid() const { return pid_; }
  LineClient connect() const {
    return LineClient::connect_unix(socket_, kEventTimeoutMs);
  }

  // One request on a fresh connection; its first reply line.
  std::string request(const std::string& line) const {
    LineClient client = connect();
    if (!client.send_line(line)) return "";
    return client.recv_line(kEventTimeoutMs).value_or("");
  }

  void stop() noexcept {
    if (pid_ <= 0) return;
    try {
      (void)request("{\"op\": \"shutdown\"}");
    } catch (...) {
    }
    const auto t0 = Clock::now();
    while (!exited() && seconds_since(t0) < 10.0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
  }

 private:
  bool exited() noexcept {
    if (pid_ <= 0) return true;
    if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
      pid_ = -1;
      return true;
    }
    return false;
  }

  std::string socket_;
  pid_t pid_ = -1;
  double setup_s_ = 0;
};

// The first `"result": {...}` object of a done event (the result bytes
// the daemon splices verbatim); empty when absent.
std::string extract_result(const std::string& line) {
  static const std::string needle = "\"result\": ";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  const std::size_t begin = at + needle.size();
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = begin; i < line.size(); ++i) {
    const char ch = line[i];
    if (in_string) {
      if (ch == '\\') {
        ++i;
      } else if (ch == '"') {
        in_string = false;
      }
    } else if (ch == '"') {
      in_string = true;
    } else if (ch == '{' || ch == '[') {
      ++depth;
    } else if ((ch == '}' || ch == ']') && --depth == 0) {
      return line.substr(begin, i + 1 - begin);
    }
  }
  return "";
}

struct JobRecord {
  std::uint64_t key = 0;
  std::string id;
  Clock::time_point submit, queued, running, last_trial, end;
  bool hit = false;
  bool has_running = false;
  bool has_trial = false;
  std::string terminal;  // terminal event name, or why none arrived
  std::string bytes;     // result bytes of a done event
};

// Sends one submit and reads this connection's events up to the job's
// terminal event, stamping each event's arrival.
JobRecord run_job(LineClient& client, const std::string& id,
                  const std::string& line, std::uint64_t key) {
  JobRecord r;
  r.key = key;
  r.id = id;
  r.submit = Clock::now();
  if (!client.send_line(line)) {
    r.end = Clock::now();
    r.terminal = "send_failed";
    return r;
  }
  for (;;) {
    RecvStatus status = RecvStatus::kLine;
    const std::optional<std::string> got =
        client.recv_line(kEventTimeoutMs, &status);
    if (!got) {
      r.end = Clock::now();
      r.terminal = status == RecvStatus::kClosed ? "closed" : "timeout";
      return r;
    }
    const std::string event = event_name(*got);
    if (event == "queued") {
      r.queued = Clock::now();
      r.hit = number_field(*got, "cache_hits") > 0;
    } else if (event == "running") {
      r.running = Clock::now();
      r.has_running = true;
    } else if (event == "trial_done") {
      r.last_trial = Clock::now();
      r.has_trial = true;
    } else if (event != "deadline_exceeded") {
      r.end = Clock::now();
      r.terminal = event;
      if (got->find("\"id\": " + megflood::json_quote(id)) ==
          std::string::npos) {
        r.terminal = "foreign_event";
      } else if (event == "done") {
        r.bytes = extract_result(*got);
      }
      return r;
    }
  }
}

using ArgsOf = std::function<std::vector<std::string>(std::uint64_t)>;

struct Window {
  std::vector<JobRecord> jobs;
  Clock::time_point start, last_end;
};

// Four closed-loop connections take keys from `keys` in order until the
// keys run out or, as a guard, `seconds` pass (seconds <= 0: no guard).
Window closed_loop(const Daemon& daemon, const std::vector<std::uint64_t>& keys,
                   const ArgsOf& args_of, double seconds,
                   const std::string& id_prefix) {
  std::vector<LineClient> clients;
  for (std::size_t c = 0; c < kConnections; ++c) {
    clients.push_back(daemon.connect());
  }
  std::vector<std::string> lines(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    lines[i] = submit_line(id_prefix + std::to_string(i), args_of(keys[i]));
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::vector<JobRecord>> per_client(kConnections);
  Window w;
  w.start = Clock::now();
  const auto deadline =
      seconds > 0 ? w.start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(seconds))
                  : Clock::time_point::max();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      try {
        while (Clock::now() < deadline) {
          const std::size_t i = next.fetch_add(1);
          if (i >= keys.size()) break;
          per_client[c].push_back(run_job(clients[c],
                                          id_prefix + std::to_string(i),
                                          lines[i], keys[i]));
          if (per_client[c].back().terminal == "closed") break;
        }
      } catch (const std::exception& e) {
        JobRecord r;
        r.terminal = std::string("client error: ") + e.what();
        r.end = Clock::now();
        per_client[c].push_back(r);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  w.last_end = w.start;
  for (auto& jobs : per_client) {
    for (JobRecord& r : jobs) {
      w.last_end = std::max(w.last_end, r.end);
      w.jobs.push_back(std::move(r));
    }
  }
  std::sort(w.jobs.begin(), w.jobs.end(),
            [](const JobRecord& a, const JobRecord& b) {
              return a.submit < b.submit;
            });
  return w;
}

// Served campaigns: distinct cheap fixed-topology campaigns; the key picks
// the campaign seed, so equal keys are equal campaigns.
std::vector<std::string> served_args(std::uint64_t seed, std::uint64_t key) {
  return {"--model=fixed", "--n=256", "--trials=4",
          "--seed=" + std::to_string((seed << 32) + key)};
}

// serve_thread_miss: every key once.  serve_process_repeat: blocks of 64
// fresh keys, each repeated four times, shuffled within the block, so
// about three jobs in four find their key already cached.
std::vector<std::uint64_t> key_sequence(bool repeat, std::uint64_t seed,
                                        std::size_t count) {
  std::vector<std::uint64_t> keys(count);
  if (!repeat) {
    for (std::size_t i = 0; i < count; ++i) keys[i] = i;
    return keys;
  }
  constexpr std::size_t kBlockKeys = 64, kRepeats = 4;
  megflood::Rng rng(seed ^ 0x5eedb10c5ULL);
  for (std::size_t base = 0; base < count; base += kBlockKeys * kRepeats) {
    std::vector<std::uint64_t> block;
    for (std::size_t k = 0; k < kBlockKeys; ++k) {
      for (std::size_t r = 0; r < kRepeats; ++r) {
        block.push_back(base / kRepeats + k);
      }
    }
    for (std::size_t i = block.size() - 1; i > 0; --i) {
      std::swap(block[i], block[rng.uniform_int(i + 1)]);
    }
    for (std::size_t i = 0; i < block.size() && base + i < count; ++i) {
      keys[base + i] = block[i];
    }
  }
  return keys;
}

struct DaemonStats {
  double rejected = 0, restarts = 0, subjobs_run = 0, hits = 0, misses = 0;
  double worker_rss_mb = 0;
  bool ok = false;
};

DaemonStats query_stats(const Daemon& daemon) {
  DaemonStats s;
  std::string error;
  const auto json =
      megflood::serve::parse_json(daemon.request("{\"op\": \"stats\"}"), error);
  if (!json || !json->is_object()) return s;
  const auto num = [](const megflood::serve::JsonValue* v) {
    return v && v->is_number() ? v->number : 0.0;
  };
  s.rejected = num(json->find("jobs_rejected"));
  s.restarts = num(json->find("worker_restarts"));
  s.subjobs_run = num(json->find("subjobs_run"));
  if (const auto* cache = json->find("cache")) {
    s.hits = num(cache->find("hits"));
    s.misses = num(cache->find("misses"));
  }
  if (const auto* workers = json->find("workers");
      workers && workers->is_array()) {
    for (const auto& w : workers->array) {
      const double pid = num(w.find("pid"));
      if (pid > 0) {
        s.worker_rss_mb =
            std::max(s.worker_rss_mb, vm_hwm_mb(static_cast<pid_t>(pid)));
      }
    }
  }
  s.ok = true;
  return s;
}

// Run isolation: a run counts only if the daemon refused nothing and no
// worker died.
void check_stats(const DaemonStats& s, Report& report) {
  if (!s.ok) {
    report.fail("stats op did not answer");
  } else if (s.rejected != 0 || s.restarts != 0) {
    report.fail("daemon stats: jobs_rejected=" +
                std::to_string(static_cast<long long>(s.rejected)) +
                " worker_restarts=" +
                std::to_string(static_cast<long long>(s.restarts)));
  }
}

std::vector<double> latencies_ms(const std::vector<JobRecord>& jobs,
                                 const std::function<bool(const JobRecord&)>&
                                     keep) {
  std::vector<double> out;
  for (const JobRecord& r : jobs) {
    if (r.terminal == "done" && keep(r)) {
      out.push_back(seconds_between(r.submit, r.end) * 1e3);
    }
  }
  return out;
}

// Stage splits from client-side event arrival times; a miss is a job
// that ran (it has a running event).
void report_stages(const std::vector<JobRecord>& jobs,
                   const std::vector<JobRecord>& hits, Report& report) {
  std::vector<double> admit, queue, exec, finish, miss;
  for (const JobRecord& r : jobs) {
    if (r.terminal != "done") continue;
    admit.push_back(seconds_between(r.submit, r.queued) * 1e3);
    if (r.has_running && r.has_trial) {
      queue.push_back(seconds_between(r.queued, r.running) * 1e3);
      exec.push_back(seconds_between(r.running, r.last_trial) * 1e3);
      finish.push_back(seconds_between(r.last_trial, r.end) * 1e3);
      miss.push_back(seconds_between(r.submit, r.end) * 1e3);
    }
  }
  report.metric("serve.admit_ms_p50", quantile(admit, 0.5), "ms");
  report.metric("serve.admit_ms_p99", quantile(admit, 0.99), "ms");
  report.metric("serve.queue_ms_p50", quantile(queue, 0.5), "ms");
  report.metric("serve.queue_ms_p99", quantile(queue, 0.99), "ms");
  report.metric("serve.exec_ms_p50", quantile(exec, 0.5), "ms");
  report.metric("serve.exec_ms_p99", quantile(exec, 0.99), "ms");
  report.metric("serve.finish_ms_p50", quantile(finish, 0.5), "ms");
  report.metric("serve.finish_ms_p99", quantile(finish, 0.99), "ms");
  report.metric("serve.hit_ms_p50",
                quantile(latencies_ms(hits, [](const JobRecord& r) {
                           return r.hit;
                         }),
                         0.5),
                "ms");
  report.metric("serve.miss_ms_p50", quantile(miss, 0.5), "ms");
}

void report_daemon_stats(const DaemonStats& s, Report& report) {
  report.metric("cache.hits", s.hits, "count");
  report.metric("cache.misses", s.misses, "count");
  report.metric("cache.hit_ratio",
                s.hits + s.misses > 0 ? s.hits / (s.hits + s.misses) : 0.0,
                "ratio");
  report.metric("scheduler.subjobs_run", s.subjobs_run, "count");
  report.metric("scheduler.rejected", s.rejected, "count");
  report.metric("worker.restarts", s.restarts, "count");
  report.metric("worker.peak_rss_mb", s.worker_rss_mb, "MiB");
}

double ping_ms_p50(const Daemon& daemon, int pings) {
  LineClient client = daemon.connect();
  std::vector<double> ms;
  for (int i = 0; i < pings; ++i) {
    const auto t0 = Clock::now();
    if (!client.send_line("{\"op\": \"ping\"}")) break;
    if (event_name(client.recv_line(kEventTimeoutMs).value_or("")) != "pong") {
      break;
    }
    ms.push_back(seconds_since(t0) * 1e3);
  }
  return median(ms);
}

// Result gate for served jobs: every job must end in done; the first
// computed (miss) result of each key is the reference; every other reply
// for that key must carry the same bytes.  Returns key -> reference bytes.
std::map<std::uint64_t, std::string> check_replies(std::vector<JobRecord>& jobs,
                                                   bool corrupt,
                                                   Report& report) {
  std::vector<JobRecord*> by_end;
  for (JobRecord& r : jobs) by_end.push_back(&r);
  std::sort(by_end.begin(), by_end.end(),
            [](const JobRecord* a, const JobRecord* b) { return a->end < b->end; });
  std::map<std::uint64_t, std::string> reference;
  for (JobRecord* r : by_end) {
    if (r->terminal != "done" || r->bytes.empty()) continue;
    if (!r->hit && reference.find(r->key) == reference.end()) {
      reference[r->key] = r->bytes;
    }
  }
  // The in-process sample always holds the smallest key, so it must see
  // this.
  if (corrupt && !reference.empty()) {
    std::string& bytes = reference.begin()->second;
    bytes[bytes.size() / 2] ^= 0x01;
  }
  for (const JobRecord& r : jobs) {
    ++report.attempted;
    std::string why;
    if (r.terminal != "done" || r.bytes.empty()) {
      why = "ended with '" + r.terminal + "'";
    } else if (const auto it = reference.find(r.key); it == reference.end()) {
      why = "cache hit without a computed result";
    } else if (it->second != r.bytes) {
      why = "result bytes differ from the first computed reply";
    }
    if (!why.empty()) report.fail("job " + r.id + ": " + why);
  }
  return reference;
}

// A submission the daemon must refuse: a sweep past the per-job sub-job
// cap.  The gate must count it.
void submit_rejected_job(const Daemon& daemon, Report& report) {
  LineClient client = daemon.connect();
  std::string line = submit_line("reject", {"--model=fixed", "--trials=1"});
  line.insert(line.size() - 1, ", \"sweep\": \"n=2:5000:1\"");
  const JobRecord r = run_job(client, "reject", line, 0);
  ++report.attempted;
  report.fail("job reject: ended with '" + r.terminal + "'");
}

}  // namespace

void measure_serve_layers(const std::vector<std::string>& args,
                          const std::string& result_bytes,
                          const std::string& scratch_dir, Report& report) {
  const megflood::ScenarioSpec spec = megflood::parse_scenario_args(args);
  const megflood::CampaignKey key = megflood::campaign_key(spec);
  const std::string line = submit_line("layer", args);
  megflood::serve::SubJobReply reply;
  reply.key = megflood::campaign_key_string(key);
  reply.result_json = result_bytes;

  // Batches of 100 calls; the median batch mean per call.
  constexpr int kBatches = 21, kCalls = 100;
  const auto per_call_us = [&](const std::function<void()>& call) {
    std::vector<double> batch;
    for (int b = 0; b < kBatches; ++b) {
      const auto t0 = Clock::now();
      for (int c = 0; c < kCalls; ++c) call();
      batch.push_back(seconds_since(t0) * 1e6 / kCalls);
    }
    return median(batch);
  };
  std::size_t sink = 0;
  report.metric("protocol.parse_us", per_call_us([&] {
                  sink += megflood::serve::parse_request(line).args.size();
                }),
                "us");
  report.metric("protocol.render_done_us", per_call_us([&] {
                  sink += megflood::serve::event_done("layer", {reply}, 0,
                                                      spec.trial.trials,
                                                      spec.trial.trials)
                              .size();
                }),
                "us");

  // The result cache on a scratch dir: stores (memory + disk) of distinct
  // keys carrying this workload's bytes, then memory-tier lookups, the
  // path a daemon's cache hit takes.
  std::filesystem::remove_all(scratch_dir);
  std::vector<double> store_us, lookup_us;
  {
    megflood::serve::ResultCache cache(scratch_dir);
    std::vector<megflood::CampaignKey> keys;
    for (std::uint64_t i = 0; i < 200; ++i) {
      keys.push_back(key);
      keys.back().seed = key.seed + 1 + i;
    }
    for (const auto& k : keys) {
      const auto t0 = Clock::now();
      cache.store(k, result_bytes);
      store_us.push_back(seconds_since(t0) * 1e6);
    }
    for (const auto& k : keys) {
      const auto t0 = Clock::now();
      const auto hit = cache.lookup(k);
      lookup_us.push_back(seconds_since(t0) * 1e6);
      if (!hit || *hit != result_bytes) {
        report.fail("result cache lookup did not return the stored bytes");
        break;
      }
    }
  }
  std::filesystem::remove_all(scratch_dir);
  report.metric("cache.lookup_us", median(lookup_us), "us");
  report.metric("cache.store_us", median(store_us), "us");
  if (sink == 0) report.fail("protocol layer calls produced nothing");
}

void serve_probe(const Options& o, const std::vector<std::string>& args,
                 const std::string& expected, double compute_s,
                 Report& report) {
  Daemon daemon(o, o.run_dir + "/probe", /*process_isolation=*/false);
  const double ping = ping_ms_p50(daemon, 200);
  std::vector<JobRecord> jobs;
  {
    LineClient client = daemon.connect();
    const std::string line = submit_line("probe", args);
    jobs.push_back(run_job(client, "probe", line, 0));
    jobs.push_back(run_job(client, "probe", line, 0));
  }
  const DaemonStats stats = query_stats(daemon);
  daemon.stop();

  for (const JobRecord& r : jobs) {
    ++report.attempted;
    if (r.terminal != "done" || r.bytes != expected) {
      report.fail("served campaign (" + std::string(r.hit ? "hit" : "miss") +
                  "): ended with '" + r.terminal +
                  "' or its bytes differ from the in-process run");
    }
  }
  if (jobs[0].hit || !jobs[1].hit) {
    report.fail("served campaign: expected one miss then one hit");
  }
  check_stats(stats, report);
  report.metric("serve.ping_ms_p50", ping, "ms");
  report_stages({jobs[0]}, {jobs[1]}, report);
  report.metric("campaign.compute_ms_p50", compute_s * 1e3, "ms");
  report.metric("serve.overhead_frac",
                1.0 - compute_s / seconds_between(jobs[0].submit, jobs[0].end),
                "ratio");
  report_daemon_stats(stats, report);
}

Report run_serve_workload(const Options& o) {
  Report report;
  const bool process = o.workload == "serve_process_repeat";
  if (!process && o.workload != "serve_thread_miss") {
    throw std::invalid_argument("unknown serve workload " + o.workload);
  }
  const std::uint64_t seed = o.seed;
  const ArgsOf args_of = [seed](std::uint64_t key) {
    return served_args(seed, key);
  };
  for (const std::string& a : served_args(seed, 0)) {
    report.info["args"] += a + " ";
  }
  report.info["isolation"] = process ? "process" : "thread";
  // A fixed amount of work per run, sized to take about 80% of --seconds
  // on a 4-CPU host: the cache then holds the same number of results at
  // the end of every run, so peak RSS does not grow with throughput.  A
  // run slower than three times that stops at the guard instead.
  const double jobs_per_second = process ? 7000 : 3000;

  // Set-up: spawn until the first pong, eleven fresh daemons, median;
  // the last one serves the run.
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  for (int k = 0; k < 11; ++k) {
    daemon.reset();
    daemon = std::make_unique<Daemon>(o, o.run_dir + "/d" + std::to_string(k),
                                      process);
    setup_s.push_back(daemon->setup_s());
  }

  // One window of closed-loop jobs on the last daemon.
  const auto keys = key_sequence(
      process, seed, static_cast<std::size_t>(o.seconds * jobs_per_second));
  const double ping = o.trace ? ping_ms_p50(*daemon, 200) : 0.0;
  Window window = closed_loop(*daemon, keys, args_of, 3 * o.seconds, "j");
  const double window_s = seconds_between(window.start, window.last_end);
  // serve_thread_miss has no repeats in its window: finished keys are
  // submitted again afterwards, and each must be a hit.
  Window hits;
  if (!process) {
    std::vector<std::uint64_t> done, picks;
    for (const JobRecord& r : window.jobs) {
      if (r.terminal == "done") done.push_back(r.key);
    }
    megflood::Rng rng(seed ^ 0x417e5ULL);
    for (std::size_t i = 0; i < (o.tiny ? 1000u : 4000u) && !done.empty();
         ++i) {
      picks.push_back(done[rng.uniform_int(done.size())]);
    }
    hits = closed_loop(*daemon, picks, args_of, 0, "h");
    for (const JobRecord& r : hits.jobs) {
      if (!r.hit && r.terminal == "done") {
        report.fail("resubmitted job " + r.id + " missed the cache");
      }
    }
  }
  if (o.inject == "reject") submit_rejected_job(*daemon, report);
  const DaemonStats stats = query_stats(*daemon);
  const double daemon_rss = vm_hwm_mb(daemon->pid());
  daemon.reset();
  check_stats(stats, report);

  // A served campaign's own time: running -> last trial_done of the jobs
  // that ran, as the client sees it, over the whole window.
  std::vector<double> job_ms, exec_s;
  std::size_t window_hits = 0;
  for (const JobRecord& r : window.jobs) {
    window_hits += r.hit ? 1 : 0;
    if (r.terminal != "done") continue;
    job_ms.push_back(seconds_between(r.submit, r.end) * 1e3);
    if (r.has_running && r.has_trial) {
      exec_s.push_back(seconds_between(r.running, r.last_trial));
    }
  }
  report.info["window_jobs"] = std::to_string(window.jobs.size());
  report.info["window_hit_share"] = std::to_string(
      window.jobs.empty() ? 0.0
                          : static_cast<double>(window_hits) /
                                static_cast<double>(window.jobs.size()));
  if (!o.trace) {
    report.metric("setup_s", median(setup_s), "s");
    report.metric("campaign_s", median(exec_s), "s");
    report.metric("jobs_per_s",
                  static_cast<double>(window.jobs.size()) / window_s,
                  "jobs/s");
    report.metric("job_ms_p50", quantile(job_ms, 0.5), "ms");
    report.metric("peak_rss_mb", daemon_rss, "MiB");
  } else {
    report.metric("serve.ping_ms_p50", ping, "ms");
    report_stages(window.jobs, process ? window.jobs : hits.jobs, report);
    report_daemon_stats(stats, report);
  }

  std::vector<JobRecord> jobs = std::move(window.jobs);
  jobs.insert(jobs.end(), std::make_move_iterator(hits.jobs.begin()),
              std::make_move_iterator(hits.jobs.end()));
  const std::map<std::uint64_t, std::string> reference =
      check_replies(jobs, o.inject == "corrupt", report);

  // In-process check of a seeded sample of keys (the smallest key always
  // among them): run_scenario + result_json_object on the served args
  // must reproduce the served bytes.  The traced run also traces each
  // sample campaign: its layer split and its tracing overhead.
  std::vector<std::uint64_t> sample;
  if (!reference.empty()) {
    std::vector<std::uint64_t> ids;
    for (const auto& kv : reference) ids.push_back(kv.first);
    sample.push_back(ids.front());
    megflood::Rng rng(seed ^ 0xc4ec4ULL);
    const std::size_t want = std::min<std::size_t>(ids.size(), o.tiny ? 8 : 1024);
    while (sample.size() < want) {
      sample.push_back(ids[rng.uniform_int(ids.size())]);
    }
  }
  std::vector<double> plain_s, traced_s;
  LayerTotals totals;
  for (std::uint64_t key : sample) {
    const std::vector<std::string> args = served_args(seed, key);
    const CampaignRun run = run_campaign(args);
    plain_s.push_back(run.wall_s);
    bool ok = run.clean && run.bytes == reference.at(key);
    if (o.trace) {
      const CampaignRun traced = run_campaign_traced(args, totals);
      traced_s.push_back(traced.wall_s);
      ok = ok && traced.bytes == run.bytes;
    }
    if (!ok) {
      report.fail("key " + std::to_string(key) +
                  ": served bytes differ from in-process run_scenario");
    }
  }
  report.info["sample_checked"] = std::to_string(sample.size());
  if (!o.trace) return report;

  // Per-layer: the served campaigns' own layers (traced in-process
  // sample) and the direct serve-layer calls.
  std::vector<double> build_ms;
  for (int i = 0; i < 21; ++i) {
    const auto t0 = Clock::now();
    const auto spec = megflood::parse_scenario_args(served_args(seed, 0));
    (void)megflood::make_model_factory(spec);
    (void)megflood::make_process_factory(spec.process);
    build_ms.push_back(seconds_since(t0) * 1e3);
  }
  report_layer_totals(totals, median(build_ms), report);
  measure_serve_layers(served_args(seed, sample.empty() ? 0 : sample.front()),
                       reference.empty() ? "{}" : reference.begin()->second,
                       o.run_dir + "/layer_cache", report);
  const double compute_ms = median(plain_s) * 1e3;
  std::vector<double> miss_ms;
  for (const JobRecord& r : jobs) {
    if (r.terminal == "done" && r.has_running) {
      miss_ms.push_back(seconds_between(r.submit, r.end) * 1e3);
    }
  }
  report.metric("campaign.compute_ms_p50", compute_ms, "ms");
  report.metric("serve.overhead_frac",
                1.0 - compute_ms / quantile(miss_ms, 0.5), "ratio");
  report.metric("trace.overhead_frac", median(traced_s) / median(plain_s) - 1.0,
                "ratio");
  return report;
}

}  // namespace perfbench
