#pragma once

// Shared types of the end-to-end benchmark harness (perfbench/README.md).
// The harness links the megflood library and drives every layer through
// its public headers only; nothing under src/ knows it is being measured.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(index, v.size() - 1)];
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Tiny sizes for the self-test: same code paths, seconds of work.
  bool tiny = false;
  // Deliberate faults the gate must catch: "corrupt" flips one byte of a
  // received result before it is checked; "reject" submits one job the
  // daemon must refuse (serve workloads only).
  std::string inject;
  std::string bin_dir;  // holds megflood_serve
  std::string run_dir;  // scratch space for sockets and cache dirs
};

// What one run reports.  `attempted` / `failed` count jobs (campaigns for
// the campaign workloads, submitted jobs for the serve workloads).  fail()
// counts one failed check and keeps the first reasons for the output.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::map<std::string, std::string> info;  // context lines, not metrics
  std::string result_bytes;  // campaign workloads: for the pinned digest

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 20) failures.push_back(why);
  }
};

// Per-layer times of traced campaigns (campaign.cpp), summed over trials.
struct LayerTotals {
  double init_s = 0, step_s = 0, csr_s = 0, round_s = 0;
  double busy_s = 0;    // trial start -> trial recorded, summed
  double slot_s = 0;    // measure() wall x worker threads
  double render_s = 0;  // result_json_object
  std::uint64_t init_calls = 0, steps = 0, step_edges = 0, csr_builds = 0,
                csr_edges = 0, rounds = 0, campaigns = 0;
};

// One traced (per-layer) or plain campaign run through the public trial
// runner; returns the result bytes result_json_object renders.
struct CampaignRun {
  std::string bytes;
  double wall_s = 0;   // run_scenario + result_json_object
  bool clean = false;  // no errors, every trial completed
};

CampaignRun run_campaign(const std::vector<std::string>& args);
CampaignRun run_campaign_traced(const std::vector<std::string>& args,
                                LayerTotals& totals);

// Direct calls into single serve layers with this workload's lines
// (protocol parse/render, result cache); adds the per-layer metrics.
void measure_serve_layers(const std::vector<std::string>& args,
                          const std::string& result_bytes,
                          const std::string& scratch_dir, Report& report);

// Submits the campaign `args` to a fresh thread-mode daemon twice (a
// computed run, then a cache hit), checks both replies against
// `expected`, and adds the serve-stage per-layer metrics; `compute_s` is
// the in-process time of the same campaign.
void serve_probe(const Options& options, const std::vector<std::string>& args,
                 const std::string& expected, double compute_s,
                 Report& report);

// Adds the campaign per-layer metrics accumulated in `totals`.
void report_layer_totals(const LayerTotals& totals, double build_ms,
                         Report& report);

Report run_campaign_workload(const Options& options);
// One plain campaign of a campaign workload: the bytes its digest pins.
std::string campaign_result_bytes(const Options& options);
Report run_serve_workload(const Options& options);

}  // namespace perfbench
