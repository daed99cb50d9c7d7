// Campaign workloads (flood_edge_meg_1m, gossip_edge_meg_32k) and the
// traced campaign runner shared with the serve workloads' in-process
// check.
//
// Tracing wraps the model and the process in timing decorators and hands
// them to the public measure() through its GraphFactory/ProcessFactory,
// so the real trial runner executes the traced run.  TracedGraph forces
// the snapshot's CSR view once per step: the CSR is a lazy cache, so
// building it earlier changes no result, it only makes its cost a span of
// its own.  The gate checks that the traced bytes equal the untraced ones.

#include <sys/resource.h>

#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/format.hpp"
#include "core/scenario.hpp"
#include "util/rng.hpp"

namespace perfbench {

using megflood::DynamicGraph;
using megflood::Snapshot;
using megflood::SpreadingProcess;

namespace {

// Spans of one trial; the factory owns it, the decorators write into it.
struct TrialSpan {
  double init_s = 0, step_s = 0, csr_s = 0, round_s = 0;
  std::uint64_t steps = 0, step_edges = 0, csr_builds = 0, csr_edges = 0,
                rounds = 0;
};

class TracedGraph final : public DynamicGraph {
 public:
  TracedGraph(std::unique_ptr<DynamicGraph> inner, TrialSpan& span)
      : inner_(std::move(inner)), span_(span) {}

  std::size_t num_nodes() const override { return inner_->num_nodes(); }

  const Snapshot& snapshot() const override {
    const Snapshot& snap = inner_->snapshot();
    if (!csr_ready_) {
      const auto t0 = Clock::now();
      (void)snap.csr();
      span_.csr_s += seconds_since(t0);
      ++span_.csr_builds;
      span_.csr_edges += snap.num_edges();
      csr_ready_ = true;
    }
    return snap;
  }

  void step() override {
    const auto t0 = Clock::now();
    inner_->step();
    span_.step_s += seconds_since(t0);
    ++span_.steps;
    span_.step_edges += inner_->snapshot().num_edges();
    csr_ready_ = false;
    advance_clock();
  }

  void reset(std::uint64_t seed) override {
    inner_->reset(seed);
    csr_ready_ = false;
    reset_clock();
  }

  TrialSpan& span() const { return span_; }

 private:
  std::unique_ptr<DynamicGraph> inner_;
  TrialSpan& span_;
  mutable bool csr_ready_ = false;
};

// Process self time = run() minus the step and CSR spans inside it.
class TracedProcess final : public SpreadingProcess {
 public:
  explicit TracedProcess(std::unique_ptr<SpreadingProcess> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  void begin_trial(std::size_t n, megflood::NodeId source) override {
    inner_->begin_trial(n, source);
  }
  void round(const Snapshot& snapshot, std::vector<char>& informed,
             std::vector<megflood::NodeId>& newly, megflood::Rng& rng) override {
    inner_->round(snapshot, informed, newly, rng);
  }
  bool exhausted() const override { return inner_->exhausted(); }
  void metrics(megflood::MetricsBag& out) const override {
    inner_->metrics(out);
  }

  megflood::ProcessResult run(DynamicGraph& graph, megflood::NodeId source,
                              std::uint64_t max_rounds,
                              std::uint64_t seed) override {
    // The traced factory hands out only TracedGraphs.
    TrialSpan& span = dynamic_cast<TracedGraph&>(graph).span();
    const double step0 = span.step_s;
    const double csr0 = span.csr_s;
    const auto t0 = Clock::now();
    megflood::ProcessResult result =
        inner_->run(graph, source, max_rounds, seed);
    const double run_s = seconds_since(t0);
    span.round_s += run_s - (span.step_s - step0) - (span.csr_s - csr0);
    span.rounds += result.flood.rounds;
    return result;
  }

 private:
  std::unique_ptr<SpreadingProcess> inner_;
};

// Per-trial start/end stamps through the public measure hooks.  Each
// trial writes only its own slot; measure() joins its workers before the
// stamps are read.
struct TrialClock {
  explicit TrialClock(std::size_t trials) : start(trials), end(trials) {}

  megflood::MeasureHooks hooks() {
    megflood::MeasureHooks h;
    h.on_trial_start = [this](std::size_t t) { start[t] = Clock::now(); };
    h.on_trial_recorded = [this](std::size_t t) { end[t] = Clock::now(); };
    return h;
  }

  std::vector<double> latencies() const {
    std::vector<double> out;
    for (std::size_t t = 0; t < start.size(); ++t) {
      out.push_back(seconds_between(start[t], end[t]));
    }
    return out;
  }

  std::vector<Clock::time_point> start, end;
};

bool clean(const megflood::Measurement& m) {
  return m.errors.empty() && m.incomplete == 0 && !m.interrupted &&
         m.not_run == 0;
}

std::size_t worker_threads(const megflood::TrialConfig& config) {
  std::size_t threads = config.threads;
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  return std::min(threads, config.trials);
}

// Untraced campaign: run_scenario + result_json_object, the path
// megflood_run and the daemon take.
CampaignRun run_spec(const megflood::ScenarioSpec& spec) {
  CampaignRun run;
  const auto t0 = Clock::now();
  const megflood::ScenarioResult result = megflood::run_scenario(spec);
  run.bytes = megflood::result_json_object(spec, result, result.warnings);
  run.wall_s = seconds_since(t0);
  run.clean = clean(result.measurement);
  return run;
}

std::vector<std::string> campaign_args(const Options& o) {
  const std::string seed = "--seed=" + std::to_string(o.seed);
  if (o.workload == "flood_edge_meg_1m") {
    // alpha * n = 4 expected live edges per node at both sizes: the
    // paper's sparse regime.
    return {"--model=edge_meg",
            o.tiny ? "--n=16384" : "--n=1048576",
            o.tiny ? "--alpha=0.000244140625" : "--alpha=0.000003814697265625",
            "--process=flooding", "--threads=1", "--trials=1", seed};
  }
  if (o.workload == "gossip_edge_meg_32k") {
    return {"--model=edge_meg",
            o.tiny ? "--n=2048" : "--n=32768",
            o.tiny ? "--alpha=0.00390625" : "--alpha=0.000244140625",
            "--process=gossip:pushpull", "--threads=2",
            o.tiny ? "--trials=4" : "--trials=32", seed};
  }
  throw std::invalid_argument("unknown campaign workload " + o.workload);
}

double peak_rss_self_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

}  // namespace

CampaignRun run_campaign(const std::vector<std::string>& args) {
  return run_spec(megflood::parse_scenario_args(args));
}

std::string campaign_result_bytes(const Options& options) {
  return run_campaign(campaign_args(options)).bytes;
}

CampaignRun run_campaign_traced(const std::vector<std::string>& args,
                                LayerTotals& totals) {
  CampaignRun run;
  const auto t0 = Clock::now();
  const megflood::ScenarioSpec spec = megflood::parse_scenario_args(args);
  const megflood::ScenarioModel model = megflood::make_model_factory(spec);
  const megflood::ProcessFactory process =
      megflood::make_process_factory(spec.process);
  megflood::TrialConfig trial = spec.trial;
  if (spec.warmup_auto) {  // as run_scenario resolves it
    if (!model.suggested_warmup) {
      throw std::invalid_argument("--warmup=auto without a model warmup");
    }
    trial.warmup_steps = *model.suggested_warmup;
  }

  std::mutex spans_mutex;
  std::deque<TrialSpan> spans;  // stable addresses across emplace_back
  const megflood::GraphFactory traced_graph =
      [&](std::uint64_t seed) -> std::unique_ptr<DynamicGraph> {
    const auto init0 = Clock::now();
    std::unique_ptr<DynamicGraph> inner = model.factory(seed);
    const double init_s = seconds_since(init0);
    TrialSpan* span = nullptr;
    {
      const std::lock_guard<std::mutex> lock(spans_mutex);
      span = &spans.emplace_back();
    }
    span->init_s = init_s;
    return std::make_unique<TracedGraph>(std::move(inner), *span);
  };
  const megflood::ProcessFactory traced_process =
      [&]() -> std::unique_ptr<SpreadingProcess> {
    return std::make_unique<TracedProcess>(process());
  };

  TrialClock clock(trial.trials);
  megflood::ScenarioResult result;
  result.num_nodes = model.num_nodes;
  result.warnings = model.warnings;
  const auto m0 = Clock::now();
  result.measurement =
      megflood::measure(traced_graph, traced_process, trial, clock.hooks());
  const double measure_s = seconds_since(m0);
  const auto r0 = Clock::now();
  run.bytes = megflood::result_json_object(spec, result, result.warnings);
  totals.render_s += seconds_since(r0);
  run.wall_s = seconds_since(t0);
  run.clean = clean(result.measurement);

  for (const TrialSpan& s : spans) {
    totals.init_s += s.init_s;
    totals.step_s += s.step_s;
    totals.csr_s += s.csr_s;
    totals.round_s += s.round_s;
    totals.steps += s.steps;
    totals.step_edges += s.step_edges;
    totals.csr_builds += s.csr_builds;
    totals.csr_edges += s.csr_edges;
    totals.rounds += s.rounds;
  }
  totals.init_calls += spans.size();
  for (double busy : clock.latencies()) totals.busy_s += busy;
  totals.slot_s += measure_s * static_cast<double>(worker_threads(trial));
  totals.campaigns += 1;
  return run;
}

void report_layer_totals(const LayerTotals& t, double build_ms,
                         Report& report) {
  const double c = static_cast<double>(std::max<std::uint64_t>(t.campaigns, 1));
  const auto per = [c](double v) { return v / c; };
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  report.metric("scenario.build_ms", build_ms, "ms");
  report.metric("meg.init_s", per(t.init_s), "s");
  report.metric("meg.init_calls", per(static_cast<double>(t.init_calls)),
                "count");
  report.metric("meg.step_s", per(t.step_s), "s");
  report.metric("meg.steps", per(static_cast<double>(t.steps)), "count");
  report.metric("meg.step_ns_per_edge",
                ratio(t.step_s * 1e9, static_cast<double>(t.step_edges)),
                "ns");
  report.metric("snapshot.csr_s", per(t.csr_s), "s");
  report.metric("snapshot.edges_per_step",
                ratio(static_cast<double>(t.csr_edges),
                      static_cast<double>(t.csr_builds)),
                "count");
  report.metric("process.round_s", per(t.round_s), "s");
  report.metric("process.rounds", per(static_cast<double>(t.rounds)),
                "count");
  report.metric("trial.busy_s", per(t.busy_s), "s");
  report.metric("trial.idle_frac", 1.0 - ratio(t.busy_s, t.slot_s), "ratio");
  report.metric("format.render_us", per(t.render_s) * 1e6, "us");
}

Report run_campaign_workload(const Options& o) {
  Report report;
  const std::vector<std::string> args = campaign_args(o);
  for (const std::string& a : args) report.info["args"] += a + " ";

  // Set-up: parse + model and process factories + one model build.
  // Repeated, median reported; at least five samples and half a second.
  // Each build draws its own model seed: the initial snapshot's size sets
  // both the build time and the edge buffer's capacity, so the median and
  // the memory peak then cover several snapshots, not one draw.
  std::vector<double> setup_s, build_ms;
  const auto setup0 = Clock::now();
  while (setup_s.size() < 5 ||
         (seconds_since(setup0) < 0.5 && setup_s.size() < 101)) {
    std::unique_ptr<DynamicGraph> graph;
    const auto t0 = Clock::now();
    const megflood::ScenarioSpec spec = megflood::parse_scenario_args(args);
    const megflood::ScenarioModel model = megflood::make_model_factory(spec);
    const megflood::ProcessFactory process =
        megflood::make_process_factory(spec.process);
    build_ms.push_back(seconds_since(t0) * 1e3);
    graph = model.factory(spec.trial.seed + setup_s.size());
    setup_s.push_back(seconds_since(t0));
  }

  const megflood::ScenarioSpec spec = megflood::parse_scenario_args(args);
  const std::size_t min_reps = o.tiny ? 2 : 3;
  const auto check = [&](const CampaignRun& run, const std::string& ref,
                         const std::string& what) {
    ++report.attempted;
    if (!run.clean || run.bytes != ref) {
      report.fail(what + (run.clean ? ": result bytes differ from the "
                                      "reference"
                                    : ": trial error or incomplete trial"));
    }
  };

  if (!o.trace) {
    // Back-to-back campaigns.  The first two use the workload seed itself:
    // digests.json pins their bytes, and the second must repeat the first
    // byte for byte.  Later ones use derived seeds, so the medians cover
    // several realizations of the graph process, not one.
    std::vector<double> walls;
    std::string first;
    const auto w0 = Clock::now();
    while (walls.size() < min_reps || seconds_since(w0) < o.seconds) {
      megflood::ScenarioSpec rep = spec;
      if (walls.size() >= 2) {
        rep.trial.seed = megflood::SplitMix64(spec.trial.seed + walls.size())
                             .next();
      }
      const CampaignRun run = run_spec(rep);
      if (walls.empty()) {
        report.result_bytes = run.bytes;
        first = run.bytes;
        if (o.inject == "corrupt") first[first.size() / 2] ^= 0x01;
      }
      check(run, walls.size() < 2 ? first : run.bytes, "timed campaign");
      walls.push_back(run.wall_s);
    }
    double window_s = 0;
    for (double w : walls) window_s += w;

    report.metric("setup_s", median(setup_s), "s");
    report.metric("campaign_s", median(walls), "s");
    report.metric("jobs_per_s", static_cast<double>(walls.size()) / window_s,
                  "jobs/s");
    report.metric("job_ms_p50", median(walls) * 1e3, "ms");
    report.metric("peak_rss_mb", peak_rss_self_mb(), "MiB");
    report.info["campaigns_timed"] = std::to_string(walls.size());
    return report;
  }

  // Traced run: an untraced half, then a traced half with the same spec.
  // Both are timed, so their ratio is the tracing overhead.
  const double half = o.seconds / 2;
  std::vector<double> plain_walls, traced_walls;
  const CampaignRun ref = run_spec(spec);
  report.result_bytes = ref.bytes;
  std::string expected = ref.bytes;
  if (o.inject == "corrupt") expected[expected.size() / 2] ^= 0x01;
  check(ref, expected, "untraced campaign");
  const auto p0 = Clock::now();
  while (plain_walls.size() < min_reps - 1 || seconds_since(p0) < half) {
    const CampaignRun run = run_spec(spec);
    check(run, expected, "untraced campaign");
    plain_walls.push_back(run.wall_s);
  }
  LayerTotals totals;
  const auto q0 = Clock::now();
  while (traced_walls.size() < min_reps - 1 || seconds_since(q0) < half) {
    const CampaignRun run = run_campaign_traced(args, totals);
    check(run, expected, "traced campaign");
    traced_walls.push_back(run.wall_s);
  }
  report_layer_totals(totals, median(build_ms), report);

  // The same campaign through the daemon, once computed and once from
  // its cache, plus the direct serve-layer calls on this workload's lines.
  serve_probe(o, args, ref.bytes, median(plain_walls), report);
  measure_serve_layers(args, ref.bytes, o.run_dir + "/layer_cache", report);
  report.metric("trace.overhead_frac",
                median(traced_walls) / median(plain_walls) - 1.0, "ratio");
  return report;
}

}  // namespace perfbench
