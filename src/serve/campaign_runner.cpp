#include "serve/campaign_runner.hpp"

#include <cstdio>
#include <memory>
#include <stdexcept>

#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/format.hpp"
#include "util/fault_injection.hpp"

namespace megflood::serve {

namespace {

// Replace-on-mismatch, degrade-on-I/O-failure (see the header).  Null
// means the run goes unjournaled.
std::unique_ptr<CheckpointJournal> open_journal(const std::string& path,
                                                const ScenarioSpec& spec) {
  const CheckpointKey key{campaign_key(spec), spec.trial.threads};
  try {
    return std::make_unique<CheckpointJournal>(path, key);
  } catch (const std::invalid_argument&) {
    std::remove(path.c_str());
  } catch (const std::exception&) {
    return nullptr;
  }
  try {
    return std::make_unique<CheckpointJournal>(path, key);
  } catch (const std::exception&) {
    return nullptr;
  }
}

}  // namespace

CampaignOutcome run_campaign(const ScenarioSpec& submitted,
                             const RunOptions& options) {
  std::unique_ptr<CheckpointJournal> journal;
  if (!options.journal_path.empty()) {
    journal = open_journal(options.journal_path, submitted);
  }
  const std::size_t replayed = journal ? journal->replayed_trials() : 0;

  MeasureHooks hooks;
  hooks.checkpoint = journal.get();
  hooks.cancel = options.cancel;
  FaultPlan* const plan = options.fault_plan;
  if (plan != nullptr) {
    hooks.on_trial_start = [plan, attempt = options.attempt](std::size_t trial) {
      plan->fire_trial_start(trial, attempt);
    };
  }
  std::atomic<std::size_t> fresh{0};
  hooks.on_trial_recorded = [&](std::size_t trial) {
    const std::size_t done = replayed + fresh.fetch_add(1) + 1;
    if (options.on_progress) options.on_progress(done);
    // kill:after= counts durable records and fires here, after the
    // progress report is on its way.
    if (plan != nullptr) plan->fire_trial_recorded(trial);
  };

  // The deadline is applied to a spec *copy*: it is execution policy and
  // never reaches cache or journal identity.
  ScenarioSpec spec = submitted;
  if (options.deadline_s > 0.0) spec.trial.trial_deadline_s = options.deadline_s;

  CampaignOutcome outcome;
  try {
    const ScenarioResult result = run_scenario(spec, hooks);
    outcome.interrupted = result.measurement.interrupted;
    if (!outcome.interrupted) {
      outcome.result_json =
          result_json_object(submitted, result, result.warnings);
    }
  } catch (const TrialDeadlineExceeded& e) {
    outcome.deadline = true;
    outcome.error = e.what();
  } catch (const std::exception& e) {
    outcome.error = e.what();
  }
  journal.reset();  // close before deciding the file's fate
  if (!options.journal_path.empty() && !outcome.result_json.empty()) {
    // Complete: the cache owns the result now, the journal is spent.
    std::remove(options.journal_path.c_str());
  }
  return outcome;
}

}  // namespace megflood::serve
