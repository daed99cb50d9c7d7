#pragma once

// The one campaign body of megflood_serve.  Both isolation modes run a
// sub-job through run_campaign(): the scheduler calls it on a pool thread
// (--isolation=thread), a `--worker` subprocess calls it on its job loop
// (--isolation=process).  One body is what makes "thread mode equals
// process mode" hold by construction — same journal handling, same
// deadline policy, same serializer, same progress count.
//
// A run, in order: open the `.mfj` journal (a mismatched header is
// replaced; journal I/O failure degrades to an unjournaled run — serving
// beats durability), apply the deadline to a *copy* of the spec, run the
// campaign, serialize the result against the *submitted* spec (so cache
// entries never carry execution policy), and remove the journal once the
// campaign completed.  On every other exit the journal stays on disk for
// a later resume: a crashed worker's retry or a restarted daemon's
// recover_journals() picks it up bit-identically.
//
// megflood_run's --checkpoint keeps its own strict path in core/driver:
// there a mismatched journal is a config error and the file is the
// user's, never removed.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "core/scenario.hpp"

namespace megflood {
class FaultPlan;
}

namespace megflood::serve {

struct RunOptions {
  std::string journal_path;  // .mfj path; empty = unjournaled
  double deadline_s = 0.0;   // cooperative per-trial watchdog, 0 = off
  const std::atomic<bool>* cancel = nullptr;  // stop between trials
  std::uint64_t attempt = 0;  // prior crash count, for once= fault sites
  // Trial-level fault sites; not owned, may be null.
  FaultPlan* fault_plan = nullptr;
  // Called after every durably recorded trial with the campaign's
  // cumulative count: trials replayed from the journal plus trials run
  // fresh.  A resumed campaign therefore ends at `trials`, never at the
  // fresh share only.
  std::function<void(std::size_t cumulative_done)> on_progress;
};

struct CampaignOutcome {
  std::string result_json;   // the result object; set iff completed
  std::string error;         // campaign failure, "" on success
  bool deadline = false;     // the watchdog fired (error says where)
  bool interrupted = false;  // cancelled between trials
};

// Runs `submitted` (threads as given; the serve callers force 1).  Never
// throws for campaign failures: they come back in the outcome.
CampaignOutcome run_campaign(const ScenarioSpec& submitted,
                             const RunOptions& options);

}  // namespace megflood::serve
