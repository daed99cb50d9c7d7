#pragma once

// Experiment sweeps: the paper-style tables printed by tools/megflood_fit.
// A sweep is a list of rows.  Each row measures one or more scenarios
// through run_scenario (core/scenario) and carries the raw values of the
// bounds it is compared with.  run_sweep prints the table, checks the
// first bound against the first scenario's measured p90 (calibrated
// dominance via BoundCalibrator at its default slack, or tightness up to
// log^3 n), fits log-log slopes with loglog_fit, and reports whether every
// row's verdict equals the verdict the sweep declares for it.
//
// A row whose first scenario completed no trial prints "n/a": it is never
// calibrated, never judged and never enters a fit, so one stalled row
// cannot fix the calibration constant at 1/raw or feed log 0 to a fit.

#include <cstddef>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "analysis/calibration.hpp"
#include "core/scenario.hpp"
#include "util/table.hpp"

namespace megflood {

// How a row's verdict is read from bounds[0] and the p90 of specs[0].
enum class BoundCheck {
  kNone,       // no verdict columns
  kDominated,  // p90 <= slack * calibrated bound (BoundCalibrator)
  kWithin,     // bound / p90 <= log^3 n, n = the scenario's node count
};

// Every field has a default, so sweeps and rows are written with
// designated initializers that name only the fields they use.
struct ExperimentRow {
  std::vector<std::string> cells{};   // leading cells, one per Sweep::keys
  std::vector<ScenarioSpec> specs{};  // one per Sweep::specs label
  std::vector<double> bounds{};       // raw bounds, one per Sweep::bounds
  double x = 0.0;                     // fit abscissa; x <= 0 keeps it out
  std::optional<bool> expect{};       // declared verdict (needs a check)
};

// A log-log fit of one scenario's p90 (or p50) against ExperimentRow::x.
struct SlopeFit {
  std::string label{};
  std::size_t spec = 0;
  bool median = false;
};

// median(specs[num]) / max(1, median(specs[den])), printed to 2 places.
struct MedianRatio {
  std::string header{};
  std::size_t num = 0;
  std::size_t den = 1;
};

struct Sweep {
  std::string title{};
  std::vector<std::string> keys{};     // headers of the leading cells (>= 1)
  std::vector<std::string> specs{};    // column label of each scenario
  std::vector<std::string> metrics{};  // process metrics of specs[0], as p50
  std::vector<MedianRatio> ratios{};
  std::vector<std::string> bounds{};   // headers of the raw bound columns
  BoundCheck check = BoundCheck::kNone;
  std::vector<SlopeFit> fits{};
  std::string note{};                  // printed under the table
  std::vector<ExperimentRow> rows{};
};

struct SweepResult {
  Table table;
  BoundCalibrator calibrator;
  bool matches = true;  // every declared verdict was reproduced
};

// Runs every row's scenarios in order and prints the table and its
// footer to `os`.  Throws whatever run_scenario throws.
SweepResult run_sweep(const Sweep& sweep, std::ostream& os);

// The shortest decimal text that parses back to exactly `value`
// (std::to_chars), for double-valued scenario parameters.
std::string spec_number(double value);

// Output helpers shared with the stand-alone harnesses in bench/.
std::string verdict(bool ok);  // "yes" / "NO"
void print_header(std::ostream& os, const std::string& id,
                  const std::string& claim);
void warn_incomplete(std::ostream& os, const Measurement& m,
                     const std::string& where);
// Prints the fitted log-log exponent of y against x (needs >= 2 points).
void print_slope(std::ostream& os, const std::string& label,
                 const std::vector<double>& x, const std::vector<double>& y);

}  // namespace megflood
