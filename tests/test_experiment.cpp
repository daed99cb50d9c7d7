// Fixture tests for the experiment sweep runner (analysis/experiment):
// the table's header columns and row count, the handling of a row where
// no trial completed, and the declared-verdict check.  Every sweep is a
// few trials of a 16-node edge-MEG, so the whole suite runs in well
// under a second.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "util/parse_number.hpp"

namespace megflood {
namespace {

class ExperimentSweep : public ::testing::Test {
 protected:
  static ScenarioSpec edge_meg(std::uint64_t seed,
                               std::uint64_t max_rounds = 10'000) {
    ScenarioSpec spec;
    spec.model = "edge_meg";
    spec.params = {{"n", "16"}, {"alpha", "0.05"}, {"q", "0.5"}};
    spec.trial.trials = 6;
    spec.trial.seed = seed;
    spec.trial.max_rounds = max_rounds;
    return spec;
  }

  // A calibrated sweep over three seeds; every row declares "dominated".
  static Sweep dominated_sweep() {
    Sweep sweep{.title = "fixture",
                .keys = {"seed"},
                .specs = {"flood"},
                .bounds = {"bound(raw)"},
                .check = BoundCheck::kDominated,
                .fits = {{"flood vs x"}}};
    for (std::uint64_t seed : {1, 2, 3}) {
      sweep.rows.push_back({.cells = {std::to_string(seed)},
                            .specs = {edge_meg(seed)},
                            .bounds = {10.0 * static_cast<double>(seed)},
                            .x = static_cast<double>(seed),
                            .expect = true});
    }
    return sweep;
  }

  std::ostringstream out_;
};

TEST_F(ExperimentSweep, HeaderColumnsAndRowCount) {
  const SweepResult result = run_sweep(dominated_sweep(), out_);
  const std::vector<std::string> expected = {
      "seed", "flood p50", "flood p90", "bound(raw)", "bound(calibrated)",
      "dominated"};
  EXPECT_EQ(result.table.headers(), expected);
  EXPECT_EQ(result.table.rows().size(), 3u);
  EXPECT_TRUE(result.matches);
  EXPECT_TRUE(result.calibrator.calibrated());
  EXPECT_NE(out_.str().find("-- fixture --"), std::string::npos);
  EXPECT_NE(out_.str().find("flood vs x: fitted exponent"), std::string::npos);
}

TEST_F(ExperimentSweep, AllIncompleteRowPrintsNaAndLeavesCalibrationAlone) {
  std::ostringstream reference_out;
  const SweepResult reference = run_sweep(dominated_sweep(), reference_out);

  // The same sweep with a first row that cannot complete in one round:
  // it must not fix the constant, be judged, or enter the fit.
  Sweep sweep = dominated_sweep();
  sweep.rows.insert(sweep.rows.begin(),
                    {.cells = {"stalled"},
                     .specs = {edge_meg(9, /*max_rounds=*/1)},
                     .bounds = {1.0},
                     .x = 100.0});
  const SweepResult result = run_sweep(sweep, out_);

  const std::vector<std::string>& stalled = result.table.rows().front();
  EXPECT_EQ(stalled[1].rfind("n/a", 0), 0u) << stalled[1];
  EXPECT_EQ(stalled[2].rfind("n/a", 0), 0u) << stalled[2];
  EXPECT_EQ(stalled[4], "n/a");
  EXPECT_EQ(stalled[5], "n/a");
  EXPECT_DOUBLE_EQ(result.calibrator.constant(),
                   reference.calibrator.constant());
  EXPECT_EQ(result.calibrator.observations(), 3u);
  EXPECT_TRUE(result.matches);
  EXPECT_NE(out_.str().find("no completed trials at seed=stalled"),
            std::string::npos);
  // The fit line is the reference's: the stalled row's x never entered.
  const auto fit_line = [](const std::string& text) {
    const std::size_t at = text.find("flood vs x:");
    return text.substr(at, text.find('\n', at) - at);
  };
  EXPECT_EQ(fit_line(out_.str()), fit_line(reference_out.str()));
}

TEST_F(ExperimentSweep, DeclaredVerdictOnStalledRowIsAMismatch) {
  Sweep sweep = dominated_sweep();
  sweep.rows.front().specs.front().trial.max_rounds = 1;
  EXPECT_FALSE(run_sweep(sweep, out_).matches);
}

TEST_F(ExperimentSweep, FlippedDeclaredVerdictReportsMismatch) {
  Sweep sweep = dominated_sweep();
  sweep.rows.back().expect = false;
  const SweepResult result = run_sweep(sweep, out_);
  EXPECT_FALSE(result.matches);
  EXPECT_EQ(result.table.rows().back().back(), "yes (declared NO)");
  EXPECT_NE(out_.str().find("VERDICT MISMATCH"), std::string::npos);
}

TEST_F(ExperimentSweep, WithinCheckReadsMeasuredRounds) {
  // A bound a million times the flood time is not tight to log^3 16.
  Sweep sweep{.title = "within",
              .keys = {"bound"},
              .specs = {"flood"},
              .bounds = {"bound(raw)"},
              .check = BoundCheck::kWithin};
  sweep.rows.push_back({.cells = {"loose"},
                        .specs = {edge_meg(1)},
                        .bounds = {1e6},
                        .expect = false});
  const SweepResult result = run_sweep(sweep, out_);
  EXPECT_TRUE(result.matches);
  EXPECT_EQ(result.table.headers().back(), "within");
  EXPECT_EQ(result.table.rows().front().back(), "NO");
  EXPECT_NE(out_.str().find("within: bound/p90 <= log^3 n; 21.3 at n = 16"),
            std::string::npos);
}

TEST(SpecNumber, ShortestTextThatRoundTrips) {
  EXPECT_EQ(spec_number(std::sqrt(32.0)), "5.656854249492381");
  EXPECT_EQ(spec_number(0.25), "0.25");
  EXPECT_EQ(spec_number(64.0), "64");
  for (double value : {0.1, 1.0 / 3.0, 1.0 / 256.0, 0.7 * 0.3, 1e-300,
                       2.0 * 10.0 / std::sqrt(3.141592653589793)}) {
    EXPECT_EQ(parse_double_strict(spec_number(value)), value) << value;
  }
}

}  // namespace
}  // namespace megflood
