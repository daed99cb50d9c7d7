#pragma once

// Calibrated-bound checking: the honest numeric reading of an O(.) claim.
// An asymptotic upper bound C * f(x) dominates measurements for *some*
// constant C; each experiment family therefore calibrates C once at its
// first (smallest) instance and then tests that the calibrated bound,
// with a declared slack factor, dominates every other instance.  A
// scaling exponent check (log-log fit of measurement vs. the bound's
// driver variable) complements it: together they pin down "the shape
// holds" without pretending to know the constants.

#include <cstddef>
#include <vector>

#include "util/stats.hpp"

namespace megflood {

class BoundCalibrator {
 public:
  // `slack`: multiplicative tolerance on top of the calibrated constant
  // (absorbs trial noise in upper quantiles).
  explicit BoundCalibrator(double slack = 3.0);

  // Records one (measurement, raw bound) observation; the first call
  // fixes the constant.  Returns the calibrated bound for this row.
  // Throws std::invalid_argument on non-positive raw bounds.
  double record(double measured, double raw_bound);

  double constant() const noexcept { return constant_; }
  double slack() const noexcept { return slack_; }
  bool calibrated() const noexcept { return calibrated_; }
  // The per-observation check: measured <= slack * calibrated bound.
  bool dominates(double measured, double calibrated) const noexcept {
    return measured <= slack_ * calibrated;
  }
  // True while every recorded measurement was <= slack * constant * bound.
  bool all_dominated() const noexcept { return all_dominated_; }
  std::size_t observations() const noexcept { return observations_; }

 private:
  double slack_;
  double constant_ = 1.0;
  bool calibrated_ = false;
  bool all_dominated_ = true;
  std::size_t observations_ = 0;
};

// Result of a scaling-shape check: fit of measured ~ driver^exponent.
struct ScalingCheck {
  LinearFit fit;
  bool within_tolerance = false;
};

// Fits the log-log slope of `measured` against `driver` and checks it is
// within `tolerance` of `expected_exponent`.  Requires >= 2 points.
ScalingCheck check_scaling(const std::vector<double>& driver,
                           const std::vector<double>& measured,
                           double expected_exponent, double tolerance);

}  // namespace megflood
