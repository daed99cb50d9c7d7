#include "analysis/calibration.hpp"

#include <cmath>
#include <stdexcept>

namespace megflood {

BoundCalibrator::BoundCalibrator(double slack) : slack_(slack) {
  if (slack < 1.0) {
    throw std::invalid_argument("BoundCalibrator: slack must be >= 1");
  }
}

double BoundCalibrator::record(double measured, double raw_bound) {
  if (!(raw_bound > 0.0)) {
    throw std::invalid_argument("BoundCalibrator: raw bound must be > 0");
  }
  if (measured < 0.0) {
    throw std::invalid_argument("BoundCalibrator: negative measurement");
  }
  if (!calibrated_) {
    constant_ = measured > 0.0 ? measured / raw_bound : 1.0 / raw_bound;
    calibrated_ = true;
  }
  ++observations_;
  const double calibrated = constant_ * raw_bound;
  if (!dominates(measured, calibrated)) all_dominated_ = false;
  return calibrated;
}

ScalingCheck check_scaling(const std::vector<double>& driver,
                           const std::vector<double>& measured,
                           double expected_exponent, double tolerance) {
  if (driver.size() != measured.size() || driver.size() < 2) {
    throw std::invalid_argument("check_scaling: need >= 2 matched points");
  }
  ScalingCheck check;
  check.fit = loglog_fit(driver, measured);
  check.within_tolerance =
      std::abs(check.fit.slope - expected_exponent) <= tolerance;
  return check;
}

}  // namespace megflood
