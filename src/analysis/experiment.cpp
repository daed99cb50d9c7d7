#include "analysis/experiment.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <set>
#include <utility>

#include "core/format.hpp"
#include "util/stats.hpp"

namespace megflood {

namespace {

double log_cubed(std::size_t n) {
  return std::pow(std::log(static_cast<double>(n)), 3.0);
}

std::vector<std::string> sweep_headers(const Sweep& sweep) {
  std::vector<std::string> headers = sweep.keys;
  for (const std::string& label : sweep.specs) {
    headers.push_back(label + " p50");
    headers.push_back(label + " p90");
  }
  for (const std::string& metric : sweep.metrics) {
    headers.push_back(metric + " p50");
  }
  for (const MedianRatio& ratio : sweep.ratios) {
    headers.push_back(ratio.header);
  }
  headers.insert(headers.end(), sweep.bounds.begin(), sweep.bounds.end());
  if (sweep.check == BoundCheck::kDominated) {
    headers.insert(headers.end(), {"bound(calibrated)", "dominated"});
  } else if (sweep.check == BoundCheck::kWithin) {
    headers.insert(headers.end(), {"bound/p90", "within"});
  }
  return headers;
}

}  // namespace

SweepResult run_sweep(const Sweep& sweep, std::ostream& os) {
  SweepResult result{Table(sweep_headers(sweep)), BoundCalibrator(), true};
  std::vector<std::vector<double>> fit_x(sweep.fits.size());
  std::vector<std::vector<double>> fit_y(sweep.fits.size());
  std::set<std::size_t> within_n;  // node counts judged by kWithin
  os << "\n-- " << sweep.title << " --\n";
  for (const ExperimentRow& row : sweep.rows) {
    std::vector<Measurement> ms;
    ms.reserve(row.specs.size());
    std::vector<std::string> cells = row.cells;
    std::size_t num_nodes = 0;  // of specs[0]
    for (std::size_t i = 0; i < row.specs.size(); ++i) {
      ScenarioResult run = run_scenario(row.specs[i]);
      if (i == 0) num_nodes = run.num_nodes;
      const Measurement& m = ms.emplace_back(std::move(run.measurement));
      cells.push_back(format_rounds(m, m.rounds.median));
      cells.push_back(format_rounds(m, m.rounds.p90));
      warn_incomplete(os, m, sweep.keys.front() + "=" + row.cells.front() +
                                 " (" + sweep.specs[i] + ")");
    }
    const Measurement& first = ms.at(0);
    for (const std::string& metric : sweep.metrics) {
      const auto it = first.metrics.find(metric);
      cells.push_back(it == first.metrics.end() || first.all_incomplete()
                          ? "-"
                          : Table::num(it->second.median, 0));
    }
    for (const MedianRatio& ratio : sweep.ratios) {
      const Measurement& num = ms.at(ratio.num);
      const Measurement& den = ms.at(ratio.den);
      cells.push_back(num.all_incomplete() || den.all_incomplete()
                          ? "n/a"
                          : Table::num(num.rounds.median /
                                           std::max(1.0, den.rounds.median),
                                       2));
    }
    for (const double bound : row.bounds) cells.push_back(Table::num(bound, 1));

    if (sweep.check != BoundCheck::kNone) {
      std::string value = "n/a";
      std::optional<bool> ok;  // empty when no trial of specs[0] completed
      if (!first.all_incomplete()) {
        const double p90 = first.rounds.p90;
        const double bound = row.bounds.at(0);
        if (sweep.check == BoundCheck::kDominated) {
          const double calibrated = result.calibrator.record(p90, bound);
          ok = result.calibrator.dominates(p90, calibrated);
          value = Table::num(calibrated, 1);
        } else {
          ok = bound / p90 <= log_cubed(num_nodes);
          value = Table::num(bound / p90, 1);
          within_n.insert(num_nodes);
        }
      }
      std::string verdict_cell = ok ? verdict(*ok) : "n/a";
      if (row.expect && ok != row.expect) {
        verdict_cell += " (declared " + verdict(*row.expect) + ")";
        result.matches = false;
      }
      cells.push_back(value);
      cells.push_back(verdict_cell);
    }
    result.table.add_row(std::move(cells));

    for (std::size_t f = 0; f < sweep.fits.size(); ++f) {
      const Measurement& m = ms.at(sweep.fits[f].spec);
      if (row.x > 0.0 && !m.all_incomplete()) {
        fit_x[f].push_back(row.x);
        fit_y[f].push_back(sweep.fits[f].median ? m.rounds.median
                                                : m.rounds.p90);
      }
    }
  }

  result.table.print(os);
  const BoundCalibrator& cal = result.calibrator;
  if (sweep.check == BoundCheck::kDominated) {
    os << (cal.calibrated()
               ? "calibrated constant c = " + Table::num(cal.constant()) +
                     "; p90 dominated by c*bound (" +
                     Table::num(cal.slack(), 0) +
                     "x slack): " + verdict(cal.all_dominated())
               : std::string("no row completed a trial; bound not calibrated"))
       << "\n";
  } else if (sweep.check == BoundCheck::kWithin) {
    os << "within: bound/p90 <= log^3 n";
    for (const std::size_t n : within_n) {
      os << "; " << Table::num(log_cubed(n), 1) << " at n = " << n;
    }
    os << "\n";
  }
  for (std::size_t f = 0; f < sweep.fits.size(); ++f) {
    print_slope(os, sweep.fits[f].label, fit_x[f], fit_y[f]);
  }
  if (!sweep.note.empty()) os << sweep.note << "\n";
  if (!result.matches) {
    os << "VERDICT MISMATCH: a row's verdict differs from the declared one\n";
  }
  return result;
}

std::string spec_number(double value) {
  char buffer[32];  // a shortest round-trip double takes at most 24 chars
  return {buffer, std::to_chars(buffer, buffer + sizeof buffer, value).ptr};
}

std::string verdict(bool ok) { return ok ? "yes" : "NO"; }

void print_header(std::ostream& os, const std::string& id,
                  const std::string& claim) {
  os << "\n=== " << id << " ===\n" << claim << "\n\n";
}

void warn_incomplete(std::ostream& os, const Measurement& m,
                     const std::string& where) {
  if (m.all_incomplete()) {
    os << "WARNING: no completed trials at " << where
       << " — round statistics are not meaningful\n";
  } else if (m.incomplete > 0) {
    os << "WARNING: " << m.incomplete << " incomplete trials at " << where
       << "\n";
  }
}

void print_slope(std::ostream& os, const std::string& label,
                 const std::vector<double>& x, const std::vector<double>& y) {
  if (x.size() >= 2) {
    const LinearFit fit = loglog_fit(x, y);
    os << label << ": fitted exponent " << Table::num(fit.slope)
       << " (R^2 = " << Table::num(fit.r_squared) << ")\n";
  }
}

}  // namespace megflood
