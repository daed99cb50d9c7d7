#pragma once

// Aligned plain-text table output for the experiment tables
// (analysis/experiment, the bench/ harnesses) and megflood_run's table
// format.

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace megflood {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  // Append a row; must have the same arity as the header.
  void add_row(std::vector<std::string> cells);

  // Convenience: format a double with `precision` significant handling.
  static std::string num(double value, int precision = 3);
  static std::string integer(long long value);

  void print(std::ostream& os) const;

  const std::vector<std::string>& headers() const { return headers_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace megflood
