// Console table rendering for the benchmark harnesses.
//
// Every figure/table workload prints its series through this formatter
// so the output is aligned, diffable, and easy to paste into a report.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace urmem {

/// Fixed-width console table with a header row.
class console_table {
 public:
  explicit console_table(std::vector<std::string> headers);

  /// Appends a data row; must have as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  /// Renders with column alignment and a header separator.
  void print(std::ostream& os) const;

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats `value` with `digits` significant digits (general format).
[[nodiscard]] std::string format_double(double value, int digits = 4);

/// Formats `value` in scientific notation with `digits` digits of mantissa.
[[nodiscard]] std::string format_scientific(double value, int digits = 3);

/// Formats a ratio as a percentage string, e.g. 0.314 -> "31.4%".
[[nodiscard]] std::string format_percent(double ratio, int digits = 1);

}  // namespace urmem
