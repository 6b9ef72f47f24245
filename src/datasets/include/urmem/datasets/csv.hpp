// CSV import/export so the benchmark pipeline can also run on the real
// UCI datasets when available (the synthetic generators in
// generators.hpp are drop-in substitutes).
#pragma once

#include <iosfwd>
#include <string>

#include "urmem/datasets/dataset.hpp"

namespace urmem {

/// CSV parsing options.
struct csv_options {
  char separator = ',';
  bool has_header = true;
  /// Column index holding the target/label; negative counts from the
  /// end (-1 = last column). The remaining columns become features.
  int target_column = -1;
  /// Interpret the target column as integer class labels instead of
  /// regression targets.
  bool target_is_label = false;
};

/// Parses a dataset from a stream. Throws std::invalid_argument on
/// malformed input (ragged rows, non-numeric cells).
[[nodiscard]] dataset read_csv(std::istream& in, const csv_options& options = {});

/// Parses a dataset from a file path.
[[nodiscard]] dataset read_csv_file(const std::string& path,
                                    const csv_options& options = {});

/// Writes features + target/label column (if any) with a header row.
void write_csv(std::ostream& out, const dataset& data, char separator = ',');

}  // namespace urmem
