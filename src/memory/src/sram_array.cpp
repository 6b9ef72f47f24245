#include "urmem/memory/sram_array.hpp"

#include <algorithm>
#include <cstdlib>
#include <string_view>

#include "urmem/common/contracts.hpp"

namespace urmem {

sram_array::sram_array(array_geometry geometry) : sram_array(fault_map(geometry)) {}

sram_array::sram_array(fault_map faults)
    : faults_(std::move(faults)),
      plane_(faults_),
      data_(faults_.geometry().rows, 0) {}

void sram_array::set_faults(fault_map faults) {
  expects(faults.geometry() == geometry(), "fault map geometry mismatch");
  faults_ = std::move(faults);
  // The compiled planes describe the previous map: recompile them in
  // place (clear-by-list — this runs once per tile in the Monte-Carlo
  // loop).
  plane_.recompile(faults_);
}

void sram_array::patch_faults(const fault_delta& delta) {
  faults_.patch(delta.removed, delta.added);
  plane_.recompile_rows(faults_, delta);
}

fault_path sram_array::default_fault_path() {
  static const fault_path path = [] {
    // NOLINTNEXTLINE(concurrency-mt-unsafe): read exactly once, inside a
    // magic-static initializer, before any worker thread exists; nothing
    // in the process calls setenv.
    const char* env = std::getenv("URMEM_FAULT_PATH");
    return env != nullptr && std::string_view(env) == "reference"
               ? fault_path::reference
               : fault_path::compiled;
  }();
  return path;
}

void sram_array::write(std::uint32_t row, word_t value) {
  expects(row < rows(), "row out of range");
  // Transition-fault cells refuse the blocked transition; all other
  // fault kinds corrupt on read.
  value &= word_mask(width());
  data_[row] = path_ == fault_path::reference
                   ? faults_.apply_write(row, data_[row], value)
                   : plane_.apply_write(row, data_[row], value);
}

word_t sram_array::read(std::uint32_t row) const {
  expects(row < rows(), "row out of range");
  return path_ == fault_path::reference
             ? faults_.corrupt(row, data_[row])
             : plane_.corrupt(row, data_[row]);
}

void sram_array::write_rows(std::uint32_t first, std::span<const word_t> values) {
  expects(first <= rows() && values.size() <= rows() - first,
          "row range out of bounds");
  if (path_ == fault_path::reference) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      const auto row = first + static_cast<std::uint32_t>(i);
      data_[row] = faults_.apply_write(row, data_[row], values[i]);
    }
  } else {
    plane_.apply_write_rows(first, values,
                            std::span<word_t>(data_).subspan(first, values.size()));
  }
}

void sram_array::read_rows(std::uint32_t first, std::span<word_t> out) const {
  expects(first <= rows() && out.size() <= rows() - first,
          "row range out of bounds");
  if (path_ == fault_path::reference) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      const auto row = first + static_cast<std::uint32_t>(i);
      out[i] = faults_.corrupt(row, data_[row]);
    }
    return;
  }
  std::copy_n(data_.begin() + first, out.size(), out.begin());
  plane_.corrupt_rows(first, out);
}

word_t sram_array::read_ideal(std::uint32_t row) const {
  expects(row < rows(), "row out of range");
  return data_[row];
}

void sram_array::fill(word_t value) {
  for (std::uint32_t row = 0; row < rows(); ++row) write(row, value);
}

void sram_array::clear_words(std::span<const std::uint32_t> rows) {
  for (const std::uint32_t row : rows) {
    expects(row < this->rows(), "row out of range");
    data_[row] = 0;
  }
}

}  // namespace urmem
