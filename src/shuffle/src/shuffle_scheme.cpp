#include "urmem/shuffle/shuffle_scheme.hpp"

#include <vector>

#include "urmem/common/contracts.hpp"

namespace urmem {

shuffle_scheme::shuffle_scheme(std::uint32_t rows, unsigned width, unsigned n_fm,
                               shift_policy policy)
    : shuffler_(width, n_fm), lut_(rows, n_fm), policy_(policy) {}

void shuffle_scheme::apply_write_block(std::uint32_t first,
                                       std::span<const word_t> data,
                                       std::span<word_t> out) const {
  expects(out.size() == data.size(), "output span must match the input");
  expects(first + data.size() <= lut_.rows(), "block exceeds the LUT rows");
  const std::span<const std::uint8_t> shifts = shuffler_.shift_table();
  const std::uint8_t* entries = lut_.entries().data() + first;
  const unsigned width = shuffler_.width();
  for (std::size_t i = 0; i < data.size(); ++i) {
    out[i] = rotate_right(data[i], shifts[entries[i]], width);
  }
}

void shuffle_scheme::restore_read_block(std::uint32_t first,
                                        std::span<const word_t> stored,
                                        std::span<word_t> out) const {
  expects(out.size() == stored.size(), "output span must match the input");
  expects(first + stored.size() <= lut_.rows(), "block exceeds the LUT rows");
  const std::span<const std::uint8_t> shifts = shuffler_.shift_table();
  const std::uint8_t* entries = lut_.entries().data() + first;
  const unsigned width = shuffler_.width();
  for (std::size_t i = 0; i < stored.size(); ++i) {
    out[i] = rotate_left(stored[i], shifts[entries[i]], width);
  }
}

void shuffle_scheme::program(const fault_map& faults) {
  expects(faults.geometry().rows == lut_.rows(),
          "fault map row count must match the LUT");
  expects(faults.geometry().width >= shuffler_.width(),
          "fault map must cover the data columns");
  lut_.clear();
  std::vector<std::uint32_t> cols;
  for_each_faulty_row(
      faults.all_faults(),
      [&](std::uint32_t row, std::span<const fault> row_faults) {
        cols.clear();
        for (const fault& f : row_faults) {
          if (f.col < shuffler_.width()) cols.push_back(f.col);  // data columns only
        }
        if (!cols.empty()) lut_.set(row, choose_xfm(shuffler_, cols, policy_));
      });
}

}  // namespace urmem
