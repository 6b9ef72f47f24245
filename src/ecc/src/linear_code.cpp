#include "urmem/ecc/linear_code.hpp"

#include <bit>

#include "urmem/common/contracts.hpp"

namespace urmem {

namespace {

/// Fills a byte-sliced table of a GF(2)-linear map from the images of
/// its 8 unit bytes. Entries [0, 2^b) already hold every value below
/// bit b, so entry 2^b + v is entry v XOR bit b's image; no entry waits
/// on the one before it, so the inner loop vectorizes.
template <class T>
void fill_slice(std::array<T, 256>& table, const std::array<T, 8>& single) {
  table[0] = 0;
  for (unsigned b = 0; b < 8; ++b) {
    const unsigned half = 1u << b;
    for (unsigned v = 0; v < half; ++v) table[half + v] = table[v] ^ single[b];
  }
}

}  // namespace

void linear_code::compile(unsigned t, std::span<const word_t> unit_codewords) {
  expects(t >= 1, "a linear code corrects at least one bit");
  expects(unit_codewords.size() == data_bits_ &&
              data_columns_.size() == data_bits_ &&
              column_syndromes_.size() == codeword_bits_ &&
              codeword_bits_ <= max_word_width,
          "linear_code geometry is inconsistent");
  t_ = t;

  encode_slices_ = (data_bits_ + 7) / 8;
  for (unsigned s = 0; s < encode_slices_; ++s) {
    std::array<word_t, 8> single{};
    for (unsigned b = 0; b < 8; ++b) {
      const unsigned bit = 8 * s + b;
      if (bit < data_bits_) single[b] = unit_codewords[bit];
    }
    fill_slice(encode_lut_[s], single);
  }

  std::uint32_t used_rows = 0;
  syndrome_slices_ = (codeword_bits_ + 7) / 8;
  for (unsigned s = 0; s < syndrome_slices_; ++s) {
    std::array<std::uint32_t, 8> single{};
    for (unsigned b = 0; b < 8; ++b) {
      const unsigned column = 8 * s + b;
      if (column < codeword_bits_) single[b] = column_syndromes_[column];
      used_rows |= single[b];
    }
    fill_slice(syndrome_lut_[s], single);
  }

  // Correction masks: record every error pattern of weight 1..t under
  // its syndrome. Distance >= 2t+2 makes these syndromes distinct
  // (checked by the ensures) and keeps every (t+1)-bit syndrome at mask
  // 0, so decode() reports those detected_uncorrectable instead of
  // miscorrecting — the property the analytic residual model relies on.
  correction_mask_.assign(std::size_t{1} << std::bit_width(used_rows), 0);
  const auto place = [&](std::uint32_t syndrome, word_t mask) {
    ensures(syndrome != 0, "a nonzero error pattern cannot alias clean");
    ensures(correction_mask_[syndrome] == 0,
            "distinct <= t-bit error patterns must have distinct syndromes");
    correction_mask_[syndrome] = mask;
  };
  const auto enumerate = [&](auto&& self, unsigned first, unsigned left,
                             std::uint32_t syndrome, word_t mask) -> void {
    if (left == 0) {
      place(syndrome, mask);
      return;
    }
    for (unsigned c = first; c + left <= codeword_bits_; ++c) {
      self(self, c + 1, left - 1, syndrome ^ column_syndromes_[c],
           mask | (word_t{1} << c));
    }
  };
  for (unsigned weight = 1; weight <= t; ++weight) {
    enumerate(enumerate, 0, weight, 0, 0);
  }

  column_to_data_bit_.assign(codeword_bits_, -1);
  for (unsigned bit = 0; bit < data_bits_; ++bit) {
    column_to_data_bit_[data_columns_[bit]] = static_cast<int>(bit);
  }

  // Extraction runs: maximal spans of consecutive data columns holding
  // consecutive data bits.
  extract_run_count_ = 0;
  unsigned column = 0;
  while (column < codeword_bits_) {
    if (column_to_data_bit_[column] < 0) {
      ++column;
      continue;
    }
    const unsigned start = column;
    const int dst = column_to_data_bit_[column];
    while (column < codeword_bits_ &&
           column_to_data_bit_[column] ==
               dst + static_cast<int>(column - start)) {
      ++column;
    }
    ensures(extract_run_count_ < extract_runs_.size(),
            "more extraction runs than the codeword layouts permit");
    extract_runs_[extract_run_count_++] = {
        static_cast<std::uint8_t>(start), static_cast<std::uint8_t>(dst),
        word_mask(column - start)};
  }
}

unsigned linear_code::data_column(unsigned bit) const {
  expects(bit < data_bits_, "data bit out of range");
  return data_columns_[bit];
}

int linear_code::data_bit_at_column(unsigned column) const {
  expects(column < codeword_bits_, "codeword column out of range");
  return column_to_data_bit_[column];
}

}  // namespace urmem
