#include "urmem/ecc/hamming_secded.hpp"

#include "urmem/common/contracts.hpp"

namespace urmem {

unsigned hamming_secded::codeword_bits_for(unsigned data_bits) {
  unsigned p = 0;
  while ((word_t{1} << p) < data_bits + p + 1) ++p;
  return data_bits + p + 1;
}

hamming_secded::hamming_secded(unsigned data_bits) {
  expects(data_bits >= 1 && data_bits <= max_data_bits,
          "hamming_secded supports 1..57 data bits (codeword must fit 64 bits)");
  data_bits_ = data_bits;
  codeword_bits_ = codeword_bits_for(data_bits);
  parity_bits_ = codeword_bits_ - data_bits - 1;

  // Codeword column 0 carries the overall parity bit; columns 1..n-1 use
  // the classical Hamming position numbering, so column i == position i:
  // powers of two are parity columns, the rest hold data bits in order.
  data_columns_.reserve(data_bits_);
  for (unsigned column = 1; column < codeword_bits_; ++column) {
    if (!is_power_of_two(column)) data_columns_.push_back(column);
  }
  ensures(data_columns_.size() == data_bits_, "hamming layout mismatch");

  cover_masks_.reserve(parity_bits_);
  for (unsigned i = 0; i < parity_bits_; ++i) {
    word_t mask = 0;
    for (unsigned column = 1; column < codeword_bits_; ++column) {
      if ((column & (1u << i)) != 0) mask |= word_t{1} << column;
    }
    cover_masks_.push_back(mask);
  }

  // H column of codeword column c: the parity bits whose cover mask holds
  // c, plus the overall-parity row at bit p, which every column flips.
  // Derived from the cover masks rather than the numbering, so the
  // tables stay faithful to the H-matrix.
  column_syndromes_.assign(codeword_bits_, 1u << parity_bits_);
  for (unsigned column = 0; column < codeword_bits_; ++column) {
    for (unsigned i = 0; i < parity_bits_; ++i) {
      if (get_bit(cover_masks_[i], column)) {
        column_syndromes_[column] |= 1u << i;
      }
    }
  }
  std::vector<word_t> units;
  for (unsigned bit = 0; bit < data_bits_; ++bit) {
    units.push_back(encode_reference(word_t{1} << bit));
  }
  compile(1, units);
}

word_t hamming_secded::encode_reference(word_t data) const {
  data &= word_mask(data_bits_);
  word_t cw = 0;
  for (unsigned bit = 0; bit < data_bits_; ++bit) {
    if (get_bit(data, bit)) cw |= word_t{1} << data_columns_[bit];
  }
  // Each Hamming parity bit makes the XOR over its cover mask zero. The
  // parity column itself is in the mask but currently holds 0, so the
  // computed parity equals the XOR of the covered data bits.
  for (unsigned i = 0; i < parity_bits_; ++i) {
    if (parity(cw & cover_masks_[i])) cw |= word_t{1} << (1u << i);
  }
  // Overall parity (column 0) makes the whole codeword even-weight.
  if (parity(cw)) cw |= word_t{1};
  return cw;
}

word_t hamming_secded::extract_data_reference(word_t codeword) const {
  word_t data = 0;
  for (unsigned bit = 0; bit < data_bits_; ++bit) {
    if (get_bit(codeword, data_columns_[bit])) data |= word_t{1} << bit;
  }
  return data;
}

ecc_decode_result hamming_secded::decode_reference(word_t stored) const {
  stored &= word_mask(codeword_bits_);
  unsigned syndrome = 0;
  for (unsigned i = 0; i < parity_bits_; ++i) {
    if (parity(stored & cover_masks_[i])) syndrome |= 1u << i;
  }
  const bool overall_odd = parity(stored);

  if (syndrome == 0) {
    // Either clean, or the overall parity bit itself flipped — the data
    // bits are intact in both cases.
    return {extract_data_reference(stored),
            overall_odd ? ecc_status::corrected : ecc_status::clean};
  }
  if (overall_odd) {
    // Odd-weight error with nonzero syndrome: a single-bit error at
    // codeword position `syndrome` — unless the syndrome points past the
    // codeword, which only a multi-bit error can produce.
    if (syndrome < codeword_bits_) {
      return {extract_data_reference(flip_bit(stored, syndrome)),
              ecc_status::corrected};
    }
    return {extract_data_reference(stored), ecc_status::detected_uncorrectable};
  }
  // Even-weight error (two bit flips): detected, not correctable.
  return {extract_data_reference(stored), ecc_status::detected_uncorrectable};
}

}  // namespace urmem
