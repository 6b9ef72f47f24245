#include "urmem/ecc/hamming_secded.hpp"

#include "urmem/common/contracts.hpp"

namespace urmem {

unsigned hamming_secded::codeword_bits_for(unsigned data_bits) {
  unsigned p = 0;
  while ((word_t{1} << p) < data_bits + p + 1) ++p;
  return data_bits + p + 1;
}

hamming_secded::hamming_secded(unsigned data_bits) : data_bits_(data_bits) {
  expects(data_bits >= 1 && data_bits <= max_data_bits,
          "hamming_secded supports 1..57 data bits (codeword must fit 64 bits)");
  codeword_bits_ = codeword_bits_for(data_bits);
  parity_bits_ = codeword_bits_ - data_bits - 1;

  // Codeword column 0 carries the overall parity bit; columns 1..n-1 use
  // the classical Hamming position numbering, so column i == position i:
  // powers of two are parity columns, the rest hold data bits in order.
  column_to_data_bit_.assign(codeword_bits_, -1);
  data_columns_.reserve(data_bits_);
  for (unsigned column = 1; column < codeword_bits_; ++column) {
    if (is_power_of_two(column)) continue;
    column_to_data_bit_[column] = static_cast<int>(data_columns_.size());
    data_columns_.push_back(column);
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

  compile_tables();
}

void hamming_secded::compile_tables() {
  // Encode tables. encode_reference is GF(2)-linear, so each byte slice
  // only needs the 8 single-bit codewords of its slice; the 256 entries
  // are built by XOR-combining an entry already filled in (v with its
  // lowest bit cleared) with the lowest bit's codeword.
  encode_slices_ = (data_bits_ + 7) / 8;
  for (unsigned s = 0; s < encode_slices_; ++s) {
    std::array<word_t, 8> single{};
    for (unsigned b = 0; b < 8; ++b) {
      const unsigned bit = 8 * s + b;
      single[b] = bit < data_bits_ ? encode_reference(word_t{1} << bit) : 0;
    }
    encode_lut_[s][0] = 0;
    for (unsigned v = 1; v < 256; ++v) {
      const unsigned rest = v & (v - 1);
      encode_lut_[s][v] =
          encode_lut_[s][rest] ^ single[log2_exact(v ^ rest)];
    }
  }

  // Syndrome tables: syndrome and overall parity are likewise linear in
  // the stored word. A stored bit at column c contributes c to the
  // syndrome (the Hamming position numbering) and always flips the
  // overall parity; derive both from the cover masks rather than assume
  // the numbering, so the tables stay faithful to the H-matrix.
  syndrome_slices_ = (codeword_bits_ + 7) / 8;
  syndrome_mask_ = (1u << parity_bits_) - 1;
  for (unsigned s = 0; s < syndrome_slices_; ++s) {
    std::array<std::uint8_t, 8> single{};
    for (unsigned b = 0; b < 8; ++b) {
      const unsigned column = 8 * s + b;
      if (column >= codeword_bits_) continue;
      unsigned syndrome = 0;
      for (unsigned i = 0; i < parity_bits_; ++i) {
        if (get_bit(cover_masks_[i], column)) syndrome |= 1u << i;
      }
      single[b] = static_cast<std::uint8_t>(syndrome | overall_parity_flag);
    }
    syndrome_lut_[s][0] = 0;
    for (unsigned v = 1; v < 256; ++v) {
      const unsigned rest = v & (v - 1);
      syndrome_lut_[s][v] = static_cast<std::uint8_t>(
          syndrome_lut_[s][rest] ^ single[log2_exact(v ^ rest)]);
    }
  }

  // Correction masks: a nonzero syndrome s names codeword position s;
  // syndromes past the codeword (only reachable through multi-bit
  // errors) get mask 0, which decode() reports as uncorrectable.
  correction_mask_.fill(0);
  for (unsigned s = 1; s <= syndrome_mask_; ++s) {
    if (s < codeword_bits_) correction_mask_[s] = word_t{1} << s;
  }

  // Extraction runs: maximal spans of consecutive data columns holding
  // consecutive data bits. The power-of-two parity columns cut the
  // 64-bit codeword into at most five such spans.
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
            "more compaction runs than the codeword layout permits");
    extract_runs_[extract_run_count_++] = {
        static_cast<std::uint8_t>(start), static_cast<std::uint8_t>(dst),
        word_mask(column - start)};
  }
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

unsigned hamming_secded::data_column(unsigned bit) const {
  expects(bit < data_bits_, "data bit out of range");
  return data_columns_[bit];
}

int hamming_secded::data_bit_at_column(unsigned column) const {
  expects(column < codeword_bits_, "codeword column out of range");
  return column_to_data_bit_[column];
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
