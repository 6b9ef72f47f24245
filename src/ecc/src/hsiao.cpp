#include "urmem/ecc/hsiao.hpp"

#include "urmem/common/contracts.hpp"

namespace urmem {

namespace {

/// Number of odd-weight(>=3) k-bit vectors: 2^(k-1) odd-weight vectors
/// minus the k unit vectors reserved for the check columns.
unsigned odd_column_pool(unsigned k) {
  return (1u << (k - 1)) - k;
}

}  // namespace

unsigned hsiao_code::min_check_bits(unsigned data_bits) {
  unsigned k = 3;
  while (odd_column_pool(k) < data_bits) ++k;
  return k;
}

hsiao_code::hsiao_code(unsigned data_bits, unsigned check_bits) {
  expects(data_bits >= 1, "hsiao_code needs at least one data bit");
  data_bits_ = data_bits;
  const unsigned min_k = min_check_bits(data_bits);
  check_bits_ = check_bits == 0 ? min_k : check_bits;
  expects(check_bits_ >= min_k,
          "hsiao_code check_bits too small for the data width");
  expects(check_bits_ <= max_check_bits,
          "hsiao_code supports at most 12 check bits");
  codeword_bits_ = data_bits_ + check_bits_;
  expects(codeword_bits_ <= max_word_width,
          "hsiao codeword must fit the 64-bit carrier");

  // Pick the d data columns weight-3-first and balanced: within each odd
  // weight class, repeatedly take the candidate whose set bits land on
  // the currently lightest check rows (ties -> smallest vector), so the
  // per-check XOR-tree sizes stay within one input of each other.
  std::vector<unsigned> row_load(check_bits_, 0);
  column_syndromes_.reserve(codeword_bits_);
  for (unsigned weight = 3; column_syndromes_.size() < data_bits_;
       weight += 2) {
    ensures(weight <= check_bits_, "hsiao column pool exhausted");
    std::vector<unsigned> pool;
    for (unsigned v = 0; v < (1u << check_bits_); ++v) {
      if (static_cast<unsigned>(std::popcount(v)) == weight) pool.push_back(v);
    }
    std::vector<bool> used(pool.size(), false);
    for (std::size_t taken = 0;
         taken < pool.size() && column_syndromes_.size() < data_bits_;
         ++taken) {
      std::size_t best = pool.size();
      unsigned best_load = 0;
      for (std::size_t i = 0; i < pool.size(); ++i) {
        if (used[i]) continue;
        unsigned load = 0;
        for (unsigned r = 0; r < check_bits_; ++r) {
          if (get_bit(pool[i], r)) load += row_load[r];
        }
        if (best == pool.size() || load < best_load) {
          best = i;
          best_load = load;
        }
      }
      used[best] = true;
      column_syndromes_.push_back(pool[best]);
      for (unsigned r = 0; r < check_bits_; ++r) {
        if (get_bit(pool[best], r)) ++row_load[r];
      }
    }
  }
  // Check columns are the unit vectors, appended after the data span.
  for (unsigned i = 0; i < check_bits_; ++i) {
    column_syndromes_.push_back(1u << i);
  }
  ensures(column_syndromes_.size() == codeword_bits_, "hsiao layout mismatch");

  cover_masks_.assign(check_bits_, 0);
  for (unsigned bit = 0; bit < data_bits_; ++bit) {
    for (unsigned r = 0; r < check_bits_; ++r) {
      if (get_bit(column_syndromes_[bit], r)) {
        cover_masks_[r] |= word_t{1} << bit;
      }
    }
  }

  std::vector<word_t> units;
  for (unsigned bit = 0; bit < data_bits_; ++bit) {
    data_columns_.push_back(bit);  // identity layout
    units.push_back(encode_reference(word_t{1} << bit));
  }
  compile(1, units);
}

word_t hsiao_code::encode_reference(word_t data) const {
  data &= word_mask(data_bits_);
  word_t cw = data;
  for (unsigned r = 0; r < check_bits_; ++r) {
    if (parity(data & cover_masks_[r])) {
      cw |= word_t{1} << (data_bits_ + r);
    }
  }
  return cw;
}

ecc_decode_result hsiao_code::decode_reference(word_t stored) const {
  stored &= word_mask(codeword_bits_);
  unsigned syndrome = 0;
  for (unsigned column = 0; column < codeword_bits_; ++column) {
    if (get_bit(stored, column)) syndrome ^= column_syndromes_[column];
  }
  if (syndrome == 0) return {extract_data(stored), ecc_status::clean};
  for (unsigned column = 0; column < codeword_bits_; ++column) {
    if (column_syndromes_[column] == syndrome) {
      return {extract_data(flip_bit(stored, column)), ecc_status::corrected};
    }
  }
  return {extract_data(stored), ecc_status::detected_uncorrectable};
}

}  // namespace urmem
