// The compiled layer shared by every binary linear block code in urmem:
// hamming_secded, hsiao_code and bch_code are thin constructions on top
// of it (see "Compiled codec layer" in the README).
//
// Each code builds its own H-matrix, then calls compile(), which lowers
// the code into
//   * byte-sliced encode tables      — the code is linear over GF(2), so
//     encode(data) is the XOR of one table entry per data byte, built
//     from the code's own unit codewords encode_reference(1 << i);
//   * byte-sliced syndrome tables    — the syndrome of a stored word is
//     the XOR of one entry per codeword byte, built from the H-matrix
//     columns (an overall-parity row is just one more syndrome bit);
//   * a correction LUT indexed by the full syndrome, filled by
//     enumerating every error pattern of weight 1..t. The codes have
//     minimum distance >= 2t+2, so those syndromes are distinct and
//     every other nonzero syndrome keeps mask 0: decode() reports it
//     detected_uncorrectable and hands the raw data bits through;
//   * extraction runs — maximal spans of data columns holding
//     consecutive data bits, so extract_data is a handful of
//     shift/mask/or ops instead of a per-bit gather.
// Each code keeps its per-bit walks as encode_reference /
// decode_reference: independent oracles that the tests, urmem-verify,
// URMEM_FAULT_PATH=reference and the micro_codec bench prove this
// compiled path bit-identical against.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "urmem/common/bitops.hpp"

namespace urmem {

/// Outcome of an ECC decode.
enum class ecc_status : std::uint8_t {
  clean,                   ///< no error observed
  corrected,               ///< an error of weight <= t corrected
  detected_uncorrectable,  ///< error detected, raw data passed through
};

/// Decoded word plus the decoder's verdict.
struct ecc_decode_result {
  word_t data = 0;
  ecc_status status = ecc_status::clean;
};

/// Compiled encode/decode of a binary linear code whose codeword fits
/// the 64-bit carrier. Not constructible on its own: a code derives
/// from it, fills the protected geometry and calls compile().
class linear_code {
 public:
  /// Number of data bits d.
  [[nodiscard]] unsigned data_bits() const { return data_bits_; }

  /// Codeword length n (check bits included).
  [[nodiscard]] unsigned codeword_bits() const { return codeword_bits_; }

  /// Guaranteed correctable bits per word.
  [[nodiscard]] unsigned t() const { return t_; }

  /// Encodes the low `data_bits` of `data` into a codeword: one XOR per
  /// data byte through the compiled encode tables.
  [[nodiscard]] word_t encode(word_t data) const {
    data &= word_mask(data_bits_);
    word_t cw = encode_lut_[0][data & 0xffu];
    for (unsigned s = 1; s < encode_slices_; ++s) {
      cw ^= encode_lut_[s][(data >> (8 * s)) & 0xffu];
    }
    return cw;
  }

  /// Decodes a (possibly corrupted) codeword: corrects any error of
  /// weight <= t and flags every syndrome no such error explains as
  /// detected_uncorrectable, returning the raw data bits in that case.
  [[nodiscard]] ecc_decode_result decode(word_t stored) const {
    stored &= word_mask(codeword_bits_);
    std::uint32_t acc = syndrome_lut_[0][stored & 0xffu];
    for (unsigned s = 1; s < syndrome_slices_; ++s) {
      acc ^= syndrome_lut_[s][(stored >> (8 * s)) & 0xffu];
    }
    if (acc == 0) return {extract_data(stored), ecc_status::clean};
    const word_t correction = correction_mask_[acc];
    if (correction != 0) {
      return {extract_data(stored ^ correction), ecc_status::corrected};
    }
    return {extract_data(stored), ecc_status::detected_uncorrectable};
  }

  /// Extracts the data bits of a codeword without any checking, via the
  /// precompiled extraction runs (gather-free).
  [[nodiscard]] word_t extract_data(word_t codeword) const {
    word_t data = 0;
    for (unsigned i = 0; i < extract_run_count_; ++i) {
      const extract_run& run = extract_runs_[i];
      data |= ((codeword >> run.src_shift) & run.mask) << run.dst_shift;
    }
    return data;
  }

  /// Codeword column holding logical data bit `bit` (0 = LSB).
  [[nodiscard]] unsigned data_column(unsigned bit) const;

  /// Logical data bit stored at codeword column `column`, or -1 when the
  /// column holds a check bit.
  [[nodiscard]] int data_bit_at_column(unsigned column) const;

  /// H-matrix column (syndrome contribution) of each codeword column.
  /// Exposed for the hardware model and the verification harness.
  [[nodiscard]] const std::vector<std::uint32_t>& column_syndromes() const {
    return column_syndromes_;
  }

 protected:
  linear_code() = default;

  /// Lowers the code into the tables above. The deriving constructor
  /// first fills the geometry below (its reference oracle reads the
  /// same members), then passes its strength t and unit_codewords[i] =
  /// encode_reference(1 << i) for every data bit i. The syndrome width
  /// is that of the OR of the columns.
  void compile(unsigned t, std::span<const word_t> unit_codewords);

  unsigned data_bits_ = 0;
  unsigned codeword_bits_ = 0;
  std::vector<unsigned> data_columns_;  // codeword column of data bit i
  std::vector<std::uint32_t> column_syndromes_;  // per codeword column

 private:
  /// One contiguous span of data columns: codeword bits
  /// [src_shift, src_shift + popcount(mask)) land at data bits
  /// [dst_shift, ...).
  struct extract_run {
    std::uint8_t src_shift = 0;
    std::uint8_t dst_shift = 0;
    word_t mask = 0;
  };

  unsigned t_ = 0;
  unsigned encode_slices_ = 0;    // ceil(data_bits / 8)
  unsigned syndrome_slices_ = 0;  // ceil(codeword_bits / 8)
  unsigned extract_run_count_ = 0;
  // Hamming's power-of-two parity columns cut a 64-bit codeword into at
  // most five runs; the identity layouts of Hsiao and BCH need one.
  std::array<extract_run, 6> extract_runs_{};
  std::vector<int> column_to_data_bit_;  // inverse map, -1 for check columns
  std::vector<word_t> correction_mask_;  // indexed by the full syndrome
  std::array<std::array<word_t, 256>, 8> encode_lut_{};
  std::array<std::array<std::uint32_t, 256>, 8> syndrome_lut_{};
};

}  // namespace urmem
