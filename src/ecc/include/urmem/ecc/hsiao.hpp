// Hsiao SEC-DED codes — the odd-weight-column variant of the extended
// Hamming construction (Hsiao, IBM JRD 1970) that real SRAM macros use.
//
// Every column of the parity-check matrix H has odd weight: check
// columns are the k unit vectors, data columns are distinct odd-weight
// (>= 3) k-bit vectors picked weight-3-first and balanced across the
// check rows, which minimizes and equalizes the XOR-tree depth per
// check bit. Odd columns make every single-bit error produce an
// odd-weight syndrome and every double-bit error an even-weight (and
// provably nonzero) one, so SEC-DED needs no separate overall-parity
// rail — the whole-word parity of the classical extended Hamming code
// is folded into the columns.
//
// The check-bit count auto-sizes to the smallest k whose odd-weight
// column pool 2^(k-1) - k covers the data width (k = 7 for d = 32:
// the Hsiao (39,32) code, same storage as H(39,32)); a wider k can be
// requested explicitly to study the area/strength trade.
//
// Layout: data bits occupy codeword columns [0, d) in order, check
// bits columns [d, d+k) — extraction is a single mask, no compaction
// runs needed.
//
// Encode and decode are LUT-compiled exactly like hamming_secded:
// byte-sliced encode tables, byte-sliced syndrome tables, and a
// 2^k syndrome -> correction-mask LUT. The per-bit walks survive as
// encode_reference / decode_reference, the oracle the compiled path is
// proven bit-identical against (tests, micro_codec, urmem-verify).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "urmem/common/bitops.hpp"
#include "urmem/ecc/hamming_secded.hpp"  // ecc_status / ecc_decode_result

namespace urmem {

/// Hsiao SEC-DED codec for a configurable data width.
class hsiao_code {
 public:
  /// Largest supported check-bit count (the correction LUT is 2^k).
  static constexpr unsigned max_check_bits = 12;

  /// Smallest k whose odd-weight(>=3) column pool covers `data_bits`.
  [[nodiscard]] static unsigned min_check_bits(unsigned data_bits);

  /// Builds the code for `data_bits` >= 1 (codeword must fit 64 bits)
  /// and compiles its LUTs. `check_bits` = 0 auto-sizes; an explicit
  /// value must lie in [min_check_bits(d), max_check_bits].
  explicit hsiao_code(unsigned data_bits, unsigned check_bits = 0);

  /// Number of data bits d.
  [[nodiscard]] unsigned data_bits() const { return data_bits_; }

  /// Guaranteed correctable bits per word (SEC-DED: 1).
  [[nodiscard]] static constexpr unsigned t() { return 1; }

  /// Number of check bits k (all of them H-matrix rows; no overall
  /// parity rail — the odd-weight columns subsume it).
  [[nodiscard]] unsigned check_bits() const { return check_bits_; }

  /// Codeword length n = d + k, e.g. 39 for d=32.
  [[nodiscard]] unsigned codeword_bits() const { return codeword_bits_; }

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

  /// Decodes a (possibly corrupted) codeword; corrects any single-bit
  /// error, flags any double-bit error as detected_uncorrectable and
  /// returns the raw data bits unmodified in that case. Byte-sliced
  /// syndrome tables + the 2^k correction-mask LUT — no per-bit loop.
  [[nodiscard]] ecc_decode_result decode(word_t stored) const {
    stored &= word_mask(codeword_bits_);
    unsigned acc = syndrome_lut_[0][stored & 0xffu];
    for (unsigned s = 1; s < syndrome_slices_; ++s) {
      acc ^= syndrome_lut_[s][(stored >> (8 * s)) & 0xffu];
    }
    if (acc == 0) return {extract_data(stored), ecc_status::clean};
    // A single-bit error reproduces its (odd-weight) column; any other
    // syndrome — even-weight doubles, or odd-weight patterns matching
    // no column — only a multi-bit error can produce (mask 0).
    const word_t correction = correction_mask_[acc];
    if (correction != 0) {
      return {extract_data(stored ^ correction), ecc_status::corrected};
    }
    return {extract_data(stored), ecc_status::detected_uncorrectable};
  }

  /// Extracts the data bits of a codeword without any checking: the
  /// data columns are the contiguous low span, so one mask suffices.
  [[nodiscard]] word_t extract_data(word_t codeword) const {
    return codeword & word_mask(data_bits_);
  }

  /// Reference encode: the per-check cover-mask parity walk the
  /// compiled tables were derived from. Bit-identical to encode().
  [[nodiscard]] word_t encode_reference(word_t data) const;

  /// Reference decode: per-bit syndrome walk + linear column search,
  /// bit-identical to decode() (data and status).
  [[nodiscard]] ecc_decode_result decode_reference(word_t stored) const;

  /// Codeword column holding logical data bit `bit` (identity layout).
  [[nodiscard]] unsigned data_column(unsigned bit) const;

  /// Logical data bit stored at codeword column `column`, or -1 when
  /// the column holds a check bit.
  [[nodiscard]] int data_bit_at_column(unsigned column) const;

  /// H-matrix column (k-bit syndrome) of each codeword column; data
  /// columns first, then the unit-vector check columns. Exposed for the
  /// hardware model and the verification harness.
  [[nodiscard]] const std::vector<unsigned>& column_syndromes() const {
    return column_syndromes_;
  }

  /// Cover mask of each check bit over the *data* word (the XOR-tree
  /// inputs); balanced across check bits by construction.
  [[nodiscard]] const std::vector<word_t>& check_cover_masks() const {
    return cover_masks_;
  }

 private:
  void compile_tables();

  unsigned data_bits_;
  unsigned check_bits_;
  unsigned codeword_bits_;
  std::vector<unsigned> column_syndromes_;  // H column per codeword column
  std::vector<word_t> cover_masks_;         // per check bit, over data bits

  // Compiled form, fixed-capacity for the 64-bit carrier; the
  // correction LUT is 2^k and thus heap-allocated.
  unsigned encode_slices_ = 0;    // ceil(data_bits / 8)
  unsigned syndrome_slices_ = 0;  // ceil(codeword_bits / 8)
  std::array<std::array<word_t, 256>, 8> encode_lut_{};
  std::array<std::array<std::uint16_t, 256>, 8> syndrome_lut_{};
  std::vector<word_t> correction_mask_;  // indexed by syndrome
};

/// The classic Hsiao (39,32) code for 32-bit words.
[[nodiscard]] inline hsiao_code make_hsiao39_32() { return hsiao_code(32); }

}  // namespace urmem
