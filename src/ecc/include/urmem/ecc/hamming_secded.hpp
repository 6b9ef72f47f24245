// Single-error-correcting, double-error-detecting Hamming codes
// (paper Sec. 2 — the classical ECC baseline).
//
// The extended Hamming construction: for d data bits, p Hamming parity
// bits (smallest p with 2^p >= d + p + 1) sit at the power-of-two
// positions of the codeword, and one overall parity bit extends the
// minimum distance to 4. Instantiations used by the paper:
//
//   H(39,32) — d=32, p=6 (+1 overall)  : the SECDED baseline
//   H(22,16) — d=16, p=5 (+1 overall)  : the P-ECC inner code [4, 12]
//
// Codewords are carried in a 64-bit word, so data widths up to 57 bits
// are supported — enough for any row that fits the sram_array model.
//
// Encode and decode are LUT-compiled (see "Compiled codec layer" in the
// README): the code is linear over GF(2), so the constructor lowers the
// H-matrix into
//   * byte-sliced encode tables      — encode(data) is the XOR of one
//     table entry per data byte, no per-bit scatter;
//   * byte-sliced syndrome tables    — syndrome + overall parity of a
//     stored word is the XOR of one entry per codeword byte;
//   * a syndrome -> correction-mask LUT of size 2^p;
//   * compaction runs for extract_data — the data columns form at most
//     five contiguous runs between parity columns, so extraction is a
//     handful of shift/mask/or ops instead of a per-bit gather.
// The original per-bit walks survive as encode_reference /
// decode_reference: the oracle the tests and the micro_codec bench
// prove the compiled path bit-identical against (and the scalar
// baseline its speedup is measured over).
//
// The H-matrix structure (cover masks, data-bit columns) is exposed for
// the hardware cost model, which derives exact XOR-tree sizes from it.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "urmem/common/bitops.hpp"

namespace urmem {

/// Outcome of a SECDED decode.
enum class ecc_status : std::uint8_t {
  clean,                   ///< no error observed
  corrected,               ///< single error corrected
  detected_uncorrectable,  ///< double (or wider even-weight) error detected
};

/// Decoded word plus the decoder's verdict.
struct ecc_decode_result {
  word_t data = 0;
  ecc_status status = ecc_status::clean;
};

/// Extended Hamming SECDED codec for a configurable data width.
class hamming_secded {
 public:
  /// Widest data word whose codeword fits the 64-bit carrier.
  static constexpr unsigned max_data_bits = 57;

  /// Codeword length d + p + 1 for d data bits (smallest p: 2^p >= d+p+1).
  [[nodiscard]] static unsigned codeword_bits_for(unsigned data_bits);

  /// Builds the code for `data_bits` in [1, 57] and compiles its LUTs.
  explicit hamming_secded(unsigned data_bits);

  /// Number of data bits d.
  [[nodiscard]] unsigned data_bits() const { return data_bits_; }

  /// Guaranteed correctable bits per word (SEC-DED: 1).
  [[nodiscard]] static constexpr unsigned t() { return 1; }

  /// Number of check bits including the overall parity bit (c = p + 1).
  [[nodiscard]] unsigned check_bits() const { return parity_bits_ + 1; }

  /// Codeword length n = d + p + 1, e.g. 39 for d=32, 22 for d=16.
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
  /// syndrome tables + the 2^p correction-mask LUT — no per-bit loop.
  [[nodiscard]] ecc_decode_result decode(word_t stored) const {
    stored &= word_mask(codeword_bits_);
    unsigned acc = syndrome_lut_[0][stored & 0xffu];
    for (unsigned s = 1; s < syndrome_slices_; ++s) {
      acc ^= syndrome_lut_[s][(stored >> (8 * s)) & 0xffu];
    }
    const unsigned syndrome = acc & syndrome_mask_;
    const bool overall_odd = (acc & overall_parity_flag) != 0;
    if (syndrome == 0) {
      // Either clean, or the overall parity bit itself flipped — the
      // data bits are intact in both cases.
      return {extract_data(stored),
              overall_odd ? ecc_status::corrected : ecc_status::clean};
    }
    if (overall_odd) {
      // Odd-weight error with nonzero syndrome: a single-bit error at
      // codeword position `syndrome` — unless the syndrome points past
      // the codeword (correction mask 0), which only a multi-bit error
      // can produce.
      const word_t correction = correction_mask_[syndrome];
      if (correction != 0) {
        return {extract_data(stored ^ correction), ecc_status::corrected};
      }
      return {extract_data(stored), ecc_status::detected_uncorrectable};
    }
    // Even-weight error (two bit flips): detected, not correctable.
    return {extract_data(stored), ecc_status::detected_uncorrectable};
  }

  /// Extracts the data bits of a codeword without any checking, via the
  /// precompiled compaction runs (gather-free).
  [[nodiscard]] word_t extract_data(word_t codeword) const {
    word_t data = 0;
    for (unsigned i = 0; i < extract_run_count_; ++i) {
      const extract_run& run = extract_runs_[i];
      data |= ((codeword >> run.src_shift) & run.mask) << run.dst_shift;
    }
    return data;
  }

  /// Reference encode: the per-bit scatter + cover-mask parity walk the
  /// compiled tables were derived from. Bit-identical to encode().
  [[nodiscard]] word_t encode_reference(word_t data) const;

  /// Reference decode: per-cover-mask syndrome walk, bit-identical to
  /// decode() (data and status).
  [[nodiscard]] ecc_decode_result decode_reference(word_t stored) const;

  /// Reference per-bit extract, bit-identical to extract_data().
  [[nodiscard]] word_t extract_data_reference(word_t codeword) const;

  /// Codeword column holding logical data bit `bit` (0 = LSB).
  [[nodiscard]] unsigned data_column(unsigned bit) const;

  /// Logical data bit stored at codeword column `column`, or -1 when the
  /// column holds a check bit.
  [[nodiscard]] int data_bit_at_column(unsigned column) const;

  /// Cover mask of each Hamming parity bit over codeword columns
  /// (parity position included); drives the hardware model's XOR trees.
  [[nodiscard]] const std::vector<word_t>& parity_cover_masks() const {
    return cover_masks_;
  }

 private:
  /// One contiguous span of data columns: codeword bits
  /// [src_shift, src_shift + popcount(mask)) land at data bits
  /// [dst_shift, ...).
  struct extract_run {
    std::uint8_t src_shift = 0;
    std::uint8_t dst_shift = 0;
    word_t mask = 0;
  };

  /// Overall-parity flag bit inside a syndrome_lut_ entry (syndromes
  /// occupy bits [0, p) with p <= 6).
  static constexpr unsigned overall_parity_flag = 0x80u;

  void compile_tables();

  unsigned data_bits_;
  unsigned parity_bits_;
  unsigned codeword_bits_;
  std::vector<unsigned> data_columns_;   // codeword column of data bit i
  std::vector<int> column_to_data_bit_;  // inverse map, -1 for check columns
  std::vector<word_t> cover_masks_;      // per Hamming parity bit

  // Compiled form (see compile_tables): fixed-capacity tables sized for
  // the 64-bit carrier so construction never allocates for them.
  unsigned encode_slices_ = 0;    // ceil(data_bits / 8)
  unsigned syndrome_slices_ = 0;  // ceil(codeword_bits / 8)
  unsigned extract_run_count_ = 0;
  unsigned syndrome_mask_ = 0;  // (1 << parity_bits) - 1
  std::array<std::array<word_t, 256>, 8> encode_lut_{};
  std::array<std::array<std::uint8_t, 256>, 8> syndrome_lut_{};
  std::array<word_t, 64> correction_mask_{};  // indexed by syndrome
  std::array<extract_run, 6> extract_runs_{};
};

/// The paper's SECDED baseline for 32-bit words.
[[nodiscard]] inline hamming_secded make_h39_32() { return hamming_secded(32); }

/// The paper's P-ECC inner code for 16-bit half-words.
[[nodiscard]] inline hamming_secded make_h22_16() { return hamming_secded(16); }

/// A compact code for byte-granular experiments.
[[nodiscard]] inline hamming_secded make_h13_8() { return hamming_secded(8); }

}  // namespace urmem
