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
// The compiled encode/decode comes from linear_code. Its H-matrix
// column for codeword column c is c's cover-mask bits plus the overall
// parity row at bit p (column 0 holds only that row), so the correction
// LUT is keyed by the full (p+1)-bit syndrome. The per-bit walks survive
// as encode_reference / decode_reference, the oracle the compiled path
// is proven bit-identical against.
//
// The H-matrix structure (cover masks, data-bit columns) is exposed for
// the hardware cost model, which derives exact XOR-tree sizes from it.
#pragma once

#include <vector>

#include "urmem/common/bitops.hpp"
#include "urmem/ecc/linear_code.hpp"

namespace urmem {

/// Extended Hamming SECDED codec for a configurable data width.
class hamming_secded : public linear_code {
 public:
  /// Widest data word whose codeword fits the 64-bit carrier.
  static constexpr unsigned max_data_bits = 57;

  /// Codeword length d + p + 1 for d data bits (smallest p: 2^p >= d+p+1).
  [[nodiscard]] static unsigned codeword_bits_for(unsigned data_bits);

  /// Builds the code for `data_bits` in [1, 57] and compiles its LUTs.
  explicit hamming_secded(unsigned data_bits);

  /// Number of check bits including the overall parity bit (c = p + 1).
  [[nodiscard]] unsigned check_bits() const { return parity_bits_ + 1; }

  /// Reference encode: the per-bit scatter + cover-mask parity walk the
  /// compiled tables were derived from. Bit-identical to encode().
  [[nodiscard]] word_t encode_reference(word_t data) const;

  /// Reference decode: per-cover-mask syndrome walk, bit-identical to
  /// decode() (data and status).
  [[nodiscard]] ecc_decode_result decode_reference(word_t stored) const;

  /// Reference per-bit extract, bit-identical to extract_data().
  [[nodiscard]] word_t extract_data_reference(word_t codeword) const;

  /// Cover mask of each Hamming parity bit over codeword columns
  /// (parity position included); drives the hardware model's XOR trees.
  [[nodiscard]] const std::vector<word_t>& parity_cover_masks() const {
    return cover_masks_;
  }

 private:
  unsigned parity_bits_;
  std::vector<word_t> cover_masks_;  // per Hamming parity bit
};

/// The paper's SECDED baseline for 32-bit words.
[[nodiscard]] inline hamming_secded make_h39_32() { return hamming_secded(32); }

/// The paper's P-ECC inner code for 16-bit half-words.
[[nodiscard]] inline hamming_secded make_h22_16() { return hamming_secded(16); }

/// A compact code for byte-granular experiments.
[[nodiscard]] inline hamming_secded make_h13_8() { return hamming_secded(8); }

}  // namespace urmem
