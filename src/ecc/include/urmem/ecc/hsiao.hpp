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
// bits columns [d, d+k) — extraction is a single run.
//
// The compiled encode/decode comes from linear_code (a 2^k correction
// LUT); the per-bit walks survive as encode_reference /
// decode_reference, the oracle it is proven bit-identical against.
#pragma once

#include <vector>

#include "urmem/common/bitops.hpp"
#include "urmem/ecc/linear_code.hpp"

namespace urmem {

/// Hsiao SEC-DED codec for a configurable data width.
class hsiao_code : public linear_code {
 public:
  /// Largest supported check-bit count (the correction LUT is 2^k).
  static constexpr unsigned max_check_bits = 12;

  /// Smallest k whose odd-weight(>=3) column pool covers `data_bits`.
  [[nodiscard]] static unsigned min_check_bits(unsigned data_bits);

  /// Builds the code for `data_bits` >= 1 (codeword must fit 64 bits)
  /// and compiles its LUTs. `check_bits` = 0 auto-sizes; an explicit
  /// value must lie in [min_check_bits(d), max_check_bits].
  explicit hsiao_code(unsigned data_bits, unsigned check_bits = 0);

  /// Number of check bits k (all of them H-matrix rows; no overall
  /// parity rail — the odd-weight columns subsume it).
  [[nodiscard]] unsigned check_bits() const { return check_bits_; }

  /// Reference encode: the per-check cover-mask parity walk the
  /// compiled tables were derived from. Bit-identical to encode().
  [[nodiscard]] word_t encode_reference(word_t data) const;

  /// Reference decode: per-bit syndrome walk + linear column search,
  /// bit-identical to decode() (data and status).
  [[nodiscard]] ecc_decode_result decode_reference(word_t stored) const;

  /// Cover mask of each check bit over the *data* word (the XOR-tree
  /// inputs); balanced across check bits by construction.
  [[nodiscard]] const std::vector<word_t>& check_cover_masks() const {
    return cover_masks_;
  }

 private:
  unsigned check_bits_;
  std::vector<word_t> cover_masks_;  // per check bit, over data bits
};

/// The classic Hsiao (39,32) code for 32-bit words.
[[nodiscard]] inline hsiao_code make_hsiao39_32() { return hsiao_code(32); }

}  // namespace urmem
