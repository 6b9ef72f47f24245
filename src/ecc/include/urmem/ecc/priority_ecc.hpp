// Priority-based ECC (P-ECC) — the prior-art baseline of the paper
// (Sec. 2, refs [4, 12]).
//
// P-ECC protects only the bits "that play a more significant role in
// shaping the output quality": the upper half of each word is encoded
// with a SECDED code, the lower half is stored raw. For the paper's
// 32-bit words this is an H(22,16) code over the 16 MSBs, giving a
// 38-column storage row:
//
//   column 0 .. u-1        : unprotected low-order data bits (u = 16)
//   column u .. u+n-1      : H(22,16) codeword of the high-order bits
//
// A fault in the unprotected region corrupts a bit of significance
// < 2^u; a single fault in the codeword region is corrected; a double
// fault there is detected but leaves the high-order bits exposed — the
// failure mode the bit-shuffling scheme avoids.
#pragma once

#include <cstdint>

#include "urmem/common/bitops.hpp"
#include "urmem/ecc/hamming_secded.hpp"

namespace urmem {

/// Unequal-error-protection codec: SECDED on the MSB half, raw LSBs.
class priority_ecc {
 public:
  /// Protects the top `protected_bits` of a `word_bits`-wide word.
  /// `0 < protected_bits < word_bits`; the codeword must fit 64 columns.
  explicit priority_ecc(unsigned word_bits = 32, unsigned protected_bits = 16);

  [[nodiscard]] unsigned word_bits() const { return word_bits_; }
  [[nodiscard]] unsigned protected_bits() const { return protected_bits_; }
  [[nodiscard]] unsigned unprotected_bits() const { return word_bits_ - protected_bits_; }

  /// storage_bits() of priority_ecc(word_bits, protected_bits).
  [[nodiscard]] static unsigned storage_bits_for(unsigned word_bits,
                                                 unsigned protected_bits) {
    return word_bits - protected_bits +
           hamming_secded::codeword_bits_for(protected_bits);
  }

  /// Total storage columns per row, e.g. 38 for the H(22,16) default.
  [[nodiscard]] unsigned storage_bits() const {
    return unprotected_bits() + code_.codeword_bits();
  }

  /// The inner SECDED code (H(22,16) by default).
  [[nodiscard]] const hamming_secded& inner_code() const { return code_; }

  /// Encodes a data word into its 38-column stored form. Inline so the
  /// block codec path composes on the inner code's compiled tables
  /// without a call per word.
  [[nodiscard]] word_t encode(word_t data) const {
    data &= word_mask(word_bits_);
    const unsigned u = unprotected_bits();
    return (data & word_mask(u)) | (code_.encode(data >> u) << u);
  }

  /// Decodes a stored row; status reflects the inner SECDED verdict
  /// (faults in the unprotected region are invisible to it).
  [[nodiscard]] ecc_decode_result decode(word_t stored) const {
    const unsigned u = unprotected_bits();
    const word_t low = stored & word_mask(u);
    const ecc_decode_result inner = code_.decode(stored >> u);
    return {low | (inner.data << u), inner.status};
  }

  /// Reference encode/decode: same split, inner code's per-bit walk.
  /// The oracle the compiled path is proven bit-identical against.
  [[nodiscard]] word_t encode_reference(word_t data) const;
  [[nodiscard]] ecc_decode_result decode_reference(word_t stored) const;

  /// Logical data bit stored at `column`, or -1 when the column holds a
  /// check bit of the inner code. Unprotected columns map to bits
  /// 0..u-1, codeword data columns map to bits u..W-1.
  [[nodiscard]] int data_bit_at_column(unsigned column) const;

  /// True when `column` belongs to the protected codeword region.
  [[nodiscard]] bool is_protected_column(unsigned column) const {
    return column >= unprotected_bits();
  }

 private:
  unsigned word_bits_;
  unsigned protected_bits_;
  hamming_secded code_;
};

}  // namespace urmem
