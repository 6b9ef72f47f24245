// Binary BCH codes with configurable correction strength t (paper
// Sec. 2's "stronger ECC" axis; Luo et al.'s HRM assumes DEC/TEC-class
// codes for the most-reliable tiers).
//
// Construction: over GF(2^m), the generator polynomial g(x) is the LCM
// of the minimal polynomials of alpha^1 .. alpha^{2t}, giving designed
// distance 2t+1; the code is shortened to d data bits and *extended*
// with one overall parity bit, raising the minimum distance to >= 2t+2.
// The extension is what makes the analytic residual model exact at
// k = t+1 faults: a (t+1)-bit error has the wrong overall parity for
// every <= t-bit correction candidate, so it is always flagged
// detected_uncorrectable and the decoder hands the raw data bits
// through — never a miscorrection. urmem-verify proves this by
// enumerating all nCr patterns up to t+1 bits.
//
// m auto-sizes to the smallest field with 2^m - 1 >= d + deg g; the
// whole codeword (d data + p = deg g parity + 1 overall parity) must
// fit the 64-bit carrier, which bounds t = 2 at d <= 51 and t = 3 at
// d <= 45 (t = 1 reproduces Hamming-class storage: BCH(39,32,t=1)).
//
// Layout: data bits occupy codeword columns [0, d), the p polynomial
// check bits columns [d, d+p) (column d+i holds the x^i remainder
// coefficient), the overall parity bit column d+p. Extraction is a
// single mask.
//
// Encode and decode are LUT-compiled like hamming_secded: byte-sliced
// encode tables, byte-sliced syndrome tables (p-bit polynomial
// remainder plus the overall parity packed at bit p), and a dense
// 2^(p+1) syndrome -> correction-mask LUT filled by enumerating every
// <= t-bit error pattern (unique syndromes, guaranteed by the extended
// distance). The per-bit walks survive as encode_reference /
// decode_reference, where the reference decoder searches error
// patterns by brute force instead of consulting the dense table.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "urmem/common/bitops.hpp"
#include "urmem/ecc/hamming_secded.hpp"  // ecc_status / ecc_decode_result

namespace urmem {

/// Resolved geometry of a bch_code before paying for its tables.
struct bch_design {
  unsigned data_bits = 0;
  unsigned t = 0;              ///< guaranteed correctable bits
  unsigned field_bits = 0;     ///< m of GF(2^m)
  unsigned parity_bits = 0;    ///< p = deg g(x)
  unsigned codeword_bits = 0;  ///< d + p + 1 (overall parity included)
};

/// Sizes the code for `data_bits` and strength `t`, or nullopt when no
/// field up to GF(2^8) yields a codeword fitting the 64-bit carrier.
[[nodiscard]] std::optional<bch_design> bch_design_for(unsigned data_bits,
                                                       unsigned t);

/// Parity-extended t-error-correcting BCH codec for a configurable
/// data width.
class bch_code {
 public:
  /// Largest supported correction strength.
  static constexpr unsigned max_t = 3;

  /// Builds the code for `data_bits` >= 1 and t in [1, max_t]
  /// (bch_design_for must succeed) and compiles its LUTs.
  bch_code(unsigned data_bits, unsigned t);

  /// Number of data bits d.
  [[nodiscard]] unsigned data_bits() const { return design_.data_bits; }

  /// Guaranteed correctable bits per word.
  [[nodiscard]] unsigned t() const { return design_.t; }

  /// GF(2^m) field degree.
  [[nodiscard]] unsigned field_bits() const { return design_.field_bits; }

  /// Polynomial check bits p = deg g(x) (overall parity not included).
  [[nodiscard]] unsigned parity_bits() const { return design_.parity_bits; }

  /// Number of check bits including the overall parity bit (p + 1).
  [[nodiscard]] unsigned check_bits() const { return design_.parity_bits + 1; }

  /// Codeword length n = d + p + 1, e.g. 45 for d=32, t=2.
  [[nodiscard]] unsigned codeword_bits() const {
    return design_.codeword_bits;
  }

  /// Encodes the low `data_bits` of `data` into a codeword: one XOR per
  /// data byte through the compiled encode tables.
  [[nodiscard]] word_t encode(word_t data) const {
    data &= word_mask(design_.data_bits);
    word_t cw = encode_lut_[0][data & 0xffu];
    for (unsigned s = 1; s < encode_slices_; ++s) {
      cw ^= encode_lut_[s][(data >> (8 * s)) & 0xffu];
    }
    return cw;
  }

  /// Decodes a (possibly corrupted) codeword; corrects any <= t-bit
  /// error, flags every (t+1)-bit error as detected_uncorrectable and
  /// returns the raw data bits unmodified in that case. Byte-sliced
  /// syndrome tables + the dense 2^(p+1) correction-mask LUT.
  [[nodiscard]] ecc_decode_result decode(word_t stored) const {
    stored &= word_mask(design_.codeword_bits);
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

  /// Extracts the data bits of a codeword without any checking: the
  /// data columns are the contiguous low span, so one mask suffices.
  [[nodiscard]] word_t extract_data(word_t codeword) const {
    return codeword & word_mask(design_.data_bits);
  }

  /// Reference encode: bit-serial polynomial division by g(x) plus the
  /// parity rail. Bit-identical to encode().
  [[nodiscard]] word_t encode_reference(word_t data) const;

  /// Reference decode: per-bit syndrome walk + brute-force search over
  /// <= t-bit error patterns, bit-identical to decode() (data and
  /// status) — the oracle for the dense correction table.
  [[nodiscard]] ecc_decode_result decode_reference(word_t stored) const;

  /// Codeword column holding logical data bit `bit` (identity layout).
  [[nodiscard]] unsigned data_column(unsigned bit) const;

  /// Logical data bit stored at codeword column `column`, or -1 when
  /// the column holds a check bit.
  [[nodiscard]] int data_bit_at_column(unsigned column) const;

  /// Per-column syndrome contribution: polynomial remainder in bits
  /// [0, p), overall parity at bit p. Exposed for the verification
  /// harness.
  [[nodiscard]] const std::vector<std::uint32_t>& column_syndromes() const {
    return column_syndromes_;
  }

 private:
  void compile_tables();

  bch_design design_;
  std::uint64_t generator_ = 0;
  std::vector<std::uint32_t> column_syndromes_;  // per codeword column

  unsigned encode_slices_ = 0;    // ceil(data_bits / 8)
  unsigned syndrome_slices_ = 0;  // ceil(codeword_bits / 8)
  std::array<std::array<word_t, 256>, 8> encode_lut_{};
  std::array<std::array<std::uint32_t, 256>, 8> syndrome_lut_{};
  std::vector<word_t> correction_mask_;  // indexed by (parity<<p)|syndrome
};

/// The double-error-correcting code for 32-bit words: BCH(45,32,t=2).
[[nodiscard]] inline bch_code make_bch45_32() { return bch_code(32, 2); }

}  // namespace urmem
