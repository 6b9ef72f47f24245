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
// single run.
//
// The compiled encode/decode comes from linear_code: each column's
// syndrome is its p-bit polynomial remainder plus the overall parity at
// bit p, so the correction LUT is a dense 2^(p+1). The per-bit walks
// survive as encode_reference / decode_reference, where the reference
// decoder searches error patterns by brute force instead of consulting
// the dense table.
#pragma once

#include <cstdint>
#include <optional>

#include "urmem/common/bitops.hpp"
#include "urmem/ecc/linear_code.hpp"

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
class bch_code : public linear_code {
 public:
  /// Largest supported correction strength.
  static constexpr unsigned max_t = 3;

  /// Builds the code for `data_bits` >= 1 and t in [1, max_t]
  /// (bch_design_for must succeed) and compiles its LUTs.
  bch_code(unsigned data_bits, unsigned t);

  /// GF(2^m) field degree.
  [[nodiscard]] unsigned field_bits() const { return design_.field_bits; }

  /// Polynomial check bits p = deg g(x) (overall parity not included).
  [[nodiscard]] unsigned parity_bits() const { return design_.parity_bits; }

  /// Number of check bits including the overall parity bit (p + 1).
  [[nodiscard]] unsigned check_bits() const { return design_.parity_bits + 1; }

  /// Reference encode: bit-serial polynomial division by g(x) plus the
  /// parity rail. Bit-identical to encode().
  [[nodiscard]] word_t encode_reference(word_t data) const;

  /// Reference decode: per-bit syndrome walk + brute-force search over
  /// <= t-bit error patterns, bit-identical to decode() (data and
  /// status) — the oracle for the dense correction table.
  [[nodiscard]] ecc_decode_result decode_reference(word_t stored) const;

 private:
  bch_design design_;
  std::uint64_t generator_ = 0;
};

/// The double-error-correcting code for 32-bit words: BCH(45,32,t=2).
[[nodiscard]] inline bch_code make_bch45_32() { return bch_code(32, 2); }

}  // namespace urmem
