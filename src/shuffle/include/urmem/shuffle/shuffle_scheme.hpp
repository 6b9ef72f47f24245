// The complete bit-shuffling error-mitigation scheme (paper Sec. 3):
// bit_shuffler (segment math) + fm_lut (per-row shift indices) +
// shift_policy (BIST programming rule).
//
// Usage mirrors the hardware: program() once from the BIST-discovered
// fault map, then apply_write()/restore_read() on every access.
#pragma once

#include <cstdint>
#include <span>

#include "urmem/memory/fault_map.hpp"
#include "urmem/shuffle/bit_shuffler.hpp"
#include "urmem/shuffle/fm_lut.hpp"
#include "urmem/shuffle/shift_policy.hpp"

namespace urmem {

/// Significance-driven bit-shuffling for one memory instance.
class shuffle_scheme {
 public:
  /// Scheme for `rows` rows of `width` bits with nFM-bit LUT entries.
  shuffle_scheme(std::uint32_t rows, unsigned width, unsigned n_fm,
                 shift_policy policy = shift_policy::min_mse);

  [[nodiscard]] const bit_shuffler& shuffler() const { return shuffler_; }
  [[nodiscard]] const fm_lut& lut() const { return lut_; }

  /// Mutable LUT access for the faulty-LUT ablation study.
  [[nodiscard]] fm_lut& mutable_lut() { return lut_; }

  /// Programs the LUT from a fault map (as BIST would after discovering
  /// the faulty cells). Only the data columns [0, width) are considered.
  void program(const fault_map& faults);

  /// Rotation applied to row `row` (Eq. 2).
  [[nodiscard]] unsigned shift_for_row(std::uint32_t row) const {
    return shuffler_.shift_amount(lut_.get(row));
  }

  /// Write path: rotate `data` right by the row's shift.
  [[nodiscard]] word_t apply_write(std::uint32_t row, word_t data) const {
    return shuffler_.apply(data, lut_.get(row));
  }

  /// Read path: rotate `stored` left by the row's shift.
  [[nodiscard]] word_t restore_read(std::uint32_t row, word_t stored) const {
    return shuffler_.restore(stored, lut_.get(row));
  }

  /// Batched write path over rows [first, first + data.size()):
  /// out[i] = apply_write(first + i, data[i]). Pure arithmetic over the
  /// precomputed shift table and the raw LUT entries (both range-safe
  /// by construction); `out` may alias `data`. Spans are length-checked
  /// once per call.
  void apply_write_block(std::uint32_t first, std::span<const word_t> data,
                         std::span<word_t> out) const;

  /// Batched read path: out[i] = restore_read(first + i, stored[i]);
  /// `out` may alias `stored`.
  void restore_read_block(std::uint32_t first, std::span<const word_t> stored,
                          std::span<word_t> out) const;

 private:
  bit_shuffler shuffler_;
  fm_lut lut_;
  shift_policy policy_;
};

}  // namespace urmem
