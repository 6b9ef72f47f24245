// Two's-complement fixed-point codec.
//
// The application experiments (paper Sec. 5.2) store training data as
// 32-bit two's-complement integers in the faulty memory. This codec maps
// real-valued features to/from Q(width - frac_bits - 1).frac_bits words,
// saturating out-of-range values — the same convention the error-magnitude
// model of Eq. (6) assumes (a fault at bit b costs 2^b).
#pragma once

#include <cmath>
#include <cstdint>

#include "urmem/common/bitops.hpp"
#include "urmem/common/contracts.hpp"

namespace urmem {

/// Converts between doubles and fixed-point memory words.
class fixed_point_codec {
 public:
  /// `width` total bits (2..64) including the sign bit; `frac_bits`
  /// fractional bits (0 <= frac_bits < width).
  fixed_point_codec(unsigned width, unsigned frac_bits)
      : width_(width),
        frac_bits_(frac_bits),
        resolution_(std::ldexp(1.0, -static_cast<int>(frac_bits))) {
    expects(width >= 2 && width <= max_word_width, "fixed-point width must be 2..64");
    expects(frac_bits < width, "fractional bits must leave room for the sign");
  }

  [[nodiscard]] constexpr unsigned width() const { return width_; }
  [[nodiscard]] constexpr unsigned frac_bits() const { return frac_bits_; }

  /// Scale factor 2^frac_bits.
  [[nodiscard]] constexpr double scale() const {
    return static_cast<double>(word_t{1} << frac_bits_);
  }

  /// Largest representable value.
  [[nodiscard]] constexpr double max_value() const {
    return static_cast<double>(max_raw()) / scale();
  }

  /// Smallest (most negative) representable value.
  [[nodiscard]] constexpr double min_value() const {
    return static_cast<double>(min_raw()) / scale();
  }

  /// Quantization step 2^-frac_bits (exact).
  [[nodiscard]] constexpr double resolution() const { return resolution_; }

  /// Encodes `value` into a `width`-bit two's-complement word
  /// (round-to-nearest, ties to even, saturating).
  [[nodiscard]] word_t encode(double value) const {
    const double scaled = round_half_even(value * scale());
    std::int64_t raw;
    if (scaled >= static_cast<double>(max_raw())) {
      raw = max_raw();
    } else if (scaled <= static_cast<double>(min_raw())) {
      raw = min_raw();
    } else {
      raw = static_cast<std::int64_t>(scaled);
    }
    return from_signed(raw, width_);
  }

  /// Decodes a `width`-bit two's-complement word back to a double.
  /// Scaling by a power of two is exact, so multiplying by 2^-frac_bits
  /// equals dividing by scale() bit for bit.
  [[nodiscard]] constexpr double decode(word_t stored) const {
    return static_cast<double>(to_signed(stored, width_)) * resolution_;
  }

 private:
  /// std::nearbyint under the default rounding mode, without the libm
  /// call: below 2^52, adding and subtracting 2^52 rounds |x| to an
  /// integer with ties to even; at or above it every double is already
  /// an integer (NaN passes through). copysign keeps -0.0 for small
  /// negative inputs, as nearbyint does.
  [[nodiscard]] static double round_half_even(double x) {
    constexpr double two52 = 0x1p52;
    const double magnitude = std::abs(x);
    if (!(magnitude < two52)) return x;
    return std::copysign((magnitude + two52) - two52, x);
  }

  [[nodiscard]] constexpr std::int64_t max_raw() const {
    return static_cast<std::int64_t>(word_mask(width_ - 1));
  }
  [[nodiscard]] constexpr std::int64_t min_raw() const { return -max_raw() - 1; }

  unsigned width_;
  unsigned frac_bits_;
  double resolution_;  // 2^-frac_bits
};

}  // namespace urmem
