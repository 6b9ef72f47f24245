// Tests for the fixed-point codec and the console table formatter.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <vector>

#include "urmem/common/fixed_point.hpp"
#include "urmem/common/rng.hpp"
#include "urmem/common/table.hpp"

namespace urmem {
namespace {

// The codec's original arithmetic, kept here as the oracle: divide by
// the scale to decode, std::nearbyint then saturate to encode.
double decode_by_division(const fixed_point_codec& codec, word_t stored) {
  return static_cast<double>(to_signed(stored, codec.width())) / codec.scale();
}

word_t encode_by_nearbyint(const fixed_point_codec& codec, double value) {
  const double scaled = std::nearbyint(value * codec.scale());
  const auto max_raw = static_cast<std::int64_t>(word_mask(codec.width() - 1));
  const std::int64_t min_raw = -max_raw - 1;
  std::int64_t raw;
  if (scaled >= static_cast<double>(max_raw)) {
    raw = max_raw;
  } else if (scaled <= static_cast<double>(min_raw)) {
    raw = min_raw;
  } else {
    raw = static_cast<std::int64_t>(scaled);
  }
  return from_signed(raw, codec.width());
}

// Every width 2..64 with the extreme fractional splits and a middle one.
std::vector<fixed_point_codec> codec_sweep() {
  std::vector<fixed_point_codec> codecs;
  codecs.reserve(63 * 5);
  for (unsigned width = 2; width <= 64; ++width) {
    for (const unsigned frac : {0u, 1u, width / 2, width - 2, width - 1}) {
      if (frac < width) codecs.emplace_back(width, frac);
    }
  }
  return codecs;
}

TEST(FixedPointTest, Q16RoundTripWithinResolution) {
  const fixed_point_codec codec(32, 16);
  for (const double v : {0.0, 1.0, -1.0, 3.14159, -2.71828, 1000.5, -20000.25}) {
    const double decoded = codec.decode(codec.encode(v));
    EXPECT_NEAR(decoded, v, codec.resolution() / 2.0 + 1e-12) << "v=" << v;
  }
}

TEST(FixedPointTest, ResolutionAndRange) {
  const fixed_point_codec codec(32, 16);
  EXPECT_DOUBLE_EQ(codec.resolution(), 1.0 / 65536.0);
  EXPECT_NEAR(codec.max_value(), 32768.0, 1.0);
  EXPECT_NEAR(codec.min_value(), -32768.0, 1.0);
}

TEST(FixedPointTest, SaturatesOutOfRange) {
  const fixed_point_codec codec(32, 16);
  EXPECT_DOUBLE_EQ(codec.decode(codec.encode(1e9)), codec.max_value());
  EXPECT_DOUBLE_EQ(codec.decode(codec.encode(-1e9)), codec.min_value());
}

TEST(FixedPointTest, NegativeValuesUseTwosComplement) {
  const fixed_point_codec codec(32, 16);
  const word_t encoded = codec.encode(-1.0);
  // -1.0 * 2^16 = -65536 -> 0xFFFF0000 in 32-bit two's complement.
  EXPECT_EQ(encoded, 0xFFFF0000ULL);
}

TEST(FixedPointTest, IntegerOnlyFormat) {
  const fixed_point_codec codec(16, 0);
  EXPECT_EQ(codec.encode(42.4), from_signed(42, 16));
  EXPECT_EQ(codec.encode(42.6), from_signed(43, 16));
  EXPECT_DOUBLE_EQ(codec.decode(from_signed(-5, 16)), -5.0);
}

TEST(FixedPointTest, MsbFlipIsLargestError) {
  // A fault in the sign bit of Q15.16 changes the value by 2^15 — the
  // 2^b error-magnitude convention of Eq. (6).
  const fixed_point_codec codec(32, 16);
  const word_t clean = codec.encode(1.5);
  const word_t corrupted = flip_bit(clean, 31);
  EXPECT_NEAR(std::abs(codec.decode(corrupted) - 1.5), 32768.0, 1e-9);
}

TEST(FixedPointTest, DecodeMatchesDivisionBitForBit) {
  rng gen(21);
  for (const fixed_point_codec& codec : codec_sweep()) {
    const unsigned w = codec.width();
    const word_t most_negative = word_t{1} << (w - 1);
    std::vector<word_t> words{0, 1, word_mask(w), word_mask(w - 1),
                              most_negative, most_negative | 1U};
    for (int i = 0; i < 64; ++i) words.push_back(gen() & word_mask(w));
    for (const word_t word : words) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(codec.decode(word)),
                std::bit_cast<std::uint64_t>(decode_by_division(codec, word)))
          << "width " << w << " frac " << codec.frac_bits() << " word 0x"
          << std::hex << word;
    }
  }
}

TEST(FixedPointTest, EncodeRoundsHalfToEven) {
  const fixed_point_codec codec(16, 0);
  EXPECT_EQ(codec.encode(0.5), from_signed(0, 16));
  EXPECT_EQ(codec.encode(1.5), from_signed(2, 16));
  EXPECT_EQ(codec.encode(2.5), from_signed(2, 16));
  EXPECT_EQ(codec.encode(3.5), from_signed(4, 16));
  EXPECT_EQ(codec.encode(-0.5), from_signed(0, 16));
  EXPECT_EQ(codec.encode(-1.5), from_signed(-2, 16));
  EXPECT_EQ(codec.encode(-2.5), from_signed(-2, 16));
  EXPECT_EQ(codec.encode(std::nextafter(0.5, 1.0)), from_signed(1, 16));
  EXPECT_EQ(codec.encode(std::nextafter(-2.5, -3.0)), from_signed(-3, 16));
  const fixed_point_codec q16(32, 16);
  EXPECT_EQ(q16.encode(2.5 / 65536.0), from_signed(2, 32));
  EXPECT_EQ(q16.encode(-3.5 / 65536.0), from_signed(-4, 32));
}

TEST(FixedPointTest, EncodeMatchesNearbyintBitForBit) {
  rng gen(22);
  for (const fixed_point_codec& codec : codec_sweep()) {
    const double step = codec.resolution();
    const double top = codec.max_value();
    const double bottom = codec.min_value();
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> values{0.0,  -0.0,  0.3 * step, -0.3 * step,
                               inf,  -inf,  1e300,      -1e300};
    // Half-way points and their neighbours, small and near the range ends.
    for (const double k : {0.0, 1.0, 2.0, 7.0}) {
      for (const double sign : {1.0, -1.0}) {
        const double half = sign * (k + 0.5) * step;
        values.insert(values.end(), {half, std::nextafter(half, 0.0),
                                     std::nextafter(half, sign * 1e300)});
      }
    }
    // Saturation edges: the extremes, half a step beyond, one step beyond.
    for (const double edge :
         {top, top + step / 2, top + step, std::nextafter(top, 0.0), bottom,
          bottom - step / 2, bottom - step, std::nextafter(bottom, 0.0)}) {
      values.push_back(edge);
    }
    // Random values over 1.25x the representable range; above 52 bits the
    // scaled values are already integers.
    for (int i = 0; i < 64; ++i) {
      values.push_back((2.0 * gen.uniform() - 1.0) * 1.25 * top);
      values.push_back((2.0 * gen.uniform() - 1.0) * 64.0 * step);
    }
    for (const double v : values) {
      EXPECT_EQ(codec.encode(v), encode_by_nearbyint(codec, v))
          << "width " << codec.width() << " frac " << codec.frac_bits()
          << " value " << v;
    }
  }
  // Scaled values straddling 2^52 (width 64, no fraction).
  const fixed_point_codec wide(64, 0);
  for (const double v :
       {0x1p52 - 0.5, 0x1p52 - 1.5, 0x1p52, 0x1p52 + 1.0, 0x1p52 + 2.0,
        0x1p51 + 0.5, 0x1p51 + 1.5, -(0x1p52 - 0.5), -(0x1p51 + 0.5), 0x1p62,
        0x1p63, -0x1p63}) {
    EXPECT_EQ(wide.encode(v), encode_by_nearbyint(wide, v)) << "value " << v;
  }
}

TEST(FixedPointTest, RejectsBadConfiguration) {
  EXPECT_THROW(fixed_point_codec(1, 0), std::invalid_argument);
  EXPECT_THROW(fixed_point_codec(32, 32), std::invalid_argument);
  EXPECT_THROW(fixed_point_codec(65, 4), std::invalid_argument);
}

TEST(TableTest, RendersAlignedMarkdown) {
  console_table table({"scheme", "mse"});
  table.add_row({"none", "1.5"});
  table.add_row({"nFM=1", "0.001"});
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("| scheme |"), std::string::npos);
  EXPECT_NE(text.find("| nFM=1 "), std::string::npos);
  EXPECT_EQ(table.rows(), 2u);
}

TEST(TableTest, RejectsRaggedRows) {
  console_table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(FormatTest, Helpers) {
  EXPECT_EQ(format_percent(0.314159, 1), "31.4%");
  EXPECT_EQ(format_scientific(123456.0, 2), "1.23e+05");
  EXPECT_EQ(format_double(2.5, 3), "2.5");
}

}  // namespace
}  // namespace urmem
