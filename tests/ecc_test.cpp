// Tests for the Hamming SECDED codecs and priority ECC: code parameters
// from the paper (Sec. 2), exhaustive single-error correction, and
// double-error detection.
#include <gtest/gtest.h>

#include <bit>
#include <set>

#include "urmem/common/rng.hpp"
#include "urmem/ecc/bch.hpp"
#include "urmem/ecc/hamming_secded.hpp"
#include "urmem/ecc/hsiao.hpp"
#include "urmem/ecc/priority_ecc.hpp"

namespace urmem {
namespace {

/// Stored words a compiled-vs-reference decode test checks: all 2^n of
/// them when the codeword has <= 16 bits, else `wide` random samples.
template <class Code>
std::uint64_t garbage_samples(const Code& code, std::uint64_t wide) {
  return code.codeword_bits() <= 16 ? std::uint64_t{1} << code.codeword_bits()
                                    : wide;
}

/// The i-th stored word of that sweep.
template <class Code>
word_t garbage_word(const Code& code, std::uint64_t i, rng& gen) {
  return code.codeword_bits() <= 16 ? i
                                    : gen() & word_mask(code.codeword_bits());
}

TEST(HammingTest, PaperCodeParameters) {
  // "For a 32-bit data word, c = 7 parity bits are needed for SECDED
  // ECC, in what is known as an H(39,32) code."
  const hamming_secded h39 = make_h39_32();
  EXPECT_EQ(h39.data_bits(), 32u);
  EXPECT_EQ(h39.check_bits(), 7u);
  EXPECT_EQ(h39.codeword_bits(), 39u);

  const hamming_secded h22 = make_h22_16();
  EXPECT_EQ(h22.data_bits(), 16u);
  EXPECT_EQ(h22.check_bits(), 6u);
  EXPECT_EQ(h22.codeword_bits(), 22u);

  const hamming_secded h13 = make_h13_8();
  EXPECT_EQ(h13.data_bits(), 8u);
  EXPECT_EQ(h13.codeword_bits(), 13u);
}

TEST(HammingTest, CleanRoundTrip) {
  const hamming_secded code(32);
  rng gen(1);
  for (int i = 0; i < 200; ++i) {
    const word_t data = gen() & word_mask(32);
    const ecc_decode_result r = code.decode(code.encode(data));
    EXPECT_EQ(r.data, data);
    EXPECT_EQ(r.status, ecc_status::clean);
  }
}

TEST(HammingTest, CodewordHasEvenWeight) {
  const hamming_secded code(32);
  rng gen(2);
  for (int i = 0; i < 100; ++i) {
    const word_t cw = code.encode(gen() & word_mask(32));
    EXPECT_EQ(std::popcount(cw) % 2, 0) << "codeword " << cw;
  }
}

TEST(HammingTest, DataColumnMapsAreConsistent) {
  const hamming_secded code(32);
  for (unsigned bit = 0; bit < 32; ++bit) {
    const unsigned col = code.data_column(bit);
    EXPECT_EQ(code.data_bit_at_column(col), static_cast<int>(bit));
    EXPECT_FALSE(col == 0 || is_power_of_two(col));
  }
  EXPECT_EQ(code.data_bit_at_column(0), -1);   // overall parity
  EXPECT_EQ(code.data_bit_at_column(1), -1);   // p0
  EXPECT_EQ(code.data_bit_at_column(2), -1);   // p1
  EXPECT_EQ(code.data_bit_at_column(4), -1);   // p2
  EXPECT_EQ(code.data_bit_at_column(32), -1);  // p5
}

/// Property: every single-bit error at every codeword position is
/// corrected, for several code sizes.
class SecdedSingleError : public ::testing::TestWithParam<unsigned> {};

TEST_P(SecdedSingleError, AllPositionsCorrected) {
  const hamming_secded code(GetParam());
  rng gen(GetParam());
  for (int trial = 0; trial < 8; ++trial) {
    const word_t data = gen() & word_mask(code.data_bits());
    const word_t cw = code.encode(data);
    for (unsigned pos = 0; pos < code.codeword_bits(); ++pos) {
      const ecc_decode_result r = code.decode(flip_bit(cw, pos));
      EXPECT_EQ(r.data, data) << "pos=" << pos;
      EXPECT_EQ(r.status, ecc_status::corrected) << "pos=" << pos;
    }
  }
}

TEST_P(SecdedSingleError, AllDoubleErrorsDetectedNotMiscorrected) {
  const hamming_secded code(GetParam());
  rng gen(GetParam() * 31);
  const word_t data = gen() & word_mask(code.data_bits());
  const word_t cw = code.encode(data);
  for (unsigned a = 0; a < code.codeword_bits(); ++a) {
    for (unsigned b = a + 1; b < code.codeword_bits(); ++b) {
      const ecc_decode_result r = code.decode(flip_bit(flip_bit(cw, a), b));
      EXPECT_EQ(r.status, ecc_status::detected_uncorrectable)
          << "a=" << a << " b=" << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CodeSizes, SecdedSingleError,
                         ::testing::Values(8u, 16u, 32u, 57u));

/// The compiled LUT paths must match the per-bit reference walks they
/// were derived from — encode, extract and decode (data AND status),
/// over clean codewords, error patterns and arbitrary garbage.
class SecdedLutVsReference : public ::testing::TestWithParam<unsigned> {};

TEST_P(SecdedLutVsReference, EncodeAndExtractMatchReference) {
  const hamming_secded code(GetParam());
  const bool exhaustive = code.data_bits() <= 16;
  const std::uint64_t samples =
      exhaustive ? (word_t{1} << code.data_bits()) : 5000;
  rng gen(GetParam() * 7 + 1);
  for (std::uint64_t i = 0; i < samples; ++i) {
    const word_t data = exhaustive ? i : (gen() & word_mask(code.data_bits()));
    const word_t cw = code.encode(data);
    ASSERT_EQ(cw, code.encode_reference(data)) << "data=" << data;
    ASSERT_EQ(code.extract_data(cw), code.extract_data_reference(cw));
    ASSERT_EQ(code.extract_data(cw), data);
  }
}

TEST_P(SecdedLutVsReference, DecodeMatchesReferenceOnAllErrorPatterns) {
  const hamming_secded code(GetParam());
  rng gen(GetParam() * 13 + 5);
  for (int trial = 0; trial < 4; ++trial) {
    const word_t cw = code.encode(gen() & word_mask(code.data_bits()));
    for (unsigned a = 0; a < code.codeword_bits(); ++a) {
      for (unsigned b = a; b < code.codeword_bits(); ++b) {
        // a == b degenerates to a single flip; otherwise a double.
        const word_t corrupted = flip_bit(cw, a) ^ (a == b ? 0 : flip_bit(word_t{0}, b));
        const ecc_decode_result fast = code.decode(corrupted);
        const ecc_decode_result ref = code.decode_reference(corrupted);
        ASSERT_EQ(fast.data, ref.data) << "a=" << a << " b=" << b;
        ASSERT_EQ(fast.status, ref.status) << "a=" << a << " b=" << b;
      }
    }
  }
}

TEST_P(SecdedLutVsReference, DecodeMatchesReferenceOnGarbageWords) {
  const hamming_secded code(GetParam());
  const std::uint64_t samples = garbage_samples(code, 5000);
  rng gen(GetParam() * 17 + 3);
  for (std::uint64_t i = 0; i < samples; ++i) {
    const word_t garbage = garbage_word(code, i, gen);
    const ecc_decode_result fast = code.decode(garbage);
    const ecc_decode_result ref = code.decode_reference(garbage);
    ASSERT_EQ(fast.data, ref.data) << "word=" << garbage;
    ASSERT_EQ(fast.status, ref.status) << "word=" << garbage;
  }
}

INSTANTIATE_TEST_SUITE_P(CodeSizes, SecdedLutVsReference,
                         ::testing::Values(1u, 8u, 16u, 32u, 57u));

TEST(PriorityEccTest, CompiledMatchesReference) {
  const priority_ecc pecc;
  rng gen(23);
  for (int i = 0; i < 2000; ++i) {
    const word_t data = gen() & word_mask(32);
    ASSERT_EQ(pecc.encode(data), pecc.encode_reference(data));
    const word_t garbage = gen() & word_mask(pecc.storage_bits());
    const ecc_decode_result fast = pecc.decode(garbage);
    const ecc_decode_result ref = pecc.decode_reference(garbage);
    ASSERT_EQ(fast.data, ref.data);
    ASSERT_EQ(fast.status, ref.status);
  }
}

TEST(HammingTest, OverallParityBitErrorKeepsDataIntact) {
  const hamming_secded code(32);
  const word_t data = 0xCAFEBABEULL & word_mask(32);
  const word_t cw = flip_bit(code.encode(data), 0);  // column 0 = overall parity
  const ecc_decode_result r = code.decode(cw);
  EXPECT_EQ(r.data, data);
  EXPECT_EQ(r.status, ecc_status::corrected);
}

TEST(HammingTest, RejectsUnsupportedWidths) {
  EXPECT_THROW(hamming_secded(0), std::invalid_argument);
  EXPECT_THROW(hamming_secded(58), std::invalid_argument);
  EXPECT_NO_THROW(hamming_secded(57));
}

// ---------------------------------------------------------------------
// Priority ECC

TEST(PriorityEccTest, PaperLayout) {
  const priority_ecc pecc;  // H(22,16) over the 16 MSBs of a 32-bit word
  EXPECT_EQ(pecc.word_bits(), 32u);
  EXPECT_EQ(pecc.protected_bits(), 16u);
  EXPECT_EQ(pecc.unprotected_bits(), 16u);
  EXPECT_EQ(pecc.storage_bits(), 38u);
  EXPECT_EQ(pecc.inner_code().codeword_bits(), 22u);
}

TEST(PriorityEccTest, CleanRoundTrip) {
  const priority_ecc pecc;
  rng gen(10);
  for (int i = 0; i < 200; ++i) {
    const word_t data = gen() & word_mask(32);
    const ecc_decode_result r = pecc.decode(pecc.encode(data));
    EXPECT_EQ(r.data, data);
    EXPECT_EQ(r.status, ecc_status::clean);
  }
}

TEST(PriorityEccTest, SingleMsbRegionFaultCorrected) {
  const priority_ecc pecc;
  const word_t data = 0x7F3CA5E1ULL;
  const word_t stored = pecc.encode(data);
  for (unsigned col = 16; col < 38; ++col) {
    const ecc_decode_result r = pecc.decode(flip_bit(stored, col));
    EXPECT_EQ(r.data, data) << "col=" << col;
    EXPECT_EQ(r.status, ecc_status::corrected) << "col=" << col;
  }
}

TEST(PriorityEccTest, LsbFaultPassesThroughWithBoundedMagnitude) {
  const priority_ecc pecc;
  const word_t data = 0x7F3CA5E1ULL;
  const word_t stored = pecc.encode(data);
  for (unsigned col = 0; col < 16; ++col) {
    const ecc_decode_result r = pecc.decode(flip_bit(stored, col));
    EXPECT_EQ(r.status, ecc_status::clean) << "invisible to the inner code";
    EXPECT_EQ(r.data ^ data, word_t{1} << col);
  }
}

TEST(PriorityEccTest, DoubleMsbFaultDetectedAndMsbHalfExposed) {
  const priority_ecc pecc;
  const word_t data = 0x12345678ULL;
  const word_t stored = pecc.encode(data);
  const ecc_decode_result r = pecc.decode(flip_bit(flip_bit(stored, 20), 30));
  EXPECT_EQ(r.status, ecc_status::detected_uncorrectable);
  // The unprotected low half is untouched in this scenario.
  EXPECT_EQ(r.data & word_mask(16), data & word_mask(16));
}

TEST(PriorityEccTest, ColumnMapCoversAllDataBits) {
  const priority_ecc pecc;
  std::vector<bool> seen(32, false);
  for (unsigned col = 0; col < pecc.storage_bits(); ++col) {
    const int bit = pecc.data_bit_at_column(col);
    if (bit >= 0) {
      EXPECT_FALSE(seen[static_cast<std::size_t>(bit)]);
      seen[static_cast<std::size_t>(bit)] = true;
      EXPECT_EQ(pecc.is_protected_column(col), bit >= 16);
    }
  }
  for (const bool s : seen) EXPECT_TRUE(s);
}

TEST(PriorityEccTest, RejectsBadConfigurations) {
  EXPECT_THROW(priority_ecc(32, 0), std::invalid_argument);
  EXPECT_THROW(priority_ecc(32, 32), std::invalid_argument);
  EXPECT_THROW(priority_ecc(64, 60), std::invalid_argument);  // > 64 columns
}

TEST(PriorityEccTest, HalfProtectedSixtyFourBitVariant) {
  // The configuration of ref. [12]: protect the 32 MSBs of a 64-bit word
  // — requires 39 + 32 = 71 columns, too wide for this model, so the
  // 32/16 default stands in; a 24-bit protected variant still fits.
  const priority_ecc wide(56, 24);
  EXPECT_EQ(wide.storage_bits(), 32u + 24u + 6u);
  const word_t data = 0xABCDEF012345ULL & word_mask(56);
  EXPECT_EQ(wide.decode(wide.encode(data)).data, data);
}

// ---------------------------------------------------------------------
// Hsiao SEC-DED: the industrial odd-weight-column Hamming variant.

TEST(HsiaoTest, PaperCodeParameters) {
  // Same storage as H(39,32): 7 check bits for 32 data bits, but no
  // separate overall-parity rail — odd-weight columns subsume it.
  const hsiao_code code = make_hsiao39_32();
  EXPECT_EQ(code.data_bits(), 32u);
  EXPECT_EQ(code.check_bits(), 7u);
  EXPECT_EQ(code.codeword_bits(), 39u);
  EXPECT_EQ(hsiao_code(16).codeword_bits(), 22u);
  EXPECT_EQ(hsiao_code(8).codeword_bits(), 13u);
}

TEST(HsiaoTest, ColumnsAreDistinctOddWeightAndBalanced) {
  const hsiao_code code(32);
  const std::vector<unsigned>& columns = code.column_syndromes();
  ASSERT_EQ(columns.size(), code.codeword_bits());
  std::set<unsigned> seen;
  for (unsigned i = 0; i < code.codeword_bits(); ++i) {
    EXPECT_EQ(std::popcount(columns[i]) % 2, 1) << "column " << i;
    EXPECT_TRUE(seen.insert(columns[i]).second) << "column " << i;
    if (i >= code.data_bits()) {
      EXPECT_TRUE(is_power_of_two(columns[i])) << "check column " << i;
    } else {
      EXPECT_GE(std::popcount(columns[i]), 3) << "data column " << i;
    }
  }
  // The greedy construction balances the XOR-tree fan-in per check bit.
  int min_load = 64, max_load = 0;
  for (const word_t mask : code.check_cover_masks()) {
    const int load = std::popcount(mask);
    min_load = std::min(min_load, load);
    max_load = std::max(max_load, load);
  }
  EXPECT_LE(max_load - min_load, 2);
}

class HsiaoWidths : public ::testing::TestWithParam<unsigned> {};

TEST_P(HsiaoWidths, SinglesCorrectedDoublesDetected) {
  const hsiao_code code(GetParam());
  rng gen(GetParam() * 17);
  for (int trial = 0; trial < 4; ++trial) {
    const word_t data = gen() & word_mask(code.data_bits());
    const word_t cw = code.encode(data);
    EXPECT_EQ(code.decode(cw).status, ecc_status::clean);
    EXPECT_EQ(code.decode(cw).data, data);
    for (unsigned a = 0; a < code.codeword_bits(); ++a) {
      const ecc_decode_result single = code.decode(flip_bit(cw, a));
      EXPECT_EQ(single.data, data) << "a=" << a;
      EXPECT_EQ(single.status, ecc_status::corrected) << "a=" << a;
      for (unsigned b = a + 1; b < code.codeword_bits(); ++b) {
        const ecc_decode_result dbl = code.decode(flip_bit(flip_bit(cw, a), b));
        EXPECT_EQ(dbl.status, ecc_status::detected_uncorrectable)
            << "a=" << a << " b=" << b;
        // Uncorrectable reads pass the raw data bits through.
        EXPECT_EQ(dbl.data, code.extract_data(flip_bit(flip_bit(cw, a), b)))
            << "a=" << a << " b=" << b;
      }
    }
  }
}

TEST_P(HsiaoWidths, CompiledMatchesReferenceOnGarbage) {
  const hsiao_code code(GetParam());
  const std::uint64_t samples = garbage_samples(code, 300);
  rng gen(GetParam() * 29);
  for (std::uint64_t i = 0; i < samples; ++i) {
    const word_t garbage = garbage_word(code, i, gen);
    const ecc_decode_result fast = code.decode(garbage);
    const ecc_decode_result reference = code.decode_reference(garbage);
    ASSERT_EQ(fast.data, reference.data) << garbage;
    ASSERT_EQ(fast.status, reference.status) << garbage;
    ASSERT_EQ(code.encode(garbage & word_mask(code.data_bits())),
              code.encode_reference(garbage & word_mask(code.data_bits())));
  }
}

INSTANTIATE_TEST_SUITE_P(CodeSizes, HsiaoWidths,
                         ::testing::Values(4u, 8u, 16u, 32u, 57u));

TEST(HsiaoTest, RejectsBadConfigurations) {
  EXPECT_THROW(hsiao_code(0), std::invalid_argument);
  EXPECT_THROW(hsiao_code(58), std::invalid_argument);  // 58 + 7 > 64
  EXPECT_THROW(hsiao_code(32, 3), std::invalid_argument);   // below min k
  EXPECT_THROW(hsiao_code(32, 13), std::invalid_argument);  // above max k
}

// ---------------------------------------------------------------------
// Parity-extended BCH: the multi-bit arm of Sec. 2's "stronger ECC".

TEST(BchTest, PaperCodeParameters) {
  const bch_code code = make_bch45_32();
  EXPECT_EQ(code.data_bits(), 32u);
  EXPECT_EQ(code.t(), 2u);
  EXPECT_EQ(code.field_bits(), 6u);
  EXPECT_EQ(code.parity_bits(), 12u);
  EXPECT_EQ(code.check_bits(), 13u);
  EXPECT_EQ(code.codeword_bits(), 45u);
  // t = 1 reproduces Hamming-class storage: BCH(39,32,t=1).
  EXPECT_EQ(bch_code(32, 1).codeword_bits(), 39u);
}

TEST(BchTest, DesignTableEdges) {
  // t = 1, d = 57 fills the carrier exactly: 57 + 6 + 1 = 64.
  EXPECT_TRUE(bch_design_for(57, 1).has_value());
  EXPECT_FALSE(bch_design_for(58, 1).has_value());
  EXPECT_TRUE(bch_design_for(51, 2).has_value());
  EXPECT_FALSE(bch_design_for(52, 2).has_value());
  EXPECT_TRUE(bch_design_for(45, 3).has_value());
  EXPECT_FALSE(bch_design_for(46, 3).has_value());
}

class BchWidths : public ::testing::TestWithParam<unsigned> {};

TEST_P(BchWidths, DoublesCorrectedTriplesDetectedAtT2) {
  const bch_code code(GetParam(), 2);
  rng gen(GetParam() * 41);
  const word_t data = gen() & word_mask(code.data_bits());
  const word_t cw = code.encode(data);
  const unsigned n = code.codeword_bits();
  EXPECT_EQ(code.decode(cw).status, ecc_status::clean);
  for (unsigned a = 0; a < n; ++a) {
    for (unsigned b = a + 1; b < n; ++b) {
      const word_t two = flip_bit(flip_bit(cw, a), b);
      const ecc_decode_result r = code.decode(two);
      EXPECT_EQ(r.data, data) << "a=" << a << " b=" << b;
      EXPECT_EQ(r.status, ecc_status::corrected) << "a=" << a << " b=" << b;
      for (unsigned c = b + 1; c < n; ++c) {
        const ecc_decode_result triple = code.decode(flip_bit(two, c));
        EXPECT_EQ(triple.status, ecc_status::detected_uncorrectable)
            << "a=" << a << " b=" << b << " c=" << c;
        EXPECT_EQ(triple.data, code.extract_data(flip_bit(two, c)))
            << "a=" << a << " b=" << b << " c=" << c;
      }
    }
  }
}

TEST_P(BchWidths, CompiledMatchesReferenceOnGarbage) {
  for (const unsigned t : {2u, 3u}) {
    const bch_code code(GetParam(), t);
    const std::uint64_t samples = garbage_samples(code, 100);
    rng gen(GetParam() * 43 + (t - 2));  // t=2 keeps its old samples
    for (std::uint64_t i = 0; i < samples; ++i) {
      const word_t garbage = garbage_word(code, i, gen);
      const ecc_decode_result fast = code.decode(garbage);
      const ecc_decode_result reference = code.decode_reference(garbage);
      ASSERT_EQ(fast.data, reference.data) << "t=" << t << " " << garbage;
      ASSERT_EQ(fast.status, reference.status) << "t=" << t << " " << garbage;
      ASSERT_EQ(code.encode(garbage & word_mask(code.data_bits())),
                code.encode_reference(garbage & word_mask(code.data_bits())));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CodeSizes, BchWidths, ::testing::Values(4u, 8u, 16u));

TEST(BchTest, TriplesCorrectedQuadsDetectedAtT3) {
  const bch_code code(8, 3);
  rng gen(97);
  const word_t data = gen() & word_mask(8);
  const word_t cw = code.encode(data);
  const unsigned n = code.codeword_bits();
  for (unsigned a = 0; a < n; ++a) {
    for (unsigned b = a + 1; b < n; ++b) {
      for (unsigned c = b + 1; c < n; ++c) {
        const word_t three = flip_bit(flip_bit(flip_bit(cw, a), b), c);
        const ecc_decode_result r = code.decode(three);
        EXPECT_EQ(r.data, data) << a << "," << b << "," << c;
        EXPECT_EQ(r.status, ecc_status::corrected) << a << "," << b << "," << c;
        for (unsigned e = c + 1; e < n; ++e) {
          EXPECT_EQ(code.decode(flip_bit(three, e)).status,
                    ecc_status::detected_uncorrectable)
              << a << "," << b << "," << c << "," << e;
        }
      }
    }
  }
}

TEST(BchTest, RejectsBadConfigurations) {
  EXPECT_THROW(bch_code(32, 0), std::invalid_argument);
  EXPECT_THROW(bch_code(32, 4), std::invalid_argument);  // beyond max_t
  EXPECT_THROW(bch_code(52, 2), std::invalid_argument);  // no fitting design
  EXPECT_THROW(bch_code(0, 1), std::invalid_argument);
}

}  // namespace
}  // namespace urmem
