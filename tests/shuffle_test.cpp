// Tests for the bit-shuffling scheme: Eqs. (1)-(2), the paper's worked
// examples, rotation round trips, the 2^(S-1) residual-error bound
// (Fig. 4), and multi-fault shift policies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "urmem/common/rng.hpp"
#include "urmem/memory/fault_sampler.hpp"
#include "urmem/memory/sram_array.hpp"
#include "urmem/scheme/protection_scheme.hpp"
#include "urmem/shuffle/bit_shuffler.hpp"
#include "urmem/shuffle/fm_lut.hpp"
#include "urmem/shuffle/shift_policy.hpp"
#include "urmem/shuffle/shuffle_scheme.hpp"

namespace urmem {
namespace {

TEST(BitShufflerTest, SegmentSizeEquationOne) {
  // S = W / 2^nFM (Eq. 1) for the paper's 32-bit word.
  EXPECT_EQ(bit_shuffler(32, 1).segment_size(), 16u);
  EXPECT_EQ(bit_shuffler(32, 2).segment_size(), 8u);
  EXPECT_EQ(bit_shuffler(32, 3).segment_size(), 4u);
  EXPECT_EQ(bit_shuffler(32, 4).segment_size(), 2u);
  EXPECT_EQ(bit_shuffler(32, 5).segment_size(), 1u);
  EXPECT_EQ(bit_shuffler(64, 6).segment_size(), 1u);
}

TEST(BitShufflerTest, ShiftAmountEquationTwo) {
  // T = S * (2^nFM - xFM) mod W (Eq. 2).
  const bit_shuffler s(32, 5);
  EXPECT_EQ(s.shift_amount(0), 0u);   // fault-free row: no rotation
  EXPECT_EQ(s.shift_amount(3), 29u);  // paper's bottom-row example
  EXPECT_EQ(s.shift_amount(31), 1u);
}

TEST(BitShufflerTest, PaperWorkedExampleBottomRow) {
  // "with W=32 and nFM=5, the bottom word has a failure in its third
  // bit. Therefore, T(bottom row)=29, and the data word is circularly
  // shifted right by 29 positions, such that the LSB is stored in the
  // faulty position."
  const bit_shuffler s(32, 5);
  const unsigned faulty_col = 3;
  const unsigned xfm = s.segment_of(faulty_col);
  EXPECT_EQ(xfm, 3u);
  EXPECT_EQ(s.shift_amount(xfm), 29u);
  // After the rotate-right, the logical LSB sits in the faulty column.
  const word_t stored = s.apply(word_t{1}, xfm);  // data with only the LSB set
  EXPECT_TRUE(get_bit(stored, faulty_col));
  // A fault there corrupts only logical bit 0.
  EXPECT_EQ(s.logical_position(faulty_col, xfm), 0u);
}

TEST(BitShufflerTest, PaperWorkedExampleTopRow) {
  // "the LSB ... of the top word is ... stored in bit-position 31"
  // for a fault in bit position 31 with nFM=5.
  const bit_shuffler s(32, 5);
  const unsigned xfm = s.segment_of(31);
  EXPECT_EQ(xfm, 31u);
  const word_t stored = s.apply(word_t{1}, xfm);
  EXPECT_TRUE(get_bit(stored, 31));
  EXPECT_EQ(s.logical_position(31, xfm), 0u);
}

TEST(BitShufflerTest, MaxErrorMagnitudeBound) {
  // Worst case error 2^(S-1) (Sec. 3 / Fig. 4 envelope).
  EXPECT_DOUBLE_EQ(bit_shuffler(32, 1).max_error_magnitude(), 32768.0);  // 2^15
  EXPECT_DOUBLE_EQ(bit_shuffler(32, 2).max_error_magnitude(), 128.0);    // 2^7
  EXPECT_DOUBLE_EQ(bit_shuffler(32, 3).max_error_magnitude(), 8.0);      // 2^3
  EXPECT_DOUBLE_EQ(bit_shuffler(32, 4).max_error_magnitude(), 2.0);      // 2^1
  EXPECT_DOUBLE_EQ(bit_shuffler(32, 5).max_error_magnitude(), 1.0);      // 2^0
}

TEST(BitShufflerTest, RejectsBadParameters) {
  EXPECT_THROW(bit_shuffler(33, 1), std::invalid_argument);  // not a power of 2
  EXPECT_THROW(bit_shuffler(32, 0), std::invalid_argument);
  EXPECT_THROW(bit_shuffler(32, 6), std::invalid_argument);
  EXPECT_NO_THROW(bit_shuffler(64, 6));
}

/// Property sweep: restore(apply(x)) == x for every (width, nFM, xfm).
struct shuffle_params {
  unsigned width;
  unsigned n_fm;
};

class ShuffleRoundTrip : public ::testing::TestWithParam<shuffle_params> {};

TEST_P(ShuffleRoundTrip, RestoreUndoesApply) {
  const auto [width, n_fm] = GetParam();
  const bit_shuffler s(width, n_fm);
  rng gen(width * 8 + n_fm);
  for (unsigned xfm = 0; xfm < s.segment_count(); ++xfm) {
    for (int trial = 0; trial < 4; ++trial) {
      const word_t data = gen() & word_mask(width);
      EXPECT_EQ(s.restore(s.apply(data, xfm), xfm), data)
          << "xfm=" << xfm << " width=" << width << " nfm=" << n_fm;
    }
  }
}

TEST_P(ShuffleRoundTrip, SingleFaultResidualErrorWithinBound) {
  // With one fault per row and the paper's programming rule, the
  // post-restore logical fault position stays inside the LSB segment.
  const auto [width, n_fm] = GetParam();
  const bit_shuffler s(width, n_fm);
  for (unsigned col = 0; col < width; ++col) {
    const unsigned xfm = s.segment_of(col);
    const unsigned logical = s.logical_position(col, xfm);
    EXPECT_LT(logical, s.segment_size()) << "col=" << col;
    EXPECT_LE(std::ldexp(1.0, static_cast<int>(logical)),
              s.max_error_magnitude());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, ShuffleRoundTrip,
    ::testing::Values(shuffle_params{8, 1}, shuffle_params{8, 3},
                      shuffle_params{16, 2}, shuffle_params{32, 1},
                      shuffle_params{32, 2}, shuffle_params{32, 3},
                      shuffle_params{32, 4}, shuffle_params{32, 5},
                      shuffle_params{64, 1}, shuffle_params{64, 6}));

// ---------------------------------------------------------------------
// FM-LUT

TEST(FmLutTest, DefaultsToZeroAndStoresEntries) {
  fm_lut lut(16, 3);
  EXPECT_EQ(lut.get(7), 0u);
  lut.set(7, 5);
  EXPECT_EQ(lut.get(7), 5u);
  EXPECT_EQ(lut.nonzero_entries(), 1u);
  lut.clear();
  EXPECT_EQ(lut.nonzero_entries(), 0u);
}

TEST(FmLutTest, StorageBitsMatchesGeometry) {
  EXPECT_EQ(fm_lut(4096, 5).storage_bits(), 4096u * 5u);
  EXPECT_EQ(fm_lut(4096, 1).storage_bits(), 4096u);
}

TEST(FmLutTest, RejectsOutOfRange) {
  fm_lut lut(4, 2);
  EXPECT_THROW(lut.set(0, 4), std::invalid_argument);
  EXPECT_THROW(lut.set(4, 0), std::invalid_argument);
  EXPECT_THROW((void)lut.get(4), std::invalid_argument);
  EXPECT_THROW(fm_lut(0, 2), std::invalid_argument);
  EXPECT_THROW(fm_lut(4, 0), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Shift policy

TEST(ShiftPolicyTest, SingleFaultMatchesPaperFormula) {
  for (unsigned n_fm = 1; n_fm <= 5; ++n_fm) {
    const bit_shuffler s(32, n_fm);
    for (std::uint32_t col = 0; col < 32; ++col) {
      const std::uint32_t cols[] = {col};
      EXPECT_EQ(choose_xfm(s, cols), s.segment_of(col))
          << "col=" << col << " nfm=" << n_fm;
    }
  }
}

TEST(ShiftPolicyTest, EmptyRowGetsZero) {
  const bit_shuffler s(32, 3);
  EXPECT_EQ(choose_xfm(s, {}), 0u);
}

TEST(ShiftPolicyTest, MinMseNeverWorseThanFirstFault) {
  rng gen(21);
  const bit_shuffler s(32, 3);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<std::uint32_t> cols;
    const unsigned k = 2 + static_cast<unsigned>(gen.uniform_below(3));
    for (unsigned i = 0; i < k; ++i) {
      cols.push_back(static_cast<std::uint32_t>(gen.uniform_below(32)));
    }
    const double best = shift_cost(s, cols, choose_xfm(s, cols));
    const double naive =
        shift_cost(s, cols, choose_xfm(s, cols, shift_policy::first_fault));
    EXPECT_LE(best, naive);
  }
}

TEST(ShiftPolicyTest, CostIsSumOfSquaredMagnitudes) {
  const bit_shuffler s(32, 5);
  const std::uint32_t cols[] = {3, 17};
  // With xfm = 0 (no shift) the logical positions equal the columns.
  EXPECT_DOUBLE_EQ(shift_cost(s, cols, 0),
                   std::ldexp(1.0, 6) + std::ldexp(1.0, 34));
}

// ---------------------------------------------------------------------
// shuffle_scheme end to end

TEST(ShuffleSchemeTest, ProgramFromFaultMapAndProtect) {
  const std::uint32_t rows = 64;
  shuffle_scheme scheme(rows, 32, 5);
  fault_map faults({rows, 32});
  faults.add({10, 31, fault_kind::flip});
  faults.add({20, 3, fault_kind::flip});
  scheme.program(faults);

  EXPECT_EQ(scheme.lut().get(10), 31u);
  EXPECT_EQ(scheme.lut().get(20), 3u);
  EXPECT_EQ(scheme.lut().get(0), 0u);
  EXPECT_EQ(scheme.shift_for_row(20), 29u);  // the paper's T = 29

  // Functional check: store through a faulty array; the residual error
  // must be exactly the LSB for nFM = 5.
  sram_array array(faults);
  const word_t data = 0xFFFFFFFFULL;
  array.write(10, scheme.apply_write(10, data));
  const word_t readback = scheme.restore_read(10, array.read(10));
  EXPECT_EQ(readback ^ data, 1ULL);  // only logical bit 0 differs
}

TEST(ShuffleSchemeTest, FaultFreeRowsPassThrough) {
  shuffle_scheme scheme(8, 32, 2);
  scheme.program(fault_map({8, 32}));
  for (std::uint32_t r = 0; r < 8; ++r) {
    EXPECT_EQ(scheme.shift_for_row(r), 0u);
    EXPECT_EQ(scheme.apply_write(r, 0xABCD1234ULL), 0xABCD1234ULL);
  }
}

TEST(ShuffleSchemeTest, ResidualBoundHoldsUnderRandomSingleFaults) {
  rng gen(33);
  for (unsigned n_fm = 1; n_fm <= 5; ++n_fm) {
    const std::uint32_t rows = 256;
    shuffle_scheme scheme(rows, 32, n_fm);
    // One fault per row at a random column.
    fault_map faults({rows, 32});
    for (std::uint32_t r = 0; r < rows; ++r) {
      faults.add({r, static_cast<std::uint32_t>(gen.uniform_below(32)),
                  fault_kind::flip});
    }
    scheme.program(faults);
    sram_array array(faults);
    const double bound = scheme.shuffler().max_error_magnitude();
    for (std::uint32_t r = 0; r < rows; ++r) {
      const word_t data = gen() & word_mask(32);
      array.write(r, scheme.apply_write(r, data));
      const word_t readback = scheme.restore_read(r, array.read(r));
      const auto error = static_cast<double>(std::abs(
          to_signed(readback, 32) - to_signed(data, 32)));
      EXPECT_LE(error, bound) << "nfm=" << n_fm << " row=" << r;
    }
  }
}

TEST(ShuffleSchemeTest, LutOnlyConsidersDataColumns) {
  // A fault map wider than the data word (e.g. storage with parity
  // columns) must not confuse the LUT programmer.
  shuffle_scheme scheme(4, 32, 5);
  fault_map faults({4, 40});
  faults.add({1, 35, fault_kind::flip});  // beyond the 32 data columns
  scheme.program(faults);
  EXPECT_EQ(scheme.lut().get(1), 0u);
}

TEST(ShuffleSchemeTest, MinMseIsOptimalOnEveryTwoFaultRow) {
  // Exhaustive over all C(32, 2) = 496 two-fault rows of nFM = 2 (S = 8):
  // the programmed scheme's row cost equals the brute-force minimum of
  // sum 4^b over the four rotations, and the worst row, faults at
  // columns 7 and 23 (16 apart, so one always lands in bit 23 or 31),
  // costs 4^23 + 4^7: 2^-16 of the unprotected single-fault 4^31.
  const auto scheme = make_scheme_shuffle(4096, 32, 2);
  const bit_shuffler s(32, 2);
  const auto cost_at = [&s](std::uint32_t col, unsigned xfm) {
    return std::ldexp(1.0, 2 * static_cast<int>(s.logical_position(col, xfm)));
  };
  double worst = 0.0;
  std::uint32_t worst_a = 0;
  std::uint32_t worst_b = 0;
  for (std::uint32_t a = 0; a < 32; ++a) {
    for (std::uint32_t b = a + 1; b < 32; ++b) {
      double optimum = std::numeric_limits<double>::infinity();
      for (unsigned xfm = 0; xfm < s.segment_count(); ++xfm) {
        optimum = std::min(optimum, cost_at(a, xfm) + cost_at(b, xfm));
      }
      const std::uint32_t cols[] = {a, b};
      const double cost = scheme->worst_case_row_cost(0, cols);
      EXPECT_EQ(cost, optimum) << "cols " << a << ", " << b;
      if (cost > worst) {
        worst = cost;
        worst_a = a;
        worst_b = b;
      }
    }
  }
  EXPECT_EQ(worst, std::ldexp(1.0, 46) + std::ldexp(1.0, 14));
  EXPECT_EQ(worst_a, 7u);
  EXPECT_EQ(worst_b, 23u);
}

TEST(ShuffleSchemeTest, RowCountMismatchRejected) {
  shuffle_scheme scheme(4, 32, 1);
  EXPECT_THROW(scheme.program(fault_map({8, 32})), std::invalid_argument);
}

}  // namespace
}  // namespace urmem
