// Tests for the uniform protection-scheme interface and the protected
// memory controller: storage layouts, functional fault handling, and
// the Eq. (6) row-cost hooks the yield analysis relies on.
#include <gtest/gtest.h>

#include <cmath>

#include "urmem/memory/fault_sampler.hpp"
#include "urmem/scheme/protected_memory.hpp"
#include "urmem/scheme/protection_scheme.hpp"
#include "urmem/yield/mse_distribution.hpp"

namespace urmem {
namespace {

TEST(SchemeTest, StorageWidthsMatchPaper) {
  EXPECT_EQ(make_scheme_none()->storage_bits(), 32u);
  EXPECT_EQ(make_scheme_secded()->storage_bits(), 39u);
  EXPECT_EQ(make_scheme_pecc()->storage_bits(), 38u);
  EXPECT_EQ(make_scheme_shuffle(4096, 32, 3)->storage_bits(), 32u);
  EXPECT_EQ(make_scheme_shuffle(4096, 32, 3)->lut_bits_per_row(), 3u);
  EXPECT_EQ(make_scheme_none()->lut_bits_per_row(), 0u);
}

TEST(SchemeTest, NamesForBenchTables) {
  EXPECT_EQ(make_scheme_none()->name(), "no-correction");
  EXPECT_EQ(make_scheme_secded()->name(), "H(39,32) ECC");
  EXPECT_EQ(make_scheme_pecc()->name(), "H(22,16) P-ECC");
  EXPECT_EQ(make_scheme_shuffle(16, 32, 2)->name(), "nFM=2");
}

TEST(SchemeTest, FaultFreeRoundTripForAllSchemes) {
  rng gen(50);
  const std::uint32_t rows = 16;
  std::vector<std::unique_ptr<protection_scheme>> schemes;
  schemes.push_back(make_scheme_none());
  schemes.push_back(make_scheme_secded());
  schemes.push_back(make_scheme_pecc());
  for (unsigned n_fm = 1; n_fm <= 5; ++n_fm) {
    schemes.push_back(make_scheme_shuffle(rows, 32, n_fm));
  }
  for (auto& scheme : schemes) {
    scheme->configure(fault_map({rows, scheme->storage_bits()}));
    for (std::uint32_t r = 0; r < rows; ++r) {
      const word_t data = gen() & word_mask(32);
      const read_result res = scheme->decode(r, scheme->encode(r, data));
      EXPECT_EQ(res.data, data) << scheme->name();
      EXPECT_EQ(res.status, ecc_status::clean) << scheme->name();
    }
  }
}

TEST(ProtectedMemoryTest, SecdedCorrectsSingleFaultPerRow) {
  rng gen(51);
  protected_memory memory(64, make_scheme_secded());
  fault_map faults(memory.storage_geometry());
  for (std::uint32_t r = 0; r < 64; ++r) {
    faults.add({r, static_cast<std::uint32_t>(gen.uniform_below(39)),
                fault_kind::flip});
  }
  memory.set_fault_map(std::move(faults));
  for (std::uint32_t r = 0; r < 64; ++r) {
    const word_t data = gen() & word_mask(32);
    memory.write(r, data);
    const read_result res = memory.read(r);
    EXPECT_EQ(res.data, data);
    EXPECT_EQ(res.status, ecc_status::corrected);
  }
  EXPECT_DOUBLE_EQ(memory.analytic_mse(), 0.0);
}

TEST(ProtectedMemoryTest, SecdedDetectsDoubleFault) {
  protected_memory memory(4, make_scheme_secded());
  fault_map faults(memory.storage_geometry());
  faults.add({2, 5, fault_kind::flip});
  faults.add({2, 20, fault_kind::flip});
  memory.set_fault_map(std::move(faults));
  memory.write(2, 0x0);
  EXPECT_EQ(memory.read(2).status, ecc_status::detected_uncorrectable);
}

TEST(ProtectedMemoryTest, PeccShieldsMsbExposesLsb) {
  protected_memory memory(8, make_scheme_pecc());
  fault_map faults(memory.storage_geometry());
  faults.add({0, 37, fault_kind::flip});  // inside the H(22,16) codeword
  faults.add({1, 7, fault_kind::flip});   // unprotected low half
  memory.set_fault_map(std::move(faults));

  memory.write(0, 0xFFFF0000ULL);
  EXPECT_EQ(memory.read(0).data, 0xFFFF0000ULL);  // corrected

  memory.write(1, 0x0);
  EXPECT_EQ(memory.read(1).data, 0x80ULL);  // bit 7 corrupted, tolerated
}

TEST(ProtectedMemoryTest, ShuffleReconfiguresOnFaultMapInstall) {
  rng gen(52);
  protected_memory memory(128, make_scheme_shuffle(128, 32, 5));
  fault_map faults(memory.storage_geometry());
  for (std::uint32_t r = 0; r < 128; ++r) {
    faults.add({r, static_cast<std::uint32_t>(gen.uniform_below(32)),
                fault_kind::flip});
  }
  memory.set_fault_map(std::move(faults));
  for (std::uint32_t r = 0; r < 128; ++r) {
    const word_t data = gen() & word_mask(32);
    memory.write(r, data);
    // nFM = 5: a single fault can only touch the logical LSB.
    EXPECT_LE(memory.read(r).data ^ data, 1ULL);
  }
  // Eq. 6: every row contributes at most (2^0)^2.
  EXPECT_LE(memory.analytic_mse(), 1.0);
}

/// Unprotected storage whose compiled fast path is sabotaged (encode
/// flips bit 0, decode flips bit 1) while its reference pair is exact.
class sabotaged_fast_path final : public protection_scheme {
 public:
  [[nodiscard]] std::string name() const override { return "sabotaged"; }
  [[nodiscard]] unsigned data_bits() const override { return 32; }
  [[nodiscard]] unsigned storage_bits() const override { return 32; }
  void encode_block(std::uint32_t /*first_row*/, std::span<const word_t> data,
                    std::span<word_t> out) const override {
    for (std::size_t i = 0; i < data.size(); ++i) out[i] = data[i] ^ 1;
  }
  block_decode_stats decode_block(std::uint32_t /*first_row*/,
                                  std::span<const word_t> stored,
                                  std::span<word_t> out) const override {
    for (std::size_t i = 0; i < stored.size(); ++i) out[i] = stored[i] ^ 2;
    return {};
  }
  [[nodiscard]] word_t encode_reference(std::uint32_t /*row*/,
                                        word_t data) const override {
    return data;
  }
  [[nodiscard]] read_result decode_reference(std::uint32_t /*row*/,
                                             word_t stored) const override {
    return {stored, ecc_status::clean};
  }
  void residual_fault_bits(std::uint32_t /*row*/,
                           std::span<const std::uint32_t> fault_cols,
                           std::vector<std::uint32_t>& out) const override {
    out.insert(out.end(), fault_cols.begin(), fault_cols.end());
  }
};

TEST(ProtectedMemoryTest, SingleWordAccessHonoursReferencePath) {
  const word_t data = 0xC0FFEE00u;
  protected_memory compiled(4, std::make_unique<sabotaged_fast_path>(), 1);
  compiled.write(2, data);
  EXPECT_EQ(compiled.read(2).data, data ^ 3);  // the sabotage is live

  protected_memory reference(4, std::make_unique<sabotaged_fast_path>(), 1);
  reference.set_fault_path(fault_path::reference);
  reference.write(2, data);
  EXPECT_EQ(reference.read(2).data, data);
  // Retirement re-encodes onto the spare through the same path choice.
  ASSERT_TRUE(reference.retire_row(2, data + 1).has_value());
  EXPECT_EQ(reference.read(2).data, data + 1);
}

// ---------------------------------------------------------------------
// Eq. (6) worst-case row costs

TEST(RowCostTest, NoneSumsSquaredMagnitudes) {
  const auto scheme = make_scheme_none();
  const std::uint32_t cols[] = {0, 10, 31};
  EXPECT_DOUBLE_EQ(scheme->worst_case_row_cost(0, cols),
                   1.0 + std::ldexp(1.0, 20) + std::ldexp(1.0, 62));
}

TEST(RowCostTest, SecdedZeroForSingleNonzeroForDouble) {
  const auto scheme = make_scheme_secded();
  const std::uint32_t one[] = {20};
  EXPECT_DOUBLE_EQ(scheme->worst_case_row_cost(0, one), 0.0);
  const std::uint32_t two[] = {3, 20};  // both data columns
  EXPECT_GT(scheme->worst_case_row_cost(0, two), 0.0);
}

TEST(RowCostTest, SecdedCheckColumnsAreFree) {
  const auto scheme = make_scheme_secded();
  // Columns 0,1,2,4 are check columns of H(39,32): even two faults
  // there leave the data bits untouched.
  const std::uint32_t checks[] = {0, 1};
  EXPECT_DOUBLE_EQ(scheme->worst_case_row_cost(0, checks), 0.0);
}

TEST(RowCostTest, PeccSplitsRegions) {
  const auto scheme = make_scheme_pecc();
  const std::uint32_t lsb[] = {5};
  EXPECT_DOUBLE_EQ(scheme->worst_case_row_cost(0, lsb), std::ldexp(1.0, 10));
  const std::uint32_t msb_single[] = {25};
  EXPECT_DOUBLE_EQ(scheme->worst_case_row_cost(0, msb_single), 0.0);
  const std::uint32_t mixed[] = {5, 25};  // LSB exposed, MSB corrected
  EXPECT_DOUBLE_EQ(scheme->worst_case_row_cost(0, mixed), std::ldexp(1.0, 10));
}

TEST(RowCostTest, PeccDoubleMsbFaultIsExpensive) {
  const auto scheme = make_scheme_pecc();
  // Two faults inside the codeword region on data columns.
  const priority_ecc codec;
  std::vector<std::uint32_t> cols;
  for (unsigned col = 16; col < 38 && cols.size() < 2; ++col) {
    if (codec.data_bit_at_column(col) >= 16) cols.push_back(col);
  }
  ASSERT_EQ(cols.size(), 2u);
  EXPECT_GE(scheme->worst_case_row_cost(0, cols), std::ldexp(1.0, 32));
}

TEST(RowCostTest, ShuffleBoundedBySegmentSize) {
  for (unsigned n_fm = 1; n_fm <= 5; ++n_fm) {
    const auto scheme = make_scheme_shuffle(16, 32, n_fm);
    const unsigned segment = 32u >> n_fm;
    for (std::uint32_t col = 0; col < 32; ++col) {
      const std::uint32_t cols[] = {col};
      EXPECT_LE(scheme->worst_case_row_cost(0, cols),
                std::ldexp(1.0, 2 * static_cast<int>(segment - 1)) + 1e-9);
    }
  }
}

TEST(RowCostTest, SchemeOrderingUnderSingleFault) {
  // For a single MSB fault: ECC = 0 <= shuffle(nFM=5) = 1 << pecc-LSB
  // cases << none.
  const std::uint32_t msb[] = {31};
  EXPECT_DOUBLE_EQ(make_scheme_secded()->worst_case_row_cost(0, msb), 0.0);
  EXPECT_DOUBLE_EQ(make_scheme_shuffle(4, 32, 5)->worst_case_row_cost(0, msb),
                   1.0);
  EXPECT_DOUBLE_EQ(make_scheme_none()->worst_case_row_cost(0, msb),
                   std::ldexp(1.0, 62));
}

TEST(AnalyticMseTest, MatchesHandComputedExample) {
  // Eq. 6 on a 4-row unprotected memory with faults at bits 2 and 10.
  const auto scheme = make_scheme_none();
  fault_map faults({4, 32});
  faults.add({0, 2, fault_kind::flip});
  faults.add({3, 10, fault_kind::flip});
  const double expected = (std::ldexp(1.0, 4) + std::ldexp(1.0, 20)) / 4.0;
  EXPECT_DOUBLE_EQ(analytic_mse(*scheme, faults), expected);
}

TEST(AnalyticMseTest, ProtectedMemoryAgreesWithFreeFunction) {
  rng gen(53);
  auto scheme_for_memory = make_scheme_pecc();
  const auto* scheme_view = scheme_for_memory.get();
  protected_memory memory(256, std::move(scheme_for_memory));
  fault_map faults = sample_fault_map_exact(memory.storage_geometry(), 40, gen);
  const double direct = analytic_mse(*scheme_view, faults);
  memory.set_fault_map(std::move(faults));
  EXPECT_DOUBLE_EQ(memory.analytic_mse(), direct);
}

}  // namespace
}  // namespace urmem
