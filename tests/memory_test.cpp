// Tests for the memory substrate: fault maps, the cell-failure model
// (Fig. 2), fault samplers, and the functional SRAM array.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "urmem/memory/cell_failure_model.hpp"
#include "urmem/memory/fault_map.hpp"
#include "urmem/memory/fault_sampler.hpp"
#include "urmem/memory/sram_array.hpp"

namespace urmem {
namespace {

TEST(FaultMapTest, EmptyMapIsTransparent) {
  fault_map map(geometry_16kb_x32());
  EXPECT_EQ(map.fault_count(), 0u);
  EXPECT_EQ(map.corrupt(0, 0xDEADBEEF), 0xDEADBEEFULL);
  EXPECT_TRUE(map.faulty_rows().empty());
}

TEST(FaultMapTest, StuckAtZeroForcesBitLow) {
  fault_map map({4, 8});
  map.add({1, 3, fault_kind::stuck_at_zero});
  EXPECT_EQ(map.corrupt(1, 0xFF), 0xF7ULL);
  EXPECT_EQ(map.corrupt(1, 0x00), 0x00ULL);
  EXPECT_EQ(map.corrupt(0, 0xFF), 0xFFULL);  // other rows untouched
}

TEST(FaultMapTest, StuckAtOneForcesBitHigh) {
  fault_map map({4, 8});
  map.add({2, 0, fault_kind::stuck_at_one});
  EXPECT_EQ(map.corrupt(2, 0x00), 0x01ULL);
  EXPECT_EQ(map.corrupt(2, 0xFF), 0xFFULL);
}

TEST(FaultMapTest, FlipAlwaysInverts) {
  fault_map map({4, 8});
  map.add({0, 7, fault_kind::flip});
  EXPECT_EQ(map.corrupt(0, 0x00), 0x80ULL);
  EXPECT_EQ(map.corrupt(0, 0x80), 0x00ULL);
}

TEST(FaultMapTest, ReAddingCellReplacesKind) {
  fault_map map({2, 8});
  map.add({0, 4, fault_kind::stuck_at_one});
  map.add({0, 4, fault_kind::stuck_at_zero});
  EXPECT_EQ(map.fault_count(), 1u);
  EXPECT_EQ(map.corrupt(0, 0xFF), 0xEFULL);
  const auto faults = map.faults_in_row(0);
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_EQ(faults[0].kind, fault_kind::stuck_at_zero);
}

TEST(FaultMapTest, QueriesReportSortedFaults) {
  fault_map map({8, 16});
  map.add({5, 9, fault_kind::flip});
  map.add({5, 2, fault_kind::stuck_at_one});
  map.add({3, 0, fault_kind::stuck_at_zero});
  EXPECT_TRUE(map.row_has_faults(5));
  EXPECT_FALSE(map.row_has_faults(4));
  const auto rows = map.faulty_rows();
  EXPECT_EQ(rows, (std::vector<std::uint32_t>{3, 5}));
  const auto in_row5 = map.faults_in_row(5);
  ASSERT_EQ(in_row5.size(), 2u);
  EXPECT_EQ(in_row5[0].col, 2u);
  EXPECT_EQ(in_row5[1].col, 9u);
  EXPECT_EQ(map.all_faults().size(), 3u);
}

TEST(FaultMapTest, RejectsOutOfRangeCells) {
  fault_map map({4, 8});
  EXPECT_THROW(map.add({4, 0, fault_kind::flip}), std::invalid_argument);
  EXPECT_THROW(map.add({0, 8, fault_kind::flip}), std::invalid_argument);
}

TEST(FaultMapTest, AscendingInputEqualsTheSortedBuild) {
  // 400 draws over 1024 cells: a shuffled list in which some cells
  // repeat with different kinds. Repeated add() resolves the repeats
  // last-wins; its fault list is the strictly ascending input.
  const array_geometry geometry{64, 16};
  rng gen(6);
  std::vector<fault> shuffled;
  fault_map by_add(geometry);
  for (int i = 0; i < 400; ++i) {
    const fault f{static_cast<std::uint32_t>(gen.uniform_below(64)),
                  static_cast<std::uint32_t>(gen.uniform_below(16)),
                  static_cast<fault_kind>(gen.uniform_below(5))};
    shuffled.push_back(f);
    by_add.add(f);
  }
  const std::span<const fault> expected = by_add.all_faults();
  ASSERT_LT(expected.size(), shuffled.size());  // repeats were drawn

  const std::vector<fault> in_order(expected.begin(), expected.end());
  const fault_map sorted(geometry, shuffled);
  const fault_map ascending(geometry, in_order);
  EXPECT_TRUE(std::ranges::equal(sorted.all_faults(), expected));
  EXPECT_TRUE(std::ranges::equal(ascending.all_faults(), expected));

  // Ascending input is still range-checked, fault by fault.
  const std::vector<fault> bad_col{{0, 1, fault_kind::flip},
                                   {63, 16, fault_kind::flip}};
  const std::vector<fault> bad_row{{0, 1, fault_kind::flip},
                                   {64, 0, fault_kind::flip}};
  EXPECT_THROW(fault_map(geometry, bad_col), std::invalid_argument);
  EXPECT_THROW(fault_map(geometry, bad_row), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Cell failure model (Fig. 2)

TEST(CellFailureModelTest, CalibrationAnchors) {
  const auto model = cell_failure_model::default_28nm();
  // Pcell(1.0 V) ~ 1e-9 and Pcell(0.73 V) ~ 1e-4: the default
  // calibration anchors in cell_failure_model.hpp.
  EXPECT_NEAR(std::log10(model.pcell(1.0)), -9.0, 0.15);
  EXPECT_NEAR(std::log10(model.pcell(0.73)), -4.0, 0.15);
}

TEST(CellFailureModelTest, PcellIncreasesAsVoltageDrops) {
  const auto model = cell_failure_model::default_28nm();
  double prev = 0.0;
  for (double vdd = 1.1; vdd >= 0.4; vdd -= 0.05) {
    const double p = model.pcell(vdd);
    EXPECT_GT(p, prev);
    prev = p;
  }
}

TEST(CellFailureModelTest, VddForPcellInverts) {
  const auto model = cell_failure_model::default_28nm();
  for (const double p : {1e-9, 1e-6, 1e-4, 1e-3, 1e-2}) {
    EXPECT_NEAR(model.pcell(model.vdd_for_pcell(p)), p, p * 1e-6);
  }
}

TEST(CellFailureModelTest, YieldFormulaMatchesPaper) {
  // Y = (1 - Pcell)^M; a 16 KB array at Pcell ~ 1e-4 yields ~ e^-13.
  EXPECT_NEAR(cell_failure_model::array_yield(131072, 1e-4),
              std::exp(131072 * std::log1p(-1e-4)), 1e-12);
  EXPECT_LT(cell_failure_model::array_yield(131072, 1e-4), 5e-6);
  EXPECT_GT(cell_failure_model::array_yield(131072, 1e-9), 0.999);
  EXPECT_DOUBLE_EQ(cell_failure_model::array_yield(100, 1.0), 0.0);
}

TEST(CellFailureModelTest, FaultInclusionProperty) {
  // Cells failing at VDD1 must fail at every VDD2 < VDD1 [14].
  const auto model = cell_failure_model::default_28nm(77);
  const array_geometry geometry{64, 32};
  const double vdd_high = model.vdd_for_pcell(2e-3);
  const double vdd_low = model.vdd_for_pcell(2e-2);
  const fault_map at_high = model.faults_at_voltage(geometry, vdd_high);
  const fault_map at_low = model.faults_at_voltage(geometry, vdd_low);
  EXPECT_GT(at_low.fault_count(), at_high.fault_count());

  std::set<std::pair<std::uint32_t, std::uint32_t>> low_cells;
  for (const fault& f : at_low.all_faults()) low_cells.insert({f.row, f.col});
  for (const fault& f : at_high.all_faults()) {
    EXPECT_TRUE(low_cells.contains({f.row, f.col}))
        << "cell (" << f.row << "," << f.col << ") violates inclusion";
  }
}

TEST(CellFailureModelTest, FaultCountMatchesPcell) {
  const auto model = cell_failure_model::default_28nm(5);
  const array_geometry geometry{512, 32};  // 16384 cells
  const double pcell = 0.02;
  const fault_map faults =
      model.faults_at_voltage(geometry, model.vdd_for_pcell(pcell));
  const double expected = pcell * static_cast<double>(geometry.cells());
  EXPECT_NEAR(static_cast<double>(faults.fault_count()), expected,
              5.0 * std::sqrt(expected));
}

TEST(CellFailureModelTest, StuckKindIsPersistentAndBalanced) {
  const auto model = cell_failure_model::default_28nm(9);
  int ones = 0;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    EXPECT_EQ(model.stuck_kind(i), model.stuck_kind(i));
    if (model.stuck_kind(i) == fault_kind::stuck_at_one) ++ones;
  }
  EXPECT_NEAR(ones, 5000, 350);
}

// ---------------------------------------------------------------------
// Fault samplers

TEST(FaultSamplerTest, ExactCountAndDistinctPositions) {
  rng gen(3);
  for (const std::uint64_t n : {1ULL, 5ULL, 50ULL, 150ULL}) {
    const fault_map map = sample_fault_map_exact(geometry_16kb_x32(), n, gen);
    EXPECT_EQ(map.fault_count(), n);
  }
}

TEST(FaultSamplerTest, FullArraySaturation) {
  rng gen(4);
  const array_geometry tiny{2, 4};
  const fault_map map = sample_fault_map_exact(tiny, 8, gen);
  EXPECT_EQ(map.fault_count(), 8u);
}

TEST(FaultSamplerTest, FlipMapIsTheFloydDrawOfItsCells) {
  // sample_fault_map_exact draws no kind under flip polarity, so its map
  // holds exactly draw_distinct_cells' cells and both consume the same
  // stream. Saturated and near-saturated draws exercise the collision
  // branch of Floyd's algorithm.
  const struct {
    array_geometry geometry;
    std::uint64_t n;
  } cases[] = {{geometry_16kb_x32(), 1},
               {geometry_16kb_x32(), 40},
               {{16, 39}, 150},
               {{2, 4}, 7},
               {{2, 4}, 8}};
  for (const auto& c : cases) {
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      rng map_gen(seed);
      rng cell_gen(seed);
      const fault_map map = sample_fault_map_exact(c.geometry, c.n, map_gen);
      std::vector<std::uint64_t> cells;
      draw_distinct_cells(c.geometry.cells(), c.n, cell_gen,
                          [&](std::uint64_t cell) { cells.push_back(cell); });
      std::sort(cells.begin(), cells.end());
      ASSERT_EQ(map.fault_count(), cells.size());
      for (std::size_t i = 0; i < cells.size(); ++i) {
        const fault& f = map.all_faults()[i];
        EXPECT_EQ(std::uint64_t{f.row} * c.geometry.width + f.col, cells[i]);
        EXPECT_EQ(f.kind, fault_kind::flip);
      }
      for (int k = 0; k < 4; ++k) {
        EXPECT_EQ(map_gen(), cell_gen()) << "rng states diverged, seed " << seed;
      }
    }
  }
}

TEST(FaultSamplerTest, RejectsOverfull) {
  rng gen(5);
  EXPECT_THROW(sample_fault_map_exact({2, 4}, 9, gen), std::invalid_argument);
}

TEST(FaultSamplerTest, PositionsLookUniformAcrossColumns) {
  rng gen(6);
  std::vector<int> col_counts(32, 0);
  for (int i = 0; i < 400; ++i) {
    const fault_map map = sample_fault_map_exact(geometry_16kb_x32(), 10, gen);
    for (const fault& f : map.all_faults()) ++col_counts[f.col];
  }
  for (const int c : col_counts) EXPECT_NEAR(c, 125, 60);  // 4000/32
}

TEST(FaultSamplerTest, BinomialCountTracksMean) {
  rng gen(7);
  const array_geometry geometry{512, 32};
  const binomial_distribution dist(geometry.cells(), 1e-3);
  double total = 0.0;
  const int runs = 300;
  for (int i = 0; i < runs; ++i) {
    total += static_cast<double>(
        sample_fault_map_binomial(geometry, dist, gen).fault_count());
  }
  EXPECT_NEAR(total / runs, dist.mean(), 1.0);
}

TEST(FaultSamplerTest, PolarityModes) {
  rng gen(8);
  const fault_map flips =
      sample_fault_map_exact({64, 32}, 40, gen, fault_polarity::flip);
  for (const fault& f : flips.all_faults()) EXPECT_EQ(f.kind, fault_kind::flip);

  const fault_map stuck =
      sample_fault_map_exact({64, 32}, 200, gen, fault_polarity::random_stuck);
  int zeros = 0;
  for (const fault& f : stuck.all_faults()) {
    EXPECT_NE(f.kind, fault_kind::flip);
    if (f.kind == fault_kind::stuck_at_zero) ++zeros;
  }
  EXPECT_GT(zeros, 60);
  EXPECT_LT(zeros, 140);
}

// ---------------------------------------------------------------------
// SRAM array

TEST(SramArrayTest, CleanReadBackIsExact) {
  sram_array array(array_geometry{16, 32});
  for (std::uint32_t r = 0; r < 16; ++r) array.write(r, 0x1000u + r);
  for (std::uint32_t r = 0; r < 16; ++r) EXPECT_EQ(array.read(r), 0x1000u + r);
}

TEST(SramArrayTest, FaultsCorruptReadsButNotIdealState) {
  fault_map map({4, 16});
  map.add({1, 15, fault_kind::stuck_at_one});
  sram_array array(map);
  array.write(1, 0x0000);
  EXPECT_EQ(array.read(1), 0x8000ULL);
  EXPECT_EQ(array.read_ideal(1), 0x0000ULL);
}

TEST(SramArrayTest, WidthMaskingOnWrite) {
  sram_array array(array_geometry{2, 8});
  array.write(0, 0xFFFFFF12ULL);
  EXPECT_EQ(array.read(0), 0x12ULL);
}

TEST(SramArrayTest, FillWritesEveryRow) {
  sram_array array(array_geometry{8, 32});
  array.fill(0xABCD);
  for (std::uint32_t r = 0; r < 8; ++r) EXPECT_EQ(array.read(r), 0xABCDULL);
}

TEST(SramArrayTest, SetFaultsPreservesData) {
  sram_array array(array_geometry{4, 8});
  array.write(2, 0x0F);
  fault_map map({4, 8});
  map.add({2, 7, fault_kind::stuck_at_one});
  array.set_faults(std::move(map));
  EXPECT_EQ(array.read(2), 0x8FULL);
  EXPECT_EQ(array.read_ideal(2), 0x0FULL);
}

TEST(SramArrayTest, GeometryMismatchRejected) {
  sram_array array(array_geometry{4, 8});
  EXPECT_THROW(array.set_faults(fault_map({5, 8})), std::invalid_argument);
  EXPECT_THROW(array.write(4, 0), std::invalid_argument);
  EXPECT_THROW((void)array.read(4), std::invalid_argument);
}

}  // namespace
}  // namespace urmem
