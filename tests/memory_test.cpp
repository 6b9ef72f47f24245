// Tests for the memory substrate: fault maps, the cell-failure model
// (Fig. 2), fault samplers, and the functional SRAM array.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <set>
#include <string>
#include <vector>

#include "urmem/memory/cell_failure_model.hpp"
#include "urmem/memory/fault_map.hpp"
#include "urmem/memory/fault_plane.hpp"
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

// Patches `before` with (removed, added) three ways — the map alone, and
// an array's map plus its compiled plane — and compares each with a map
// rebuilt from the expected fault list and a fresh plane compile of it.
void expect_patch_equals_rebuild(const fault_map& before,
                                 const std::vector<fault>& removed,
                                 const std::vector<fault>& added) {
  std::vector<fault> expected;
  for (const fault& f : before.all_faults()) {
    const bool gone = std::ranges::any_of(removed, [&](const fault& r) {
      return r.row == f.row && r.col == f.col;
    });
    if (!gone) expected.push_back(f);
  }
  expected.insert(expected.end(), added.begin(), added.end());
  const fault_map rebuilt(before.geometry(), expected);

  fault_map patched = before;
  patched.patch(removed, added);
  EXPECT_TRUE(std::ranges::equal(patched.all_faults(), rebuilt.all_faults()));

  sram_array array(before);
  array.patch_faults(fault_delta{added, removed});
  EXPECT_TRUE(
      std::ranges::equal(array.faults().all_faults(), rebuilt.all_faults()));
  EXPECT_TRUE(array.plane() == fault_plane(rebuilt));
}

TEST(FaultMapTest, PatchEqualsARebuiltMap) {
  const array_geometry geometry{64, 16};
  rng gen(27);
  const auto random_fault = [&](std::uint32_t first_row, std::uint32_t rows) {
    fault f;
    f.row = first_row + static_cast<std::uint32_t>(gen.uniform_below(rows));
    f.col = static_cast<std::uint32_t>(gen.uniform_below(16));
    f.kind = static_cast<fault_kind>(gen.uniform_below(5));
    return f;
  };
  // Rows 0 and 63 stay empty, so cells there sort before the first and
  // after the last fault.
  fault_map base(geometry);
  for (int i = 0; i < 200; ++i) base.add(random_fault(1, 62));
  const std::span<const fault> all = base.all_faults();
  const std::vector<fault> none;

  expect_patch_equals_rebuild(base, none, none);
  // The first and the last cell, removed and added.
  expect_patch_equals_rebuild(base, {all.front()}, none);
  expect_patch_equals_rebuild(base, {all.back()}, none);
  expect_patch_equals_rebuild(base, none, {{0, 0, fault_kind::flip}});
  expect_patch_equals_rebuild(base, none, {{63, 15, fault_kind::stuck_at_one}});
  expect_patch_equals_rebuild(base, {all.front()}, {{0, 0, fault_kind::flip}});
  // A whole row: every fault of a faulty row out, all 16 cells of an
  // empty row in.
  const std::uint32_t faulty = all[all.size() / 2].row;
  const std::span<const fault> row_faults = base.faults_in_row(faulty);
  const std::vector<fault> faulty_row(row_faults.begin(), row_faults.end());
  std::vector<fault> whole_row;
  for (std::uint32_t col = 0; col < 16; ++col) {
    whole_row.push_back({63, col, fault_kind::stuck_at_zero});
  }
  expect_patch_equals_rebuild(base, faulty_row, none);
  expect_patch_equals_rebuild(base, faulty_row, whole_row);
  // Everything out, and an empty map filled.
  const std::vector<fault> every(all.begin(), all.end());
  expect_patch_equals_rebuild(base, every, whole_row);
  expect_patch_equals_rebuild(fault_map(geometry), none, every);

  // Random sorted deltas over random maps.
  for (int trial = 0; trial < 50; ++trial) {
    fault_map before(geometry);
    const auto count = gen.uniform_below(300);
    for (std::uint64_t i = 0; i < count; ++i) before.add(random_fault(0, 64));
    std::vector<fault> removed;
    for (const fault& f : before.all_faults()) {
      if (gen.uniform_below(4) == 0) removed.push_back(f);
    }
    fault_map absent(geometry);
    for (int i = 0; i < 30; ++i) {
      const fault f = random_fault(0, 64);
      const auto same_col = [&](const fault& g) { return g.col == f.col; };
      if (std::ranges::none_of(before.faults_in_row(f.row), same_col)) {
        absent.add(f);
      }
    }
    const std::vector<fault> added(absent.all_faults().begin(),
                                   absent.all_faults().end());
    SCOPED_TRACE(trial);
    expect_patch_equals_rebuild(before, removed, added);
  }

  // Contract: removed cells must be present, added cells absent, and
  // both lists strictly ascending.
  fault_map map = base;
  const std::vector<fault> present{all.front()};
  const std::vector<fault> absent{{0, 0, fault_kind::flip}};
  const std::vector<fault> descending{{63, 1, fault_kind::flip},
                                      {63, 0, fault_kind::flip}};
  const std::vector<fault> outside{{64, 0, fault_kind::flip}};
  EXPECT_THROW(map.patch({}, present), std::invalid_argument);
  EXPECT_THROW(map.patch(absent, {}), std::invalid_argument);
  EXPECT_THROW(map.patch({}, descending), std::invalid_argument);
  EXPECT_THROW(map.patch({}, outside), std::invalid_argument);
  // A rejected delta leaves the map as it was.
  EXPECT_TRUE(std::ranges::equal(map.all_faults(), base.all_faults()));
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

// clear_words returns the listed rows to a new array's zeros without a
// write: a transition cell that blocks 1 -> 0 still holds 0 afterwards.
TEST(SramArrayTest, ClearWordsRestoresTheNewArrayState) {
  fault_map map({4, 8});
  map.add({1, 3, fault_kind::transition_down_fail});
  sram_array array(map);
  array.write(1, 0xFF);
  array.write(1, 0x00);
  array.write(2, 0x5A);
  EXPECT_EQ(array.read_ideal(1), 0x08ULL);  // the 1 -> 0 write was blocked
  const std::vector<std::uint32_t> rows{1, 2};
  array.clear_words(rows);
  for (std::uint32_t row = 0; row < 4; ++row) {
    EXPECT_EQ(array.read_ideal(row), 0ULL) << "row " << row;
  }
  EXPECT_EQ(array.faults().fault_count(), 1u);
  const std::vector<std::uint32_t> outside{4};
  EXPECT_THROW(array.clear_words(outside), std::invalid_argument);
}

TEST(SramArrayTest, GeometryMismatchRejected) {
  sram_array array(array_geometry{4, 8});
  EXPECT_THROW(array.set_faults(fault_map({5, 8})), std::invalid_argument);
  EXPECT_THROW(array.write(4, 0), std::invalid_argument);
  EXPECT_THROW((void)array.read(4), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Fault planes sized to the fault kinds present

constexpr fault_kind kAllKinds[] = {
    fault_kind::stuck_at_zero, fault_kind::stuck_at_one, fault_kind::flip,
    fault_kind::transition_up_fail, fault_kind::transition_down_fail};

// A plane allocates a kind's array on the kind's first fault and keeps
// it. A mixed map's plane recompiled from a flip-only map therefore
// still holds all five arrays, four of them all identity, and must
// equal a fresh compile of the flip-only map, which holds only XOR.
TEST(FaultPlaneKindsTest, RecompiledFromMixedEqualsAFreshFlipOnlyCompile) {
  const array_geometry geometry{256, 39};
  rng gen(31);
  const fault_map mixed =
      sample_fault_map_exact(geometry, 400, gen, fault_polarity::mixed);
  const fault_map flips =
      sample_fault_map_exact(geometry, 60, gen, fault_polarity::flip);
  const fault_plane fresh(flips);
  for (const fault_kind kind : kAllKinds) {
    EXPECT_EQ(fresh.has_plane(kind), kind == fault_kind::flip);
  }

  fault_plane reused(mixed);
  for (const fault_kind kind : kAllKinds) EXPECT_TRUE(reused.has_plane(kind));
  EXPECT_FALSE(reused == fresh);
  reused.recompile(flips);
  for (const fault_kind kind : kAllKinds) EXPECT_TRUE(reused.has_plane(kind));
  EXPECT_TRUE(reused == fresh);
  EXPECT_TRUE(fresh == reused);

  // One stuck-at-1 cell more is a difference in an array the fresh
  // compile does not hold.
  fault_map one_more = flips;
  const fault extra{0, 0, fault_kind::stuck_at_one};
  ASSERT_FALSE(one_more.row_has_faults(0));
  one_more.add(extra);
  reused.recompile(one_more);
  fault_plane fresh_flips = fresh;
  EXPECT_FALSE(reused == fresh_flips);
  EXPECT_FALSE(fresh_flips == reused);

  // A fault-free map allocates nothing, and a reset plane equals it.
  const fault_plane none{fault_map(geometry)};
  for (const fault_kind kind : kAllKinds) EXPECT_FALSE(none.has_plane(kind));
  reused.recompile(fault_map(geometry));
  EXPECT_TRUE(reused == none);
}

// A delta that removes the last fault of a kind leaves that kind's array
// allocated and all identity: still equal to a fresh compile, and still
// reading and writing like the walk.
TEST(FaultPlaneKindsTest, DeltaRemovingTheLastFaultOfAKindEqualsAFreshCompile) {
  const array_geometry geometry{64, 16};
  fault_map map(geometry);
  map.add({3, 1, fault_kind::flip});
  map.add({10, 7, fault_kind::flip});
  map.add({20, 5, fault_kind::stuck_at_one});
  map.add({30, 2, fault_kind::transition_up_fail});
  sram_array array(map);
  sram_array walk(map);
  walk.set_fault_path(fault_path::reference);
  ASSERT_TRUE(array.plane().has_plane(fault_kind::stuck_at_one));

  fault_delta delta;
  delta.removed = {{20, 5, fault_kind::stuck_at_one}};
  array.patch_faults(delta);
  walk.patch_faults(delta);
  EXPECT_TRUE(array.plane().has_plane(fault_kind::stuck_at_one));
  EXPECT_TRUE(array.plane() == fault_plane(array.faults()));

  // The last transition fault out, the first stuck-at-0 in.
  fault_delta swap;
  swap.removed = {{30, 2, fault_kind::transition_up_fail}};
  swap.added = {{40, 1, fault_kind::stuck_at_zero}};
  array.patch_faults(swap);
  walk.patch_faults(swap);
  EXPECT_TRUE(array.plane() == fault_plane(array.faults()));

  rng gen(8);
  for (int step = 0; step < 400; ++step) {
    const auto row = static_cast<std::uint32_t>(gen.uniform_below(64));
    const word_t value = gen();
    array.write(row, value);
    walk.write(row, value);
    ASSERT_EQ(array.read(row), walk.read(row)) << "row " << row;
    ASSERT_EQ(array.read_ideal(row), walk.read_ideal(row)) << "row " << row;
  }
}

// corrupt / apply_write / corrupt_rows / apply_write_rows stay
// bit-identical to fault_map's walk under every polarity, on a fresh
// compile (only the kinds drawn are allocated) and on one plane
// recompiled in place across polarities (arrays kept at identity).
TEST(FaultPlaneKindsTest, OpsMatchTheWalkForEveryPolarity) {
  const array_geometry geometry{128, 39};
  const word_t mask = word_mask(geometry.width);
  constexpr fault_polarity polarities[] = {
      fault_polarity::flip, fault_polarity::random_stuck,
      fault_polarity::mixed};
  rng gen(53);
  fault_plane reused{fault_map(geometry)};
  for (int round = 0; round < 36; ++round) {
    const fault_polarity polarity = polarities[gen.uniform_below(3)];
    SCOPED_TRACE("round " + std::to_string(round) + ", " +
                 std::string(to_string(polarity)));
    const fault_map map = sample_fault_map_exact(
        geometry, gen.uniform_below(2 * geometry.rows), gen, polarity);
    reused.recompile(map);
    const fault_plane fresh(map);
    ASSERT_TRUE(reused == fresh);
    for (const fault_plane* plane :
         std::initializer_list<const fault_plane*>{&fresh, &reused}) {
      for (int probe = 0; probe < 64; ++probe) {
        const auto row =
            static_cast<std::uint32_t>(gen.uniform_below(geometry.rows));
        const word_t ideal = gen() & mask;
        const word_t old = gen() & mask;
        const word_t incoming = gen();
        ASSERT_EQ(plane->corrupt(row, ideal), map.corrupt(row, ideal));
        ASSERT_EQ(plane->apply_write(row, old, incoming),
                  map.apply_write(row, old, incoming));
      }
      const auto first =
          static_cast<std::uint32_t>(gen.uniform_below(geometry.rows));
      const std::size_t count = gen.uniform_below(geometry.rows - first + 1);
      std::vector<word_t> words(count);
      std::vector<word_t> storage(count);
      std::vector<word_t> incoming(count);
      for (std::size_t i = 0; i < count; ++i) {
        words[i] = gen() & mask;
        storage[i] = gen() & mask;
        incoming[i] = gen();
      }
      std::vector<word_t> read = words;
      plane->corrupt_rows(first, read);
      std::vector<word_t> written = storage;
      plane->apply_write_rows(first, incoming, written);
      for (std::size_t i = 0; i < count; ++i) {
        const auto row = first + static_cast<std::uint32_t>(i);
        ASSERT_EQ(read[i], map.corrupt(row, words[i])) << "row " << row;
        ASSERT_EQ(written[i], map.apply_write(row, storage[i], incoming[i]))
            << "row " << row;
      }
    }
  }
}

}  // namespace
}  // namespace urmem
