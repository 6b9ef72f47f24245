// Property tests for the compiled fault-plane fast path: over randomized
// fault maps covering all five fault_kinds, compiled-plane reads/writes
// (single-word and batched row ops) must be bit-identical to fault_map's
// per-fault reference walk — including transition faults across write
// sequences and planes recompiled in place over a run of different maps
// — and batched row ops must read back what per-word ops do.
#include <gtest/gtest.h>

#include <vector>

#include "urmem/common/rng.hpp"
#include "urmem/memory/fault_plane.hpp"
#include "urmem/memory/fault_sampler.hpp"
#include "urmem/memory/sram_array.hpp"

namespace urmem {
namespace {

constexpr fault_kind kAllKinds[] = {
    fault_kind::stuck_at_zero, fault_kind::stuck_at_one, fault_kind::flip,
    fault_kind::transition_up_fail, fault_kind::transition_down_fail};

// Random map with `count` faults drawn uniformly over cells and kinds —
// unlike the samplers' polarity presets this guarantees every kind has
// equal mass, so thin kinds (transition faults) are always exercised.
fault_map random_map(const array_geometry& geometry, std::uint64_t count,
                     rng& gen) {
  fault_map map(geometry);
  for (std::uint64_t i = 0; i < count; ++i) {
    map.add({static_cast<std::uint32_t>(gen.uniform_below(geometry.rows)),
             static_cast<std::uint32_t>(gen.uniform_below(geometry.width)),
             kAllKinds[gen.uniform_below(5)]});
  }
  return map;
}

std::vector<word_t> random_words(std::uint32_t count, unsigned width, rng& gen) {
  std::vector<word_t> out(count);
  for (auto& w : out) w = gen() & word_mask(width);
  return out;
}

TEST(FaultPlaneTest, CompiledMatchesReferenceOnReads) {
  rng gen(2024);
  for (int round = 0; round < 40; ++round) {
    const array_geometry geometry{
        static_cast<std::uint32_t>(1 + gen.uniform_below(300)),
        static_cast<std::uint32_t>(1 + gen.uniform_below(64))};
    const fault_map map =
        random_map(geometry, gen.uniform_below(2 * geometry.rows + 1), gen);
    const fault_plane plane(map);
    ASSERT_EQ(plane.fault_count(), map.fault_count());
    for (int probe = 0; probe < 50; ++probe) {
      const auto row =
          static_cast<std::uint32_t>(gen.uniform_below(geometry.rows));
      const word_t ideal = gen();  // deliberately unmasked input
      EXPECT_EQ(plane.corrupt(row, ideal & word_mask(geometry.width)),
                map.corrupt(row, ideal));
    }
  }
}

TEST(FaultPlaneTest, CompiledMatchesReferenceOnWrites) {
  rng gen(77);
  for (int round = 0; round < 40; ++round) {
    const array_geometry geometry{
        static_cast<std::uint32_t>(1 + gen.uniform_below(200)),
        static_cast<std::uint32_t>(1 + gen.uniform_below(64))};
    const fault_map map =
        random_map(geometry, gen.uniform_below(2 * geometry.rows + 1), gen);
    const fault_plane plane(map);
    for (int probe = 0; probe < 50; ++probe) {
      const auto row =
          static_cast<std::uint32_t>(gen.uniform_below(geometry.rows));
      const word_t old = gen();
      const word_t incoming = gen();
      EXPECT_EQ(plane.apply_write(row, old, incoming),
                map.apply_write(row, old, incoming));
    }
  }
}

TEST(FaultPlaneTest, BatchedRowOpsMatchPerWordOpsAcrossWriteSequences) {
  rng gen(5150);
  for (int round = 0; round < 15; ++round) {
    const array_geometry geometry{
        static_cast<std::uint32_t>(2 + gen.uniform_below(400)),
        static_cast<std::uint32_t>(1 + gen.uniform_below(64))};
    const fault_map map =
        random_map(geometry, gen.uniform_below(3 * geometry.rows + 1), gen);

    sram_array batched(map);
    batched.set_fault_path(fault_path::compiled);
    sram_array oracle(map);
    oracle.set_fault_path(fault_path::reference);

    // Several full-array writes so transition faults see 0->1 and 1->0
    // transitions whose outcome depends on the accumulated cell state.
    for (int pass = 0; pass < 4; ++pass) {
      const auto pattern = random_words(geometry.rows, geometry.width, gen);
      batched.write_rows(0, pattern);
      for (std::uint32_t row = 0; row < geometry.rows; ++row) {
        oracle.write(row, pattern[row]);
      }
      std::vector<word_t> out(geometry.rows);
      batched.read_rows(0, out);
      for (std::uint32_t row = 0; row < geometry.rows; ++row) {
        ASSERT_EQ(out[row], oracle.read(row))
            << "pass " << pass << " row " << row;
        ASSERT_EQ(batched.read_ideal(row), oracle.read_ideal(row))
            << "pass " << pass << " row " << row;
      }
    }

    // Partial-range ops agree with per-word ops on a third array.
    const auto first =
        static_cast<std::uint32_t>(gen.uniform_below(geometry.rows));
    const auto count = static_cast<std::uint32_t>(
        1 + gen.uniform_below(geometry.rows - first));
    const auto chunk = random_words(count, geometry.width, gen);
    batched.write_rows(first, chunk);
    for (std::uint32_t i = 0; i < count; ++i) oracle.write(first + i, chunk[i]);
    std::vector<word_t> slice(count);
    batched.read_rows(first, slice);
    for (std::uint32_t i = 0; i < count; ++i) {
      ASSERT_EQ(slice[i], oracle.read(first + i));
    }
  }
}

TEST(FaultPlaneTest, MixedPolaritySamplerMapsCompileIdentically) {
  rng gen(31337);
  const array_geometry geometry{512, 32};
  const fault_map map = sample_fault_map_exact(geometry, 800, gen,
                                               fault_polarity::mixed);
  const fault_plane plane(map);
  rng probe(1);
  for (int i = 0; i < 2000; ++i) {
    const auto row = static_cast<std::uint32_t>(probe.uniform_below(512));
    const word_t ideal = probe() & word_mask(32);
    EXPECT_EQ(plane.corrupt(row, ideal), map.corrupt(row, ideal));
  }
}

TEST(FaultPlaneTest, FaultFreeSpanSkipsAreExact) {
  fault_map map({256, 16});
  map.add({0, 3, fault_kind::flip});
  map.add({63, 1, fault_kind::stuck_at_one});
  map.add({64, 0, fault_kind::stuck_at_zero});
  map.add({255, 15, fault_kind::flip});
  const fault_plane plane(map);

  EXPECT_FALSE(plane.rows_fault_free(0, 256));
  EXPECT_TRUE(plane.rows_fault_free(1, 62));    // 1..62 clean
  EXPECT_FALSE(plane.rows_fault_free(1, 63));   // picks up row 63
  EXPECT_TRUE(plane.rows_fault_free(65, 190));  // 65..254 clean
  EXPECT_FALSE(plane.rows_fault_free(65, 191)); // picks up row 255
  EXPECT_TRUE(plane.rows_fault_free(100, 0));

  // A fault-free plane corrupts nothing under the batched op.
  const fault_plane clean((fault_map(array_geometry{8, 16})));
  std::vector<word_t> words{1, 2, 3, 4, 5, 6, 7, 8};
  const auto before = words;
  clean.corrupt_rows(0, words);
  EXPECT_EQ(words, before);
}

TEST(FaultPlaneTest, SetFaultsRecompilesThePlane) {
  const array_geometry geometry{16, 8};
  sram_array array{(fault_map(geometry))};
  array.write(3, 0xFF);
  EXPECT_EQ(array.read(3), 0xFFULL);

  fault_map faults(geometry);
  faults.add({3, 0, fault_kind::stuck_at_zero});
  array.set_faults(faults);  // must invalidate the compiled plane
  EXPECT_EQ(array.read(3), 0xFEULL);
  EXPECT_FALSE(array.plane().rows_fault_free(3, 1));

  array.set_faults(fault_map(geometry));  // back to clean
  EXPECT_EQ(array.read(3), 0xFFULL);
  EXPECT_TRUE(array.plane().rows_fault_free(0, 16));
}

TEST(FaultPlaneTest, InPlaceRecompileMatchesFreshArraysAndTheWalk) {
  // One array receives a run of maps — dense, sparse, empty, dense — so
  // every recompile must reset the rows the previous map made faulty.
  // Rows 63 and 64 straddle a faulty-row bitmap word boundary.
  rng gen(4242);
  const array_geometry geometry{200, 32};
  sram_array reused{fault_map(geometry)};
  for (int round = 0; round < 3; ++round) {
    for (const std::uint64_t count : {600ULL, 6ULL, 0ULL, 600ULL}) {
      fault_map map = random_map(geometry, count, gen);
      if (count != 0) {
        map.add({63, static_cast<std::uint32_t>(gen.uniform_below(32)),
                 kAllKinds[gen.uniform_below(5)]});
        map.add({64, static_cast<std::uint32_t>(gen.uniform_below(32)),
                 kAllKinds[gen.uniform_below(5)]});
      }
      reused.set_faults(map);
      const sram_array fresh(map);
      const fault_plane& plane = reused.plane();
      ASSERT_EQ(plane.fault_count(), map.fault_count());
      for (std::uint32_t row = 0; row < geometry.rows; ++row) {
        ASSERT_EQ(plane.rows_fault_free(row, 1), !map.row_has_faults(row))
            << "row " << row;
        for (int probe = 0; probe < 4; ++probe) {
          const word_t ideal = gen() & word_mask(32);
          const word_t old = gen() & word_mask(32);
          const word_t incoming = gen();
          ASSERT_EQ(plane.corrupt(row, ideal), fresh.plane().corrupt(row, ideal))
              << "row " << row;
          ASSERT_EQ(plane.corrupt(row, ideal), map.corrupt(row, ideal))
              << "row " << row;
          ASSERT_EQ(plane.apply_write(row, old, incoming),
                    fresh.plane().apply_write(row, old, incoming))
              << "row " << row;
          ASSERT_EQ(plane.apply_write(row, old, incoming),
                    map.apply_write(row, old, incoming))
              << "row " << row;
        }
      }
    }
  }
}

TEST(FaultPlaneTest, BulkConstructorEqualsSequentialAdd) {
  rng gen(99);
  for (int round = 0; round < 30; ++round) {
    const array_geometry geometry{
        static_cast<std::uint32_t>(1 + gen.uniform_below(8)),
        static_cast<std::uint32_t>(1 + gen.uniform_below(8))};
    // Few cells, many faults: most cells are listed more than once, with
    // differing kinds, so the last-wins rule is exercised.
    std::vector<fault> faults(gen.uniform_below(3 * geometry.cells() + 1));
    for (fault& f : faults) {
      f = {static_cast<std::uint32_t>(gen.uniform_below(geometry.rows)),
           static_cast<std::uint32_t>(gen.uniform_below(geometry.width)),
           kAllKinds[gen.uniform_below(5)]};
    }
    fault_map sequential(geometry);
    for (const fault& f : faults) sequential.add(f);
    const fault_map bulk(geometry, faults);
    ASSERT_EQ(bulk.fault_count(), sequential.fault_count());
    for (std::size_t i = 0; i < bulk.fault_count(); ++i) {
      EXPECT_EQ(bulk.all_faults()[i], sequential.all_faults()[i]) << "fault " << i;
    }
  }
}

TEST(FaultPlaneTest, BatchedOpsMatchPerWordOps) {
  const array_geometry geometry{64, 32};
  sram_array array{(fault_map(geometry))};

  const std::vector<word_t> words(64, 0xABCD);
  array.write_rows(0, std::span(words).subspan(0, 40));

  std::vector<word_t> out(25);
  array.read_rows(10, out);

  // Batched and per-word ops store and read the same words.
  sram_array per_word{(fault_map(geometry))};
  for (std::uint32_t row = 0; row < 40; ++row) per_word.write(row, 0xABCD);
  for (std::uint32_t row = 10; row < 35; ++row) {
    EXPECT_EQ(out[row - 10], per_word.read(row)) << "row " << row;
  }

  // Empty spans are legal and touch nothing.
  array.write_rows(64, std::span<const word_t>());
  array.read_rows(0, std::span<word_t>());
  for (std::uint32_t row = 0; row < 64; ++row) {
    EXPECT_EQ(array.read(row), per_word.read(row)) << "row " << row;
  }

  // The reference oracle reads the same words.
  array.set_fault_path(fault_path::reference);
  std::vector<word_t> reference(25);
  array.read_rows(10, reference);
  EXPECT_EQ(reference, out);
}

TEST(FaultPlaneTest, BatchedOpsRejectOutOfRangeSpans) {
  sram_array array{(fault_map(array_geometry{8, 8}))};
  std::vector<word_t> nine(9, 0);
  EXPECT_THROW(array.read_rows(0, nine), std::invalid_argument);
  EXPECT_THROW(array.write_rows(1, std::span<const word_t>(nine.data(), 8)),
               std::invalid_argument);
  EXPECT_THROW(array.read_rows(9, std::span<word_t>(nine.data(), 0)),
               std::invalid_argument);
  const fault_plane plane((fault_map(array_geometry{8, 8})));
  EXPECT_THROW((void)plane.corrupt(8, 0), std::invalid_argument);
  EXPECT_THROW((void)plane.rows_fault_free(0, 9), std::invalid_argument);
  EXPECT_THROW((void)plane.rows_fault_free(9, 0), std::invalid_argument);
}

}  // namespace
}  // namespace urmem
