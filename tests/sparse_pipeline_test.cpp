// The sparse store/readback pass against the whole-tile pass it
// replaced.
//
// The sparse pipeline writes and reads only a tile's at-risk rows
// (protected_memory::at_risk_rows) and trusts the fault-free row
// contract of protection_scheme.hpp for every other row. This suite
// checks that contract for every registered scheme recipe, then checks
// that the sparse pass matches a whole-tile oracle bit for bit: the
// restored values, pipeline_stats and the changed-row list, and the
// raw words patched from store_words' per-tile changes.
//
// The pipeline picks the fault path process-wide, so ctest runs this
// suite twice: as is, and with URMEM_FAULT_PATH=reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "urmem/common/bitops.hpp"
#include "urmem/common/rng.hpp"
#include "urmem/memory/fault_sampler.hpp"
#include "urmem/scenario/scheme_registry.hpp"
#include "urmem/sim/memory_pipeline.hpp"
#include "urmem/sim/quantizer.hpp"

#include "recipe_table.hpp"

namespace urmem {
namespace {

using test_recipes::recipe_specs;
using test_recipes::resolve;
using test_recipes::rows_per_tile;
using test_recipes::storage_of;

/// A new tile, built the way store_tile builds one.
protected_memory build_tile(const storage_config& config,
                            const scheme_factory& factory) {
  return config.regions.empty()
             ? protected_memory(config.rows_per_tile,
                                factory(config.rows_per_tile),
                                config.spare_rows_per_tile)
             : protected_memory(config.rows_per_tile,
                                factory(config.rows_per_tile), config.regions);
}

TEST(FaultFreeRowContract, RecipeTableCoversEveryRegisteredScheme) {
  for (const auto& entry : scheme_registry::instance().list()) {
    const bool covered = std::any_of(
        recipe_specs().begin(), recipe_specs().end(),
        [&](const std::string& spec) {
          return spec.substr(0, spec.find(':')) == entry.name;
        });
    EXPECT_TRUE(covered) << "no recipe exercises scheme " << entry.name;
  }
}

// Whatever random non-empty map configured the scheme (and ran the
// spare repair), every row whose physical row holds no fault reads back
// the written word with a clean status, on both fault paths, and
// at_risk_rows lists exactly the faulty and the remapped rows.
TEST(FaultFreeRowContract, CleanRowsRoundTripOnBothPaths) {
  for (const std::string& spec : recipe_specs()) {
    const scheme_recipe recipe = resolve(spec);
    const storage_config config = storage_of(recipe);
    for (const fault_path path :
         {fault_path::compiled, fault_path::reference}) {
      for (std::uint64_t draw = 0; draw < 6; ++draw) {
        SCOPED_TRACE(spec + (path == fault_path::reference ? " reference"
                                                           : " compiled") +
                     " draw " + std::to_string(draw));
        rng gen = make_stream_rng(0x636c65616eULL, draw);
        protected_memory memory = build_tile(config, recipe.factory);
        memory.set_fault_path(path);
        // From a handful of faults (spares repair everything) to ~2 per
        // row (every spare pool runs dry).
        const std::uint64_t count = 1 + gen.uniform_below(2 * rows_per_tile);
        memory.set_fault_map(sample_fault_map_exact(
            memory.storage_geometry(), count, gen, fault_polarity::mixed));

        std::vector<word_t> data(rows_per_tile);
        for (word_t& word : data) word = gen() & word_mask(32);
        memory.write_block(0, data);

        const std::vector<std::uint32_t> at_risk = memory.at_risk_rows();
        ASSERT_TRUE(std::is_sorted(at_risk.begin(), at_risk.end()));
        for (std::uint32_t row = 0; row < rows_per_tile; ++row) {
          const std::uint32_t physical = memory.physical_row_of(row);
          const bool faulty = memory.array().faults().row_has_faults(physical);
          EXPECT_EQ(std::binary_search(at_risk.begin(), at_risk.end(), row),
                    faulty || physical != row)
              << "row " << row;
          if (faulty) continue;
          const read_result word = memory.read(row);
          EXPECT_EQ(word.data, data[row]) << "row " << row;
          EXPECT_EQ(word.status, ecc_status::clean) << "row " << row;
          word_t block_word = 0;
          protected_memory::block_stats stats;
          memory.read_block(row, std::span<word_t>(&block_word, 1), &stats);
          EXPECT_EQ(block_word, data[row]) << "row " << row;
          EXPECT_EQ(stats.corrected + stats.uncorrectable, 0u) << "row " << row;
        }
      }
    }
  }
}

/// Restored words and stats of one whole-tile pass.
struct dense_result {
  std::vector<word_t> restored;
  pipeline_stats stats;
};

/// The whole-tile loop the sparse pass replaced: every tile is written
/// and read in full through write_block/read_block.
dense_result dense_store_and_readback(const std::vector<word_t>& words,
                                      const storage_config& config,
                                      const scheme_factory& factory,
                                      const fault_injector& inject, rng& gen) {
  dense_result out;
  out.restored.resize(words.size());
  std::size_t cursor = 0;
  while (cursor < words.size()) {
    const auto tile_words =
        std::min<std::size_t>(config.rows_per_tile, words.size() - cursor);
    protected_memory memory = build_tile(config, factory);
    fault_map faults = inject(memory.storage_geometry(), gen);
    out.stats.injected_faults += faults.fault_count();
    memory.set_fault_map(std::move(faults));
    memory.write_block(
        0, std::span<const word_t>(words).subspan(cursor, tile_words));
    protected_memory::block_stats block;
    memory.read_block(
        0, std::span<word_t>(out.restored).subspan(cursor, tile_words),
        &block);
    out.stats.corrected_words += block.corrected;
    out.stats.uncorrectable_words += block.uncorrectable;
    ++out.stats.tiles;
    cursor += tile_words;
  }
  return out;
}

/// One fault in every physical row, spares included: no spare is fault
/// free, so every repair pool is exhausted before it starts.
fault_map fault_in_every_row(const array_geometry& geometry, rng& gen) {
  fault_map map(geometry);
  for (std::uint32_t row = 0; row < geometry.rows; ++row) {
    map.add({row, static_cast<std::uint32_t>(gen.uniform_below(geometry.width)),
             fault_kind::flip});
  }
  return map;
}

TEST(SparsePipeline, MatchesWholeTileOracleForEveryRecipe) {
  SCOPED_TRACE(sram_array::default_fault_path() == fault_path::reference
                   ? "reference path"
                   : "compiled path");
  // 150 x 7 = 1050 words: four full 256-row tiles and a 26-word tail.
  matrix input(150, 7);
  rng data_gen(17);
  for (double& v : input.data()) v = 4.0 * data_gen.normal();
  struct injection {
    std::string name;
    fault_injector inject;
  };
  const std::vector<injection> injections = {
      {"0 faults", exact_fault_injector(0)},
      {"1 fault", exact_fault_injector(1)},
      {"80 faults", exact_fault_injector(80)},
      {"80 mixed faults", exact_fault_injector(80, fault_polarity::mixed)},
      {"400 faults", exact_fault_injector(400)},
      {"a fault in every row", fault_in_every_row},
  };

  for (const std::string& spec : recipe_specs()) {
    const scheme_recipe recipe = resolve(spec);
    const storage_config config = storage_of(recipe);
    const quantized_matrix clean = quantize(input, config);
    const matrix_quantizer quantizer(
        fixed_point_codec(config.word_bits, config.frac_bits));
    for (std::size_t i = 0; i < injections.size(); ++i) {
      SCOPED_TRACE(spec + ", " + injections[i].name);
      rng sparse_gen = make_stream_rng(23, i);
      rng dense_gen = make_stream_rng(23, i);
      // A new tile per pass; tile_reuse_test covers reused tiles.
      store_tile sparse_tile(config, recipe.factory);
      pipeline_stats stats;
      const readback sparse = store_and_readback(
          clean, sparse_tile, injections[i].inject, sparse_gen, &stats);
      const dense_result dense = dense_store_and_readback(
          clean.words, config, recipe.factory, injections[i].inject, dense_gen);

      // The raw-word pass under the wrapper: patching each tile's
      // changed words into the written ones must give the dense
      // readback, and the visitor must see every tile once, in order.
      rng words_gen = make_stream_rng(23, i);
      std::vector<word_t> patched = clean.words;
      std::size_t visits = 0;
      store_tile words_tile(config, recipe.factory);
      const pipeline_stats word_stats = store_words(
          clean.words, words_tile, injections[i].inject, words_gen,
          [&](std::size_t first_word, const protected_memory& /*tile*/,
              std::span<const changed_word> changed) {
            EXPECT_EQ(first_word, visits * rows_per_tile);
            ++visits;
            for (std::size_t k = 0; k < changed.size(); ++k) {
              if (k > 0) {
                EXPECT_LT(changed[k - 1].row, changed[k].row);
              }
              const std::size_t w = first_word + changed[k].row;
              ASSERT_LT(w, patched.size());
              EXPECT_NE(changed[k].read, clean.words[w]) << "word " << w;
              patched[w] = changed[k].read;
            }
          });
      EXPECT_EQ(visits, dense.stats.tiles);
      EXPECT_EQ(word_stats.tiles, dense.stats.tiles);
      EXPECT_EQ(word_stats.injected_faults, dense.stats.injected_faults);
      EXPECT_EQ(word_stats.corrected_words, dense.stats.corrected_words);
      EXPECT_EQ(word_stats.uncorrectable_words,
                dense.stats.uncorrectable_words);
      for (std::size_t w = 0; w < patched.size(); ++w) {
        ASSERT_EQ(patched[w], dense.restored[w]) << "word " << w;
      }

      const std::uint64_t next_draw = dense_gen();
      EXPECT_EQ(sparse_gen(), next_draw) << "fault sampling drew differently";
      EXPECT_EQ(words_gen(), next_draw) << "fault sampling drew differently";

      const matrix expected =
          quantizer.from_words(dense.restored, input.rows(), input.cols());
      ASSERT_EQ(sparse.values.rows(), expected.rows());
      ASSERT_EQ(sparse.values.cols(), expected.cols());
      for (std::size_t w = 0; w < clean.words.size(); ++w) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(sparse.values.data()[w]),
                  std::bit_cast<std::uint64_t>(expected.data()[w]))
            << "word " << w;
      }
      EXPECT_EQ(stats.tiles, dense.stats.tiles);
      EXPECT_EQ(stats.injected_faults, dense.stats.injected_faults);
      EXPECT_EQ(stats.corrected_words, dense.stats.corrected_words);
      EXPECT_EQ(stats.uncorrectable_words, dense.stats.uncorrectable_words);

      std::vector<std::size_t> changed;
      for (std::size_t w = 0; w < clean.words.size(); ++w) {
        const std::size_t row = w / input.cols();
        if (dense.restored[w] != clean.words[w] &&
            (changed.empty() || changed.back() != row)) {
          changed.push_back(row);
        }
      }
      EXPECT_EQ(sparse.changed_rows, changed);
    }
  }
}

}  // namespace
}  // namespace urmem
