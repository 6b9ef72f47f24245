// A campaign tile reused across trials against a new tile per trial.
//
// store_words resets its store_tile before each tile it stores: the
// stored words go back to zero, then set_fault_map reinstalls the map,
// remaps, spare flags, scheme configuration and planes. This suite runs
// one reused tile over 200 trials and, after each trial, compares it
// with a new tile run on the same stream: the changed words, the
// pipeline stats, the installed map, the remaps, the compiled plane,
// the at-risk rows and the raw stored words. Transition faults (the
// `mixed` polarity) read the word a previous write left, so they are
// what a missing stored-word reset shows up in. A last case checks that
// per-worker tiles on a 4-thread campaign store what one new tile per
// trial stores.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "urmem/common/bitops.hpp"
#include "urmem/common/rng.hpp"
#include "urmem/memory/fault_plane.hpp"
#include "urmem/memory/fault_sampler.hpp"
#include "urmem/scheme/protection_scheme.hpp"
#include "urmem/sim/campaign_runner.hpp"
#include "urmem/sim/memory_pipeline.hpp"

#include "recipe_table.hpp"

namespace urmem {
namespace {

using test_recipes::recipe_specs;
using test_recipes::resolve;
using test_recipes::storage_of;

constexpr fault_polarity kPolarities[] = {
    fault_polarity::flip, fault_polarity::random_stuck, fault_polarity::mixed};

/// Everything a visitor can see of one tile after its pass.
struct tile_view {
  std::size_t first_word = 0;
  std::vector<changed_word> changed;
  std::vector<fault> faults;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> remaps;
  std::optional<fault_plane> plane;
  std::vector<std::uint32_t> at_risk;
  std::vector<word_t> stored;  ///< raw words of every physical row
};

struct pass_view {
  pipeline_stats stats;
  std::vector<tile_view> tiles;
};

pass_view run_pass(std::span<const word_t> words, store_tile& tile,
                   const fault_injector& inject, rng& gen) {
  pass_view view;
  view.stats = store_words(
      words, tile, inject, gen,
      [&](std::size_t first_word, const protected_memory& memory,
          std::span<const changed_word> changed) {
        tile_view t;
        t.first_word = first_word;
        t.changed.assign(changed.begin(), changed.end());
        const std::span<const fault> faults = memory.array().faults().all_faults();
        t.faults.assign(faults.begin(), faults.end());
        t.remaps = memory.row_remaps();
        t.plane.emplace(memory.array().plane());
        t.at_risk = memory.at_risk_rows();
        for (std::uint32_t row = 0; row < memory.array().rows(); ++row) {
          t.stored.push_back(memory.array().read_ideal(row));
        }
        view.tiles.push_back(std::move(t));
      });
  return view;
}

void expect_same_pass(const pass_view& reused, const pass_view& fresh) {
  EXPECT_EQ(reused.stats.tiles, fresh.stats.tiles);
  EXPECT_EQ(reused.stats.injected_faults, fresh.stats.injected_faults);
  EXPECT_EQ(reused.stats.corrected_words, fresh.stats.corrected_words);
  EXPECT_EQ(reused.stats.uncorrectable_words, fresh.stats.uncorrectable_words);
  ASSERT_EQ(reused.tiles.size(), fresh.tiles.size());
  for (std::size_t i = 0; i < reused.tiles.size(); ++i) {
    SCOPED_TRACE("tile " + std::to_string(i));
    const tile_view& a = reused.tiles[i];
    const tile_view& b = fresh.tiles[i];
    EXPECT_EQ(a.first_word, b.first_word);
    ASSERT_EQ(a.changed.size(), b.changed.size()) << "changed words";
    for (std::size_t k = 0; k < a.changed.size(); ++k) {
      EXPECT_EQ(a.changed[k].row, b.changed[k].row) << "changed word " << k;
      EXPECT_EQ(a.changed[k].read, b.changed[k].read) << "changed word " << k;
    }
    EXPECT_EQ(a.faults, b.faults) << "installed map";
    EXPECT_EQ(a.remaps, b.remaps) << "remaps";
    EXPECT_TRUE(*a.plane == *b.plane) << "compiled plane";
    EXPECT_EQ(a.at_risk, b.at_risk) << "at-risk rows";
    EXPECT_EQ(a.stored, b.stored) << "stored words";
  }
}

/// Exact draws whose count varies per tile, from a fault-free tile to
/// about two faults per row (every spare pool runs dry), so consecutive
/// trials leave the reused tile in very different states.
fault_injector varying_injector(fault_polarity polarity) {
  return [polarity](const array_geometry& geometry, rng& gen) {
    const std::uint64_t count = gen.uniform_below(2 * geometry.rows + 1);
    return sample_fault_map_exact(geometry, count, gen, polarity);
  };
}

std::vector<word_t> random_words(std::size_t count, rng& gen) {
  std::vector<word_t> words(count);
  for (word_t& word : words) word = gen() & word_mask(32);
  return words;
}

/// 200 trials of one reused tile against a new tile per trial, each
/// pass spanning a tile and a half (reuse within a pass and a partial
/// tile, too).
void expect_reuse_matches_fresh(const scheme_recipe& recipe,
                                const storage_config& config,
                                const fault_injector& inject,
                                std::uint64_t seed) {
  rng data_gen(seed);
  const std::vector<word_t> words =
      random_words(3 * static_cast<std::size_t>(config.rows_per_tile) / 2,
                   data_gen);
  store_tile reused(config, recipe.factory);
  for (std::uint64_t trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    rng reused_gen = make_stream_rng(seed, trial);
    rng fresh_gen = make_stream_rng(seed, trial);
    const pass_view a = run_pass(words, reused, inject, reused_gen);
    store_tile fresh(config, recipe.factory);
    const pass_view b = run_pass(words, fresh, inject, fresh_gen);
    expect_same_pass(a, b);
    ASSERT_EQ(reused_gen(), fresh_gen()) << "fault sampling drew differently";
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(TileReuse, ReusedTileEqualsANewOneForEveryRecipe) {
  for (const std::string& spec : recipe_specs()) {
    const scheme_recipe recipe = resolve(spec);
    const storage_config config = storage_of(recipe);
    for (const fault_polarity polarity : kPolarities) {
      SCOPED_TRACE(spec + ", " + std::string(to_string(polarity)));
      expect_reuse_matches_fresh(recipe, config, varying_injector(polarity),
                                 0x7e05e);
      if (HasFailure()) return;
    }
  }
}

// hrm_tiers' tiered tile: a 1024-row SECDED tier with an 8-row spare
// pool at Pcell 1e-3 and a 3072-row nFM=2 tier at 1e-2, drawn by the
// region injector the hrm-quality workload uses.
TEST(TileReuse, ReusedHrmTieredTileEqualsANewOne) {
  constexpr std::uint32_t rows = 4096;
  const scheme_recipe recipe = resolve(
      "tiered:0-1023=secded,spare_rows=8:1024-4095=shuffle,nfm=2", rows);
  ASSERT_EQ(recipe.regions.size(), 2u);
  const storage_config config = storage_of(recipe, rows);
  const array_geometry geometry = tile_storage_geometry(config, recipe.factory);
  for (const fault_polarity polarity : kPolarities) {
    SCOPED_TRACE(to_string(polarity));
    const fault_injector inject = region_fault_injector(
        geometry, {{recipe.regions[0], 1e-3}, {recipe.regions[1], 1e-2}},
        polarity);
    expect_reuse_matches_fresh(recipe, config, inject, 0x4a3);
    if (HasFailure()) return;
  }
}

// Per-worker tiles on a 4-thread campaign (one built on each worker's
// first group, reused for its others) store exactly what a new tile
// per trial stores. Under TSan this is the race check for the pattern
// run_quality_experiment and hrm-quality use.
TEST(TileReuse, PerWorkerTilesMatchANewTilePerTrial) {
  const scheme_recipe recipe =
      resolve("tiered:0-127=secded,spare_rows=8:128-255=none");
  const storage_config config = storage_of(recipe);
  const fault_injector inject = varying_injector(fault_polarity::mixed);
  rng data_gen(5);
  const std::vector<word_t> words = random_words(600, data_gen);
  constexpr std::uint64_t trials = 96;

  std::vector<pass_view> expected(trials);
  for (std::uint64_t trial = 0; trial < trials; ++trial) {
    rng gen = make_stream_rng(41, trial);
    store_tile fresh(config, recipe.factory);
    expected[trial] = run_pass(words, fresh, inject, gen);
  }

  campaign_runner runner({.threads = 4, .batch_size = 3, .seed = 41});
  std::vector<std::optional<store_tile>> tiles(runner.threads());
  std::vector<pass_view> got(trials);
  runner.run_groups(
      trials, 4, [&](std::uint64_t first, std::span<rng> gens, unsigned worker) {
        std::optional<store_tile>& tile = tiles[worker];
        if (!tile) tile.emplace(config, recipe.factory);
        for (std::size_t k = 0; k < gens.size(); ++k) {
          got[first + k] = run_pass(words, *tile, inject, gens[k]);
        }
      });
  for (std::uint64_t trial = 0; trial < trials; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    expect_same_pass(got[trial], expected[trial]);
  }
}

// The checks store_words ran per call now run once, when the tile is
// built.
TEST(TileReuse, ConstructorRejectsWhatStoreWordsRejected) {
  const scheme_factory none = [](std::uint32_t) { return make_scheme_none(); };
  storage_config config;
  config.rows_per_tile = 0;
  EXPECT_THROW((void)store_tile(config, none), std::invalid_argument);
  config.rows_per_tile = 16;
  config.spare_rows_per_tile = 2;
  config.regions = {{0, 15, 1, 0}};
  EXPECT_THROW((void)store_tile(config, none), std::invalid_argument);
  config.spare_rows_per_tile = 0;
  config.regions.clear();
  EXPECT_THROW((void)store_tile(config, [](std::uint32_t) {
                 return std::unique_ptr<protection_scheme>();
               }),
               std::invalid_argument);
  config.word_bits = 16;
  EXPECT_THROW((void)store_tile(config, none), std::invalid_argument);
}

}  // namespace
}  // namespace urmem
