// The scheme-recipe table the tile-pass suites share: one recipe per
// registered scheme, plus the shapes that change which rows are at
// risk: a spare pool, region tables with their own pools and tiers of
// different storage widths.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "urmem/scenario/scenario_spec.hpp"
#include "urmem/scenario/scheme_registry.hpp"
#include "urmem/sim/memory_pipeline.hpp"

namespace urmem::test_recipes {

inline constexpr std::uint32_t rows_per_tile = 256;

inline const std::vector<std::string>& recipe_specs() {
  static const std::vector<std::string> specs = {
      "none",
      "secded",
      "hsiao",
      "bch",
      "pecc",
      "shuffle:nfm=1",
      "shuffle:nfm=2",
      "shuffle+secded:nfm=2",
      "shuffle+pecc:nfm=1",
      "redundancy:spares=16",
      "tiered:0-99=bch,t=2,spare_rows=4:100-199=shuffle,nfm=2:200-255=pecc",
      "tiered:0-127=secded,spare_rows=8:128-255=none",
  };
  return specs;
}

/// Resolves a compact scheme spec for 32-bit tiles of `rows` rows.
inline scheme_recipe resolve(const std::string& spec,
                             std::uint32_t rows = rows_per_tile) {
  geometry_spec geometry;
  geometry.word_bits = 32;
  geometry.rows_per_tile = rows;
  return scheme_registry::instance().make(parse_compact_scheme(spec, "schemes"),
                                          geometry);
}

/// The storage config of `recipe`'s tiles of `rows` rows.
inline storage_config storage_of(const scheme_recipe& recipe,
                                 std::uint32_t rows = rows_per_tile) {
  storage_config config;
  config.rows_per_tile = rows;
  config.spare_rows_per_tile = recipe.spare_rows;
  config.regions = recipe.regions;
  return config;
}

}  // namespace urmem::test_recipes
