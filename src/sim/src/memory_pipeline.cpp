#include "urmem/sim/memory_pipeline.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "urmem/common/binomial.hpp"
#include "urmem/common/contracts.hpp"

namespace urmem {

quantized_matrix quantize(const matrix& input, const storage_config& config) {
  const matrix_quantizer quantizer(
      fixed_point_codec(config.word_bits, config.frac_bits));
  std::vector<word_t> words = quantizer.to_words(input);
  matrix values = quantizer.from_words(words, input.rows(), input.cols());
  return {std::move(words), std::move(values)};
}

namespace {

std::unique_ptr<protection_scheme> checked_scheme(const storage_config& config,
                                                  const scheme_factory& factory) {
  expects(config.rows_per_tile >= 1, "tiles need at least one row");
  expects(config.regions.empty() || config.spare_rows_per_tile == 0,
          "a region table replaces spare_rows_per_tile");
  std::unique_ptr<protection_scheme> scheme = factory(config.rows_per_tile);
  expects(scheme != nullptr, "scheme factory returned null");
  expects(scheme->data_bits() == config.word_bits,
          "scheme word width must match the storage config");
  return scheme;
}

protected_memory build_memory(const storage_config& config,
                              std::unique_ptr<protection_scheme> scheme) {
  return config.regions.empty()
             ? protected_memory(config.rows_per_tile, std::move(scheme),
                                config.spare_rows_per_tile)
             : protected_memory(config.rows_per_tile, std::move(scheme),
                                config.regions);
}

}  // namespace

store_tile::store_tile(const storage_config& config,
                       const scheme_factory& factory)
    : config_(config),
      memory_(build_memory(config_, checked_scheme(config_, factory))) {}

void store_tile::install(fault_map faults) {
  // Under the old remaps, so a remapped row's spare is the one cleared.
  memory_.clear_words(written_);
  written_.clear();
  memory_.set_fault_map(std::move(faults));
}

void store_tile::write_block(std::uint32_t first,
                             std::span<const word_t> data) {
  for (std::size_t i = 0; i < data.size(); ++i) {
    written_.push_back(first + static_cast<std::uint32_t>(i));
  }
  memory_.write_block(first, data);
}

pipeline_stats store_words(std::span<const word_t> words, store_tile& tile,
                           const fault_injector& inject, rng& gen,
                           const tile_visitor& visit) {
  const std::uint32_t rows_per_tile = tile.config().rows_per_tile;
  const protected_memory& memory = tile.memory();
  std::vector<word_t> restored;
  std::vector<changed_word> changed;
  pipeline_stats stats;
  for (std::size_t base = 0; base < words.size(); base += rows_per_tile) {
    const auto tile_words =
        std::min<std::size_t>(rows_per_tile, words.size() - base);
    fault_map faults = inject(memory.storage_geometry(), gen);
    stats.injected_faults += faults.fault_count();
    tile.install(std::move(faults));

    // Stream each run of consecutive at-risk rows through the batched
    // block-codec + fault-plane path and collect the words that changed.
    changed.clear();
    const std::vector<std::uint32_t> rows = memory.at_risk_rows();
    for (std::size_t i = 0; i < rows.size() && rows[i] < tile_words;) {
      std::size_t end = i + 1;
      while (end < rows.size() && rows[end] == rows[end - 1] + 1 &&
             rows[end] < tile_words) {
        ++end;
      }
      const std::uint32_t first = rows[i];
      const std::span<const word_t> written =
          words.subspan(base + first, end - i);
      tile.write_block(first, written);
      restored.resize(written.size());
      protected_memory::block_stats block;
      memory.read_block(first, restored, &block);
      stats.corrected_words += block.corrected;
      stats.uncorrectable_words += block.uncorrectable;
      for (std::size_t k = 0; k < written.size(); ++k) {
        if (restored[k] == written[k]) continue;
        changed.push_back(
            {static_cast<std::uint32_t>(first + k), restored[k]});
      }
      i = end;
    }
    visit(base, memory, changed);
    ++stats.tiles;
  }
  return stats;
}

pipeline_stats store_words(std::span<const word_t> words,
                           const storage_config& config,
                           const scheme_factory& factory,
                           const fault_injector& inject, rng& gen,
                           const tile_visitor& visit) {
  store_tile tile(config, factory);
  return store_words(words, tile, inject, gen, visit);
}

readback store_and_readback(const quantized_matrix& clean, store_tile& tile,
                            const fault_injector& inject, rng& gen,
                            pipeline_stats* stats) {
  expects(clean.words.size() == clean.values.rows() * clean.values.cols(),
          "clean words do not match the clean values");
  const storage_config& config = tile.config();
  const fixed_point_codec codec(config.word_bits, config.frac_bits);
  readback out{clean.values, {}};
  const std::span<double> values = out.values.data();
  const pipeline_stats local = store_words(
      clean.words, tile, inject, gen,
      [&](std::size_t first_word, const protected_memory& /*tile*/,
          std::span<const changed_word> changed) {
        for (const changed_word& word : changed) {
          const std::size_t index = first_word + word.row;
          values[index] = codec.decode(word.read);
          const std::size_t row = index / out.values.cols();
          if (out.changed_rows.empty() || out.changed_rows.back() != row) {
            out.changed_rows.push_back(row);
          }
        }
      });
  if (stats != nullptr) *stats = local;
  return out;
}

readback store_and_readback(const quantized_matrix& clean,
                            const storage_config& config,
                            const scheme_factory& factory,
                            const fault_injector& inject, rng& gen,
                            pipeline_stats* stats) {
  store_tile tile(config, factory);
  return store_and_readback(clean, tile, inject, gen, stats);
}

matrix store_and_readback(const matrix& input, const storage_config& config,
                          const scheme_factory& factory,
                          const fault_injector& inject, rng& gen,
                          pipeline_stats* stats) {
  return store_and_readback(quantize(input, config), config, factory, inject,
                            gen, stats).values;
}

fault_injector exact_fault_injector(std::uint64_t n, fault_polarity polarity) {
  return [n, polarity](const array_geometry& geometry, rng& gen) {
    return sample_fault_map_exact(geometry, std::min(n, geometry.cells()), gen,
                                  polarity);
  };
}

array_geometry tile_storage_geometry(const storage_config& config,
                                     const scheme_factory& factory) {
  std::uint32_t spares = config.spare_rows_per_tile;
  for (const memory_region& region : config.regions) {
    spares += region.spare_rows;
  }
  // storage_bits is row-count independent; a 1-row probe is cheapest.
  return {config.rows_per_tile + spares, factory(1)->storage_bits()};
}

fault_injector binomial_fault_injector(const array_geometry& geometry,
                                       double pcell, fault_polarity polarity) {
  const auto dist =
      std::make_shared<const binomial_distribution>(geometry.cells(), pcell);
  return [geometry, dist, polarity](const array_geometry& tile, rng& gen) {
    expects(tile == geometry,
            "binomial injector called with another geometry than its own");
    return sample_fault_map_binomial(geometry, *dist, gen, polarity);
  };
}

fault_injector binomial_fault_injector(double pcell, fault_polarity polarity) {
  return [pcell, polarity](const array_geometry& geometry, rng& gen) {
    return binomial_fault_injector(geometry, pcell, polarity)(geometry, gen);
  };
}

fault_injector no_fault_injector() {
  return [](const array_geometry& geometry, rng&) { return fault_map(geometry); };
}

namespace {

/// Rebases one region's sub-map (data rows, then its spares) into tile
/// rows using protected_memory's region-order spare layout: data faults
/// go to `data`, spare faults to `spares`. Regions arrive in table
/// order, so each list stays ascending, and data rows precede every
/// spare row: `data` followed by `spares` is the sorted tile map.
void merge_region_faults(std::vector<fault>& data, std::vector<fault>& spares,
                         const fault_map& drawn, const memory_region& region,
                         std::uint32_t spare_base) {
  for (const fault& f : drawn.all_faults()) {
    if (f.row < region.rows()) {
      data.push_back({region.first_row + f.row, f.col, f.kind});
    } else {
      spares.push_back({spare_base + (f.row - region.rows()), f.col, f.kind});
    }
  }
}

/// The tile map of merge_region_faults' two lists.
fault_map region_tile_map(const array_geometry& geometry,
                          std::vector<fault>& data,
                          const std::vector<fault>& spares) {
  data.insert(data.end(), spares.begin(), spares.end());
  return fault_map(geometry, std::move(data));
}

std::uint32_t checked_region_tile_rows(const std::vector<memory_region>& regions,
                                       const array_geometry& geometry) {
  std::uint32_t data_rows = 0;
  std::uint32_t spares = 0;
  for (const memory_region& region : regions) {
    data_rows += region.rows();
    spares += region.spare_rows;
  }
  expects(geometry.rows == data_rows + spares,
          "tile geometry must match the region table (data + spares)");
  return data_rows;
}

/// One region of a region_fault_injector: its sub-array and the
/// Binomial(cells, pcell) distribution over it, built once.
struct region_draw {
  memory_region region;
  array_geometry sub;
  binomial_distribution dist;
};

}  // namespace

fault_injector region_fault_injector(const array_geometry& geometry,
                                     std::vector<region_operating_point> points,
                                     fault_polarity polarity) {
  expects(!points.empty(), "region injector needs at least one region");
  std::vector<memory_region> regions;
  regions.reserve(points.size());
  for (const region_operating_point& point : points) {
    regions.push_back(point.region);
  }
  const std::uint32_t data_rows = checked_region_tile_rows(regions, geometry);
  std::vector<region_draw> built;
  built.reserve(points.size());
  for (const region_operating_point& point : points) {
    const array_geometry sub{point.region.rows() + point.region.spare_rows,
                             geometry.width};
    built.push_back({point.region, sub,
                     binomial_distribution(sub.cells(), point.pcell)});
  }
  const auto draws =
      std::make_shared<const std::vector<region_draw>>(std::move(built));
  return [geometry, data_rows, draws, polarity](const array_geometry& tile,
                                                rng& gen) {
    expects(tile == geometry,
            "region injector called with another geometry than its own");
    std::vector<fault> data;
    std::vector<fault> spares;
    std::uint32_t spare_base = data_rows;
    // Regions draw in table order on the shared trial stream, so the
    // map is deterministic for a fixed seed regardless of scheduling.
    for (const region_draw& draw : *draws) {
      merge_region_faults(
          data, spares,
          sample_fault_map_binomial(draw.sub, draw.dist, gen, polarity),
          draw.region, spare_base);
      spare_base += draw.region.spare_rows;
    }
    return region_tile_map(geometry, data, spares);
  };
}

fault_injector region_fault_injector(std::vector<region_operating_point> points,
                                     fault_polarity polarity) {
  expects(!points.empty(), "region injector needs at least one region");
  return [points = std::move(points), polarity](const array_geometry& geometry,
                                                rng& gen) {
    return region_fault_injector(geometry, points, polarity)(geometry, gen);
  };
}

fault_injector region_exact_fault_injector(std::vector<memory_region> regions,
                                           std::vector<std::uint64_t> counts,
                                           fault_polarity polarity) {
  expects(!regions.empty(), "region injector needs at least one region");
  expects(regions.size() == counts.size(),
          "need exactly one fault count per region");
  return [regions = std::move(regions), counts = std::move(counts),
          polarity](const array_geometry& geometry, rng& gen) {
    std::uint32_t spare_base = checked_region_tile_rows(regions, geometry);
    std::vector<fault> data;
    std::vector<fault> spares;
    for (std::size_t r = 0; r < regions.size(); ++r) {
      const array_geometry sub{regions[r].rows() + regions[r].spare_rows,
                               geometry.width};
      // "Exactly counts[r]" is the contract; silently clamping would
      // let reports claim counts that were never injected.
      expects(counts[r] <= sub.cells(),
              "exact region fault count exceeds the region's cells");
      merge_region_faults(data, spares,
                          sample_fault_map_exact(sub, counts[r], gen, polarity),
                          regions[r], spare_base);
      spare_base += regions[r].spare_rows;
    }
    return region_tile_map(geometry, data, spares);
  };
}

}  // namespace urmem
