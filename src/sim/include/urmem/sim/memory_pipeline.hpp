// Tiled faulty-memory storage pipeline.
//
// The paper's harness stores each benchmark's training features in "a
// functional model of a 16 KB memory" and injects bit-flips per the
// sampled fault maps. Training sets larger than one 16 KB array span
// several tiles, each an independent protected_memory instance with its
// own fault map (exactly N failures per tile in the stratified Fig. 7
// sweep, or Binomial(M, Pcell) per tile otherwise).
//
// A trial pays for its faults, not for the array. The clean image (the
// fixed-point words and their dequantized values) is built once per
// input and storage config, and the tile itself (a store_tile: one
// protected_memory with its scheme, planes and stored words) is built
// once per store and reused for every tile of a pass and for every
// trial of the worker that owns it. Per tile, a trial zeroes the words
// the tile's last use wrote, draws its fault map and installs it
// exactly as a new tile would (protected_memory::set_fault_map is a
// full reset), but then streams only the at-risk rows (faulty or
// remapped, see protected_memory::at_risk_rows) through
// write_block/read_block: every other row reads back exactly what was
// written (the fault-free row contract of protection_scheme.hpp) and
// counts as neither corrected nor uncorrectable. store_words is that
// one tile pass over raw words: after each tile it hands a visitor the
// tile (fault map, remaps, regions) and the words that read back
// changed. hrm-quality's per-region accounting runs in that visitor,
// and store_and_readback (Fig. 7, psnr-image, ml-quality) wraps it for
// matrices: the readback is the clean values with the changed words
// patched in, bit-identical to dequantizing a whole-tile pass, and it
// lists the matrix rows that changed so an application can re-score
// only those (application::make_group_evaluator). A store is always
// quantize, then a caller-held store_tile, then store_words or
// store_and_readback on that tile.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "urmem/common/rng.hpp"
#include "urmem/memory/fault_sampler.hpp"
#include "urmem/ml/matrix.hpp"
#include "urmem/scheme/protected_memory.hpp"
#include "urmem/sim/quantizer.hpp"

namespace urmem {

/// Creates a fresh protection-scheme instance for a tile of `rows` rows.
using scheme_factory = std::function<std::unique_ptr<protection_scheme>(std::uint32_t rows)>;

/// Produces the fault map of one tile given its storage geometry
/// (protected_memory::storage_geometry), drawing only on the rng it is
/// handed. An injector is immutable once built: one instance may serve
/// every tile of every trial, from any number of threads at once.
/// Build it once per operating point and storage geometry (see
/// tile_storage_geometry); the binomial injectors build their fault-count
/// distributions when they are created, so per-call construction would
/// rebuild the same cumulative table for every tile.
using fault_injector = std::function<fault_map(const array_geometry&, rng&)>;

/// Geometry and Q-format of the tiled store.
struct storage_config {
  std::uint32_t rows_per_tile = 4096;  ///< 16 KB of 32-bit words
  unsigned frac_bits = 16;             ///< Q15.16 two's-complement
  unsigned word_bits = 32;
  /// Spare rows manufactured per tile for redundancy repair (0 = none;
  /// spares are injected with faults like every other row — see
  /// protected_memory).
  std::uint32_t spare_rows_per_tile = 0;
  /// Heterogeneous-reliability region table applied to every tile
  /// (ordered, covering [0, rows_per_tile) exactly; each region owns
  /// its spare pool). Empty = homogeneous tile; when set it replaces
  /// spare_rows_per_tile, which must then be 0.
  std::vector<memory_region> regions;
};

/// Statistics of one store/readback pass.
struct pipeline_stats {
  std::size_t tiles = 0;
  std::uint64_t injected_faults = 0;
  std::uint64_t corrected_words = 0;      ///< decoder corrected a single error
  std::uint64_t uncorrectable_words = 0;  ///< decoder flagged detected_uncorrectable
};

/// A tile word that read back different from the word written.
struct changed_word {
  std::uint32_t row = 0;  ///< tile row
  word_t read = 0;        ///< the word read back
};

/// Called once per tile, in order, after its at-risk rows were read
/// back: `first_word` indexes the tile's first word in the stored span,
/// `tile` holds the installed (drawn) fault map and the repair's
/// remaps, and `changed` lists the changed words in ascending row order.
using tile_visitor =
    std::function<void(std::size_t first_word, const protected_memory& tile,
                       std::span<const changed_word> changed)>;

/// One reusable campaign tile: a protected_memory of `config`'s
/// geometry and region table with a scheme from `factory`, built once.
/// Each install() returns it to the state of a new tile, so a reused
/// tile stores exactly what a new one would. A tile is mutable state:
/// one thread at a time, so a campaign keeps one per worker and store.
class store_tile {
 public:
  /// Checks `config` (at least one row; a region table replaces
  /// spare_rows_per_tile) and the scheme `factory` builds (non-null, of
  /// word width config.word_bits).
  store_tile(const storage_config& config, const scheme_factory& factory);

  [[nodiscard]] const storage_config& config() const { return config_; }
  [[nodiscard]] const protected_memory& memory() const { return memory_; }

  /// Zeroes the words written since the last install (transition
  /// faults read the old word), then installs `faults` with
  /// protected_memory::set_fault_map, which resets everything else.
  void install(fault_map faults);

  /// protected_memory::write_block, noting the rows for install().
  void write_block(std::uint32_t first, std::span<const word_t> data);

 private:
  storage_config config_;
  protected_memory memory_;
  std::vector<std::uint32_t> written_;  ///< logical rows, since install()
};

/// Writes `words` through scheme-protected faulty tiles of
/// `tile.config().rows_per_tile` rows and reads them back, reusing
/// `tile` for each one. Each tile gets a fault map from `inject` (drawn
/// on `gen` in tile order); only its at-risk rows are written and read.
pipeline_stats store_words(std::span<const word_t> words, store_tile& tile,
                           const fault_injector& inject, rng& gen,
                           const tile_visitor& visit);

/// The clean image of a matrix in one storage config: its row-major
/// fixed-point words and their dequantized values, which is exactly
/// what a fault-free store reads back.
struct quantized_matrix {
  std::vector<word_t> words;
  matrix values;
};

/// Quantizes `input` to `config`'s Q-format words.
[[nodiscard]] quantized_matrix quantize(const matrix& input,
                                        const storage_config& config);

/// One store/readback pass: the restored matrix and the rows in which
/// it differs from the clean values (ascending).
struct readback {
  matrix values;
  std::vector<std::size_t> changed_rows;
};

/// store_words over `clean.words` on `tile`, patching the changed
/// words into a copy of `clean.values`.
[[nodiscard]] readback store_and_readback(const quantized_matrix& clean,
                                          store_tile& tile,
                                          const fault_injector& inject,
                                          rng& gen,
                                          pipeline_stats* stats = nullptr);

/// Fault injector placing exactly `n` faults in every tile.
[[nodiscard]] fault_injector exact_fault_injector(std::uint64_t n,
                                                  fault_polarity polarity =
                                                      fault_polarity::flip);

/// The storage geometry of a store_tile built from `config` and
/// `factory`: data plus spare rows, at the scheme's storage width.
[[nodiscard]] array_geometry tile_storage_geometry(const storage_config& config,
                                                   const scheme_factory& factory);

/// Fault injector drawing Binomial(cells, pcell) faults per tile of
/// `geometry`. The distribution is built here, once, and shared by
/// every call; each call must pass `geometry`.
[[nodiscard]] fault_injector binomial_fault_injector(
    const array_geometry& geometry, double pcell,
    fault_polarity polarity = fault_polarity::flip);

/// Geometry-free form of the injector above: builds it (and its
/// distribution's table) on every call, so it draws the same maps at a
/// table build per tile. Kept for callers written against the per-call
/// form, such as perfbench's traced replay.
[[nodiscard]] fault_injector binomial_fault_injector(double pcell,
                                                     fault_polarity polarity =
                                                         fault_polarity::flip);

/// Injector producing fault-free tiles (quantization-only baseline).
[[nodiscard]] fault_injector no_fault_injector();

/// One region's fault operating point for region_fault_injector.
struct region_operating_point {
  memory_region region;
  double pcell = 0.0;  ///< cell failure probability of this region's cells
};

/// Injector drawing Binomial(cells, pcell) faults independently per
/// region at that region's own Pcell — over its data rows AND its spare
/// pool (spares are manufactured in the same corner as the rows they
/// back). `points` must tile the data rows in order; `geometry` must
/// equal data rows + total spares, with spares laid out per
/// protected_memory's region-order convention. Each region's
/// distribution is built here, once; each call must pass `geometry`.
[[nodiscard]] fault_injector region_fault_injector(
    const array_geometry& geometry, std::vector<region_operating_point> points,
    fault_polarity polarity = fault_polarity::flip);

/// Geometry-free form of the injector above, built on every call (see
/// the geometry-free binomial_fault_injector).
[[nodiscard]] fault_injector region_fault_injector(
    std::vector<region_operating_point> points,
    fault_polarity polarity = fault_polarity::flip);

/// Integer-deterministic variant of region_fault_injector: exactly
/// `counts[r]` faults, uniform over region r's cells (data rows + its
/// spares). Pure integer sampling, so golden runs are bit-identical
/// across platforms (binomial draws go through libm and are not).
[[nodiscard]] fault_injector region_exact_fault_injector(
    std::vector<memory_region> regions, std::vector<std::uint64_t> counts,
    fault_polarity polarity = fault_polarity::flip);

}  // namespace urmem
