// Monte-Carlo fault-map generation (paper Secs. 4-5).
//
// The evaluation injects "maps of random bit-flip locations for each
// failure count" (Fig. 5) and binomially distributed failure counts for
// the application study (Fig. 7). Samplers here produce:
//  * exactly-n-fault maps with positions uniform over the array, and
//  * maps whose count is drawn from Binomial(M, Pcell).
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "urmem/common/binomial.hpp"
#include "urmem/common/contracts.hpp"
#include "urmem/common/rng.hpp"
#include "urmem/memory/fault_map.hpp"

namespace urmem {

/// How injected faults corrupt the stored bit.
enum class fault_polarity : std::uint8_t {
  flip,          ///< deterministic inversion — the paper's "bit-flip" injection
  random_stuck,  ///< stuck-at-0 / stuck-at-1 with equal probability
  mixed,         ///< realistic manufacturing mix: 35% SA0, 35% SA1,
                 ///< 10% flip, 10% TF-up, 10% TF-down
};

/// Spec-file name of a polarity ("flip", "random-stuck", "mixed").
[[nodiscard]] std::string_view to_string(fault_polarity polarity);

/// Inverse of to_string; nullopt for unknown names.
[[nodiscard]] std::optional<fault_polarity> parse_fault_polarity(
    std::string_view name);

/// Draws one fault kind under `polarity` — the per-cell kind assignment
/// the map samplers use, exposed for incremental samplers (the fault
/// timeline's per-epoch arrivals).
[[nodiscard]] fault_kind sample_fault_kind(rng& gen, fault_polarity polarity);

namespace detail {
/// This thread's linear-probing table of the cells a Floyd draw has
/// chosen (draw_distinct_cells' scratch).
[[nodiscard]] std::vector<std::uint64_t>& floyd_slots();
}  // namespace detail

/// Robert Floyd's algorithm: calls visit(cell) for `n` distinct cells
/// drawn uniformly from [0, cells), one uniform_below per cell, in draw
/// order. The one exact-n draw: sample_fault_map_exact turns each cell
/// into a fault and the Fig. 5 sweep (compute_mse_cdf) scores the cells
/// directly. `visit` may draw from `gen` too (a fault kind); those draws
/// interleave with Floyd's. The chosen cells live in a thread-local
/// linear-probing table sized to this draw (no per-insert allocation;
/// resetting it costs O(n) whatever an earlier draw needed), so
/// concurrent trials, each with its own rng, are safe.
template <class Visit>
void draw_distinct_cells(std::uint64_t cells, std::uint64_t n, rng& gen,
                         Visit&& visit) {
  expects(n <= cells, "cannot place more faults than cells");
  constexpr std::uint64_t kEmpty = ~std::uint64_t{0};  // never a cell index
  std::vector<std::uint64_t>& slots = detail::floyd_slots();
  slots.assign(std::bit_ceil(static_cast<std::size_t>(2 * n + 1)), kEmpty);
  const std::size_t mask = slots.size() - 1;
  const auto insert = [&](std::uint64_t cell) {  // false if already chosen
    for (std::size_t i = splitmix64(cell) & mask;; i = (i + 1) & mask) {
      if (slots[i] == cell) return false;
      if (slots[i] == kEmpty) {
        slots[i] = cell;
        return true;
      }
    }
  };
  for (std::uint64_t j = cells - n; j < cells; ++j) {
    std::uint64_t pick = gen.uniform_below(j + 1);
    if (!insert(pick)) {
      pick = j;  // above every earlier pick, so always fresh
      insert(pick);
    }
    visit(pick);
  }
}

/// Draws a map with exactly `n` faults at distinct uniform cell positions
/// (draw_distinct_cells, each cell's kind drawn right after it), sorted
/// once by cell. `n` must not exceed the number of cells.
[[nodiscard]] fault_map sample_fault_map_exact(const array_geometry& geometry,
                                               std::uint64_t n, rng& gen,
                                               fault_polarity polarity =
                                                   fault_polarity::flip);

/// Draws a map whose fault count follows Binomial(cells, pcell).
[[nodiscard]] fault_map sample_fault_map_binomial(const array_geometry& geometry,
                                                  const binomial_distribution& dist,
                                                  rng& gen,
                                                  fault_polarity polarity =
                                                      fault_polarity::flip);

}  // namespace urmem
