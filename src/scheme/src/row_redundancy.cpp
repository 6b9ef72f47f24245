#include "urmem/scheme/row_redundancy.hpp"

#include <algorithm>

#include "urmem/common/binomial.hpp"
#include "urmem/common/contracts.hpp"
#include "urmem/memory/fault_sampler.hpp"

namespace urmem {

row_redundancy_repair::row_redundancy_repair(std::uint32_t data_rows,
                                             std::uint32_t spare_rows,
                                             std::uint32_t width)
    : data_rows_(data_rows), spare_rows_(spare_rows), width_(width) {
  expects(data_rows >= 1, "need at least one data row");
  expects(is_valid_width(width), "row width must be 1..64");
}

repair_result row_redundancy_repair::repair(const fault_map& manufactured) const {
  expects(manufactured.geometry() == manufactured_geometry(),
          "fault map must cover data + spare rows");

  repair_result result;
  result.residual = fault_map({data_rows_, width_});

  // Fault-free spares, in ascending physical order.
  std::vector<std::uint32_t> healthy_spares;
  for (std::uint32_t s = 0; s < spare_rows_; ++s) {
    if (!manufactured.row_has_faults(data_rows_ + s)) {
      healthy_spares.push_back(data_rows_ + s);
    }
  }
  result.usable_spares = static_cast<std::uint32_t>(healthy_spares.size());

  std::size_t next_spare = 0;
  for_each_faulty_row(
      manufactured.faults_in_rows(0, data_rows_),
      [&](std::uint32_t row, std::span<const fault> row_faults) {
        ++result.faulty_data_rows;
        if (next_spare < healthy_spares.size()) {
          result.remaps.emplace_back(row, healthy_spares[next_spare++]);
          ++result.repaired_rows;
        } else {
          // Spares exhausted: the row's faults remain visible.
          for (const fault& f : row_faults) result.residual.add(f);
        }
      });
  return result;
}

std::optional<std::uint32_t> row_redundancy_repair::remap_of(
    const repair_result& result, std::uint32_t row) {
  const auto it = std::lower_bound(
      result.remaps.begin(), result.remaps.end(), row,
      [](const auto& pair, std::uint32_t r) { return pair.first < r; });
  if (it != result.remaps.end() && it->first == row) return it->second;
  return std::nullopt;
}

double repair_yield(std::uint32_t data_rows, std::uint32_t spare_rows,
                    std::uint32_t width, double pcell, std::uint32_t mc_runs,
                    rng& gen) {
  expects(mc_runs >= 1, "need at least one Monte-Carlo run");
  const row_redundancy_repair engine(data_rows, spare_rows, width);
  const array_geometry geometry = engine.manufactured_geometry();
  const binomial_distribution dist(geometry.cells(), pcell);

  std::uint32_t repaired = 0;
  for (std::uint32_t run = 0; run < mc_runs; ++run) {
    const fault_map manufactured =
        sample_fault_map_binomial(geometry, dist, gen);
    if (engine.repair(manufactured).fully_repaired()) ++repaired;
  }
  return static_cast<double>(repaired) / static_cast<double>(mc_runs);
}

std::optional<std::uint32_t> spares_for_yield(std::uint32_t data_rows,
                                              std::uint32_t width, double pcell,
                                              double yield_target,
                                              std::uint32_t max_spares,
                                              std::uint32_t mc_runs, rng& gen) {
  expects(yield_target > 0.0 && yield_target < 1.0, "yield target in (0,1)");
  // Exponential probe for a feasible count, then binary refinement.
  std::uint32_t lo = 0;
  std::uint32_t hi = 1;
  const auto feasible = [&](std::uint32_t k) {
    return repair_yield(data_rows, k, width, pcell, mc_runs, gen) >= yield_target;
  };
  if (feasible(0)) return 0u;
  while (hi <= max_spares && !feasible(hi)) {
    lo = hi;
    hi *= 2;
  }
  if (hi > max_spares) {
    if (!feasible(max_spares)) return std::nullopt;
    hi = max_spares;
  }
  while (hi - lo > 1) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    if (feasible(mid)) hi = mid;
    else lo = mid;
  }
  return hi;
}

}  // namespace urmem
