#include "urmem/yield/mse_distribution.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <span>
#include <vector>

#include "urmem/common/binomial.hpp"
#include "urmem/common/contracts.hpp"
#include "urmem/memory/fault_sampler.hpp"
#include "urmem/memory/sram_array.hpp"
#include "urmem/scheme/tiered_scheme.hpp"
#include "urmem/yield/analytic.hpp"

namespace urmem {

namespace {

/// sample_mse without a fault_map: the same Floyd draw on the same
/// stream, its cells sorted into (row, col) order and walked row by row.
/// A row with one fault costs single_cost[col], a row with more
/// worst_case_row_cost(row, cols). These are the doubles analytic_mse
/// sums, in its row order, so the result equals sample_mse bit for bit
/// whenever a single fault's cost does not depend on its row.
double table_mse(const protection_scheme& scheme,
                 std::span<const double> single_cost,
                 const array_geometry& geometry, std::uint64_t n, rng& gen) {
  // Thread-local scratch: this runs once per campaign trial.
  thread_local std::vector<std::uint64_t> cells;
  thread_local std::vector<std::uint32_t> cols;
  cells.clear();
  draw_distinct_cells(geometry.cells(), n, gen,
                      [](std::uint64_t cell) { cells.push_back(cell); });
  std::sort(cells.begin(), cells.end());  // cell order is (row, col) order
  const std::uint64_t width = geometry.width;
  double total = 0.0;
  for (std::size_t first = 0; first < cells.size();) {
    const std::uint64_t row = cells[first] / width;
    const std::uint64_t next_row_cell = (row + 1) * width;
    std::size_t end = first + 1;
    while (end < cells.size() && cells[end] < next_row_cell) ++end;
    if (end == first + 1) {
      total += single_cost[static_cast<std::size_t>(cells[first] % width)];
    } else {
      cols.clear();
      for (std::size_t i = first; i < end; ++i) {
        cols.push_back(static_cast<std::uint32_t>(cells[i] % width));
      }
      total += scheme.worst_case_row_cost(static_cast<std::uint32_t>(row), cols);
    }
    first = end;
  }
  return total / static_cast<double>(geometry.rows);
}

}  // namespace

std::vector<mse_stratum> mse_strata(const array_geometry& geometry,
                                    double pcell,
                                    const mse_cdf_config& config) {
  expects(pcell > 0.0 && pcell < 1.0, "pcell must be in (0,1)");
  expects(config.n_min >= 1 && config.n_min <= config.n_max, "bad stratum range");
  expects(config.total_runs >= 1, "total_runs must be positive");

  const binomial_distribution dist(geometry.cells(), pcell);
  std::vector<mse_stratum> strata;
  for (std::uint64_t n = config.n_min; n <= config.n_max; ++n) {
    const double pn = dist.pmf(n);
    const auto count = static_cast<std::uint64_t>(
        std::llround(pn * static_cast<double>(config.total_runs)));
    if (count == 0) continue;  // paper: samples per count = Pr(N=n) * Trun
    strata.push_back({n, count, pn / static_cast<double>(count)});
  }
  return strata;
}

double sample_mse(const protection_scheme& scheme,
                  const array_geometry& geometry, std::uint64_t n, rng& gen) {
  // Flip faults draw no kind, so the rng stream is the bare Floyd draw.
  return analytic_mse(scheme, sample_fault_map_exact(geometry, n, gen));
}

empirical_cdf compute_mse_cdf(campaign_runner& runner,
                              const protection_scheme& scheme,
                              std::uint32_t rows, double pcell,
                              const mse_cdf_config& config) {
  expects(rows >= 1, "memory needs at least one row");
  expects(config.seed == runner.seed(),
          "mse_cdf_config::seed must equal the campaign runner's seed");

  const array_geometry geometry{rows, scheme.storage_bits()};
  std::vector<mse_stratum> strata = mse_strata(geometry, pcell, config);
  if (config.include_fault_free) {
    // An n = 0 trial draws no cells and costs 0 without touching its rng.
    const binomial_distribution dist(geometry.cells(), pcell);
    strata.insert(strata.begin(), {0, 1, dist.pmf(0)});
  }
  ensures(!strata.empty(),
          "no stratum received samples; increase total_runs or the n range");

  std::vector<std::uint64_t> starts;  // first trial index of each stratum
  starts.reserve(strata.size());
  std::uint64_t trials = 0;
  for (const mse_stratum& s : strata) {
    starts.push_back(trials);
    trials += s.count;
  }

  // A tiered scheme charges a single fault at its row's tier, so no
  // per-column table holds its costs; it and the reference fault path
  // score every trial through the sample_mse oracle.
  const bool oracle = dynamic_cast<const tiered_scheme*>(&scheme) != nullptr ||
                      sram_array::default_fault_path() == fault_path::reference;
  const std::vector<double> single_cost =
      oracle ? std::vector<double>{} : single_fault_costs(scheme);

  return runner.map_weighted(
      trials, [&](std::uint64_t trial, rng& gen) -> weighted_sample {
        const auto it = std::upper_bound(starts.begin(), starts.end(), trial);
        const mse_stratum& s = strata[static_cast<std::size_t>(
            std::distance(starts.begin(), it) - 1)];
        return {oracle ? sample_mse(scheme, geometry, s.n, gen)
                       : table_mse(scheme, single_cost, geometry, s.n, gen),
                s.weight_each};
      });
}

double yield_at_mse(const empirical_cdf& cdf, double mse_target) {
  return cdf.at(mse_target);
}

double mse_for_yield(const empirical_cdf& cdf, double yield_target) {
  return cdf.quantile(yield_target);
}

double analytic_mse(const protection_scheme& scheme, const fault_map& faults) {
  // Thread-local scratch: sample_mse runs this once per campaign trial.
  thread_local std::vector<std::uint32_t> cols;
  double total = 0.0;
  for_each_faulty_row(faults.all_faults(),
                      [&](std::uint32_t row, std::span<const fault> row_faults) {
                        cols.clear();
                        for (const fault& f : row_faults) cols.push_back(f.col);
                        total += scheme.worst_case_row_cost(row, cols);
                      });
  return total / static_cast<double>(faults.geometry().rows);
}

}  // namespace urmem
