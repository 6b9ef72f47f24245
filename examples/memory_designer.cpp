// Design-space exploration: pick the cheapest protection scheme that
// meets a quality target — "controlling the granularity of the
// shuffling trades quality for power, area, and timing" (paper
// abstract), turned into a designer's decision procedure.
//
// Given: target yield, MSE budget (Eq. 6), operating Pcell.
// Output: the overhead-vs-quality frontier across all schemes, and the
// cheapest feasible choice per metric.
#include <iostream>
#include <memory>
#include <vector>

#include "urmem/common/table.hpp"
#include "urmem/hwmodel/overhead_model.hpp"
#include "urmem/memory/cell_failure_model.hpp"
#include "urmem/scheme/protection_scheme.hpp"
#include "urmem/sim/campaign_runner.hpp"
#include "urmem/yield/mse_distribution.hpp"

int main() {
  using namespace urmem;
  const double pcell = 1e-4;       // aggressive voltage scaling
  const double yield_target = 0.99;
  const double mse_budget = 1e4;   // application tolerates MSE < 1e4
  const std::uint32_t rows = 4096;

  const auto model = cell_failure_model::default_28nm();
  std::cout << "Design brief: 16KB data memory at Pcell = 1e-4 (VDD ~ "
            << format_double(model.vdd_for_pcell(pcell), 3) << " V), "
            << "MSE budget " << format_scientific(mse_budget, 1)
            << " at yield >= " << format_percent(yield_target, 0) << ".\n\n";

  mse_cdf_config config;
  config.total_runs = 400'000;
  config.n_max = 120;
  config.include_fault_free = true;
  // The sweep runs on every hardware thread, seeded like the config.
  campaign_runner runner({.seed = config.seed});

  const overhead_model hw(gate_library::fdsoi_28nm(),
                          sram_macro_model::fdsoi_28nm(),
                          array_geometry{rows, 32});
  const overhead_metrics ecc_cost = hw.secded(hamming_secded(32));

  struct candidate {
    std::string name;
    std::unique_ptr<protection_scheme> scheme;
    overhead_metrics cost;
  };
  std::vector<candidate> candidates;
  candidates.push_back({"no-correction", make_scheme_none(), overhead_metrics{}});
  for (unsigned n_fm = 1; n_fm <= 5; ++n_fm) {
    candidates.push_back({"nFM=" + std::to_string(n_fm),
                          make_scheme_shuffle(rows, 32, n_fm), hw.shuffle(n_fm)});
  }
  candidates.push_back({"H(22,16) P-ECC", make_scheme_pecc(),
                        hw.pecc(priority_ecc(32, 16))});
  candidates.push_back({"H(39,32) ECC", make_scheme_secded(), ecc_cost});

  console_table table({"scheme", "yield @ budget", "feasible",
                       "read power (rel ECC)", "area (rel ECC)"});
  const candidate* cheapest = nullptr;
  for (const candidate& c : candidates) {
    const empirical_cdf cdf =
        compute_mse_cdf(runner, *c.scheme, rows, pcell, config);
    const double yield = yield_at_mse(cdf, mse_budget);
    const bool feasible = yield >= yield_target;
    const double rel_power =
        c.cost.read_energy_fj > 0 ? c.cost.read_energy_fj / ecc_cost.read_energy_fj
                                  : 0.0;
    const double rel_area =
        c.cost.area_um2 > 0 ? c.cost.area_um2 / ecc_cost.area_um2 : 0.0;
    table.add_row({c.name, format_percent(yield, 3), feasible ? "yes" : "no",
                   format_double(rel_power, 3), format_double(rel_area, 3)});
    if (feasible && (cheapest == nullptr ||
                     c.cost.read_energy_fj < cheapest->cost.read_energy_fj)) {
      cheapest = &c;
    }
  }
  table.print(std::cout);

  if (cheapest != nullptr) {
    std::cout << "\nRecommendation: " << cheapest->name
              << " — the cheapest feasible design point ("
              << format_percent(1.0 - cheapest->cost.read_energy_fj /
                                          ecc_cost.read_energy_fj,
                                1)
              << " read-power saving vs the SECDED ECC a conventional flow "
                 "would instantiate).\n";
  } else {
    std::cout << "\nNo scheme meets the brief — raise VDD or relax the "
                 "quality constraint.\n";
  }
  return 0;
}
