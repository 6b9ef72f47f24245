// Voltage-scaling design-space exploration.
//
// The paper's motivation (Secs. 1-2): VDD scaling saves power but
// drives the cell failure probability up exponentially, collapsing the
// traditional zero-failure yield. This example sweeps the supply and
// shows, per voltage: Pcell, the zero-failure yield, and the
// quality-aware yield (Sec. 4, MSE criterion) achieved by the
// unprotected memory and by bit-shuffling — answering "how low can this
// chip go for a given MSE budget?".
#include <iostream>

#include "urmem/common/table.hpp"
#include "urmem/memory/cell_failure_model.hpp"
#include "urmem/scheme/protection_scheme.hpp"
#include "urmem/sim/campaign_runner.hpp"
#include "urmem/yield/mse_distribution.hpp"

int main() {
  using namespace urmem;
  const auto model = cell_failure_model::default_28nm();
  const std::uint32_t rows = 4096;
  const std::uint64_t cells = geometry_16kb_x32().cells();
  const double mse_budget = 1e6;  // the paper's Sec. 4 example target

  std::cout << "16KB memory, quality criterion: MSE < 1e6 (Eq. 6).\n"
            << "Yield columns include fault-free dies (Pr(N=0)).\n\n";

  mse_cdf_config config;
  config.total_runs = 300'000;
  config.n_max = 600;
  config.include_fault_free = true;
  // The sweep runs on every hardware thread, seeded like the config.
  campaign_runner runner({.seed = config.seed});

  console_table table({"VDD [V]", "Pcell", "zero-failure yield",
                       "yield none @ MSE<1e6", "yield nFM=1", "yield nFM=3"});
  const auto none = make_scheme_none();
  const auto nfm1 = make_scheme_shuffle(rows, 32, 1);
  const auto nfm3 = make_scheme_shuffle(rows, 32, 3);

  for (const double vdd : {0.95, 0.85, 0.80, 0.75, 0.70, 0.65}) {
    const double pcell = model.pcell(vdd);
    const double zero_failure = cell_failure_model::array_yield(cells, pcell);
    const auto yield_of = [&](const protection_scheme& scheme) {
      return yield_at_mse(compute_mse_cdf(runner, scheme, rows, pcell, config),
                          mse_budget);
    };
    table.add_row({format_double(vdd, 3), format_scientific(pcell, 2),
                   format_percent(zero_failure, 2), format_percent(yield_of(*none), 2),
                   format_percent(yield_of(*nfm1), 2),
                   format_percent(yield_of(*nfm3), 2)});
  }
  table.print(std::cout);

  std::cout << "\nReading the table: the zero-failure criterion abandons the "
               "die below ~0.85 V, while bit-shuffling\nkeeps the quality-aware "
               "yield essentially at 100% deep into the scaled-voltage regime "
               "— the paper's\ncentral argument for relaxing the test "
               "criterion (Sec. 4).\n";
  return 0;
}
