// The paper's bottom line, closed end to end: how much read energy does
// voltage scaling + bit-shuffling actually save, at what application
// quality?
//
// For each supply voltage: dynamic read energy scales as VDD^2; the
// mitigation hardware adds its (also scaled) overhead; the Elasticnet
// application reports the quality that survives. The sweet spot is the
// lowest VDD whose normalized quality stays above a target.
#include <iostream>

#include "urmem/common/table.hpp"
#include "urmem/hwmodel/system_energy.hpp"
#include "urmem/memory/cell_failure_model.hpp"
#include "urmem/sim/applications.hpp"
#include "urmem/sim/memory_pipeline.hpp"

int main() {
  using namespace urmem;
  const auto cell_model = cell_failure_model::default_28nm();
  const overhead_model hw(gate_library::fdsoi_28nm(), sram_macro_model::fdsoi_28nm(),
                          geometry_16kb_x32());
  const auto energy =
      system_energy_model::from_macro(sram_macro_model::fdsoi_28nm(), 32);

  const double ecc_fj = hw.secded(hamming_secded(32)).read_energy_fj;
  const double nfm2_fj = hw.shuffle(2).read_energy_fj;

  const auto app = make_elasticnet_app();
  const double clean = app->evaluate(app->train_features());
  const storage_config storage;
  const quantized_matrix image = quantize(app->train_features(), storage);

  const auto quality = [&](const scheme_factory& factory, double pcell) {
    rng gen(5);
    double total = 0.0;
    const int repeats = 4;
    store_tile tile(storage, factory);
    const fault_injector inject =
        binomial_fault_injector(tile_storage_geometry(storage, factory), pcell);
    for (int i = 0; i < repeats; ++i) {
      total += app->evaluate(
          store_and_readback(image, tile, inject, gen).values);
    }
    return total / repeats / clean;
  };

  std::cout << "Elasticnet quality and net read-energy saving vs the nominal "
               "1.0 V unprotected array.\nScheme overheads at nominal: "
               "H(39,32) = " << format_double(ecc_fj, 4) << " fJ/read, nFM=2 = "
            << format_double(nfm2_fj, 4) << " fJ/read; array = "
            << format_double(energy.array_read_energy_fj(1.0), 4)
            << " fJ/read.\n\n";

  console_table table({"VDD [V]", "Pcell", "net saving w/ ECC",
                       "net saving w/ nFM=2", "quality w/ nFM=2 (norm. R^2)"});
  for (const double vdd : {1.00, 0.90, 0.80, 0.73, 0.70, 0.66, 0.62}) {
    const double pcell = cell_model.pcell(vdd);
    table.add_row(
        {format_double(vdd, 3), format_scientific(pcell, 1),
         format_percent(energy.net_saving(vdd, ecc_fj), 1),
         format_percent(energy.net_saving(vdd, nfm2_fj), 1),
         format_double(
             quality([](std::uint32_t rows) { return make_scheme_shuffle(rows, 32, 2); },
                     pcell),
             4)});
  }
  table.print(std::cout);

  std::cout << "\nReading the table: at ~0.66-0.70 V the bit-shuffled memory "
               "banks >50% of the nominal read energy while the application "
               "retains ~99%\nof its fault-free R^2 — and carries a smaller "
               "fixed overhead than ECC at every voltage. This is the "
               "paper's closing claim, quantified:\nthe scheme is 'a "
               "low-cost alternative … for allowing operation at scaled "
               "voltages and advanced technology nodes'.\n";
  return 0;
}
