// Ablation: 64-bit data words.
//
// The paper evaluates 32-bit words; wider datapaths change the
// trade-off. A 64-bit word needs either two interleaved H(39,32)
// codewords (78 columns) or a single bit-shuffling rotator with
// nFM up to 6. This ablation compares the quality (Eq. 6 MSE) and the
// hardware overhead of both at the same Pcell.
//
// Flags: --runs=N (default 200000), --seed=S
#include <iostream>

#include "bench_util.hpp"
#include "urmem/common/table.hpp"
#include "urmem/hwmodel/overhead_model.hpp"
#include "urmem/scheme/protection_scheme.hpp"
#include "urmem/yield/mse_distribution.hpp"

int main(int argc, char** argv) {
  using namespace urmem;
  const auto args = bench::parse_args(argc, argv);
  bench::banner("Ablation — 64-bit data words",
                "DESIGN.md §3 (width generalization; paper future work)");

  mse_cdf_config config;
  config.total_runs = args.get_u64("runs", 200'000);
  config.seed = args.get_u64("seed", 13);
  const double pcell = args.get_double("pcell", 5e-6);
  args.check_consumed();
  const std::uint32_t rows = 2048;  // same 16 KB capacity at 64-bit words

  std::cout << "16KB as 2048 x 64, Pcell = " << format_scientific(pcell, 2)
            << " (Eq. 6 with 0 <= b < 64)\n\n";

  console_table table({"scheme", "storage cols", "MSE @ yield 90%",
                       "MSE @ yield 99%"});
  {
    const auto none = make_scheme_none(64);
    const empirical_cdf cdf = compute_mse_cdf(*none, rows, pcell, config);
    table.add_row({"no-correction", "64",
                   format_scientific(mse_for_yield(cdf, 0.90), 3),
                   format_scientific(mse_for_yield(cdf, 0.99), 3)});
  }
  for (const unsigned n_fm : {1u, 2u, 3u, 6u}) {
    const auto scheme = make_scheme_shuffle(rows, 64, n_fm);
    const empirical_cdf cdf = compute_mse_cdf(*scheme, rows, pcell, config);
    table.add_row({"nFM=" + std::to_string(n_fm) + " (W=64)", "64",
                   format_scientific(mse_for_yield(cdf, 0.90), 3),
                   format_scientific(mse_for_yield(cdf, 0.99), 3)});
  }
  {
    // Two independent H(39,32) codewords cover a 64-bit word; model the
    // MSE by protecting a 32-bit half-array of twice the rows (each
    // half-word row maps to one codeword).
    const auto half = make_scheme_secded(32);
    const empirical_cdf cdf = compute_mse_cdf(*half, rows * 2, pcell, config);
    table.add_row({"2 x H(39,32)", "78",
                   format_scientific(mse_for_yield(cdf, 0.90), 3),
                   format_scientific(mse_for_yield(cdf, 0.99), 3)});
  }
  table.print(std::cout);

  std::cout << "\nHardware overhead relative to a single H(39,32) on 32-bit "
               "rows (64-bit datapath doubles the correction logic):\n";
  const overhead_model model32(gate_library::fdsoi_28nm(),
                               sram_macro_model::fdsoi_28nm(),
                               array_geometry{4096, 32});
  const overhead_metrics ecc32 = model32.secded(hamming_secded(32));
  const overhead_model model64(gate_library::fdsoi_28nm(),
                               sram_macro_model::fdsoi_28nm(),
                               array_geometry{rows, 64});
  console_table hw({"scheme", "read power (rel)", "read delay (rel)", "area (rel)"});
  {
    overhead_metrics twin = ecc32;  // two decoders, 14 parity columns on
    twin.read_energy_fj *= 2.0;     // half-height (2048-row) columns
    twin.area_um2 = 2.0 * (ecc32.area_um2 -
                           7.0 * model32.sram().column_area_um2(4096)) +
                    14.0 * model64.sram().column_area_um2(rows);
    const relative_overhead rel = overhead_model::relative(twin, ecc32);
    hw.add_row({"2 x H(39,32), W=64", format_double(rel.read_power, 3),
                format_double(rel.read_delay, 3), format_double(rel.area, 3)});
  }
  for (const unsigned n_fm : {1u, 3u, 6u}) {
    const relative_overhead rel =
        overhead_model::relative(model64.shuffle(n_fm), ecc32);
    hw.add_row({"nFM=" + std::to_string(n_fm) + ", W=64",
                format_double(rel.read_power, 3), format_double(rel.read_delay, 3),
                format_double(rel.area, 3)});
  }
  hw.print(std::cout);

  std::cout << "\nConclusion: the shuffling advantage grows with word width — "
               "the rotator scales as W*nFM muxes while split SECDED doubles "
               "its decoders and parity columns.\n";
  return 0;
}
