// Ablation: what happens when the FM-LUT columns are NOT fault-free?
//
// The paper implements the LUT as extra bit columns in the array and
// implicitly assumes they are reliable (they are written after BIST).
// This ablation injects faults into the LUT entries at the same Pcell
// as the data array and measures the empirical MSE inflation: a wrong
// xFM mis-rotates the *entire* word, so LUT robustness is a real design
// requirement, quantified here.
//
// Flags: --pcell=P (default 1e-3), --trials=N (default 200), --seed=S
#include <cmath>
#include <iostream>

#include "bench_util.hpp"
#include "urmem/common/table.hpp"
#include "urmem/memory/fault_sampler.hpp"
#include "urmem/memory/sram_array.hpp"
#include "urmem/shuffle/shuffle_scheme.hpp"

namespace {

using namespace urmem;

/// Empirical MSE of random data through a shuffled faulty array, with
/// optional post-programming corruption of the LUT entries.
double empirical_mse(unsigned n_fm, double pcell, bool corrupt_lut, rng& gen) {
  const std::uint32_t rows = 4096;
  const array_geometry geometry{rows, 32};
  const binomial_distribution data_faults(geometry.cells(), pcell);
  const fault_map faults = sample_fault_map_binomial(geometry, data_faults, gen);

  shuffle_scheme scheme(rows, 32, n_fm);
  scheme.program(faults);

  if (corrupt_lut) {
    // Each LUT bit fails with the same Pcell; a failed bit flips the
    // stored xFM entry bit (worst-case persistent corruption).
    for (std::uint32_t r = 0; r < rows; ++r) {
      unsigned entry = scheme.lut().get(r);
      bool changed = false;
      for (unsigned bit = 0; bit < n_fm; ++bit) {
        if (gen.uniform() < pcell) {
          entry ^= 1u << bit;
          changed = true;
        }
      }
      if (changed) scheme.mutable_lut().set(r, entry);
    }
  }

  sram_array array(faults);
  double total = 0.0;
  for (std::uint32_t r = 0; r < rows; ++r) {
    const word_t data = gen() & word_mask(32);
    array.write(r, scheme.apply_write(r, data));
    const word_t readback = scheme.restore_read(r, array.read(r));
    const double err = static_cast<double>(to_signed(readback, 32)) -
                       static_cast<double>(to_signed(data, 32));
    total += err * err;
  }
  return total / rows;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);
  bench::banner("Ablation — faulty FM-LUT columns",
                "DESIGN.md §2 (LUT robustness assumption of Sec. 3)");

  const double pcell = args.get_double("pcell", 1e-3);
  const auto trials = args.get_u64("trials", 200);
  rng gen(args.get_u64("seed", 5));
  args.check_consumed();

  std::cout << "4096 x 32 array, Pcell = " << format_scientific(pcell, 2)
            << " for both data cells and (when enabled) LUT bits, "
            << trials << " Monte-Carlo arrays per point.\n\n";

  console_table table({"nFM", "mean MSE, robust LUT", "mean MSE, faulty LUT",
                       "inflation"});
  for (unsigned n_fm = 1; n_fm <= 5; ++n_fm) {
    double robust = 0.0;
    double faulty = 0.0;
    for (std::uint64_t t = 0; t < trials; ++t) {
      robust += empirical_mse(n_fm, pcell, false, gen);
      faulty += empirical_mse(n_fm, pcell, true, gen);
    }
    robust /= static_cast<double>(trials);
    faulty /= static_cast<double>(trials);
    table.add_row({std::to_string(n_fm), format_scientific(robust, 3),
                   format_scientific(faulty, 3),
                   format_double(faulty / robust, 3) + "x"});
  }
  table.print(std::cout);

  std::cout << "\nConclusion: a corrupted xFM entry mis-rotates the whole row, "
               "so larger LUTs (higher nFM) expose more failure surface —\n"
               "the LUT columns must use robust cells or be covered by the "
               "BIST themselves (the paper's implicit assumption).\n";
  return 0;
}
