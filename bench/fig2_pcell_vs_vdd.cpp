// Fig. 2 reproduction: SRAM cell failure probability under VDD scaling
// in the 28 nm-class cell model, and the traditional zero-failure yield
// Y = (1 - Pcell)^M of a 16 KB array (which collapses at 0.73 V, as the
// paper notes in Sec. 2).
#include <iostream>

#include "bench_util.hpp"
#include "urmem/common/stats.hpp"
#include "urmem/common/table.hpp"
#include "urmem/memory/cell_failure_model.hpp"

int main(int argc, char** argv) {
  using namespace urmem;
  const auto args = bench::parse_args(argc, argv);
  bench::banner("Fig. 2 — SRAM cell failure probability vs supply voltage",
                "Ganapathy et al., DAC'15, Fig. 2 / Sec. 2");

  const auto model = cell_failure_model::default_28nm(args.get_u64("seed", 1));
  args.check_consumed();
  const std::uint64_t cells = geometry_16kb_x32().cells();

  console_table table({"VDD [V]", "Pcell", "16KB zero-failure yield",
                       "E[failures] per 16KB"});
  for (const double vdd : linspace(0.50, 1.10, 25)) {
    const double pcell = model.pcell(vdd);
    table.add_row({format_double(vdd, 3), format_scientific(pcell, 3),
                   format_scientific(cell_failure_model::array_yield(cells, pcell), 3),
                   format_double(pcell * static_cast<double>(cells), 3)});
  }
  table.print(std::cout);

  std::cout << "\nCalibration anchors (DESIGN.md §4):\n";
  console_table anchors({"condition", "paper", "measured"});
  anchors.add_row({"Pcell @ 1.00 V", "~1e-9 (negligible)",
                   format_scientific(model.pcell(1.00), 3)});
  anchors.add_row({"Pcell @ 0.73 V", "~1e-4 (16KB yield -> 0)",
                   format_scientific(model.pcell(0.73), 3)});
  anchors.add_row({"16KB yield @ 0.73 V", "approaches zero",
                   format_scientific(
                       cell_failure_model::array_yield(cells, model.pcell(0.73)), 3)});
  anchors.print(std::cout);

  std::cout << "\nOperating points used by the paper's experiments:\n";
  console_table points({"experiment", "Pcell", "implied VDD [V]"});
  points.add_row({"Fig. 5 (MSE CDF)", "5e-6",
                  format_double(model.vdd_for_pcell(5e-6), 4)});
  points.add_row({"Fig. 7 (app quality)", "1e-3",
                  format_double(model.vdd_for_pcell(1e-3), 4)});
  points.print(std::cout);
  return 0;
}
