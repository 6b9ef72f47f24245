// Fig. 6 reproduction: read power, read delay, and area overhead of the
// bit-shuffling scheme (nFM = 1..5) and the H(22,16) P-ECC, relative to
// the H(39,32) SECDED baseline, on the 28 nm-class structural cost
// model (Sec. 5.1 accounting: readout path only for power/delay; all
// added hardware for area).
#include <iostream>

#include "bench_util.hpp"
#include "urmem/common/table.hpp"
#include "urmem/hwmodel/overhead_model.hpp"

int main(int argc, char** argv) {
  using namespace urmem;
  const auto args = bench::parse_args(argc, argv);
  bench::banner("Fig. 6 — hardware overhead relative to H(39,32) SECDED",
                "Ganapathy et al., DAC'15, Fig. 6 / Sec. 5.1");

  const auto rows = static_cast<std::uint32_t>(args.get_u64("rows", 4096));
  args.check_consumed();
  const overhead_model model(gate_library::fdsoi_28nm(),
                             sram_macro_model::fdsoi_28nm(),
                             array_geometry{rows, 32});

  const hamming_secded h39(32);
  const priority_ecc h22(32, 16);
  const overhead_metrics base = model.secded(h39);

  std::cout << "Absolute overhead added on top of the unprotected " << rows
            << " x 32 array:\n";
  console_table absolute({"scheme", "read energy [fJ]", "read delay [ps]",
                          "area [um^2]"});
  const auto add_abs = [&](const std::string& name, const overhead_metrics& m) {
    absolute.add_row({name, format_double(m.read_energy_fj, 4),
                      format_double(m.read_delay_ps, 4),
                      format_double(m.area_um2, 5)});
  };
  add_abs("H(39,32) ECC", base);
  add_abs("H(22,16) P-ECC", model.pecc(h22));
  for (unsigned n_fm = 1; n_fm <= 5; ++n_fm) {
    add_abs("nFM=" + std::to_string(n_fm), model.shuffle(n_fm));
  }
  absolute.print(std::cout);

  std::cout << "\nRelative to H(39,32) SECDED (= 1.00, the paper's Fig. 6 axes):\n";
  console_table rel_table({"scheme", "read power", "read delay", "area"});
  const auto add_rel = [&](const std::string& name, const overhead_metrics& m) {
    const relative_overhead rel = overhead_model::relative(m, base);
    rel_table.add_row({name, format_double(rel.read_power, 3),
                       format_double(rel.read_delay, 3), format_double(rel.area, 3)});
  };
  add_rel("H(39,32) ECC", base);
  add_rel("H(22,16) P-ECC", model.pecc(h22));
  for (unsigned n_fm = 1; n_fm <= 5; ++n_fm) {
    add_rel("nFM=" + std::to_string(n_fm), model.shuffle(n_fm));
  }
  rel_table.print(std::cout);

  std::cout << "\nWrite-path overhead (not in Fig. 6 — Sec. 5.1 notes writes "
               "are off the critical path; the shuffle write needs a serial "
               "LUT read first):\n";
  console_table write_table({"scheme", "write energy [fJ]", "write delay [ps]"});
  const auto add_write = [&](const std::string& name,
                             const write_overhead_metrics& m) {
    write_table.add_row({name, format_double(m.write_energy_fj, 4),
                         format_double(m.write_delay_ps, 4)});
  };
  add_write("H(39,32) ECC", model.secded_write(h39));
  add_write("H(22,16) P-ECC", model.pecc_write(h22));
  for (unsigned n_fm = 1; n_fm <= 5; ++n_fm) {
    add_write("nFM=" + std::to_string(n_fm) + " (SRAM LUT)",
              model.shuffle_write(n_fm));
    add_write("nFM=" + std::to_string(n_fm) + " (regfile LUT)",
              model.shuffle_write(n_fm, lut_realization::register_file));
  }
  write_table.print(std::cout);

  const relative_overhead best = overhead_model::relative(model.shuffle(1), base);
  const relative_overhead worst = overhead_model::relative(model.shuffle(5), base);
  const relative_overhead pecc_rel =
      overhead_model::relative(model.pecc(h22), base);
  const relative_overhead vs_pecc =
      overhead_model::relative(model.shuffle(1), model.pecc(h22));

  std::cout << "\nPaper headline checks (savings vs SECDED / P-ECC):\n";
  console_table claims({"claim", "paper", "measured"});
  claims.add_row({"read power saving vs ECC", "20% - 83%",
                  format_percent(1.0 - worst.read_power, 1) + " - " +
                      format_percent(1.0 - best.read_power, 1)});
  claims.add_row({"read delay saving vs ECC", "41% - 77%",
                  format_percent(1.0 - worst.read_delay, 1) + " - " +
                      format_percent(1.0 - best.read_delay, 1)});
  claims.add_row({"area saving vs ECC", "32% - 89%",
                  format_percent(1.0 - worst.area, 1) + " - " +
                      format_percent(1.0 - best.area, 1)});
  claims.add_row({"best power saving vs P-ECC", "59%",
                  format_percent(1.0 - vs_pecc.read_power, 1)});
  claims.add_row({"best delay saving vs P-ECC", "64%",
                  format_percent(1.0 - vs_pecc.read_delay, 1)});
  claims.add_row({"best area saving vs P-ECC", "57%",
                  format_percent(1.0 - vs_pecc.area, 1)});
  claims.add_row({"P-ECC relative power/delay/area", "0.41 / 0.64 / 0.26",
                  format_double(pecc_rel.read_power, 2) + " / " +
                      format_double(pecc_rel.read_delay, 2) + " / " +
                      format_double(pecc_rel.area, 2)});
  claims.add_row({"SECDED decode depth [17]", "~13 gate delays",
                  format_double(model.decoder_gate_delays(h39), 3)});
  claims.print(std::cout);
  return 0;
}
