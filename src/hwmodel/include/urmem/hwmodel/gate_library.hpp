// 28 nm-class standard-cell and SRAM macro cost constants.
//
// The paper implements every scheme in a 28 nm FD-SOI flow (Synopsys DC
// synthesis + Cadence SoC Encounter P&R + VCD-based power). We replace
// that flow with a structural cost model: logic blocks are priced from
// exact gate counts (derived from the real H-matrices and rotator
// structure) using the per-gate constants below, and storage columns are
// priced with an SRAM macro model. Fig. 6 reports overheads *relative*
// to the H(39,32) baseline, which this model preserves; absolute
// µW/ps/µm² values are order-of-magnitude only and are not calibrated
// against the paper's flow.
#pragma once

namespace urmem {

/// Cost of one standard cell (2-input unless noted).
struct gate_cost {
  double area_um2 = 0.0;
  double delay_ps = 0.0;   ///< typical loaded propagation delay
  double energy_fj = 0.0;  ///< dynamic energy per output transition
};

/// Minimal combinational cell set used by the codec/rotator netlists.
struct gate_library {
  gate_cost inv;
  gate_cost nand2;
  gate_cost and2;
  gate_cost or2;
  gate_cost xor2;
  gate_cost mux2;

  /// Average switching activity applied to block energy estimates.
  double activity = 0.5;

  /// FO4-equivalent delay used to express critical paths in "gate
  /// delays" (the unit ref. [17] uses for the 13-gate-delay SECDED
  /// decode figure).
  double fo4_ps = 17.0;

  /// Wire/broadcast delay per storage column spanned by a signal —
  /// a first-order stand-in for post-P&R routing.
  double route_ps_per_col = 4.0;

  /// 28 nm-class calibration.
  [[nodiscard]] static gate_library fdsoi_28nm();
};

/// SRAM macro pricing for added storage columns.
struct sram_macro_model {
  double cell_area_um2 = 0.120;       ///< 28 nm high-density 6T bit-cell
  double array_efficiency = 0.70;     ///< cell area / macro area ratio
  double col_read_energy_fj = 15.0;   ///< bitline + sense energy per column read
  double lut_col_read_energy_fj = 30.0;  ///< FM-LUT column read (separate small
                                         ///< macro, decoder amortized over few
                                         ///< columns; accessed on reads *and*
                                         ///< writes)
  double lut_read_slack_ps = 20.0;    ///< LUT-vs-data-array arrival margin on
                                      ///< the read path
  double read_access_ps = 480.0;      ///< base array read access (reference)
  double col_write_energy_fj = 18.0;  ///< full bitline swing per column write
  double lut_serial_read_ps = 240.0;  ///< standalone LUT-column access when it
                                      ///< gates a write (half the full-array
                                      ///< access: short local bitlines)
  double rf_serial_read_ps = 60.0;    ///< register-file LUT access (latches,
                                      ///< no sense cycle)

  /// Macro area of one storage column of `rows` cells.
  [[nodiscard]] double column_area_um2(unsigned rows) const {
    return static_cast<double>(rows) * cell_area_um2 / array_efficiency;
  }

  /// 28 nm-class calibration.
  [[nodiscard]] static sram_macro_model fdsoi_28nm();
};

}  // namespace urmem
