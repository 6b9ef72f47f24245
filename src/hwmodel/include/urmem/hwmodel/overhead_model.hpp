// Read power / read delay / area overhead of each protection scheme,
// relative to the H(39,32) SECDED baseline — the paper's Fig. 6.
//
// Accounting follows Sec. 5.1 of the paper:
//  * only the readout path is costed for power and delay (writes are
//    infrequent and off the critical path for the studied applications);
//  * area counts everything a scheme adds: encoder + decoder and parity
//    columns for ECC/P-ECC; both rotator directions and the FM-LUT
//    columns for bit-shuffling ("LUTs are implemented as entire bit
//    columns in the array");
//  * storage columns are priced with the SRAM macro model.
#pragma once

#include "urmem/ecc/hamming_secded.hpp"
#include "urmem/ecc/priority_ecc.hpp"
#include "urmem/hwmodel/blocks.hpp"
#include "urmem/memory/fault_map.hpp"

namespace urmem {

/// Absolute overhead a scheme adds on top of the unprotected array.
struct overhead_metrics {
  double read_energy_fj = 0.0;  ///< extra energy per read access
  double read_delay_ps = 0.0;   ///< extra latency on the read path
  double area_um2 = 0.0;        ///< total added silicon
};

/// Write-path overhead (not part of Fig. 6, which costs reads only, but
/// quantified here because Sec. 5.1 calls out the bit-shuffling write
/// penalty: the FM-LUT must be read *before* the rotated data can be
/// written — a serial dependency the ECC encoder does not have).
struct write_overhead_metrics {
  double write_energy_fj = 0.0;
  double write_delay_ps = 0.0;
};

/// Overheads normalized to a baseline (baseline == 1.0).
struct relative_overhead {
  double read_power = 0.0;
  double read_delay = 0.0;
  double area = 0.0;
};

/// How the FM-LUT is realized — Sec. 5.1 notes the straightforward
/// bit-column realization and the cheaper CAM/register-file option.
enum class lut_realization : std::uint8_t {
  sram_columns,   ///< nFM extra columns in the array (paper default)
  register_file,  ///< separate latch-based file: denser access, more area
};

/// Fig. 6 cost model for one memory geometry.
class overhead_model {
 public:
  overhead_model(gate_library lib, sram_macro_model sram, array_geometry data_geometry);

  [[nodiscard]] const hw_blocks& blocks() const { return blocks_; }

  /// Full-word SECDED, e.g. H(39,32): parity columns + decoder on the
  /// read path, encoder counted in area.
  [[nodiscard]] overhead_metrics secded(const hamming_secded& code) const;

  /// Priority ECC, e.g. H(22,16) over the MSB half.
  [[nodiscard]] overhead_metrics pecc(const priority_ecc& codec) const;

  /// Bit-shuffling with nFM-bit LUT entries.
  [[nodiscard]] overhead_metrics shuffle(unsigned n_fm,
                                         lut_realization lut =
                                             lut_realization::sram_columns) const;

  /// Write-path overhead of full-word SECDED: the encoder runs in
  /// parallel with address decode, its delay largely hidden; parity
  /// columns add write energy.
  [[nodiscard]] write_overhead_metrics secded_write(const hamming_secded& code) const;

  /// Write-path overhead of P-ECC (same structure, smaller code).
  [[nodiscard]] write_overhead_metrics pecc_write(const priority_ecc& codec) const;

  /// Write-path overhead of bit-shuffling: a *serial* LUT read precedes
  /// the rotate and the actual write (Sec. 5.1) — the penalty a
  /// CAM/register-file LUT shrinks.
  [[nodiscard]] write_overhead_metrics shuffle_write(
      unsigned n_fm, lut_realization lut = lut_realization::sram_columns) const;

  /// Ratios of `x` to `base` per metric (power uses energy-per-read).
  [[nodiscard]] static relative_overhead relative(const overhead_metrics& x,
                                                  const overhead_metrics& base);

  /// Critical-path length of a decoder in FO4 gate delays (the unit of
  /// the 13-gate-delay figure of ref. [17]).
  [[nodiscard]] double decoder_gate_delays(const hamming_secded& code) const;

 private:
  hw_blocks blocks_;
  sram_macro_model sram_;
  array_geometry geometry_;
};

}  // namespace urmem
