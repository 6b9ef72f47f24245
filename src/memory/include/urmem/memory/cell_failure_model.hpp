// Variation-induced SRAM cell failure statistics (paper Sec. 2, Fig. 2).
//
// The paper estimates the 6T bit-cell failure probability Pcell(VDD) in a
// 28 nm FD-SOI process from SPICE-level Monte-Carlo with hypersphere
// importance sampling [13]. We substitute an analytic critical-voltage
// model: every cell draws a persistent critical voltage
//
//     Vcrit ~ N(vcrit_mean, vcrit_sigma)
//
// from a counter-based RNG keyed by its cell index, and fails at any
// supply voltage below Vcrit. This yields
//
//     Pcell(VDD) = Phi((vcrit_mean - VDD) / vcrit_sigma),
//
// reproduces the steep log-linear tail of Fig. 2, and — because Vcrit is a
// fixed per-cell property — gives the fault-inclusion property exactly:
// a cell failing at VDD1 fails at every VDD2 < VDD1 [14].
//
// Default calibration anchors (the fig2-pcell workload prints both):
//   Pcell(1.00 V) ~ 1e-9  (negligible failures at nominal voltage)
//   Pcell(0.73 V) ~ 1e-4  (yield of a 16 KB array collapses, as in Sec. 2)
#pragma once

#include <cstdint>

#include "urmem/common/rng.hpp"
#include "urmem/memory/fault_map.hpp"

namespace urmem {

/// Analytic Pcell(VDD) model with per-cell persistent critical voltages.
class cell_failure_model {
 public:
  /// Constructs with explicit Gaussian Vcrit parameters (volts).
  cell_failure_model(double vcrit_mean, double vcrit_sigma, std::uint64_t seed = 1);

  /// Default 28 nm-class calibration (see header comment).
  static cell_failure_model default_28nm(std::uint64_t seed = 1);

  [[nodiscard]] double vcrit_mean() const { return mean_; }
  [[nodiscard]] double vcrit_sigma() const { return sigma_; }

  /// Cell failure probability at supply voltage `vdd`.
  [[nodiscard]] double pcell(double vdd) const;

  /// Supply voltage at which the failure probability equals `p` (inverse
  /// of pcell); `p` in (0, 1).
  [[nodiscard]] double vdd_for_pcell(double p) const;

  /// Traditional zero-failure yield Y = (1 - Pcell)^M of an array with
  /// `cells` bit-cells (paper Sec. 2).
  [[nodiscard]] static double array_yield(std::uint64_t cells, double pcell);

  /// Persistent critical voltage of the cell at linear index `cell_index`.
  [[nodiscard]] double vcrit(std::uint64_t cell_index) const;

  /// True when the cell fails at supply `vdd` (Vcrit > vdd).
  [[nodiscard]] bool fails_at(std::uint64_t cell_index, double vdd) const;

  /// Persistent stuck-at polarity of a failing cell (manufacturing
  /// defects do not choose a polarity per read).
  [[nodiscard]] fault_kind stuck_kind(std::uint64_t cell_index) const;

  /// Enumerates all failing cells of `geometry` at supply `vdd`.
  /// Fault maps produced at decreasing vdd are supersets of one another.
  [[nodiscard]] fault_map faults_at_voltage(const array_geometry& geometry,
                                            double vdd) const;

  /// Temporal-degradation (aging) model: BTI-like stress raises every
  /// cell's critical voltage by `vcrit_shift` volts while preserving the
  /// per-cell ordering, so aged fault maps are supersets of fresh ones —
  /// the scenario that motivates re-running BIST at every power-on
  /// startup test (POST), as Sec. 3 notes.
  [[nodiscard]] cell_failure_model aged(double vcrit_shift) const;

  /// Vcrit shift after `hours` of stress under a log-time BTI fit:
  /// shift = coefficient * log10(1 + hours / 1h). The default
  /// coefficient (12 mV/decade) is a typical 28 nm high-temperature
  /// figure.
  [[nodiscard]] static double bti_vcrit_shift(double hours,
                                              double mv_per_decade = 12.0);

 private:
  double mean_;
  double sigma_;
  cell_hash vcrit_hash_;
  cell_hash kind_hash_;
};

}  // namespace urmem
