// Functional model of an unreliable SRAM array (paper Fig. 1).
//
// The array stores one word per row and applies its fault map on every
// read — the software equivalent of reading through failing bit-cells.
// The array holds its fault map (the sparse sorted fault list) and one
// compiled fault_plane (dense per-row bit-plane masks, see
// fault_plane.hpp) that is recompiled whenever set_faults installs a new
// map; patch_faults recompiles only the rows a fault delta touches.
// Reads and writes go through the plane; the map's per-fault walk
// (fault_map::corrupt / apply_write) is a switchable debug oracle
// (fault_path::reference, or process-wide via URMEM_FAULT_PATH=reference)
// and is bit-identical to the fast path.
// A fault-free back door (read_ideal / raw word access) is provided for
// test oracles and for the BIST engine's expected-data comparison.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "urmem/common/bitops.hpp"
#include "urmem/memory/fault_map.hpp"
#include "urmem/memory/fault_plane.hpp"

namespace urmem {

/// Which fault machinery serves reads and writes.
enum class fault_path : std::uint8_t {
  compiled,   ///< dense fault_plane masks (the fast path, default)
  reference,  ///< fault_map's per-fault walk (debug oracle, bit-identical)
};

/// R x W bit SRAM with persistent stuck-at / flip / transition faults.
///
/// Thread-safety audit (no locks by design): the array itself is not
/// synchronized — callers serialize same-row access externally (the
/// serving tier's per-row stripe locks) and must not overlap
/// set_faults/patch_faults/set_fault_path/fill with traffic (the
/// serving tier's exclusive epoch gate guarantees that). Distinct-row
/// reads/writes touch disjoint data_ slots and are safe.
class sram_array {
 public:
  /// Fault-free array of the given geometry.
  explicit sram_array(array_geometry geometry);

  /// Array with the given fault map (geometry taken from the map).
  explicit sram_array(fault_map faults);

  [[nodiscard]] const array_geometry& geometry() const { return faults_.geometry(); }
  [[nodiscard]] const fault_map& faults() const { return faults_; }

  /// The compiled fault planes currently in effect.
  [[nodiscard]] const fault_plane& plane() const { return plane_; }

  /// Replaces the fault map (e.g. after re-running BIST at a new supply
  /// voltage) and recompiles the fault plane. Geometry must match;
  /// stored data is preserved.
  void set_faults(fault_map faults);

  /// Patches `delta` into the installed map in place and recompiles only
  /// the plane rows it touches; stored data is preserved. Leaves the
  /// array exactly as set_faults would with the patched map.
  void patch_faults(const fault_delta& delta);

  /// Selects the compiled fast path or the per-fault reference oracle for
  /// subsequent reads/writes. Both produce bit-identical results.
  void set_fault_path(fault_path path) { path_ = path; }
  [[nodiscard]] fault_path path() const { return path_; }

  /// Process-wide default path: fault_path::reference when the
  /// URMEM_FAULT_PATH environment variable is "reference" (read once),
  /// fault_path::compiled otherwise.
  [[nodiscard]] static fault_path default_fault_path();

  /// Number of rows R.
  [[nodiscard]] std::uint32_t rows() const { return geometry().rows; }

  /// Word width W in bits.
  [[nodiscard]] unsigned width() const { return geometry().width; }

  /// Stores `value` (low W bits) into `row`.
  void write(std::uint32_t row, word_t value);

  /// Reads `row` through the faulty cells.
  [[nodiscard]] word_t read(std::uint32_t row) const;

  /// Batched write of rows [first, first + values.size()): one word per
  /// row, streamed through the compiled planes.
  void write_rows(std::uint32_t first, std::span<const word_t> values);

  /// Batched read of rows [first, first + out.size()) through the
  /// faulty cells.
  void read_rows(std::uint32_t first, std::span<word_t> out) const;

  /// Reads `row` bypassing the faults (test/BIST oracle only; a real
  /// array has no such port).
  [[nodiscard]] word_t read_ideal(std::uint32_t row) const;

  /// Fills every row with `value`.
  void fill(word_t value);

  /// Returns the stored words of `rows` to 0, the state of a freshly
  /// built array, without a write: no fault acts, and the fault map and
  /// planes stay. A campaign tile reused across trials clears the rows
  /// its last pass wrote, since transition faults read the old word.
  void clear_words(std::span<const std::uint32_t> rows);

 private:
  fault_map faults_;
  fault_plane plane_;
  std::vector<word_t> data_;
  fault_path path_ = default_fault_path();
};

}  // namespace urmem
