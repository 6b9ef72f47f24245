// Persistent bit-cell fault maps.
//
// Once an SRAM array is manufactured (or operated at a given supply
// voltage) the set of failing bit-cells is fixed (paper Sec. 2), and it
// is small: ~130 cells of a 4096 x 32 array at Pcell 1e-3. A fault_map
// records exactly those cells — a (row, col)-sorted fault vector plus the
// geometry, O(faults) space however large the array — and corrupts a
// stored word by walking the row's faults one at a time. That walk is the
// reference oracle; fault_plane (fault_plane.hpp) compiles a map into the
// dense per-row masks the batched hot loop runs on.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "urmem/common/bitops.hpp"

namespace urmem {

/// Array geometry: `rows` words of `width` bits each.
struct array_geometry {
  std::uint32_t rows = 0;
  std::uint32_t width = 0;

  /// Total number of bit-cells M = R * W (paper Sec. 2).
  [[nodiscard]] constexpr std::uint64_t cells() const {
    return static_cast<std::uint64_t>(rows) * width;
  }

  /// Linear index of cell (row, col); col 0 is the word's LSB.
  [[nodiscard]] constexpr std::uint64_t cell_index(std::uint32_t row,
                                                   std::uint32_t col) const {
    return static_cast<std::uint64_t>(row) * width + col;
  }

  friend constexpr bool operator==(const array_geometry&, const array_geometry&) = default;
};

/// The standard 16 KB data memory of the paper: 4096 rows x 32 bits.
[[nodiscard]] constexpr array_geometry geometry_16kb_x32() { return {4096, 32}; }

/// How a failing cell corrupts the bit written to it.
enum class fault_kind : std::uint8_t {
  stuck_at_zero,         ///< cell always reads 0
  stuck_at_one,          ///< cell always reads 1
  flip,                  ///< cell always reads the complement of the stored bit
  transition_up_fail,    ///< cell cannot perform a 0 -> 1 write transition
  transition_down_fail,  ///< cell cannot perform a 1 -> 0 write transition
};

/// One failing bit-cell.
struct fault {
  std::uint32_t row = 0;
  std::uint32_t col = 0;  ///< bit position within the word, 0 = LSB
  fault_kind kind = fault_kind::flip;

  friend constexpr bool operator==(const fault&, const fault&) = default;
};

/// Set of failing cells of one array instance, sorted by (row, col).
class fault_map {
 public:
  fault_map() = default;

  /// Creates an empty (fault-free) map for the given geometry.
  explicit fault_map(array_geometry geometry);

  /// Creates a map holding `faults` (any order), sorted once. A cell
  /// listed more than once keeps its last kind, as repeated add() would.
  /// Strictly ascending (row, col) input is taken as is, in O(N).
  fault_map(array_geometry geometry, std::vector<fault> faults);

  [[nodiscard]] const array_geometry& geometry() const { return geometry_; }

  /// Registers a failing cell. Re-adding the same cell replaces its kind.
  /// O(1) when cells arrive in ascending (row, col) order, O(N) otherwise.
  void add(const fault& f);

  /// Drops the `removed` cells and inserts the `added` ones in place:
  /// one compaction pass and one merge from the back, which move only
  /// the faults after the first changed cell. Both lists must be
  /// strictly ascending (row, col); every removed cell must be in the
  /// map and no added cell may be. A rejected delta leaves the map as
  /// it was.
  void patch(std::span<const fault> removed, std::span<const fault> added);

  /// Total number of failing cells N.
  [[nodiscard]] std::uint64_t fault_count() const { return faults_.size(); }

  /// True when row `row` contains at least one failing cell.
  [[nodiscard]] bool row_has_faults(std::uint32_t row) const {
    return !faults_in_row(row).empty();
  }

  /// Failing cells in `row`, in ascending column order.
  [[nodiscard]] std::span<const fault> faults_in_row(std::uint32_t row) const {
    return faults_in_rows(row, row + 1);
  }

  /// Failing cells in rows [first, end), in ascending (row, col) order.
  /// Like every span the map returns, valid until the map changes.
  [[nodiscard]] std::span<const fault> faults_in_rows(std::uint32_t first,
                                                      std::uint32_t end) const;

  /// All failing cells, in ascending (row, col) order.
  [[nodiscard]] std::span<const fault> all_faults() const { return faults_; }

  /// Rows that contain at least one failing cell, ascending.
  [[nodiscard]] std::vector<std::uint32_t> faulty_rows() const;

  /// Returns the word actually read back when `ideal` is stored in `row`,
  /// applying the row's faults one at a time. Covers the read-visible
  /// kinds (stuck-at, flip); transition faults act at write time — see
  /// apply_write.
  [[nodiscard]] word_t corrupt(std::uint32_t row, word_t ideal) const;

  /// Write-time fault semantics: the cell contents after writing
  /// `incoming` over the previous contents `old` of `row`. Transition-
  /// fault cells keep their old bit when the blocked transition is
  /// requested; all other kinds store `incoming` (their corruption is
  /// applied on read).
  [[nodiscard]] word_t apply_write(std::uint32_t row, word_t old,
                                   word_t incoming) const;

 private:
  array_geometry geometry_{};
  std::vector<fault> faults_;  ///< ascending (row, col), one entry per cell
};

/// What one step changes in a fault map: the cells that start failing
/// and the cells that stop, each strictly ascending (row, col), in the
/// form fault_map::patch takes. A delta of ~10 cells lets an aging
/// memory update its map, compiled planes and residual count per
/// touched row instead of per fault.
struct fault_delta {
  std::vector<fault> added;
  std::vector<fault> removed;

  /// Calls `fn(row)` once per row holding an added or removed cell, in
  /// ascending row order.
  template <typename Fn>
  void for_each_row(Fn&& fn) const {
    auto a = added.begin();
    auto r = removed.begin();
    while (a != added.end() || r != removed.end()) {
      const bool added_first =
          r == removed.end() || (a != added.end() && a->row < r->row);
      const std::uint32_t row = added_first ? a->row : r->row;
      fn(row);
      while (a != added.end() && a->row == row) ++a;
      while (r != removed.end() && r->row == row) ++r;
    }
  }
};

/// Calls `fn(row, row_faults)` once per row present in `faults` — a
/// (row, col)-sorted span such as fault_map::all_faults — in ascending
/// row order, with that row's faults as a sub-span.
template <typename Fn>
void for_each_faulty_row(std::span<const fault> faults, Fn&& fn) {
  std::size_t first = 0;
  while (first < faults.size()) {
    std::size_t end = first + 1;
    while (end < faults.size() && faults[end].row == faults[first].row) ++end;
    fn(faults[first].row, faults.subspan(first, end - first));
    first = end;
  }
}

}  // namespace urmem
