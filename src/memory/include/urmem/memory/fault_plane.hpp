// Compiled fault planes: a fault_map lowered to dense structure-of-
// arrays bit-plane masks for the Monte-Carlo injection hot loop.
//
// fault_map is the sparse, queryable form (a sorted fault list: add /
// enumerate / IO); fault_plane is the only dense one: one contiguous
// array per mask kind (AND for stuck-at-0, OR for stuck-at-1, XOR for
// flip, plus the two transition-fail planes), indexed by row, together
// with a faulty-row bitmap. Corrupting or writing a whole row range
// becomes straight-line word ops over contiguous memory the compiler can
// vectorize, and the bitmap lets fault-free spans skip the mask pass.
//
// sram_array compiles a plane from its fault map at construction and
// recompiles it whenever set_faults installs a new map; a recompile
// resets only the rows the bitmap flags, so it costs O(faults). An
// epoch's fault delta (sram_array::patch_faults) recompiles only the
// rows it touches. The per-fault walk fault_map::corrupt / apply_write
// is the debug oracle that the property tests and the CI perf gate
// compare this fast path against (outputs are bit-identical).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "urmem/common/bitops.hpp"
#include "urmem/common/contracts.hpp"
#include "urmem/memory/fault_map.hpp"

namespace urmem {

/// Dense per-row fault masks with O(1) word ops and batched row-range
/// application.
class fault_plane {
 public:
  /// Compiles `map` into dense planes (O(rows) time and space).
  explicit fault_plane(const fault_map& map);

  /// Recompiles from `map` (same geometry) in place: resets the rows the
  /// faulty-row bitmap flags, then writes the new map's faults — the
  /// sram_array::set_faults invalidation path, which sits in the
  /// per-tile Monte-Carlo loop and costs O(rows / 64 + faults).
  void recompile(const fault_map& map);

  /// Recompiles only the rows `delta` touches from `map`, the map after
  /// the delta was patched in (fault_map::patch) — the lifecycle epoch
  /// step, O(touched rows x log faults) instead of O(faults).
  void recompile_rows(const fault_map& map, const fault_delta& delta);

  [[nodiscard]] const array_geometry& geometry() const { return geometry_; }
  [[nodiscard]] std::uint64_t fault_count() const { return fault_count_; }

  /// Equal when every mask and the faulty-row bitmap agree — the test
  /// oracle comparing a patched plane with a fresh compile.
  friend bool operator==(const fault_plane&, const fault_plane&) = default;

  /// Read-visible corruption of `ideal` stored in `row`: three word ops.
  /// Bit-identical to fault_map::corrupt for width-masked input.
  [[nodiscard]] word_t corrupt(std::uint32_t row, word_t ideal) const {
    expects(row < geometry_.rows, "row out of range");
    return ((ideal & and_[row]) | or_[row]) ^ xor_[row];
  }

  /// Write-time semantics: cell contents after writing `incoming` over
  /// `old`. Bit-identical to fault_map::apply_write.
  [[nodiscard]] word_t apply_write(std::uint32_t row, word_t old,
                                   word_t incoming) const {
    expects(row < geometry_.rows, "row out of range");
    old &= mask_;
    incoming &= mask_;
    const word_t blocked_up = tf_up_[row] & ~old & incoming;
    const word_t blocked_down = tf_down_[row] & old & ~incoming;
    return (incoming & ~blocked_up) | blocked_down;
  }

  /// True when rows [first, first + count) contain no failing cell —
  /// the bitmap fast path that lets batched ops skip clean spans.
  [[nodiscard]] bool rows_fault_free(std::uint32_t first,
                                     std::size_t count) const;

  /// Applies read corruption in place to `words`, where `words[i]` is
  /// the (width-masked) stored content of row `first + i`.
  void corrupt_rows(std::uint32_t first, std::span<word_t> words) const;

  /// Batched write: `storage[i]` (the current content of row
  /// `first + i`) becomes apply_write(first + i, storage[i], incoming[i]).
  void apply_write_rows(std::uint32_t first, std::span<const word_t> incoming,
                        std::span<word_t> storage) const;

 private:
  /// Resets `row`'s masks to the fault-free identity (its bitmap bit is
  /// the caller's to clear).
  void reset_row(std::size_t row);
  /// ORs `f` into its row's masks and flags the row.
  void add_fault(const fault& f);

  array_geometry geometry_{};
  word_t mask_ = 0;
  std::uint64_t fault_count_ = 0;
  // Structure-of-arrays planes, one word per row each.
  std::vector<word_t> and_;
  std::vector<word_t> or_;
  std::vector<word_t> xor_;
  std::vector<word_t> tf_up_;
  std::vector<word_t> tf_down_;
  std::vector<word_t> faulty_rows_;  ///< bit (row % 64) of word (row / 64)
};

}  // namespace urmem
