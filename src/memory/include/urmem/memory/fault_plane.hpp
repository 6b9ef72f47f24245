// Compiled fault planes: a fault_map lowered to dense structure-of-
// arrays bit-plane masks for the Monte-Carlo injection hot loop.
//
// fault_map is the sparse, queryable form (a sorted fault list: add /
// enumerate / IO); fault_plane is the only dense one: one contiguous
// array per mask kind present (AND for stuck-at-0, OR for stuck-at-1,
// XOR for flip, plus the two transition-fail planes), indexed by row,
// together with a faulty-row bitmap. Corrupting or writing a whole row
// range becomes straight-line word ops over contiguous memory the
// compiler can vectorize, and the bitmap lets fault-free spans skip the
// mask pass.
//
// A kind's array is allocated on the first fault of that kind and kept
// from then on; until then it is absent, which means the identity mask,
// and every op skips it. A flip-only tile therefore holds one plane,
// not five. Absent and all-identity arrays compare equal, so a plane
// recompiled in place equals a fresh compile of the same map.
//
// sram_array compiles a plane from its fault map at construction and
// recompiles it whenever set_faults installs a new map; a recompile
// resets only the rows the bitmap flags, so it costs O(faults). An
// epoch's fault delta (sram_array::patch_faults) recompiles only the
// rows it touches. The per-fault walk fault_map::corrupt / apply_write
// is the debug oracle that the property tests and the CI perf gate
// compare this fast path against (outputs are bit-identical).
#pragma once

#include <array>
#include <cstddef>
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

  /// Equal when every mask and the faulty-row bitmap agree, an absent
  /// array counting as identity — the test oracle comparing a patched
  /// or recompiled plane with a fresh compile.
  friend bool operator==(const fault_plane& a, const fault_plane& b);

  /// True when the mask array of `kind` is allocated (some map compiled
  /// into this plane held a fault of that kind).
  [[nodiscard]] bool has_plane(fault_kind kind) const {
    return !planes_[index(kind)].empty();
  }

  /// Read-visible corruption of `ideal` stored in `row`: up to three
  /// word ops, one per present read plane. Bit-identical to
  /// fault_map::corrupt for width-masked input.
  [[nodiscard]] word_t corrupt(std::uint32_t row, word_t ideal) const {
    expects(row < geometry_.rows, "row out of range");
    const std::vector<word_t>& and_plane = plane(fault_kind::stuck_at_zero);
    const std::vector<word_t>& or_plane = plane(fault_kind::stuck_at_one);
    const std::vector<word_t>& xor_plane = plane(fault_kind::flip);
    if (!and_plane.empty()) ideal &= and_plane[row];
    if (!or_plane.empty()) ideal |= or_plane[row];
    if (!xor_plane.empty()) ideal ^= xor_plane[row];
    return ideal;
  }

  /// Write-time semantics: cell contents after writing `incoming` over
  /// `old`. Bit-identical to fault_map::apply_write.
  [[nodiscard]] word_t apply_write(std::uint32_t row, word_t old,
                                   word_t incoming) const {
    expects(row < geometry_.rows, "row out of range");
    old &= mask_;
    incoming &= mask_;
    const std::vector<word_t>& up = plane(fault_kind::transition_up_fail);
    const std::vector<word_t>& down = plane(fault_kind::transition_down_fail);
    const word_t blocked_up = up.empty() ? 0 : up[row] & ~old & incoming;
    const word_t blocked_down = down.empty() ? 0 : down[row] & old & ~incoming;
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
  static constexpr std::size_t kind_count = 5;
  static_assert(static_cast<std::size_t>(fault_kind::transition_down_fail) + 1 ==
                    kind_count,
                "one mask array per fault_kind");

  [[nodiscard]] static constexpr std::size_t index(fault_kind kind) {
    return static_cast<std::size_t>(kind);
  }
  [[nodiscard]] const std::vector<word_t>& plane(fault_kind kind) const {
    return planes_[index(kind)];
  }
  /// The fault-free value of `kind`'s masks: the width mask for the AND
  /// plane (folding it in keeps every plane output width-masked without
  /// a separate masking op), 0 for the others.
  [[nodiscard]] word_t identity(std::size_t kind) const {
    return kind == index(fault_kind::stuck_at_zero) ? mask_ : 0;
  }

  /// Resets `row`'s masks to the fault-free identity (its bitmap bit is
  /// the caller's to clear).
  void reset_row(std::size_t row);
  /// ORs `f` into its row's masks, allocating its kind's array on the
  /// kind's first fault, and flags the row.
  void add_fault(const fault& f);

  array_geometry geometry_{};
  word_t mask_ = 0;
  std::uint64_t fault_count_ = 0;
  /// Structure-of-arrays planes indexed by fault_kind, one word per row
  /// each; empty = absent (identity).
  std::array<std::vector<word_t>, kind_count> planes_;
  std::vector<word_t> faulty_rows_;  ///< bit (row % 64) of word (row / 64)
};

}  // namespace urmem
