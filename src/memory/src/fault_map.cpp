#include "urmem/memory/fault_map.hpp"

#include <algorithm>

#include "urmem/common/contracts.hpp"

namespace urmem {

namespace {

constexpr bool cell_before(const fault& a, const fault& b) {
  return a.row != b.row ? a.row < b.row : a.col < b.col;
}

constexpr bool same_cell(const fault& a, const fault& b) {
  return a.row == b.row && a.col == b.col;
}

}  // namespace

fault_map::fault_map(array_geometry geometry) : geometry_(geometry) {
  expects(geometry.rows >= 1, "fault_map requires at least one row");
  expects(is_valid_width(geometry.width), "fault_map word width must be 1..64");
}

fault_map::fault_map(array_geometry geometry, std::vector<fault> faults)
    : fault_map(geometry) {
  bool ascending = true;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    expects(faults[i].row < geometry_.rows, "fault row out of range");
    expects(faults[i].col < geometry_.width, "fault column out of range");
    if (i > 0 && !cell_before(faults[i - 1], faults[i])) ascending = false;
  }
  // Strictly ascending input (a merge of sorted lists, a sorted
  // sample) is already the stored form. Otherwise the stable sort keeps
  // each cell's duplicates in input order, and unique over the reversed
  // range keeps the last of every run (add()'s last-wins rule), packed
  // at the back in ascending order.
  if (!ascending) {
    std::stable_sort(faults.begin(), faults.end(), cell_before);
    faults.erase(faults.begin(),
                 std::unique(faults.rbegin(), faults.rend(), same_cell).base());
  }
  faults_ = std::move(faults);
}

void fault_map::add(const fault& f) {
  expects(f.row < geometry_.rows, "fault row out of range");
  expects(f.col < geometry_.width, "fault column out of range");
  if (faults_.empty() || cell_before(faults_.back(), f)) {
    faults_.push_back(f);
    return;
  }
  const auto it = std::lower_bound(faults_.begin(), faults_.end(), f, cell_before);
  if (same_cell(*it, f)) {
    it->kind = f.kind;
  } else {
    faults_.insert(it, f);
  }
}

std::span<const fault> fault_map::faults_in_rows(std::uint32_t first,
                                                 std::uint32_t end) const {
  expects(first <= end && end <= geometry_.rows, "row range out of bounds");
  const auto row_below = [](const fault& f, std::uint32_t row) { return f.row < row; };
  const auto lo = std::lower_bound(faults_.begin(), faults_.end(), first, row_below);
  const auto hi = std::lower_bound(lo, faults_.end(), end, row_below);
  return {lo, hi};
}

std::vector<std::uint32_t> fault_map::faulty_rows() const {
  std::vector<std::uint32_t> rows;
  for (const fault& f : faults_) {
    if (rows.empty() || rows.back() != f.row) rows.push_back(f.row);
  }
  return rows;
}

word_t fault_map::corrupt(std::uint32_t row, word_t ideal) const {
  word_t out = ideal & word_mask(geometry_.width);
  for (const fault& f : faults_in_row(row)) {
    const word_t bit = word_t{1} << f.col;
    switch (f.kind) {
      case fault_kind::stuck_at_zero: out &= ~bit; break;
      case fault_kind::stuck_at_one: out |= bit; break;
      case fault_kind::flip: out ^= bit; break;
      case fault_kind::transition_up_fail:
      case fault_kind::transition_down_fail:
        break;  // write-time kinds are read-transparent
    }
  }
  return out;
}

word_t fault_map::apply_write(std::uint32_t row, word_t old, word_t incoming) const {
  const word_t mask = word_mask(geometry_.width);
  old &= mask;
  word_t out = incoming & mask;
  for (const fault& f : faults_in_row(row)) {
    const word_t bit = word_t{1} << f.col;
    // A blocked rising transition keeps the old 0; a blocked falling
    // transition keeps the old 1.
    if (f.kind == fault_kind::transition_up_fail && (old & bit) == 0) out &= ~bit;
    if (f.kind == fault_kind::transition_down_fail && (old & bit) != 0) out |= bit;
  }
  return out;
}

}  // namespace urmem
