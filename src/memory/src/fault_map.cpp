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

/// (row, col) packed so that key order is cell order.
constexpr std::uint64_t cell_key(std::uint32_t row, std::uint32_t col) {
  return (std::uint64_t{row} << 32) | col;
}

/// First fault in the sorted range [first, last) whose cell is not
/// below `key`. Branch-free: the halving step is a conditional move, so
/// a lookup costs no mispredicted branches. A patch makes two lookups
/// per changed cell (one to check it, one to place it), which made
/// std::lower_bound's compare-and-branch its largest cost.
template <typename It>
It first_not_below(It first, It last, std::uint64_t key) {
  auto n = last - first;
  if (n == 0) return first;
  while (n > 1) {
    const auto half = n / 2;
    const fault& probe = first[half - 1];
    first = cell_key(probe.row, probe.col) < key ? first + half : first;
    n -= half;
  }
  return cell_key(first->row, first->col) < key ? first + 1 : first;
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

void fault_map::patch(std::span<const fault> removed,
                      std::span<const fault> added) {
  // Check the whole delta before moving anything, so a rejected patch
  // leaves the map as it was.
  const auto key = [](const fault& f) { return cell_key(f.row, f.col); };
  const auto present = [&](const fault& f) {
    const auto it = first_not_below(faults_.begin(), faults_.end(), key(f));
    return it != faults_.end() && same_cell(*it, f);
  };
  for (std::size_t i = 0; i < removed.size(); ++i) {
    expects(i == 0 || cell_before(removed[i - 1], removed[i]),
            "removed cells must be strictly ascending");
    expects(present(removed[i]), "removed cell is not in the map");
  }
  for (std::size_t i = 0; i < added.size(); ++i) {
    expects(added[i].row < geometry_.rows, "fault row out of range");
    expects(added[i].col < geometry_.width, "fault column out of range");
    expects(i == 0 || cell_before(added[i - 1], added[i]),
            "added cells must be strictly ascending");
    expects(!present(added[i]), "added cell is already in the map");
  }
  // Removal: each run of survivors between two removed cells slides
  // left over the gaps as one block move.
  if (!removed.empty()) {
    auto out =
        first_not_below(faults_.begin(), faults_.end(), key(removed.front()));
    auto in = out + 1;
    for (const fault& gone : removed.subspan(1)) {
      const auto at = first_not_below(in, faults_.end(), key(gone));
      out = std::move(in, at, out);
      in = at + 1;
    }
    faults_.erase(std::move(in, faults_.end(), out), faults_.end());
  }
  // Insertion from the back: grow, then each run of faults above an
  // added cell moves right, as one block, straight to its final slot.
  const auto kept = static_cast<std::ptrdiff_t>(faults_.size());
  faults_.resize(faults_.size() + added.size());
  auto src = faults_.begin() + kept;
  auto dst = faults_.end();
  for (auto next = added.rbegin(); next != added.rend(); ++next) {
    const auto at = first_not_below(faults_.begin(), src, key(*next));
    dst = std::move_backward(at, src, dst);
    src = at;
    *--dst = *next;
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
