#include "urmem/memory/fault_plane.hpp"

#include <algorithm>
#include <bit>

namespace urmem {

fault_plane::fault_plane(const fault_map& map)
    : geometry_(map.geometry()),
      mask_(geometry_.width == 0 ? 0 : word_mask(geometry_.width)),
      faulty_rows_((geometry_.rows + 63) / 64, 0) {
  recompile(map);
}

inline void fault_plane::reset_row(std::size_t row) {
  for (std::size_t kind = 0; kind < kind_count; ++kind) {
    if (!planes_[kind].empty()) planes_[kind][row] = identity(kind);
  }
}

inline void fault_plane::add_fault(const fault& f) {
  const std::size_t kind = index(f.kind);
  std::vector<word_t>& masks = planes_[kind];
  if (masks.empty()) masks.assign(geometry_.rows, identity(kind));
  const word_t bit = word_t{1} << f.col;
  if (f.kind == fault_kind::stuck_at_zero) {
    masks[f.row] &= ~bit;
  } else {
    masks[f.row] |= bit;
  }
  faulty_rows_[f.row / 64] |= word_t{1} << (f.row % 64);
}

void fault_plane::recompile(const fault_map& map) {
  expects(map.geometry() == geometry_, "fault plane geometry mismatch");
  // Clear by list: only rows the bitmap flags hold non-identity masks.
  for (std::size_t w = 0; w < faulty_rows_.size(); ++w) {
    for (word_t bits = faulty_rows_[w]; bits != 0; bits &= bits - 1) {
      reset_row(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
    }
    faulty_rows_[w] = 0;
  }
  fault_count_ = map.fault_count();
  for (const fault& f : map.all_faults()) add_fault(f);
}

void fault_plane::recompile_rows(const fault_map& map,
                                 const fault_delta& delta) {
  expects(map.geometry() == geometry_, "fault plane geometry mismatch");
  delta.for_each_row([&](std::uint32_t row) {
    reset_row(row);
    faulty_rows_[row / 64] &= ~(word_t{1} << (row % 64));
    for (const fault& f : map.faults_in_row(row)) add_fault(f);
  });
  fault_count_ = map.fault_count();
}

bool operator==(const fault_plane& a, const fault_plane& b) {
  if (a.geometry_ != b.geometry_ || a.fault_count_ != b.fault_count_ ||
      a.faulty_rows_ != b.faulty_rows_) {
    return false;
  }
  for (std::size_t kind = 0; kind < fault_plane::kind_count; ++kind) {
    const std::vector<word_t>& x = a.planes_[kind];
    const std::vector<word_t>& y = b.planes_[kind];
    if (x.empty() == y.empty()) {
      if (x != y) return false;
      continue;
    }
    const word_t identity = a.identity(kind);
    const std::vector<word_t>& present = x.empty() ? y : x;
    if (std::any_of(present.begin(), present.end(),
                    [&](word_t m) { return m != identity; })) {
      return false;
    }
  }
  return true;
}

bool fault_plane::rows_fault_free(std::uint32_t first, std::size_t count) const {
  expects(first <= geometry_.rows && count <= geometry_.rows - first,
          "row range out of bounds");
  if (fault_count_ == 0 || count == 0) return true;
  const std::size_t last = first + count - 1;
  const std::size_t first_word = first / 64;
  const std::size_t last_word = last / 64;
  for (std::size_t w = first_word; w <= last_word; ++w) {
    word_t in_range = ~word_t{0};
    if (w == first_word) in_range &= ~word_t{0} << (first % 64);
    if (w == last_word && last % 64 != 63) {
      in_range &= (word_t{1} << (last % 64 + 1)) - 1;
    }
    if ((faulty_rows_[w] & in_range) != 0) return false;
  }
  return true;
}

void fault_plane::corrupt_rows(std::uint32_t first,
                               std::span<word_t> words) const {
  expects(first <= geometry_.rows && words.size() <= geometry_.rows - first,
          "row range out of bounds");
  if (rows_fault_free(first, words.size())) return;  // already width-masked
  // One pass per present read plane, in ((w & and) | or) ^ xor order.
  word_t* w = words.data();
  const std::size_t count = words.size();
  if (const auto& a = plane(fault_kind::stuck_at_zero); !a.empty()) {
    for (std::size_t i = 0; i < count; ++i) w[i] &= a[first + i];
  }
  if (const auto& o = plane(fault_kind::stuck_at_one); !o.empty()) {
    for (std::size_t i = 0; i < count; ++i) w[i] |= o[first + i];
  }
  if (const auto& x = plane(fault_kind::flip); !x.empty()) {
    for (std::size_t i = 0; i < count; ++i) w[i] ^= x[first + i];
  }
}

void fault_plane::apply_write_rows(std::uint32_t first,
                                   std::span<const word_t> incoming,
                                   std::span<word_t> storage) const {
  expects(incoming.size() == storage.size(),
          "incoming/storage span size mismatch");
  expects(first <= geometry_.rows && incoming.size() <= geometry_.rows - first,
          "row range out of bounds");
  const std::size_t count = incoming.size();
  const std::vector<word_t>& up = plane(fault_kind::transition_up_fail);
  const std::vector<word_t>& down = plane(fault_kind::transition_down_fail);
  if ((up.empty() && down.empty()) || rows_fault_free(first, count)) {
    for (std::size_t i = 0; i < count; ++i) storage[i] = incoming[i] & mask_;
    return;
  }
  for (std::size_t i = 0; i < count; ++i) {
    const word_t value = incoming[i] & mask_;
    const word_t old = storage[i];
    const word_t blocked_up = up.empty() ? 0 : up[first + i] & ~old & value;
    const word_t blocked_down =
        down.empty() ? 0 : down[first + i] & old & ~value;
    storage[i] = (value & ~blocked_up) | blocked_down;
  }
}

}  // namespace urmem
