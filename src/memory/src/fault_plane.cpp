#include "urmem/memory/fault_plane.hpp"

#include <bit>

namespace urmem {

fault_plane::fault_plane(const fault_map& map)
    : geometry_(map.geometry()),
      mask_(geometry_.width == 0 ? 0 : word_mask(geometry_.width)),
      // Folding the width mask into the AND plane keeps every plane
      // output width-masked without a separate masking op in the hot loop.
      and_(geometry_.rows, mask_),
      or_(geometry_.rows, 0),
      xor_(geometry_.rows, 0),
      tf_up_(geometry_.rows, 0),
      tf_down_(geometry_.rows, 0),
      faulty_rows_((geometry_.rows + 63) / 64, 0) {
  recompile(map);
}

inline void fault_plane::reset_row(std::size_t row) {
  and_[row] = mask_;
  or_[row] = 0;
  xor_[row] = 0;
  tf_up_[row] = 0;
  tf_down_[row] = 0;
}

inline void fault_plane::add_fault(const fault& f) {
  const word_t bit = word_t{1} << f.col;
  switch (f.kind) {
    case fault_kind::stuck_at_zero: and_[f.row] &= ~bit; break;
    case fault_kind::stuck_at_one: or_[f.row] |= bit; break;
    case fault_kind::flip: xor_[f.row] |= bit; break;
    case fault_kind::transition_up_fail: tf_up_[f.row] |= bit; break;
    case fault_kind::transition_down_fail: tf_down_[f.row] |= bit; break;
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
  const word_t* a = and_.data() + first;
  const word_t* o = or_.data() + first;
  const word_t* x = xor_.data() + first;
  word_t* w = words.data();
  const std::size_t count = words.size();
  for (std::size_t i = 0; i < count; ++i) {
    w[i] = ((w[i] & a[i]) | o[i]) ^ x[i];
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
  if (rows_fault_free(first, count)) {
    for (std::size_t i = 0; i < count; ++i) storage[i] = incoming[i] & mask_;
    return;
  }
  const word_t* up = tf_up_.data() + first;
  const word_t* down = tf_down_.data() + first;
  for (std::size_t i = 0; i < count; ++i) {
    const word_t value = incoming[i] & mask_;
    const word_t old = storage[i];
    const word_t blocked_up = up[i] & ~old & value;
    const word_t blocked_down = down[i] & old & ~value;
    storage[i] = (value & ~blocked_up) | blocked_down;
  }
}

}  // namespace urmem
