#include "urmem/scheme/tiered_scheme.hpp"

#include <algorithm>
#include <utility>

#include "urmem/common/contracts.hpp"

namespace urmem {

tiered_scheme::tiered_scheme(std::vector<tier> tiers, unsigned storage_bits_hint)
    : tiers_(std::move(tiers)) {
  expects(!tiers_.empty(), "tiered scheme needs at least one tier");
  std::uint32_t next = 0;
  for (const tier& t : tiers_) {
    expects(t.scheme != nullptr, "tier scheme must not be null");
    expects(t.first_row == next,
            "tiers must be ordered and contiguous from row 0");
    expects(t.last_row >= t.first_row, "tier range must be ascending");
    expects(t.scheme->data_bits() == tiers_.front().scheme->data_bits(),
            "tiers must agree on the data word width");
    storage_bits_ = std::max(storage_bits_, t.scheme->storage_bits());
    next = t.last_row + 1;
  }
  data_bits_ = tiers_.front().scheme->data_bits();
  // A probe instance clamped to fewer rows may have dropped the widest
  // tier; the hint keeps its geometry that of the full design.
  storage_bits_ = std::max(storage_bits_, storage_bits_hint);
}

std::string tiered_scheme::name() const {
  std::string label = "tiered[";
  for (std::size_t i = 0; i < tiers_.size(); ++i) {
    if (i != 0) label += "|";
    label += std::to_string(tiers_[i].first_row) + "-" +
             std::to_string(tiers_[i].last_row) + ":" +
             tiers_[i].scheme->name();
  }
  return label + "]";
}

unsigned tiered_scheme::lut_bits_per_row() const {
  unsigned bits = 0;
  for (const tier& t : tiers_) bits = std::max(bits, t.scheme->lut_bits_per_row());
  return bits;
}

unsigned tiered_scheme::guaranteed_correctable_bits() const {
  unsigned bits = tiers_.front().scheme->guaranteed_correctable_bits();
  for (const tier& t : tiers_) {
    bits = std::min(bits, t.scheme->guaranteed_correctable_bits());
  }
  return bits;
}

std::size_t tiered_scheme::tier_of(std::uint32_t row) const {
  expects(row <= tiers_.back().last_row, "row beyond the tiered range");
  for (std::size_t i = 0; i < tiers_.size(); ++i) {
    if (row <= tiers_[i].last_row) return i;
  }
  return tiers_.size() - 1;  // unreachable; the precondition covers it
}

void tiered_scheme::configure(const fault_map& faults) {
  expects(faults.geometry().width == storage_bits(),
          "tiered fault map must cover the storage columns");
  expects(faults.geometry().rows >= tiers_.back().last_row + 1,
          "tiered fault map must cover every tier row");
  // Split the BIST-discovered map per tier: rows rebased to the tier's
  // own 0-based range, columns clipped to the columns the tier actually
  // stores (surplus columns belong to a wider sibling tier's geometry
  // and never carry this tier's data).
  for (const tier& t : tiers_) {
    fault_map sub(array_geometry{t.last_row - t.first_row + 1,
                                 t.scheme->storage_bits()});
    for (const fault& f : faults.faults_in_rows(t.first_row, t.last_row + 1)) {
      if (f.col < t.scheme->storage_bits()) {
        sub.add({f.row - t.first_row, f.col, f.kind});
      }
    }
    t.scheme->configure(sub);
  }
}

void tiered_scheme::encode_block(std::uint32_t first_row,
                                 std::span<const word_t> data,
                                 std::span<word_t> out) const {
  expects(out.size() == data.size(), "encode_block spans must match");
  std::size_t cursor = 0;
  while (cursor < data.size()) {
    const std::uint32_t row = first_row + static_cast<std::uint32_t>(cursor);
    const tier& t = tiers_[tier_of(row)];
    const std::size_t take =
        std::min<std::size_t>(data.size() - cursor, t.last_row - row + 1);
    t.scheme->encode_block(row - t.first_row, data.subspan(cursor, take),
                           out.subspan(cursor, take));
    cursor += take;
  }
}

block_decode_stats tiered_scheme::decode_block(std::uint32_t first_row,
                                               std::span<const word_t> stored,
                                               std::span<word_t> out) const {
  expects(out.size() == stored.size(), "decode_block spans must match");
  block_decode_stats stats;
  std::size_t cursor = 0;
  while (cursor < stored.size()) {
    const std::uint32_t row = first_row + static_cast<std::uint32_t>(cursor);
    const tier& t = tiers_[tier_of(row)];
    const std::size_t take =
        std::min<std::size_t>(stored.size() - cursor, t.last_row - row + 1);
    // Clip the surplus columns of wider sibling tiers up front (faults
    // there are physically real but land on cells this tier never
    // drives); the masked copy lands in `out`, so the tier decode runs
    // in place and aliasing with `stored` stays legal.
    const word_t mask = word_mask(t.scheme->storage_bits());
    for (std::size_t i = 0; i < take; ++i) out[cursor + i] = stored[cursor + i] & mask;
    const block_decode_stats tier_stats = t.scheme->decode_block(
        row - t.first_row, out.subspan(cursor, take), out.subspan(cursor, take));
    stats.corrected += tier_stats.corrected;
    stats.uncorrectable += tier_stats.uncorrectable;
    cursor += take;
  }
  return stats;
}

word_t tiered_scheme::encode_reference(std::uint32_t row, word_t data) const {
  const tier& t = tiers_[tier_of(row)];
  return t.scheme->encode_reference(row - t.first_row, data);
}

read_result tiered_scheme::decode_reference(std::uint32_t row,
                                            word_t stored) const {
  const tier& t = tiers_[tier_of(row)];
  return t.scheme->decode_reference(row - t.first_row,
                                    stored & word_mask(t.scheme->storage_bits()));
}

void tiered_scheme::residual_fault_bits(
    std::uint32_t row, std::span<const std::uint32_t> fault_cols,
    std::vector<std::uint32_t>& out) const {
  // Columns beyond the tier's own storage width belong to a wider
  // sibling tier's geometry and never carry this tier's data.
  static thread_local std::vector<std::uint32_t> clipped;
  const tier& t = tiers_[tier_of(row)];
  clipped.clear();
  for (const std::uint32_t col : fault_cols) {
    if (col < t.scheme->storage_bits()) clipped.push_back(col);
  }
  t.scheme->residual_fault_bits(row - t.first_row, clipped, out);
}

}  // namespace urmem
