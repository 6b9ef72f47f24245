#include "urmem/scheme/protected_memory.hpp"

#include <algorithm>
#include <vector>

#include "urmem/common/contracts.hpp"
#include "urmem/scheme/row_redundancy.hpp"

namespace urmem {

namespace {

std::uint32_t total_spares(const std::vector<memory_region>& regions) {
  std::uint32_t total = 0;
  for (const memory_region& region : regions) total += region.spare_rows;
  return total;
}

}  // namespace

protected_memory::protected_memory(std::uint32_t rows,
                                   std::unique_ptr<protection_scheme> scheme,
                                   std::uint32_t spare_rows)
    : protected_memory(rows, std::move(scheme),
                       std::vector<memory_region>{
                           memory_region{0, rows > 0 ? rows - 1 : 0,
                                         spare_rows}}) {}

protected_memory::protected_memory(std::uint32_t rows,
                                   std::unique_ptr<protection_scheme> scheme,
                                   std::vector<memory_region> regions)
    : scheme_(std::move(scheme)),
      logical_rows_(rows),
      spare_rows_(total_spares(regions)),
      regions_(std::move(regions)),
      array_(array_geometry{rows + spare_rows_, scheme_->storage_bits()}) {
  expects(scheme_ != nullptr, "protected_memory requires a scheme");
  expects(rows >= 1, "protected_memory needs at least one row");
  expects(!regions_.empty(), "protected_memory needs at least one region");
  // Regions must tile the logical rows exactly; spares are manufactured
  // after the data rows, grouped per region in region order.
  std::uint32_t next = 0;
  std::uint32_t spare_base = rows;
  spare_bases_.reserve(regions_.size());
  for (const memory_region& region : regions_) {
    expects(region.first_row == next && region.last_row >= region.first_row,
            "regions must be ordered, gap-free and ascending");
    spare_bases_.push_back(spare_base);
    spare_base += region.spare_rows;
    next = region.last_row + 1;
  }
  expects(next == rows, "regions must cover the logical rows exactly");
  spare_used_.assign(spare_rows_, false);
}

std::uint32_t protected_memory::region_spare_base(std::size_t index) const {
  expects(index < regions_.size(), "region index out of range");
  return spare_bases_[index];
}

void protected_memory::set_fault_map(fault_map faults) {
  expects(faults.geometry() == storage_geometry(), "fault map geometry mismatch");
  remaps_.clear();
  spare_used_.assign(spare_rows_, false);
  const unsigned width = scheme_->storage_bits();
  if (spare_rows_ == 0) {
    scheme_->configure(faults);
    array_.set_faults(std::move(faults));
    recount_residual();
    return;
  }
  // Fuse stage first, one pass per region: remap the region's faulty
  // data rows onto its own fault-free spares, then let the scheme
  // program itself from what repair left behind (the post-repair BIST
  // pass of a real redundancy + mitigation flow). Every walk below is
  // over ascending sorted faults, so each add() appends.
  fault_map residual(array_geometry{logical_rows_, width});
  for (std::size_t r = 0; r < regions_.size(); ++r) {
    const memory_region& region = regions_[r];
    const std::uint32_t spare_base = spare_bases_[r];
    // Faults in columns beyond the region's own storage width sit in
    // cells the region never drives (they exist only because a wider
    // sibling tier dictates the manufactured width): the region's BIST
    // would never see them, so repair and residual both skip them.
    const unsigned region_bits =
        region.storage_bits == 0 ? width : region.storage_bits;
    const std::span<const fault> data_faults =
        faults.faults_in_rows(region.first_row, region.last_row + 1);
    if (region.spare_rows == 0) {
      // No pool: the region's (data-visible) faults stay as-is.
      for (const fault& f : data_faults) {
        if (f.col < region_bits) residual.add(f);
      }
      continue;
    }
    // Rebase the region (data rows, then its spares) into the compact
    // geometry the repair engine expects.
    const std::uint32_t region_rows = region.rows();
    fault_map sub(array_geometry{region_rows + region.spare_rows, width});
    for (const fault& f : data_faults) {
      if (f.col < region_bits) sub.add({f.row - region.first_row, f.col, f.kind});
    }
    for (const fault& f :
         faults.faults_in_rows(spare_base, spare_base + region.spare_rows)) {
      if (f.col < region_bits) {
        sub.add({region_rows + (f.row - spare_base), f.col, f.kind});
      }
    }
    const row_redundancy_repair repair_engine(region_rows, region.spare_rows,
                                              width);
    const repair_result repaired = repair_engine.repair(sub);
    for (const auto& [logical, spare] : repaired.remaps) {
      remaps_.emplace_back(region.first_row + logical,
                           spare_base + (spare - region_rows));
    }
    for (const fault& f : repaired.residual.all_faults()) {
      residual.add({region.first_row + f.row, f.col, f.kind});
    }
  }
  // Region order is ascending-row order, so remaps_ is already sorted
  // the way physical_row's binary search needs.
  for (const auto& [logical, spare] : remaps_) {
    spare_used_[spare - logical_rows_] = true;
  }
  scheme_->configure(residual);
  array_.set_faults(std::move(faults));
  recount_residual();
}

void protected_memory::clear_words(std::span<const std::uint32_t> rows) {
  for (const std::uint32_t row : rows) {
    expects(row < logical_rows_, "row out of range");
    const std::uint32_t physical = physical_row(row);
    array_.clear_words(std::span<const std::uint32_t>(&physical, 1));
  }
}

void protected_memory::update_fault_map(fault_map faults) {
  expects(faults.geometry() == storage_geometry(), "fault map geometry mismatch");
  array_.set_faults(std::move(faults));
  recount_residual();
}

void protected_memory::apply_fault_delta(const fault_delta& delta) {
  array_.patch_faults(delta);
  if (residual_row_.empty()) return;
  delta.for_each_row([&](std::uint32_t row) {
    if (row < logical_rows_) recount_row(row);
  });
}

std::size_t protected_memory::region_of(std::uint32_t row) const {
  expects(row < logical_rows_, "row out of range");
  for (std::size_t r = 0; r < regions_.size(); ++r) {
    if (row <= regions_[r].last_row) return r;
  }
  return regions_.size() - 1;  // unreachable: regions tile the rows
}

std::uint32_t protected_memory::unused_spares(std::size_t index) const {
  expects(index < regions_.size(), "region index out of range");
  std::uint32_t free = 0;
  const std::uint32_t base = spare_bases_[index];
  for (std::uint32_t s = 0; s < regions_[index].spare_rows; ++s) {
    if (!spare_used_[base + s - logical_rows_]) ++free;
  }
  return free;
}

std::vector<std::uint32_t> protected_memory::at_risk_rows() const {
  std::vector<std::uint32_t> rows;
  for_each_faulty_row(array_.faults().faults_in_rows(0, logical_rows_),
                      [&](std::uint32_t row, std::span<const fault>) {
                        if (physical_row(row) == row) rows.push_back(row);
                      });
  // A remapped row reads its spare, faulty or not; remaps_ is sorted and
  // disjoint from the rows above, so one merge keeps the order.
  const auto middle = static_cast<std::ptrdiff_t>(rows.size());
  for (const auto& [logical, spare] : remaps_) rows.push_back(logical);
  std::inplace_merge(rows.begin(), rows.begin() + middle, rows.end());
  return rows;
}

std::optional<std::uint32_t> protected_memory::retire_row(std::uint32_t row,
                                                          word_t data) {
  return retire_row_to_region(row, region_of(row), data);
}

std::optional<std::uint32_t> protected_memory::retire_row_to_region(
    std::uint32_t row, std::size_t region_index, word_t data) {
  expects(row < logical_rows_, "row out of range");
  expects(region_index < regions_.size(), "region index out of range");
  // The bits that must be clean are the ones the retired row actually
  // stores — its home region's width, not the donor pool's (a reliable
  // donor tier may be wider; its surplus columns are don't-care here).
  const memory_region& home = regions_[region_of(row)];
  const unsigned needed_bits =
      home.storage_bits == 0 ? scheme_->storage_bits() : home.storage_bits;
  const fault_map& faults = array_.faults();
  const memory_region& donor = regions_[region_index];
  const std::uint32_t base = spare_bases_[region_index];
  for (std::uint32_t s = 0; s < donor.spare_rows; ++s) {
    const std::uint32_t physical = base + s;
    if (spare_used_[physical - logical_rows_]) continue;
    // Spares age like data rows: eligibility is judged against the
    // *current* map, so a spare that failed since manufacture is passed
    // over (but not consumed — a narrower row may still fit it later).
    const std::span<const fault> spare_faults = faults.faults_in_row(physical);
    if (std::any_of(spare_faults.begin(), spare_faults.end(),
                    [&](const fault& f) { return f.col < needed_bits; })) {
      continue;
    }
    spare_used_[physical - logical_rows_] = true;
    array_.write(physical, encode_word(row, data));
    const auto it = std::lower_bound(
        remaps_.begin(), remaps_.end(), row,
        [](const auto& remap, std::uint32_t key) { return remap.first < key; });
    if (it != remaps_.end() && it->first == row) {
      it->second = physical;  // the worn-out spare stays consumed
    } else {
      remaps_.insert(it, {row, physical});
    }
    if (!residual_row_.empty()) recount_row(row);
    return physical;
  }
  return std::nullopt;
}

std::uint32_t protected_memory::physical_row(std::uint32_t row) const {
  if (remaps_.empty()) return row;
  const auto it = std::lower_bound(
      remaps_.begin(), remaps_.end(), row,
      [](const auto& remap, std::uint32_t key) { return remap.first < key; });
  return it != remaps_.end() && it->first == row ? it->second : row;
}

word_t protected_memory::encode_word(std::uint32_t row, word_t data) const {
  return array_.path() == fault_path::reference
             ? scheme_->encode_reference(row, data)
             : scheme_->encode(row, data);
}

void protected_memory::write(std::uint32_t row, word_t data) {
  array_.write(physical_row(row), encode_word(row, data));
}

read_result protected_memory::decode_word(std::uint32_t row,
                                          word_t stored) const {
  return array_.path() == fault_path::reference
             ? scheme_->decode_reference(row, stored)
             : scheme_->decode(row, stored);
}

read_result protected_memory::read(std::uint32_t row) const {
  return decode_word(row, array_.read(physical_row(row)));
}

void protected_memory::write_block(std::uint32_t first,
                                   std::span<const word_t> data) {
  // Scratch is thread-local: write_block sits in the per-trial campaign
  // hot loop, and a fresh allocation per tile would undo the batching.
  static thread_local std::vector<word_t> encoded;
  encoded.resize(data.size());
  if (array_.path() == fault_path::reference) {
    // Oracle: per-word virtual calls through the reference codecs.
    for (std::size_t i = 0; i < data.size(); ++i) {
      encoded[i] = scheme_->encode_reference(
          first + static_cast<std::uint32_t>(i), data[i]);
    }
  } else {
    scheme_->encode_block(first, data, encoded);
  }
  if (remaps_.empty()) {
    array_.write_rows(first, encoded);
    return;
  }
  // Repaired rows live on their spares: batch the contiguous healthy
  // segments and route each remapped row to its spare individually, so
  // every logical word still costs exactly one physical access (the
  // energy model's invariant). Remaps are rare and sorted.
  const std::span<const word_t> words(encoded);
  std::uint32_t segment = first;
  const std::uint32_t end = first + static_cast<std::uint32_t>(data.size());
  for (const auto& [logical, spare] : remaps_) {
    if (logical < first || logical >= end) continue;
    if (logical > segment) {
      array_.write_rows(segment, words.subspan(segment - first, logical - segment));
    }
    array_.write(spare, words[logical - first]);
    segment = logical + 1;
  }
  if (end > segment) {
    array_.write_rows(segment, words.subspan(segment - first, end - segment));
  }
}

void protected_memory::read_block(std::uint32_t first, std::span<word_t> out,
                                  block_stats* stats) const {
  if (remaps_.empty()) {
    array_.read_rows(first, out);
  } else {
    // Mirror of write_block: contiguous segments batched, remapped rows
    // served from their spares — one physical access per logical word.
    std::uint32_t segment = first;
    const std::uint32_t end = first + static_cast<std::uint32_t>(out.size());
    for (const auto& [logical, spare] : remaps_) {
      if (logical < first || logical >= end) continue;
      if (logical > segment) {
        array_.read_rows(segment, out.subspan(segment - first, logical - segment));
      }
      out[logical - first] = array_.read(spare);
      segment = logical + 1;
    }
    if (end > segment) {
      array_.read_rows(segment, out.subspan(segment - first, end - segment));
    }
  }
  block_stats local;
  if (array_.path() == fault_path::reference) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      const read_result r = scheme_->decode_reference(
          first + static_cast<std::uint32_t>(i), out[i]);
      out[i] = r.data;
      local.count(r.status);
    }
  } else {
    local = scheme_->decode_block(first, out, out);
  }
  if (stats != nullptr) *stats = local;
}

double protected_memory::analytic_mse() const {
  return analytic_mse(0, logical_rows_ - 1);
}

double protected_memory::analytic_mse(std::uint32_t first,
                                      std::uint32_t last) const {
  expects(first <= last && last < logical_rows_,
          "analytic_mse range must lie in the logical rows");
  const fault_map& faults = array_.faults();
  // Hoisted column scratch — analytic_mse runs once per sampled map in
  // the yield sweeps, and a fresh vector per faulty row adds an
  // allocation for every faulty row of every map.
  static thread_local std::vector<std::uint32_t> cols;
  double total = 0.0;
  // Spares only serve remapped rows (and repair picks fault-free
  // spares), so faulty spares and retired (remapped) data rows both
  // contribute nothing to the visible address space.
  for_each_faulty_row(
      faults.faults_in_rows(first, last + 1),
      [&](std::uint32_t row, std::span<const fault> row_faults) {
        if (physical_row(row) != row) return;
        cols.clear();
        for (const fault& f : row_faults) cols.push_back(f.col);
        total += scheme_->worst_case_row_cost(row, cols);
      });
  return total / static_cast<double>(last - first + 1);
}

bool protected_memory::row_residual(std::uint32_t row,
                                    std::span<const fault> row_faults) const {
  // Same visibility rule as analytic_mse: faulty spares and retired
  // (remapped) data rows contribute nothing to the address space.
  if (row_faults.empty() || physical_row(row) != row) return false;
  static thread_local std::vector<std::uint32_t> cols;
  static thread_local std::vector<std::uint32_t> bits;
  cols.clear();
  for (const fault& f : row_faults) cols.push_back(f.col);
  bits.clear();
  scheme_->residual_fault_bits(row, cols, bits);
  return !bits.empty();
}

std::uint64_t protected_memory::residual_rows() const {
  std::uint64_t degraded = 0;
  for_each_faulty_row(
      array_.faults().faults_in_rows(0, logical_rows_),
      [&](std::uint32_t row, std::span<const fault> row_faults) {
        if (row_residual(row, row_faults)) ++degraded;
      });
  return degraded;
}

void protected_memory::keep_residual_count() {
  residual_row_.resize(logical_rows_);
  recount_residual();
}

std::uint64_t protected_memory::kept_residual_rows() const {
  expects(!residual_row_.empty(), "keep_residual_count() was not called");
  return residual_count_;
}

void protected_memory::recount_residual() {
  if (residual_row_.empty()) return;
  residual_row_.assign(logical_rows_, false);
  residual_count_ = 0;
  for_each_faulty_row(
      array_.faults().faults_in_rows(0, logical_rows_),
      [&](std::uint32_t row, std::span<const fault> row_faults) {
        if (!row_residual(row, row_faults)) return;
        residual_row_[row] = true;
        ++residual_count_;
      });
}

void protected_memory::recount_row(std::uint32_t row) {
  const bool now = row_residual(row, array_.faults().faults_in_row(row));
  if (now == residual_row_[row]) return;
  residual_row_[row] = now;
  if (now) {
    ++residual_count_;
  } else {
    --residual_count_;
  }
}

}  // namespace urmem
