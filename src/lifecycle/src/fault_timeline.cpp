#include "urmem/lifecycle/fault_timeline.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "urmem/common/contracts.hpp"

namespace urmem {

namespace {

constexpr bool fault_before(const fault& a, const fault& b) {
  return a.row != b.row ? a.row < b.row : a.col < b.col;
}

constexpr bool cell_before(const timeline_fault& a, const timeline_fault& b) {
  return fault_before(a.f, b.f);
}

}  // namespace

fault_timeline::fault_timeline(array_geometry geometry, timeline_config config)
    : geometry_(geometry),
      config_(config),
      arrivals_gen_(make_stream_rng(config.seed, stream_tag("lifecycle.arrivals"))),
      activity_seed_(splitmix64(config.seed ^ stream_tag("lifecycle.activity"))),
      persistent_map_(geometry),
      current_(geometry) {
  expects(geometry.cells() > 0, "fault timeline needs a non-empty array");
}

fault_timeline::fault_timeline(fault_map initial, timeline_config config)
    : fault_timeline(initial.geometry(), config) {
  for (const fault& f : initial.all_faults()) {
    persistent_.push_back(timeline_fault{f, 0, false});
  }
  persistent_map_ = std::move(initial);
  expects(persistent_.size() + config.intermittent_cells <= geometry_.cells(),
          "intermittent population does not fit the healthy cells");
  // The intermittent population is fixed for the part's life: drawn once
  // here (its own stream, so arrival draws never shift it), on distinct
  // cells disjoint from every manufactured fault.
  rng gen = make_stream_rng(config.seed, stream_tag("lifecycle.intermittent"));
  while (intermittent_.size() < config.intermittent_cells) {
    const std::uint64_t pick = gen.uniform_below(geometry_.cells());
    const auto row = static_cast<std::uint32_t>(pick / geometry_.width);
    const auto col = static_cast<std::uint32_t>(pick % geometry_.width);
    if (cell_occupied(row, col)) continue;
    add_intermittent(timeline_fault{
        {row, col, sample_fault_kind(gen, config.polarity)}, 0, true});
  }
  rebuild_current();
}

void fault_timeline::add_intermittent(const timeline_fault& record) {
  intermittent_.insert(std::lower_bound(intermittent_.begin(), intermittent_.end(),
                                        record, cell_before),
                       record);
}

bool fault_timeline::cell_occupied(std::uint32_t row, std::uint32_t col) const {
  const std::span<const fault> persistent = persistent_map_.faults_in_row(row);
  return std::any_of(persistent.begin(), persistent.end(),
                     [col](const fault& f) { return f.col == col; }) ||
         std::binary_search(intermittent_.begin(), intermittent_.end(),
                            timeline_fault{{row, col, fault_kind::flip}, 0, false},
                            cell_before);
}

bool fault_timeline::intermittent_active(std::uint64_t cell_index,
                                         std::uint32_t epoch,
                                         std::uint32_t attempt) const {
  // Counter-based coin: one splitmix64 chain keyed (seed, cell, epoch,
  // attempt). Attempt 0 is the installed map's reality; retries re-roll.
  const std::uint64_t key =
      (static_cast<std::uint64_t>(epoch) << 32) | attempt;
  return (splitmix64(splitmix64(activity_seed_ ^ cell_index) ^ key) & 1) != 0;
}

void fault_timeline::rebuild_current() {
  // Both lists are ascending (row, col) and disjoint, so one merge
  // yields the strictly ascending list the map takes without sorting.
  const std::span<const fault> persistent = persistent_map_.all_faults();
  std::vector<fault> active;
  active.reserve(persistent.size() + intermittent_.size());
  auto next = persistent.begin();
  for (const timeline_fault& record : intermittent_) {
    if (!intermittent_active(geometry_.cell_index(record.f.row, record.f.col),
                             epoch_, 0)) {
      continue;
    }
    const auto stop =
        std::lower_bound(next, persistent.end(), record.f, fault_before);
    active.insert(active.end(), next, stop);
    active.push_back(record.f);
    next = stop;
  }
  active.insert(active.end(), next, persistent.end());
  current_ = fault_map(geometry_, std::move(active));
}

std::uint32_t fault_timeline::advance() {
  ++epoch_;
  expects(persistent_.size() + intermittent_.size() + config_.arrivals_per_epoch <=
              geometry_.cells(),
          "fault timeline: no healthy cells left for this epoch's arrivals");
  for (std::uint32_t drawn = 0; drawn < config_.arrivals_per_epoch;) {
    const std::uint64_t pick = arrivals_gen_.uniform_below(geometry_.cells());
    const auto row = static_cast<std::uint32_t>(pick / geometry_.width);
    const auto col = static_cast<std::uint32_t>(pick % geometry_.width);
    if (cell_occupied(row, col)) continue;
    const fault f{row, col, sample_fault_kind(arrivals_gen_, config_.polarity)};
    persistent_.push_back(timeline_fault{f, epoch_, false});
    persistent_map_.add(f);
    ++drawn;
  }
  rebuild_current();
  return config_.arrivals_per_epoch;
}

word_t fault_timeline::corrupt_read(std::uint32_t row, word_t stored,
                                    std::uint32_t attempt) const {
  word_t value = persistent_map_.corrupt(row, stored);
  // Persistent and intermittent cells are disjoint, so layering the
  // active intermittents' read effects on top is exactly what
  // current().corrupt would do at attempt 0.
  const auto first = std::lower_bound(
      intermittent_.begin(), intermittent_.end(), row,
      [](const timeline_fault& record, std::uint32_t key) {
        return record.f.row < key;
      });
  for (auto it = first; it != intermittent_.end() && it->f.row == row; ++it) {
    if (!intermittent_active(geometry_.cell_index(row, it->f.col), epoch_,
                             attempt)) {
      continue;
    }
    const word_t bit = word_t{1} << it->f.col;
    switch (it->f.kind) {
      case fault_kind::stuck_at_zero: value &= ~bit; break;
      case fault_kind::stuck_at_one: value |= bit; break;
      case fault_kind::flip: value ^= bit; break;
      case fault_kind::transition_up_fail:
      case fault_kind::transition_down_fail:
        break;  // write-time kinds have no read effect
    }
  }
  return value;
}

timeline_fault_set fault_timeline::export_faults() const {
  timeline_fault_set set;
  set.geometry = geometry_;
  set.faults.reserve(persistent_.size() + intermittent_.size());
  set.faults.insert(set.faults.end(), persistent_.begin(), persistent_.end());
  set.faults.insert(set.faults.end(), intermittent_.begin(), intermittent_.end());
  std::sort(set.faults.begin(), set.faults.end(), cell_before);
  return set;
}

fault_timeline fault_timeline::restore(const timeline_fault_set& set,
                                       timeline_config config) {
  fault_timeline timeline(set.geometry, config);
  for (const timeline_fault& record : set.faults) {
    expects(record.f.row < set.geometry.rows && record.f.col < set.geometry.width,
            "timeline fault outside the geometry");
    expects(!timeline.cell_occupied(record.f.row, record.f.col),
            "duplicate cell in timeline fault set");
    timeline.epoch_ = std::max(timeline.epoch_, record.birth_epoch);
    if (record.intermittent) {
      timeline.add_intermittent(record);
    } else {
      timeline.persistent_.push_back(record);
      timeline.persistent_map_.add(record.f);
    }
  }
  timeline.rebuild_current();
  return timeline;
}

}  // namespace urmem
