#include "urmem/memory/fault_sampler.hpp"

#include <algorithm>
#include <vector>

namespace urmem {

namespace {

fault_kind draw_kind(rng& gen, fault_polarity polarity) {
  switch (polarity) {
    case fault_polarity::flip: return fault_kind::flip;
    case fault_polarity::random_stuck:
      return (gen() & 1) != 0 ? fault_kind::stuck_at_one : fault_kind::stuck_at_zero;
    case fault_polarity::mixed: {
      const std::uint64_t roll = gen.uniform_below(100);
      if (roll < 35) return fault_kind::stuck_at_zero;
      if (roll < 70) return fault_kind::stuck_at_one;
      if (roll < 80) return fault_kind::flip;
      if (roll < 90) return fault_kind::transition_up_fail;
      return fault_kind::transition_down_fail;
    }
  }
  return fault_kind::flip;
}

}  // namespace

std::vector<std::uint64_t>& detail::floyd_slots() {
  thread_local std::vector<std::uint64_t> slots;
  return slots;
}

fault_kind sample_fault_kind(rng& gen, fault_polarity polarity) {
  return draw_kind(gen, polarity);
}

fault_map sample_fault_map_exact(const array_geometry& geometry, std::uint64_t n,
                                 rng& gen, fault_polarity polarity) {
  std::vector<fault> faults;  // n > cells throws in the draw, not here
  faults.reserve(static_cast<std::size_t>(std::min(n, geometry.cells())));
  draw_distinct_cells(geometry.cells(), n, gen, [&](std::uint64_t cell) {
    const auto row = static_cast<std::uint32_t>(cell / geometry.width);
    const auto col = static_cast<std::uint32_t>(cell % geometry.width);
    faults.push_back(fault{row, col, draw_kind(gen, polarity)});
  });
  // Floyd's cells are distinct, so a plain sort on the packed (row, col)
  // key yields the map's stored order, which the bulk constructor then
  // takes as is (no stable sort, no duplicate pass).
  std::sort(faults.begin(), faults.end(), [](const fault& a, const fault& b) {
    return ((std::uint64_t{a.row} << 32) | a.col) <
           ((std::uint64_t{b.row} << 32) | b.col);
  });
  return fault_map(geometry, std::move(faults));
}

fault_map sample_fault_map_binomial(const array_geometry& geometry,
                                    const binomial_distribution& dist, rng& gen,
                                    fault_polarity polarity) {
  expects(dist.trials() == geometry.cells(),
          "binomial trial count must equal the number of cells");
  const std::uint64_t n = dist.sample(gen);
  return sample_fault_map_exact(geometry, n, gen, polarity);
}

std::string_view to_string(fault_polarity polarity) {
  switch (polarity) {
    case fault_polarity::flip: return "flip";
    case fault_polarity::random_stuck: return "random-stuck";
    case fault_polarity::mixed: return "mixed";
  }
  return "?";
}

std::optional<fault_polarity> parse_fault_polarity(std::string_view name) {
  if (name == "flip") return fault_polarity::flip;
  if (name == "random-stuck") return fault_polarity::random_stuck;
  if (name == "mixed") return fault_polarity::mixed;
  return std::nullopt;
}

}  // namespace urmem
