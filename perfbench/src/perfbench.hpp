// Shared pieces of the urmem benchmark binary: the span recorder the
// traced replays time layer calls with, and the replay entry points.
//
// The replays sit outside the library. They call the same public
// functions the workloads call, in the same order and on the same
// per-trial streams, and charge each call's duration to a layer span.
// Spans never nest except inside `sim_trial`, so a layer's self time is
// simply the sum of its spans.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "urmem/scenario/scenario_runner.hpp"
#include "urmem/scenario/scenario_spec.hpp"
#include "urmem/serve/memory_service.hpp"

namespace perfbench {

using clock_type = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(clock_type::time_point start) {
  return std::chrono::duration<double>(clock_type::now() - start).count();
}

/// Layer spans a traced replay records around public library calls.
enum class span : std::uint8_t {
  memory_sample,       ///< fault samplers and region injectors
  scheme_tile_build,   ///< scheme factory + protected_memory construction
  scheme_install,      ///< set_fault_map: repair + plane compile + configure
  scheme_write_block,  ///< encode + plane write of a tile
  scheme_read_block,   ///< plane read + decode of a tile
  scheme_analytic_mse,
  sim_quantize,        ///< matrix_quantizer to_words / from_words
  sim_reduce,          ///< trial-ordered merge of samples into an empirical CDF
  ml_evaluate_elasticnet,
  ml_evaluate_pca,
  ml_evaluate_knn,
  yield_sample_mse,
  sim_trial,  ///< one whole campaign trial; parent of every span above
  count_,
};

/// Work counts recorded at the same boundaries as the spans.
enum class counter : std::uint8_t {
  faults_sampled,
  words,  ///< words read back through read_block
  corrected_words,
  uncorrectable_words,
  trials,
  count_,
};

inline constexpr std::size_t span_count = static_cast<std::size_t>(span::count_);
inline constexpr std::size_t counter_count =
    static_cast<std::size_t>(counter::count_);

/// Span totals of one thread. Each campaign worker owns one, so
/// recording takes no lock; the totals merge after the campaign drains.
struct alignas(64) recorder {
  std::array<double, span_count> seconds{};
  std::array<std::uint64_t, span_count> calls{};
  std::array<std::uint64_t, counter_count> counts{};

  void add(span s, double secs) {
    seconds[static_cast<std::size_t>(s)] += secs;
    ++calls[static_cast<std::size_t>(s)];
  }
  void count(counter c, std::uint64_t n) { counts[static_cast<std::size_t>(c)] += n; }
  [[nodiscard]] double time(span s) const { return seconds[static_cast<std::size_t>(s)]; }
  [[nodiscard]] std::uint64_t calls_of(span s) const {
    return calls[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] std::uint64_t total(counter c) const {
    return counts[static_cast<std::size_t>(c)];
  }

  void merge(const recorder& other) {
    for (std::size_t i = 0; i < span_count; ++i) {
      seconds[i] += other.seconds[i];
      calls[i] += other.calls[i];
    }
    for (std::size_t i = 0; i < counter_count; ++i) counts[i] += other.counts[i];
  }
};

/// Runs `fn()` and charges its duration to span `s` of `rec`.
template <typename Fn>
decltype(auto) timed(recorder& rec, span s, Fn&& fn) {
  struct charge {
    recorder& rec;
    span s;
    clock_type::time_point start;
    ~charge() { rec.add(s, seconds_since(start)); }
  } guard{rec, s, clock_type::now()};
  return fn();
}

/// A traced replay of one campaign scenario.
struct campaign_trace {
  urmem::scenario_report report;  ///< same shape scenario_runner::run returns
  recorder main;                  ///< spans on the calling thread (outside trials)
  recorder workers;               ///< spans inside trials, all workers merged
  double wall_seconds = 0.0;      ///< the whole replay
  double campaign_seconds = 0.0;  ///< time inside campaign_runner::run calls
  unsigned threads = 0;           ///< campaign workers
};

/// Replays a fig7-quality, hrm-quality or fig5-mse scenario (every grid
/// point) through the layers' public functions, timing each call.
/// Throws std::invalid_argument for workloads or options it does not
/// cover.
[[nodiscard]] campaign_trace replay_campaign(const urmem::scenario_spec& spec);

/// A traced, sequential replay of one serve run.
struct serve_trace {
  urmem::service_snapshot counters;
  std::vector<double> store_ns;
  std::vector<double> readback_ns;
  std::vector<double> quality_ns;
  std::vector<double> step_epoch_seconds;
  double drain_seconds = 0.0;
  double wall_seconds = 0.0;  ///< request loop + epoch steps + drain
  /// Construction replayed call by call (tile build, initial fault
  /// sample, install, first write) on tiles of its own.
  recorder setup;
  double setup_seconds = 0.0;  ///< the real memory_service constructor
};

/// Issues drive()'s request stream in index order on one thread —
/// the same requests drive() spreads over its clients — stepping the
/// epoch at each boundary, then drains and snapshots like drive().
[[nodiscard]] serve_trace replay_serve(const urmem::scenario_spec& spec);

}  // namespace perfbench
