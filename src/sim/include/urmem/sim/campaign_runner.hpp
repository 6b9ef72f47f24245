// Parallel Monte-Carlo fault-injection campaign engine.
//
// The paper's experiments (Fig. 5's 1e7-run MSE sweep, Fig. 7's
// stratified quality sweep) are embarrassingly parallel: every trial
// draws its own fault maps and touches no shared mutable state. The
// campaign_runner shards such trials across a persistent thread pool
// with batched work-stealing scheduling, and keeps the results
// *bit-identical for a fixed seed at any thread count*:
//
//  * Determinism — trial i always runs on make_stream_rng(seed, i), an
//    engine derived from the root seed by stream splitting, never on a
//    generator shared between trials. Which worker executes the trial
//    (and in what order) therefore cannot change its draws. This file
//    is the one place that rule is stated and enforced: run_groups()
//    hands a body a run of consecutive trials together with their
//    engines, so a body that batches trials (Fig. 7's lane-batched PCA)
//    still draws each trial from its own stream.
//  * Deterministic reduction — per-trial outputs land in a slot indexed
//    by trial number and are merged in trial order after the pool
//    drains, so floating-point accumulation order is fixed.
//  * Scheduling — the trial range is pre-split into one contiguous
//    shard per worker; workers claim batches from their own shard and,
//    when it drains, steal half of the fullest remaining shard. Batches
//    amortize synchronization for micro-trials (Fig. 5) while steals
//    keep cores busy under skewed trial costs (Fig. 7 retraining).
//
// Trial bodies must be thread-safe: they may read shared immutable
// state (the application, the scheme factory) but must confine writes
// to their own trials' slots — exactly what run()/map()/map_weighted()
// provide.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "urmem/common/rng.hpp"
#include "urmem/common/stats.hpp"

namespace urmem {

/// Parameters of a campaign runner.
struct campaign_config {
  unsigned threads = 0;          ///< worker count; 0 = all hardware threads
  std::uint64_t batch_size = 0;  ///< trials claimed per scheduling step; 0 = auto
  std::uint64_t seed = 0;        ///< root seed; trial i sees make_stream_rng(seed, i)
};

/// One Monte-Carlo sample with its stratum weight (uniform MC: weight 1).
struct weighted_sample {
  double value = 0.0;
  double weight = 1.0;
};

/// Scheduling counters of the most recent campaign (diagnostics only —
/// `steals` depends on timing and is not reproducible; the results are).
struct campaign_stats {
  std::uint64_t trials = 0;   ///< trials executed
  std::uint64_t batches = 0;  ///< own-shard batch claims
  std::uint64_t steals = 0;   ///< backlog halves moved between shards
  unsigned threads = 0;       ///< workers that served the campaign
};

/// Work-stealing thread pool for independent fault-injection trials.
/// One campaign at a time per runner; reuse a runner across campaigns to
/// amortize thread start-up (the pool is persistent).
class campaign_runner {
 public:
  /// Runs one trial on its private deterministic engine.
  using trial_body = std::function<void(std::uint64_t trial, rng& gen)>;
  /// trial_body that also receives the executing worker's index
  /// (0..threads()-1) — the hook for per-worker scratch buffers. The
  /// worker a trial lands on is schedule-dependent; results must not be.
  using worker_trial_body =
      std::function<void(std::uint64_t trial, rng& gen, unsigned worker)>;
  /// Runs trials first .. first + gens.size() - 1, trial first + k on
  /// gens[k], its own make_stream_rng engine.
  using group_body =
      std::function<void(std::uint64_t first, std::span<rng> gens)>;
  /// group_body that also receives the executing worker's index, as
  /// worker_trial_body does.
  using worker_group_body = std::function<void(
      std::uint64_t first, std::span<rng> gens, unsigned worker)>;

  explicit campaign_runner(campaign_config config = {});
  ~campaign_runner();
  campaign_runner(const campaign_runner&) = delete;
  campaign_runner& operator=(const campaign_runner&) = delete;

  /// Worker count actually used (resolved hardware_concurrency).
  [[nodiscard]] unsigned threads() const noexcept { return thread_count_; }

  /// Root seed of the per-trial streams.
  [[nodiscard]] std::uint64_t seed() const noexcept { return config_.seed; }

  /// Executes `trials` independent trials. Rethrows the first trial
  /// exception (remaining trials are abandoned at the next batch edge).
  void run(std::uint64_t trials, const trial_body& body);

  /// run() variant handing the body the executing worker's index.
  void run(std::uint64_t trials, const worker_trial_body& body);

  /// Executes `trials` trials in groups of `group` consecutive trials
  /// (the last group may be shorter), one body call per group: the hook
  /// for kernels that solve several trials at once. A claim takes whole
  /// groups: batch_size trials, rounded up to a multiple of `group`.
  /// last_stats().trials still counts trials.
  void run_groups(std::uint64_t trials, std::uint64_t group,
                  const group_body& body);

  /// run_groups() variant handing the body the executing worker's index.
  void run_groups(std::uint64_t trials, std::uint64_t group,
                  const worker_group_body& body);

  /// run() variant collecting one result per trial, in trial order.
  template <typename T>
  [[nodiscard]] std::vector<T> map(
      std::uint64_t trials, const std::function<T(std::uint64_t, rng&)>& fn) {
    // vector<bool> bit-packs elements: adjacent trials would share a
    // byte and the concurrent per-slot writes would race.
    static_assert(!std::is_same_v<T, bool>,
                  "map<bool> is unsafe; use map<char> or map<int>");
    std::vector<T> results(trials);
    run(trials, [&results, &fn](std::uint64_t trial, rng& gen) {
      results[trial] = fn(trial, gen);
    });
    return results;
  }

  /// Weighted-sampling campaign with exactly one sample per trial,
  /// written to the trial's own slot and merged in trial order — the
  /// reduction behind the Fig. 5 sweep (compute_mse_cdf).
  [[nodiscard]] empirical_cdf map_weighted(
      std::uint64_t trials,
      const std::function<weighted_sample(std::uint64_t, rng&)>& fn);

  /// Scheduling counters of the most recent campaign.
  [[nodiscard]] const campaign_stats& last_stats() const noexcept {
    return last_stats_;
  }

 private:
  struct pool;

  /// What every entry point runs: groups of `group` consecutive trials
  /// with their engines, on the executing worker.
  void run_units(std::uint64_t trials, std::uint64_t group,
                 const worker_group_body& body);

  campaign_config config_;
  unsigned thread_count_ = 1;
  std::unique_ptr<pool> pool_;  // null when thread_count_ == 1
  campaign_stats last_stats_{};
};

}  // namespace urmem
