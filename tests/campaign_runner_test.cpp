// Tests for the parallel Monte-Carlo campaign engine: deterministic
// per-trial streams, bit-identical aggregates at any thread count,
// work-stealing scheduling, and error propagation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "urmem/common/rng.hpp"
#include "urmem/sim/applications.hpp"
#include "urmem/sim/campaign_runner.hpp"
#include "urmem/sim/quality_experiment.hpp"
#include "urmem/yield/mse_distribution.hpp"

namespace urmem {
namespace {

// ----------------------------------------------------- stream splitting

TEST(StreamSeedTest, MatchesRngSplit) {
  const rng root(1234);
  for (std::uint64_t stream = 0; stream < 64; ++stream) {
    rng via_split = root.split(stream);
    rng via_helper = make_stream_rng(1234, stream);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(via_split(), via_helper());
  }
}

TEST(StreamSeedTest, AdjacentStreamsAreDecorrelated) {
  rng a = make_stream_rng(7, 0);
  rng b = make_stream_rng(7, 1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

// ------------------------------------------------------- basic running

TEST(CampaignRunnerTest, TrialsSeeTheirOwnStream) {
  campaign_runner runner({.threads = 4, .seed = 77});
  const std::vector<std::uint64_t> draws = runner.map<std::uint64_t>(
      100, [](std::uint64_t, rng& gen) { return gen(); });
  ASSERT_EQ(draws.size(), 100u);
  for (std::uint64_t trial = 0; trial < 100; ++trial) {
    EXPECT_EQ(draws[trial], make_stream_rng(77, trial)()) << trial;
  }
}

TEST(CampaignRunnerTest, RunsEveryTrialExactlyOnce) {
  for (const unsigned threads : {1u, 3u, 8u}) {
    campaign_runner runner({.threads = threads, .batch_size = 7, .seed = 5});
    std::vector<std::atomic<int>> hits(1000);
    runner.run(1000, [&hits](std::uint64_t trial, rng&) {
      hits[trial].fetch_add(1, std::memory_order_relaxed);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    EXPECT_EQ(runner.last_stats().trials, 1000u);
    EXPECT_EQ(runner.last_stats().threads, threads);
    EXPECT_GE(runner.last_stats().batches, 1u);
  }
}

// run_groups hands each body call a run of consecutive trials, each on
// its own stream; every trial is covered once, the last group may be
// short, and last_stats() counts trials, not groups.
TEST(CampaignRunnerTest, GroupsCarryConsecutiveTrialsOnTheirOwnStreams) {
  for (const unsigned threads : {1u, 3u}) {
    for (const std::uint64_t group : {1u, 8u, 13u}) {
      campaign_runner runner({.threads = threads, .seed = 77});
      std::vector<std::uint64_t> draws(100);
      std::vector<std::atomic<int>> hits(100);
      runner.run_groups(100, group, [&](std::uint64_t first,
                                        std::span<rng> gens) {
        EXPECT_EQ(first % group, 0u);
        EXPECT_EQ(gens.size(), std::min<std::uint64_t>(group, 100 - first));
        for (std::size_t k = 0; k < gens.size(); ++k) {
          hits[first + k].fetch_add(1, std::memory_order_relaxed);
          draws[first + k] = gens[k]();
        }
      });
      for (std::uint64_t trial = 0; trial < 100; ++trial) {
        EXPECT_EQ(hits[trial].load(), 1) << trial;
        EXPECT_EQ(draws[trial], make_stream_rng(77, trial)()) << trial;
      }
      EXPECT_EQ(runner.last_stats().trials, 100u);
    }
  }
}

// batch_size counts trials under run_groups too: a claim takes that
// many trials rounded up to whole groups.
TEST(CampaignRunnerTest, GroupBatchSizeCountsTrials) {
  for (const auto& [batch, claims] :
       {std::pair<std::uint64_t, std::uint64_t>{16, 7}, {17, 5}, {3, 13}}) {
    campaign_runner runner({.threads = 1, .batch_size = batch, .seed = 3});
    runner.run_groups(100, 8, [](std::uint64_t, std::span<rng>) {});
    EXPECT_EQ(runner.last_stats().batches, claims) << batch;
    EXPECT_EQ(runner.last_stats().trials, 100u) << batch;
  }
}

TEST(CampaignRunnerTest, ZeroTrialsIsANoop) {
  campaign_runner runner({.threads = 2, .seed = 1});
  runner.run(0, [](std::uint64_t, rng&) { FAIL() << "no trial expected"; });
  EXPECT_EQ(runner.last_stats().trials, 0u);
}

TEST(CampaignRunnerTest, FewerTrialsThanThreads) {
  campaign_runner runner({.threads = 8, .seed = 3});
  const std::vector<std::uint64_t> out = runner.map<std::uint64_t>(
      3, [](std::uint64_t trial, rng&) { return trial * 10; });
  EXPECT_EQ(out, (std::vector<std::uint64_t>{0, 10, 20}));
}

TEST(CampaignRunnerTest, TrialExceptionPropagates) {
  campaign_runner runner({.threads = 4, .seed = 9});
  EXPECT_THROW(runner.run(200,
                          [](std::uint64_t trial, rng&) {
                            if (trial == 131) {
                              throw std::runtime_error("injected");
                            }
                          }),
               std::runtime_error);
}

TEST(CampaignRunnerTest, RunnerIsReusableAcrossCampaigns) {
  campaign_runner runner({.threads = 2, .seed = 11});
  const auto first = runner.map<std::uint64_t>(
      50, [](std::uint64_t, rng& gen) { return gen(); });
  const auto second = runner.map<std::uint64_t>(
      50, [](std::uint64_t, rng& gen) { return gen(); });
  EXPECT_EQ(first, second);  // same seed, same streams
}

// ---------------------------------------------- bit-identical aggregates

TEST(CampaignRunnerTest, BatchSizeDoesNotChangeResults) {
  const auto run_at = [](std::uint64_t batch) {
    campaign_runner runner({.threads = 4, .batch_size = batch, .seed = 31});
    return runner.map<std::uint64_t>(
        257, [](std::uint64_t, rng& gen) { return gen(); });
  };
  const auto reference = run_at(1);
  EXPECT_EQ(run_at(8), reference);
  EXPECT_EQ(run_at(1024), reference);
}

/// The determinism contract on a real Fig. 5 workload: the stratified
/// compute_mse_cdf sweep of the P-ECC scheme, Pr(N = 0) stratum
/// included, gives bit-identical CDFs for the same seed at 1, 2 and 8
/// threads.
TEST(CampaignRunnerTest, MseSweepBitIdenticalAcrossThreadCounts) {
  const auto scheme = make_scheme_pecc();
  mse_cdf_config config;
  config.total_runs = 4000;
  config.n_max = 12;
  config.include_fault_free = true;
  config.seed = 404;
  const auto run_at = [&](unsigned threads) {
    campaign_runner runner({.threads = threads, .seed = config.seed});
    return compute_mse_cdf(runner, *scheme, 256, 5e-4, config);
  };
  const empirical_cdf reference = run_at(1);
  ASSERT_GT(reference.size(), 1u);
  for (const unsigned threads : {2u, 8u}) {
    const empirical_cdf cdf = run_at(threads);
    ASSERT_EQ(cdf.size(), reference.size()) << threads;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      // EXPECT_EQ on doubles is exact: bit-identical, not just close.
      EXPECT_EQ(cdf.support()[i], reference.support()[i]) << threads;
      EXPECT_EQ(cdf.cumulative()[i], reference.cumulative()[i]) << threads;
    }
  }
}

TEST(CampaignRunnerTest, QualityExperimentBitIdenticalAcrossThreadCounts) {
  // run_quality_experiment end to end, tiny scale for speed: KNN's
  // delta path and PCA's lane-batched groups.
  for (const char* name : {"knn", "pca"}) {
    const auto app = make_application(name, 7);
    quality_experiment_config config;
    config.pcell = 2e-4;
    config.samples_per_count = 2;
    config.seed = 17;

    const auto run_at = [&](unsigned threads) {
      config.threads = threads;
      return run_quality_experiment(
          *app,
          [](std::uint32_t rows) { return make_scheme_shuffle(rows, 32, 1); },
          "nFM=1", config);
    };
    const quality_result reference = run_at(1);
    for (const unsigned threads : {2u, 8u}) {
      const quality_result result = run_at(threads);
      EXPECT_EQ(result.clean_metric, reference.clean_metric) << name << threads;
      ASSERT_EQ(result.cdf.size(), reference.cdf.size()) << name << threads;
      for (std::size_t i = 0; i < reference.cdf.size(); ++i) {
        EXPECT_EQ(result.cdf.support()[i], reference.cdf.support()[i])
            << name << threads;
        EXPECT_EQ(result.cdf.cumulative()[i], reference.cdf.cumulative()[i])
            << name << threads;
      }
    }
  }
}

}  // namespace
}  // namespace urmem
