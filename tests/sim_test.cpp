// Tests for the application-level fault-injection harness: quantizer,
// tiled memory pipeline, the three applications, and the Fig. 7 quality
// experiment driver.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "urmem/sim/applications.hpp"
#include "urmem/sim/memory_pipeline.hpp"
#include "urmem/sim/quality_experiment.hpp"
#include "urmem/sim/quantizer.hpp"

namespace urmem {
namespace {

TEST(QuantizerTest, RoundTripWithinHalfLsb) {
  const matrix_quantizer quantizer;
  matrix m(3, 4);
  rng gen(1);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) m(r, c) = 10.0 * gen.normal();
  }
  const matrix back = quantizer.roundtrip(m);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_NEAR(back(r, c), m(r, c), quantizer.codec().resolution());
    }
  }
}

TEST(QuantizerTest, ShapeValidation) {
  const matrix_quantizer quantizer;
  const std::vector<word_t> words(6, 0);
  EXPECT_NO_THROW(quantizer.from_words(words, 2, 3));
  EXPECT_THROW(quantizer.from_words(words, 2, 4), std::invalid_argument);
}

TEST(PipelineTest, FaultFreeRoundTripAcrossTiles) {
  rng gen(2);
  matrix m(300, 20);  // 6000 words -> several tiny tiles
  for (std::size_t r = 0; r < 300; ++r) {
    for (std::size_t c = 0; c < 20; ++c) m(r, c) = gen.normal();
  }
  storage_config config;
  config.rows_per_tile = 1024;
  store_tile tile(config, [](std::uint32_t) { return make_scheme_none(); });
  pipeline_stats stats;
  const matrix back = store_and_readback(quantize(m, config), tile,
                                         no_fault_injector(), gen, &stats)
                          .values;
  EXPECT_EQ(stats.tiles, 6u);
  EXPECT_EQ(stats.injected_faults, 0u);
  EXPECT_EQ(stats.uncorrectable_words, 0u);
  for (std::size_t r = 0; r < 300; ++r) {
    for (std::size_t c = 0; c < 20; ++c) {
      EXPECT_NEAR(back(r, c), m(r, c), 1.0 / 65536.0);
    }
  }
}

TEST(PipelineTest, ExactInjectorPlacesNFaultsPerTile) {
  rng gen(3);
  matrix m(256, 16);  // 4096 words = 1 full tile of 4096 rows
  storage_config config;
  store_tile tile(config, [](std::uint32_t) { return make_scheme_none(); });
  pipeline_stats stats;
  (void)store_and_readback(quantize(m, config), tile, exact_fault_injector(37),
                           gen, &stats);
  EXPECT_EQ(stats.tiles, 1u);
  EXPECT_EQ(stats.injected_faults, 37u);
}

TEST(PipelineTest, SecdedCorrectsAndReportsUncorrectable) {
  rng gen(4);
  matrix m(64, 4);
  for (std::size_t r = 0; r < 64; ++r) {
    for (std::size_t c = 0; c < 4; ++c) m(r, c) = gen.normal();
  }
  storage_config config;
  config.rows_per_tile = 256;
  // With 300 faults over 256x39 cells, some rows will carry 2+ faults.
  store_tile tile(config, [](std::uint32_t) { return make_scheme_secded(); });
  pipeline_stats stats;
  (void)store_and_readback(quantize(m, config), tile,
                           exact_fault_injector(300), gen, &stats);
  EXPECT_GT(stats.uncorrectable_words, 0u);
}

TEST(PipelineTest, ShuffleBoundsErrorWithOneFaultPerRow) {
  rng gen(5);
  matrix m(128, 8);
  for (std::size_t r = 0; r < 128; ++r) {
    for (std::size_t c = 0; c < 8; ++c) m(r, c) = gen.normal();
  }
  storage_config config;
  config.rows_per_tile = 1024;
  // The paper's single-fault-per-word regime: one flip in every row.
  const fault_injector one_per_row = [](const array_geometry& geometry, rng& g) {
    fault_map map(geometry);
    for (std::uint32_t row = 0; row < geometry.rows; ++row) {
      map.add({row, static_cast<std::uint32_t>(g.uniform_below(geometry.width)),
               fault_kind::flip});
    }
    return map;
  };
  store_tile tile(config, [](std::uint32_t rows) {
    return make_scheme_shuffle(rows, 32, 5);
  });
  const matrix back =
      store_and_readback(quantize(m, config), tile, one_per_row, gen).values;
  // nFM=5: the residual fault error is bounded by the LSB weight 2^-16,
  // on top of the 2^-17 quantization rounding.
  for (std::size_t r = 0; r < 128; ++r) {
    for (std::size_t c = 0; c < 8; ++c) {
      EXPECT_NEAR(back(r, c), m(r, c), std::ldexp(1.0, -16) + std::ldexp(1.0, -17));
    }
  }
}

TEST(PipelineTest, CleanImageIsTheQuantizationRoundTrip) {
  rng gen(7);
  matrix m(20, 5);
  for (double& v : m.data()) v = 3.0 * gen.normal();
  storage_config config;
  const quantized_matrix clean = quantize(m, config);
  const matrix_quantizer quantizer;
  EXPECT_EQ(clean.words, quantizer.to_words(m));
  const matrix back = quantizer.roundtrip(m);
  for (std::size_t i = 0; i < back.data().size(); ++i) {
    EXPECT_EQ(clean.values.data()[i], back.data()[i]);
  }
}

// ---------------------------------------------------------- applications

TEST(ApplicationsTest, Table1Inventory) {
  const auto apps = make_all_applications();
  ASSERT_EQ(apps.size(), 3u);
  EXPECT_EQ(apps[0]->name(), "Elasticnet");
  EXPECT_EQ(apps[0]->dataset_name(), "wine-like");
  EXPECT_EQ(apps[0]->metric_name(), "R^2");
  EXPECT_EQ(apps[1]->name(), "PCA");
  EXPECT_EQ(apps[1]->metric_name(), "Explained Variance");
  EXPECT_EQ(apps[2]->name(), "KNN");
  EXPECT_EQ(apps[2]->dataset_name(), "har-like");
}

TEST(ApplicationsTest, CleanMetricsAreHealthy) {
  for (const auto& app : make_all_applications()) {
    const double metric = app->evaluate(app->train_features());
    EXPECT_GT(metric, 0.25) << app->name();
    EXPECT_LE(metric, 1.0) << app->name();
  }
}

TEST(ApplicationsTest, QuantizationBarelyMovesTheMetric) {
  const matrix_quantizer quantizer;
  for (const auto& app : make_all_applications()) {
    const double clean = app->evaluate(app->train_features());
    const double quantized = app->evaluate(quantizer.roundtrip(app->train_features()));
    EXPECT_NEAR(quantized, clean, 0.02) << app->name();
  }
}

TEST(ApplicationsTest, MsbCorruptionHurtsEachApplication) {
  // Flip the sign bit of stored feature words across all columns: every
  // application must lose quality vs its clean baseline.
  for (const auto& app : make_all_applications()) {
    const matrix& clean = app->train_features();
    const double clean_metric = app->evaluate(clean);
    matrix corrupted = clean;
    const fixed_point_codec codec(32, 16);
    for (std::size_t r = 0; r < corrupted.rows(); r += 3) {
      for (std::size_t c = 0; c < corrupted.cols(); ++c) {
        const word_t w = codec.encode(corrupted(r, c));
        corrupted(r, c) = codec.decode(flip_bit(w, 31));
      }
    }
    EXPECT_LT(app->evaluate(corrupted), clean_metric - 0.02) << app->name();
  }
}

TEST(ApplicationsTest, ShapeMismatchRejected) {
  const auto app = make_elasticnet_app();
  EXPECT_THROW((void)app->evaluate(matrix(3, 3)), std::invalid_argument);
}

// Every application's group evaluator returns exactly evaluate() for
// each trial of a group on real faulty readbacks: KNN re-ranks the
// changed rows (and must also hold when every row changed), PCA solves
// the group in lanes (11 trials span two lane groups at any width),
// Elasticnet retrains each. Each readback is produced once, in order.
TEST(ApplicationsTest, GroupEvaluateEqualsEvaluate) {
  const storage_config config;
  store_tile tile(config, [](std::uint32_t) { return make_scheme_none(); });
  const auto score = [](const application::group_evaluator& evaluate,
                        const std::vector<readback>& group) {
    std::vector<double> metrics(group.size());
    std::size_t next = 0;
    evaluate(
        [&](std::size_t k) {
          EXPECT_EQ(k, next);
          ++next;
          return group[k];
        },
        metrics);
    EXPECT_EQ(next, group.size());
    return metrics;
  };
  for (const char* name : {"elasticnet", "pca", "knn"}) {
    const auto app = make_application(name, 7);
    const quantized_matrix clean = quantize(app->train_features(), config);
    const application::group_evaluator evaluate =
        app->make_group_evaluator(clean.values);
    std::vector<readback> group{{clean.values, {}}};
    for (std::uint64_t k = 0; k < 10; ++k) {
      const std::uint64_t faults = k % 3 == 0 ? 1 : k % 3 == 1 ? 80 : 400;
      rng gen(k + 1);
      group.push_back(
          store_and_readback(clean, tile, exact_fault_injector(faults), gen));
      EXPECT_FALSE(group.back().changed_rows.empty()) << name << " " << k;
    }
    const std::vector<double> metrics = score(evaluate, group);
    for (std::size_t k = 0; k < group.size(); ++k) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(metrics[k]),
                std::bit_cast<std::uint64_t>(app->evaluate(group[k].values)))
          << name << " trial " << k;
    }
    EXPECT_EQ(score(evaluate, {group[2]}), std::vector<double>{metrics[2]})
        << name;
  }
  const auto knn = make_knn_app(7);
  const quantized_matrix clean = quantize(knn->train_features(), config);
  matrix shifted = clean.values;
  for (double& v : shifted.data()) v += 0.75;
  std::vector<std::size_t> every(shifted.rows());
  for (std::size_t i = 0; i < every.size(); ++i) every[i] = i;
  EXPECT_EQ(score(knn->make_group_evaluator(clean.values), {{shifted, every}}),
            std::vector<double>{knn->evaluate(shifted)});
}

// ---------------------------------------------------- quality experiment

quality_experiment_config tiny_config() {
  quality_experiment_config config;
  config.pcell = 2e-4;  // keeps Nmax small so the test is fast
  config.samples_per_count = 2;
  config.seed = 17;
  return config;
}

TEST(QualityExperimentTest, FailureCountLimitCoversTheMass) {
  quality_experiment_config config;
  config.pcell = 1e-3;  // paper's Fig. 7 point; mean ~131 per 16 KB tile
  const std::uint64_t n_max = failure_count_limit(config);
  EXPECT_GT(n_max, 131u);
  EXPECT_LT(n_max, 200u);
}

TEST(QualityExperimentTest, ProducesNormalizedCdf) {
  const auto app = make_knn_app();
  const quality_result result = run_quality_experiment(
      *app, [](std::uint32_t rows) { return make_scheme_shuffle(rows, 32, 1); },
      "nFM=1", tiny_config());
  EXPECT_EQ(result.scheme_name, "nFM=1");
  EXPECT_GT(result.clean_metric, 0.5);
  EXPECT_GE(result.cdf.support().front(), 0.0);
  EXPECT_LE(result.cdf.support().back(), 1.0);
  EXPECT_DOUBLE_EQ(result.cdf.cumulative().back(), 1.0);
}

TEST(QualityExperimentTest, RejectsARunnerWithAnotherSeed) {
  // A config seed the runner does not carry would be silently ignored.
  const auto app = make_knn_app();
  campaign_runner runner({.threads = 1, .seed = 18});
  EXPECT_THROW((void)run_quality_experiment(
                   *app, [](std::uint32_t) { return make_scheme_none(); },
                   "none", tiny_config(), runner),
               std::invalid_argument);
}

TEST(QualityExperimentTest, ShuffleOutperformsNoCorrection) {
  // The Fig. 7 ordering: the unprotected memory's low-quality quantile
  // sits well below the bit-shuffled one (Elasticnet is the most
  // fault-sensitive of the three benchmarks).
  const auto app = make_elasticnet_app();
  const auto config = tiny_config();
  const quality_result none = run_quality_experiment(
      *app, [](std::uint32_t) { return make_scheme_none(); }, "none", config);
  const quality_result shuffled = run_quality_experiment(
      *app, [](std::uint32_t rows) { return make_scheme_shuffle(rows, 32, 2); },
      "nFM=2", config);
  EXPECT_LT(none.cdf.quantile(0.10), shuffled.cdf.quantile(0.10) - 0.02);
  EXPECT_GT(shuffled.cdf.quantile(0.10), 0.9);
}

}  // namespace
}  // namespace urmem
