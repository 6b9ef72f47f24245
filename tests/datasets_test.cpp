// Tests for the synthetic dataset generators (Table 1 substitutes) and
// the CSV loader.
#include <gtest/gtest.h>

#include <sstream>

#include "urmem/datasets/csv.hpp"
#include "urmem/datasets/generators.hpp"
#include "urmem/ml/knn.hpp"
#include "urmem/ml/pca.hpp"
#include "urmem/ml/preprocessing.hpp"

namespace urmem {
namespace {

// ------------------------------------------------------------- wine-like

TEST(WineLikeTest, ShapeAndMetadata) {
  const dataset data = make_wine_like();
  EXPECT_EQ(data.size(), 1599u);       // UCI red-wine sample count
  EXPECT_EQ(data.dimension(), 11u);    // 11 physicochemical features
  EXPECT_EQ(data.feature_names.size(), 11u);
  EXPECT_TRUE(data.labels.empty());
  EXPECT_EQ(data.targets.size(), 1599u);
}

TEST(WineLikeTest, DeterministicInSeed) {
  const dataset a = make_wine_like({.seed = 5});
  const dataset b = make_wine_like({.seed = 5});
  const dataset c = make_wine_like({.seed = 6});
  EXPECT_DOUBLE_EQ(a.features(0, 0), b.features(0, 0));
  EXPECT_DOUBLE_EQ(a.targets[10], b.targets[10]);
  EXPECT_NE(a.features(0, 0), c.features(0, 0));
}

TEST(WineLikeTest, FeatureRangesArephysical) {
  const dataset data = make_wine_like();
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_GE(data.features(i, 10), 8.4);   // alcohol
    EXPECT_LE(data.features(i, 10), 14.9);
    EXPECT_GE(data.features(i, 8), 2.74);   // pH
    EXPECT_LE(data.features(i, 8), 4.01);
    EXPECT_GE(data.targets[i], 3.0);
    EXPECT_LE(data.targets[i], 8.0);
  }
}

TEST(WineLikeTest, AlcoholCorrelatesPositivelyWithQuality) {
  // The dominant effect of the UCI study must survive the generator.
  const dataset data = make_wine_like();
  double cov = 0.0;
  double mean_a = 0.0;
  double mean_q = 0.0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    mean_a += data.features(i, 10);
    mean_q += data.targets[i];
  }
  mean_a /= static_cast<double>(data.size());
  mean_q /= static_cast<double>(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    cov += (data.features(i, 10) - mean_a) * (data.targets[i] - mean_q);
  }
  EXPECT_GT(cov, 0.0);
}

// ---------------------------------------------------------- madelon-like

TEST(MadelonLikeTest, ShapeMatchesConfig) {
  const dataset data = make_madelon_like();
  EXPECT_EQ(data.size(), 500u);
  EXPECT_EQ(data.dimension(), 60u);  // 5 + 15 + 40
  EXPECT_EQ(data.labels.size(), 500u);
  for (const int label : data.labels) {
    EXPECT_TRUE(label == 0 || label == 1);
  }
}

TEST(MadelonLikeTest, SpectrumHasFewStrongDirections) {
  // The informative + redundant structure concentrates variance in a
  // handful of principal directions — the property PCA exploits.
  const dataset data = make_madelon_like();
  standard_scaler scaler;
  matrix z = scaler.fit_transform(data.features);
  pca model(5);
  model.fit(z);
  // 5 of 60 directions carry far more than their 8% uniform share: the
  // rank-5 informative+redundant block concentrates the variance (score
  // on the training set is the captured variance fraction).
  EXPECT_GT(model.score(z), 0.25);
}

TEST(MadelonLikeTest, RedundantFeaturesAreLinearCombinations) {
  const dataset data = make_madelon_like({.samples = 200, .seed = 9});
  // Fitting PCA on informative+redundant only: rank must be at most 5
  // (up to noise), so 5 components capture essentially everything.
  matrix sub(200, 20);
  for (std::size_t i = 0; i < 200; ++i) {
    for (std::size_t j = 0; j < 20; ++j) sub(i, j) = data.features(i, j);
  }
  pca model(5);
  model.fit(sub);
  EXPECT_GT(model.score(sub), 0.999);
}

TEST(MadelonLikeTest, LabelIsVertexParityXor) {
  // No single informative feature separates the classes (XOR structure):
  // a 1-feature threshold must stay near chance.
  const dataset data = make_madelon_like({.samples = 2000, .seed = 11});
  std::size_t agree = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const int guess = data.features(i, 0) > 0 ? 1 : 0;
    if (guess == data.labels[i]) ++agree;
  }
  const double rate = static_cast<double>(agree) / static_cast<double>(data.size());
  EXPECT_GT(rate, 0.40);
  EXPECT_LT(rate, 0.60);
}

// -------------------------------------------------------------- har-like

TEST(HarLikeTest, ShapeAndLabels) {
  const dataset data = make_har_like();
  EXPECT_EQ(data.size(), 1500u);
  EXPECT_EQ(data.dimension(), 6u);
  for (const int label : data.labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, 5);
  }
}

TEST(HarLikeTest, KnnSeparatesActivitiesWell) {
  const dataset data = make_har_like();
  rng gen(13);
  const split_indices split = train_test_split(data.size(), 0.2, gen);
  standard_scaler scaler;
  const matrix train = scaler.fit_transform(take_rows(data.features, split.train));
  const matrix test = scaler.transform(take_rows(data.features, split.test));
  knn_classifier model(5);
  model.fit(train, take(data.labels, split.train));
  const double score = model.score(test, take(data.labels, split.test));
  // High but not perfect: dynamic activities overlap, as in ref. [20].
  EXPECT_GT(score, 0.80);
  EXPECT_LT(score, 1.0);
}

TEST(HarLikeTest, StdFeaturesArePositive) {
  const dataset data = make_har_like();
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (std::size_t j = 3; j < 6; ++j) EXPECT_GT(data.features(i, j), 0.0);
  }
}

// ------------------------------------------------------------------- csv

TEST(CsvTest, ParsesRegressionTable) {
  std::istringstream in("a,b,target\n1,2,3\n4,5,6\n");
  const dataset data = read_csv(in);
  EXPECT_EQ(data.size(), 2u);
  EXPECT_EQ(data.dimension(), 2u);
  EXPECT_DOUBLE_EQ(data.features(1, 1), 5.0);
  EXPECT_DOUBLE_EQ(data.targets[1], 6.0);
  EXPECT_EQ(data.feature_names, (std::vector<std::string>{"a", "b"}));
}

TEST(CsvTest, ParsesLabelsAndCustomTargetColumn) {
  std::istringstream in("label,x,y\n1,0.5,0.25\n0,1.5,2.25\n");
  csv_options options;
  options.target_column = 0;
  options.target_is_label = true;
  const dataset data = read_csv(in, options);
  EXPECT_EQ(data.labels, (std::vector<int>{1, 0}));
  EXPECT_DOUBLE_EQ(data.features(0, 0), 0.5);
}

TEST(CsvTest, RejectsMalformedInput) {
  std::istringstream ragged("a,b,c\n1,2,3\n4,5\n");
  EXPECT_THROW(read_csv(ragged), std::invalid_argument);
  std::istringstream text("a,b\n1,hello\n");
  EXPECT_THROW(read_csv(text), std::invalid_argument);
  std::istringstream empty("a,b\n");
  EXPECT_THROW(read_csv(empty), std::invalid_argument);
}

TEST(CsvTest, WriteReadRoundTrip) {
  const dataset original = make_har_like({.samples = 25, .seed = 19});
  std::stringstream buffer;
  write_csv(buffer, original);
  csv_options options;
  options.target_is_label = true;
  const dataset parsed = read_csv(buffer, options);
  ASSERT_EQ(parsed.size(), original.size());
  ASSERT_EQ(parsed.dimension(), original.dimension());
  EXPECT_EQ(parsed.labels, original.labels);
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    for (std::size_t j = 0; j < parsed.dimension(); ++j) {
      EXPECT_NEAR(parsed.features(i, j), original.features(i, j), 1e-4);
    }
  }
}

TEST(CsvTest, MissingFileRejected) {
  EXPECT_THROW(read_csv_file("/nonexistent/path.csv"), std::invalid_argument);
}

}  // namespace
}  // namespace urmem
