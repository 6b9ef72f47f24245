// Tests for the native ML library: matrix algebra, preprocessing,
// metrics, and the three benchmark algorithms of Table 1.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "urmem/common/rng.hpp"
#include "urmem/common/stats.hpp"
#include "urmem/ml/elasticnet.hpp"
#include "urmem/ml/knn.hpp"
#include "urmem/ml/matrix.hpp"
#include "urmem/ml/metrics.hpp"
#include "urmem/ml/pca.hpp"
#include "urmem/ml/preprocessing.hpp"
#include "urmem/sim/applications.hpp"

namespace urmem {
namespace {

// ---------------------------------------------------------------- matrix

TEST(MatrixTest, ConstructionAndAccess) {
  matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  m(1, 2) = 4.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 4.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.5);
  EXPECT_EQ(m.row(1).size(), 3u);
  EXPECT_DOUBLE_EQ(m.col(2)[1], 4.0);
}

TEST(MatrixTest, MatmulKnownProduct) {
  matrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 3; a(1, 1) = 4;
  matrix b(2, 2);
  b(0, 0) = 5; b(0, 1) = 6; b(1, 0) = 7; b(1, 1) = 8;
  const matrix c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, TransposeInvolution) {
  matrix a(2, 3);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) a(r, c) = static_cast<double>(r * 3 + c);
  }
  const matrix att = transpose(transpose(a));
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(att(r, c), a(r, c));
  }
}

TEST(MatrixTest, CovarianceOfKnownData) {
  // Two perfectly anticorrelated columns.
  matrix x(4, 2);
  for (std::size_t i = 0; i < 4; ++i) {
    x(i, 0) = static_cast<double>(i);
    x(i, 1) = -static_cast<double>(i);
  }
  const matrix cov = covariance(x);
  EXPECT_NEAR(cov(0, 0), 5.0 / 3.0, 1e-12);
  EXPECT_NEAR(cov(0, 1), -5.0 / 3.0, 1e-12);
  EXPECT_NEAR(cov(1, 1), 5.0 / 3.0, 1e-12);
}

TEST(MatrixTest, MatmulDimensionMismatchRejected) {
  EXPECT_THROW(matmul(matrix(2, 3), matrix(2, 3)), std::invalid_argument);
}

// --------------------------------------------------------- preprocessing

TEST(ScalerTest, StandardizesToZeroMeanUnitVariance) {
  rng gen(1);
  matrix x(200, 3);
  for (std::size_t r = 0; r < 200; ++r) {
    x(r, 0) = 5.0 + 2.0 * gen.normal();
    x(r, 1) = -3.0 + 0.5 * gen.normal();
    x(r, 2) = 100.0 + 10.0 * gen.normal();
  }
  standard_scaler scaler;
  const matrix z = scaler.fit_transform(x);
  for (std::size_t c = 0; c < 3; ++c) {
    const auto col = z.col(c);
    EXPECT_NEAR(mean(col), 0.0, 1e-10);
    EXPECT_NEAR(stddev(col), 1.0, 0.01);
  }
}

TEST(ScalerTest, ConstantColumnHandled) {
  matrix x(10, 1, 7.0);
  standard_scaler scaler;
  const matrix z = scaler.fit_transform(x);
  for (std::size_t r = 0; r < 10; ++r) EXPECT_DOUBLE_EQ(z(r, 0), 0.0);
}

TEST(SplitTest, SizesAndDisjointness) {
  rng gen(2);
  const split_indices split = train_test_split(100, 0.2, gen);
  EXPECT_EQ(split.test.size(), 20u);
  EXPECT_EQ(split.train.size(), 80u);
  std::vector<bool> seen(100, false);
  for (const auto i : split.train) seen[i] = true;
  for (const auto i : split.test) {
    EXPECT_FALSE(seen[i]) << "index " << i << " in both partitions";
    seen[i] = true;
  }
  for (const bool s : seen) EXPECT_TRUE(s);
}

// ---------------------------------------------------------------- metrics

TEST(MetricsTest, R2KnownValues) {
  const std::vector<double> truth{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(r2_score(truth, truth), 1.0);
  const std::vector<double> mean_pred(4, 2.5);
  EXPECT_DOUBLE_EQ(r2_score(truth, mean_pred), 0.0);
}

TEST(MetricsTest, MseAndAccuracy) {
  EXPECT_DOUBLE_EQ(
      mean_squared_error(std::vector<double>{1, 2}, std::vector<double>{2, 4}),
      2.5);
  EXPECT_DOUBLE_EQ(
      accuracy_score(std::vector<int>{1, 2, 3, 4}, std::vector<int>{1, 2, 0, 4}),
      0.75);
}

// ------------------------------------------------------------- elasticnet

TEST(ElasticnetTest, RecoversLinearModelWithoutRegularization) {
  rng gen(3);
  matrix x(300, 3);
  std::vector<double> y(300);
  for (std::size_t i = 0; i < 300; ++i) {
    for (std::size_t j = 0; j < 3; ++j) x(i, j) = gen.normal();
    y[i] = 2.0 * x(i, 0) - 1.5 * x(i, 1) + 0.5 + 0.001 * gen.normal();
  }
  elasticnet model({.alpha = 0.0, .l1_ratio = 0.5, .max_iter = 2000, .tol = 1e-10});
  model.fit(x, y);
  EXPECT_NEAR(model.coefficients()[0], 2.0, 0.01);
  EXPECT_NEAR(model.coefficients()[1], -1.5, 0.01);
  EXPECT_NEAR(model.coefficients()[2], 0.0, 0.01);
  EXPECT_NEAR(model.intercept(), 0.5, 0.01);
}

TEST(ElasticnetTest, StrongL1DrivesCoefficientsToZero) {
  rng gen(4);
  matrix x(100, 4);
  std::vector<double> y(100);
  for (std::size_t i = 0; i < 100; ++i) {
    for (std::size_t j = 0; j < 4; ++j) x(i, j) = gen.normal();
    y[i] = 0.1 * x(i, 0) + gen.normal() * 0.1;
  }
  elasticnet model({.alpha = 10.0, .l1_ratio = 1.0});
  model.fit(x, y);
  for (const double w : model.coefficients()) EXPECT_DOUBLE_EQ(w, 0.0);
  // Prediction falls back to the intercept = mean(y).
  const auto pred = model.predict(x);
  EXPECT_NEAR(pred[0], model.intercept(), 1e-12);
}

TEST(ElasticnetTest, RidgeLimitMatchesClosedFormSingleFeature) {
  // For one centered feature: w = rho / (z + alpha) with l1_ratio = 0.
  matrix x(4, 1);
  x(0, 0) = -1.5; x(1, 0) = -0.5; x(2, 0) = 0.5; x(3, 0) = 1.5;
  const std::vector<double> y{-3.0, -1.0, 1.0, 3.0};  // slope 2, centered
  const double z = (2 * 1.5 * 1.5 + 2 * 0.5 * 0.5) / 4.0;  // 1.25
  const double rho = z * 2.0;                               // cov with y
  const double alpha = 0.5;
  elasticnet model({.alpha = alpha, .l1_ratio = 0.0, .max_iter = 5000, .tol = 1e-12});
  model.fit(x, y);
  EXPECT_NEAR(model.coefficients()[0], rho / (z + alpha), 1e-9);
}

TEST(ElasticnetTest, PredictBeforeFitRejected) {
  elasticnet model;
  EXPECT_THROW(model.predict(matrix(2, 2)), std::invalid_argument);
}

// ------------------------------------------------------------------- pca

TEST(JacobiTest, DiagonalizesKnownSymmetricMatrix) {
  // Eigenvalues of [[2,1],[1,2]] are 3 and 1.
  matrix a(2, 2);
  a(0, 0) = 2; a(0, 1) = 1; a(1, 0) = 1; a(1, 1) = 2;
  const eigen_decomposition eig = jacobi_eigen(a);
  EXPECT_NEAR(eig.values[0], 3.0, 1e-10);
  EXPECT_NEAR(eig.values[1], 1.0, 1e-10);
  // Eigenvector of lambda=3 is (1,1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::abs(eig.vectors(0, 0)), std::sqrt(0.5), 1e-10);
  EXPECT_NEAR(std::abs(eig.vectors(1, 0)), std::sqrt(0.5), 1e-10);
}

TEST(JacobiTest, ReconstructsTheInput) {
  rng gen(5);
  const std::size_t p = 8;
  matrix a(p, p);
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = i; j < p; ++j) {
      a(i, j) = gen.normal();
      a(j, i) = a(i, j);
    }
  }
  const eigen_decomposition eig = jacobi_eigen(a);
  // A = V diag(lambda) V^T.
  matrix lambda(p, p, 0.0);
  for (std::size_t i = 0; i < p; ++i) lambda(i, i) = eig.values[i];
  const matrix rebuilt =
      matmul(matmul(eig.vectors, lambda), transpose(eig.vectors));
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = 0; j < p; ++j) {
      EXPECT_NEAR(rebuilt(i, j), a(i, j), 1e-8);
    }
  }
}

TEST(PcaTest, ComponentsAreOrthonormal) {
  rng gen(6);
  matrix x(300, 6);
  for (std::size_t i = 0; i < 300; ++i) {
    const double t = gen.normal();
    for (std::size_t j = 0; j < 6; ++j) {
      x(i, j) = t * static_cast<double>(j + 1) + 0.1 * gen.normal();
    }
  }
  pca model(3);
  model.fit(x);
  const matrix& v = model.components();
  const matrix gram = matmul(transpose(v), v);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(gram(i, j), i == j ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST(PcaTest, SingleStrongDirectionCapturesVariance) {
  rng gen(7);
  matrix x(500, 5);
  for (std::size_t i = 0; i < 500; ++i) {
    const double t = 3.0 * gen.normal();
    for (std::size_t j = 0; j < 5; ++j) x(i, j) = t + 0.05 * gen.normal();
  }
  pca model(1);
  model.fit(x);
  EXPECT_GT(model.score(x), 0.99);
}

TEST(PcaTest, ScoreDropsOnUnrelatedData) {
  rng gen(8);
  matrix structured(300, 4);
  for (std::size_t i = 0; i < 300; ++i) {
    const double t = gen.normal();
    structured(i, 0) = t; structured(i, 1) = t;
    structured(i, 2) = 0.01 * gen.normal(); structured(i, 3) = 0.01 * gen.normal();
  }
  pca model(1);
  model.fit(structured);
  matrix noise(300, 4);
  for (std::size_t i = 0; i < 300; ++i) {
    for (std::size_t j = 0; j < 4; ++j) noise(i, j) = gen.normal();
  }
  EXPECT_GT(model.score(structured), 0.95);
  EXPECT_LT(model.score(noise), 0.7);
}

// ------------------------------------------------------------------- knn

TEST(KnnTest, PerfectOnSeparatedClusters) {
  rng gen(10);
  matrix x(90, 2);
  std::vector<int> labels(90);
  for (std::size_t i = 0; i < 90; ++i) {
    const int cls = static_cast<int>(i % 3);
    labels[i] = cls;
    x(i, 0) = cls * 10.0 + 0.3 * gen.normal();
    x(i, 1) = cls * -10.0 + 0.3 * gen.normal();
  }
  knn_classifier model(5);
  model.fit(x, labels);
  EXPECT_DOUBLE_EQ(model.score(x, labels), 1.0);
}

TEST(KnnTest, SingleNeighborMemorizes) {
  matrix x(4, 1);
  x(0, 0) = 0; x(1, 0) = 1; x(2, 0) = 10; x(3, 0) = 11;
  knn_classifier model(1);
  model.fit(x, {0, 0, 1, 1});
  const std::vector<double> q1{0.4};
  const std::vector<double> q2{10.6};
  EXPECT_EQ(model.predict_one(q1), 0);
  EXPECT_EQ(model.predict_one(q2), 1);
}

TEST(KnnTest, MajorityVoteBreaksTiesTowardSmallerLabel) {
  matrix x(4, 1);
  x(0, 0) = 0.0; x(1, 0) = 0.2; x(2, 0) = 1.0; x(3, 0) = 1.2;
  knn_classifier model(4);  // all points vote: 2 vs 2 tie
  model.fit(x, {0, 0, 1, 1});
  const std::vector<double> q{0.6};
  EXPECT_EQ(model.predict_one(q), 0);
}

TEST(KnnTest, RejectsMisuse) {
  knn_classifier model(5);
  EXPECT_THROW(model.fit(matrix(3, 2), {0, 1, 0}), std::invalid_argument);
  matrix x(6, 2);
  model.fit(x, {0, 1, 0, 1, 0, 1});
  const std::vector<double> bad_dim{1.0};
  EXPECT_THROW((void)model.predict_one(bad_dim), std::invalid_argument);
}

// Brute-force kNN oracle: every (d^2, training index) pair fully
// sorted, then a majority vote over the first k with ties toward the
// smaller label. d^2 sums 0 + d0^2 + d1^2 + ... like the classifier.
int oracle_knn(const matrix& train, const std::vector<int>& labels,
               std::size_t k, std::span<const double> query) {
  std::vector<std::pair<double, std::size_t>> pairs;
  pairs.reserve(train.rows());
  for (std::size_t i = 0; i < train.rows(); ++i) {
    double d2 = 0.0;
    for (std::size_t j = 0; j < train.cols(); ++j) {
      const double d = train(i, j) - query[j];
      d2 += d * d;
    }
    pairs.emplace_back(d2, i);
  }
  std::sort(pairs.begin(), pairs.end());
  std::map<int, std::size_t> votes;
  for (std::size_t i = 0; i < k; ++i) ++votes[labels[pairs[i].second]];
  int best_label = votes.begin()->first;
  std::size_t best_count = 0;
  for (const auto& [label, count] : votes) {
    if (count > best_count) {
      best_count = count;
      best_label = label;
    }
  }
  return best_label;
}

// Small-integer coordinates make every distance exact, so equal
// distances are genuine ties; the tiny coordinate range forces
// duplicated rows, several under different labels.
void expect_knn_matches_oracle(const matrix& train,
                               const std::vector<int>& labels,
                               const matrix& queries) {
  for (const std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{5},
                              train.rows()}) {
    knn_classifier model(k);
    model.fit(train, labels);
    const std::vector<int> predicted = model.predict(queries);
    ASSERT_EQ(predicted.size(), queries.rows());
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      EXPECT_EQ(predicted[q], oracle_knn(train, labels, k, queries.row(q)))
          << "k=" << k << " query " << q;
      EXPECT_EQ(model.predict_one(queries.row(q)), predicted[q])
          << "k=" << k << " query " << q;
    }
    // Queries sitting exactly on training rows (distance 0 to the row and
    // to each of its duplicates).
    const std::vector<int> on_rows = model.predict(train);
    for (std::size_t r = 0; r < train.rows(); ++r) {
      EXPECT_EQ(on_rows[r], oracle_knn(train, labels, k, train.row(r)))
          << "k=" << k << " training row " << r;
      EXPECT_EQ(model.predict_one(train.row(r)), on_rows[r])
          << "k=" << k << " training row " << r;
    }
  }
}

TEST(KnnTest, TiesBreakByTrainingIndexLikeFullSortOracle) {
  // Hand-made: rows 0/1 and 3/4 are duplicates under different labels;
  // the query at 0.5 is equidistant from rows 0-4.
  matrix train(7, 1);
  const double xs[] = {0.0, 0.0, 1.0, 1.0, 1.0, 3.0, -2.0};
  for (std::size_t i = 0; i < 7; ++i) train(i, 0) = xs[i];
  const std::vector<int> labels{2, 0, 1, 2, 0, 1, 0};
  matrix queries(5, 1);
  const double qs[] = {0.5, 0.0, 1.0, 2.0, -1.0};
  for (std::size_t i = 0; i < 5; ++i) queries(i, 0) = qs[i];
  expect_knn_matches_oracle(train, labels, queries);

  // Randomized: 3-D points on a {-1, 0, 1} grid, labels 0..3.
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    rng gen(seed);
    const std::size_t n = 9 + seed % 5;
    matrix x(n, 3);
    std::vector<int> y(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < 3; ++j) {
        x(i, j) = static_cast<double>(gen() % 3) - 1.0;
      }
      y[i] = static_cast<int>(gen() % 4);
    }
    matrix q(20, 3);
    for (std::size_t i = 0; i < 20; ++i) {
      for (std::size_t j = 0; j < 3; ++j) {
        q(i, j) = static_cast<double>(gen() % 5) - 2.0;
      }
    }
    expect_knn_matches_oracle(x, y, q);
  }
}

// ------------------------------------------------------------ knn delta

// predict_changed must equal fitting a fresh classifier on `stored`.
void expect_delta_matches_full(const matrix& clean,
                               const std::vector<int>& labels,
                               const matrix& stored,
                               const std::vector<std::size_t>& changed,
                               const matrix& queries, std::size_t k,
                               std::size_t depth) {
  knn_classifier baseline(k);
  baseline.fit(clean, labels);
  const knn_classifier::neighbor_prefix prefix =
      baseline.nearest_prefix(queries, depth);
  knn_classifier full(k);
  full.fit(stored, labels);
  EXPECT_EQ(baseline.predict_changed(queries, prefix, stored, changed),
            full.predict(queries))
      << "k=" << k << " depth=" << depth << " changed=" << changed.size();
}

TEST(KnnDeltaTest, MatchesFullPredictOnEveryChangeSetShape) {
  // Small-integer grid points: exact distances, so ties are genuine.
  rng gen(41);
  const auto grid_point = [&](matrix& m, std::size_t row, int span) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      m(row, j) = static_cast<double>(gen() % static_cast<unsigned>(span)) -
                  static_cast<double>(span / 2);
    }
  };
  matrix clean(40, 3);
  std::vector<int> labels(40);
  for (std::size_t i = 0; i < 40; ++i) {
    grid_point(clean, i, 3);
    labels[i] = static_cast<int>(gen() % 4);
  }
  matrix queries(30, 3);
  for (std::size_t q = 0; q < 30; ++q) grid_point(queries, q, 5);

  for (const std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{5}}) {
    for (const std::size_t depth : {k, std::size_t{8}, std::size_t{40}}) {
      // Empty change set.
      expect_delta_matches_full(clean, labels, clean, {}, queries, k, depth);
      // One row moved.
      matrix one = clean;
      grid_point(one, 7, 5);
      expect_delta_matches_full(clean, labels, one, {7}, queries, k, depth);
      // Changed rows that duplicate other rows: exact distance ties
      // between a changed and an unchanged row.
      matrix dup = clean;
      const std::vector<std::size_t> dup_rows{3, 11, 20};
      const std::size_t sources[] = {4, 12, 0};
      for (std::size_t i = 0; i < 3; ++i) {
        for (std::size_t j = 0; j < 3; ++j) {
          dup(dup_rows[i], j) = clean(sources[i], j);
        }
      }
      expect_delta_matches_full(clean, labels, dup, dup_rows, queries, k,
                                depth);
      // Query 0's whole prefix changed: fewer than k unchanged rows are
      // left in it, so that query takes the full pass.
      knn_classifier baseline(k);
      baseline.fit(clean, labels);
      const auto prefix = baseline.nearest_prefix(queries, depth);
      std::vector<std::size_t> crowded;
      for (std::size_t e = 0; e < prefix.depth; ++e) {
        crowded.push_back(prefix.entries[e].second);
      }
      std::sort(crowded.begin(), crowded.end());
      matrix moved = clean;
      for (const std::size_t row : crowded) grid_point(moved, row, 5);
      expect_delta_matches_full(clean, labels, moved, crowded, queries, k,
                                depth);
      // Every row changed.
      matrix all = clean;
      std::vector<std::size_t> every(40);
      for (std::size_t i = 0; i < 40; ++i) {
        every[i] = i;
        grid_point(all, i, 5);
      }
      expect_delta_matches_full(clean, labels, all, every, queries, k, depth);
    }
  }
}

TEST(KnnDeltaTest, ChangedRowOnTheKthDistanceBreaksTiesByIndex) {
  // Query 0: rows 1 and 3 tie at d^2 = 1, row 1 wins on index.
  matrix clean(5, 1);
  const double xs[] = {5.0, 1.0, 9.0, -1.0, 3.0};
  for (std::size_t i = 0; i < 5; ++i) clean(i, 0) = xs[i];
  const std::vector<int> labels{0, 1, 2, 3, 4};
  const matrix queries(1, 1, 0.0);
  knn_classifier baseline(1);
  baseline.fit(clean, labels);
  const auto prefix = baseline.nearest_prefix(queries, 5);
  EXPECT_EQ(baseline.predict(queries), std::vector<int>{1});

  // Row 0 lands on the 1st distance with a smaller index: it takes over.
  matrix before = clean;
  before(0, 0) = -1.0;
  const std::vector<std::size_t> row0{0};
  EXPECT_EQ(baseline.predict_changed(queries, prefix, before, row0),
            std::vector<int>{0});
  // Row 2 lands there with a larger index: row 1 keeps its place.
  matrix after = clean;
  after(2, 0) = 1.0;
  const std::vector<std::size_t> row2{2};
  EXPECT_EQ(baseline.predict_changed(queries, prefix, after, row2),
            std::vector<int>{1});
  // The same boundary at k = 2 (vote ties go to the smaller label).
  for (const std::size_t depth : {std::size_t{2}, std::size_t{5}}) {
    expect_delta_matches_full(clean, labels, before, {0}, queries, 2, depth);
    expect_delta_matches_full(clean, labels, after, {2}, queries, 2, depth);
    matrix last = clean;
    last(4, 0) = 1.0;  // ties the 2nd at d^2 = 1 with the largest index
    expect_delta_matches_full(clean, labels, last, {4}, queries, 2, depth);
  }
}

// -------------------------------------------------------- output bits

// Deterministic stand-in for a faulty memory: about a third of the
// entries take an error of +-2^(b-16), b < 20, the magnitude of a fault
// at bit b of a Q15.16 word (Eq. (6)). Dense enough that every Table 1
// metric moves off its clean value. Only integer draws, so no libm.
matrix corrupted_copy(const matrix& clean, std::uint64_t seed) {
  matrix out = clean;
  rng gen(seed);
  for (double& v : out.data()) {
    if (gen() % 3 != 0) continue;
    const int bit = static_cast<int>(gen() % 20);
    v += ((gen() & 1U) != 0 ? 1.0 : -1.0) * std::ldexp(1.0, bit - 16);
  }
  return out;
}

// The exact 64-bit results of each Table 1 application (seed 7) on its
// clean training features and on one corrupted copy. The constants were
// recorded before the ML kernels were optimized; any change to a
// kernel's rounding or tie-breaking moves them. They are tied to the
// host's libm like the fig7 golden (the data generators call log/cos).
TEST(MlOutputBitsTest, TableOneApplicationsAreBitPinned) {
  struct pinned {
    const char* app;
    std::uint64_t clean;
    std::uint64_t corrupted;
  };
  const pinned expected[] = {
      {"elasticnet", 0x3fea90bee577be24ULL, 0x3fe50053c23c4e00ULL},
      {"pca", 0x3fd562a68602984eULL, 0x3fd3184eaf0729dcULL},
      {"knn", 0x3febd70a3d70a3d7ULL, 0x3feb851eb851eb85ULL},
  };
  for (const pinned& e : expected) {
    const auto app = make_application(e.app, 7);
    ASSERT_NE(app, nullptr);
    const std::uint64_t clean =
        std::bit_cast<std::uint64_t>(app->evaluate(app->train_features()));
    const matrix stored =
        corrupted_copy(app->train_features(), 0x6d6c62697473ULL);
    const std::uint64_t corrupted =
        std::bit_cast<std::uint64_t>(app->evaluate(stored));
    EXPECT_EQ(clean, e.clean) << e.app << " clean: 0x" << std::hex << clean;
    EXPECT_EQ(corrupted, e.corrupted)
        << e.app << " corrupted: 0x" << std::hex << corrupted;
  }
}


// ------------------------------------------------- lane-batched jacobi

/// Every lane width this CPU runs: 1 (the jacobi_eigen loop), 2, and 4
/// and 8 where the CPU has AVX2 and AVX-512F.
std::vector<std::size_t> host_lane_widths() {
  std::vector<std::size_t> widths{1};
  for (const std::size_t w : {2, 4, 8}) {
    if (w <= detail::jacobi_lane_width()) widths.push_back(w);
  }
  return widths;
}

/// Sample covariance of n random rows: dense, symmetric, positive
/// semi-definite.
matrix random_covariance(std::size_t p, std::uint64_t seed) {
  rng gen(seed);
  matrix x(3 * p, p);
  for (double& v : x.data()) v = gen.normal();
  return covariance(x);
}

/// First k columns of jacobi_eigen(a).vectors, the batched solver's
/// reference.
matrix scalar_top_vectors(const matrix& a, std::size_t k) {
  const eigen_decomposition eig = jacobi_eigen(a);
  matrix out(a.rows(), k);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < k; ++c) out(r, c) = eig.vectors(r, c);
  }
  return out;
}

/// Counts entries whose bits differ; with `nan_matches`, NaN equals any
/// NaN (a NaN's payload depends on operand order, which the compiler
/// may swap for commutative products).
std::size_t bit_mismatches(const matrix& got, const matrix& want,
                           bool nan_matches = false) {
  EXPECT_EQ(got.rows(), want.rows());
  EXPECT_EQ(got.cols(), want.cols());
  std::size_t bad = 0;
  for (std::size_t i = 0; i < got.data().size(); ++i) {
    const double g = got.data()[i];
    const double w = want.data()[i];
    if (nan_matches && std::isnan(g) && std::isnan(w)) continue;
    if (std::bit_cast<std::uint64_t>(g) != std::bit_cast<std::uint64_t>(w)) {
      ++bad;
    }
  }
  return bad;
}

// Each lane runs jacobi_eigen's operation sequence on its own matrix,
// so at every width the CPU supports, every member of every partial
// group matches the scalar solver bit for bit. The members differ in
// what a lane must do on its own: skip an exact zero (i, j) entry, stop
// at its own sweep count (at once for a diagonal, all-zero or infinite
// matrix, after a sweep or two near-diagonal), keep -0.0 entries, or
// sweep to the limit on a NaN, which must not leak into its neighbours.
TEST(JacobiLanesTest, EveryWidthMatchesScalarBitForBit) {
  const std::size_t p = 12;
  std::vector<matrix> members;
  members.push_back(random_covariance(p, 1));
  {
    matrix a = random_covariance(p, 2);  // skips (0, 1) and (2, 5) at first
    a(0, 1) = a(1, 0) = 0.0;
    a(2, 5) = a(5, 2) = 0.0;
    members.push_back(a);
  }
  {
    matrix a(p, p, -0.0);  // diagonal: converged before the first sweep
    for (std::size_t i = 0; i < p; ++i) {
      a(i, i) = i % 3 == 0 ? -0.0 : static_cast<double>(i) - 5.5;
    }
    members.push_back(a);
  }
  {
    matrix a = random_covariance(p, 3);  // near-diagonal: a sweep or two
    for (std::size_t i = 0; i < p; ++i) {
      for (std::size_t j = 0; j < p; ++j) {
        a(i, j) = i == j ? static_cast<double>(i + 1) : 1e-7 * a(i, j);
      }
    }
    members.push_back(a);
  }
  {
    matrix a = random_covariance(p, 4);  // -0.0 off the diagonal and on it
    a(3, 4) = a(4, 3) = -0.0;
    a(0, 11) = a(11, 0) = -0.0;
    a(7, 7) = -0.0;
    members.push_back(a);
  }
  members.emplace_back(p, p, 0.0);  // all zero
  {
    // Converged at once (0 / inf): the lanes around it keep rotating,
    // and any arithmetic on its frozen entries (even c = 1, s = 0)
    // would turn 0 * inf into NaN and reorder its eigenvalues.
    matrix a(p, p, 0.0);
    for (std::size_t i = 0; i < p; ++i) a(i, i) = static_cast<double>(i % 5);
    a(6, 6) = std::numeric_limits<double>::infinity();
    members.push_back(a);
  }
  const std::size_t nan_member = members.size();
  {
    matrix a = random_covariance(p, 5);
    a(2, 3) = a(3, 2) = std::numeric_limits<double>::quiet_NaN();
    members.push_back(a);
  }
  for (std::uint64_t seed = 6; members.size() < 12; ++seed) {
    members.push_back(random_covariance(p, seed));
  }

  std::vector<matrix> reference;
  reference.reserve(members.size());
  for (const matrix& a : members) reference.push_back(scalar_top_vectors(a, p));
  for (const std::size_t width : host_lane_widths()) {
    for (std::size_t count = 1; count <= members.size(); ++count) {
      std::size_t loads = 0;
      const std::vector<matrix> got = detail::jacobi_top_vectors_at(
          width, count, p,
          [&](std::size_t m) {
            EXPECT_EQ(m, loads);
            ++loads;
            return members[m];
          });
      ASSERT_EQ(got.size(), count);
      EXPECT_EQ(loads, count);
      for (std::size_t m = 0; m < count; ++m) {
        EXPECT_EQ(bit_mismatches(got[m], reference[m], m == nan_member), 0u)
            << "width " << width << ", " << count << " members, member " << m;
      }
    }
  }
}

// The Fig. 7 shape: covariances of corrupted 400 x 60 madelon-like
// training sets, top 5 vectors, 9 members (one full 8-lane group and a
// partial one), through the CPU's own width as well.
TEST(JacobiLanesTest, Fig7CovariancesMatchScalarBitForBit) {
  const auto app = make_pca_app(7);
  std::vector<matrix> members;
  members.reserve(9);
  for (std::uint64_t seed = 1; seed <= 9; ++seed) {
    members.push_back(covariance(corrupted_copy(app->train_features(), seed)));
  }
  const matrix_source load = [&](std::size_t m) { return members[m]; };
  const std::vector<std::size_t> widths = host_lane_widths();
  std::vector<std::vector<matrix>> runs;
  runs.reserve(widths.size() + 1);
  for (const std::size_t width : widths) {
    runs.push_back(
        detail::jacobi_top_vectors_at(width, members.size(), 5, load));
  }
  runs.push_back(jacobi_top_vectors(members.size(), 5, load));
  for (const std::vector<matrix>& got : runs) {
    ASSERT_EQ(got.size(), members.size());
    for (std::size_t m = 0; m < members.size(); ++m) {
      EXPECT_EQ(bit_mismatches(got[m], scalar_top_vectors(members[m], 5)), 0u)
          << "member " << m;
    }
  }
}

// A holdout centered once scores every basis exactly as pca::score,
// which centers it on each call.
TEST(PcaHoldoutTest, CachedScoreEqualsPcaScore) {
  const auto app = make_pca_app(7);
  const matrix& train = app->train_features();
  rng gen(9);
  matrix holdout(100, train.cols());
  for (double& v : holdout.data()) v = gen.normal();
  const pca_holdout cached(holdout);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    pca model(5);
    model.fit(seed == 0 ? train : corrupted_copy(train, seed));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(cached.score(model.components())),
              std::bit_cast<std::uint64_t>(model.score(holdout)))
        << "seed " << seed;
  }
  EXPECT_EQ(pca_holdout(matrix(4, train.cols(), 2.5)).score(
                scalar_top_vectors(covariance(train), 5)),
            1.0);  // zero variance
}

}  // namespace
}  // namespace urmem
