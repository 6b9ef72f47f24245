#include "urmem/sim/applications.hpp"

#include <utility>

#include "urmem/common/contracts.hpp"
#include "urmem/datasets/generators.hpp"
#include "urmem/ml/elasticnet.hpp"
#include "urmem/ml/knn.hpp"
#include "urmem/ml/metrics.hpp"
#include "urmem/ml/pca.hpp"
#include "urmem/ml/preprocessing.hpp"

namespace urmem {

application::group_evaluator application::make_group_evaluator(
    const matrix& /*clean_stored*/) const {
  return [this](const readback_source& produce, std::span<double> metrics) {
    for (std::size_t k = 0; k < metrics.size(); ++k) {
      metrics[k] = evaluate(produce(k).values);
    }
  };
}

namespace {

/// Shared split/standardize plumbing: the scaler is fitted on the clean
/// training features and reused for the test set, so every protection
/// scheme sees the identical partition and preprocessing.
struct prepared_data {
  matrix train_x;  // standardized
  matrix test_x;   // standardized with the train scaler
  std::vector<double> train_y;
  std::vector<double> test_y;
  std::vector<int> train_labels;
  std::vector<int> test_labels;
};

prepared_data prepare(const dataset& data, std::uint64_t seed) {
  rng gen(splitmix64(seed ^ 0x73706c6974ULL));  // "split"
  const split_indices split = train_test_split(data.size(), 0.2, gen);

  prepared_data out;
  const matrix train_raw = take_rows(data.features, split.train);
  const matrix test_raw = take_rows(data.features, split.test);
  standard_scaler scaler;
  out.train_x = scaler.fit_transform(train_raw);
  out.test_x = scaler.transform(test_raw);
  if (!data.targets.empty()) {
    out.train_y = take(data.targets, split.train);
    out.test_y = take(data.targets, split.test);
  }
  if (!data.labels.empty()) {
    out.train_labels = take(data.labels, split.train);
    out.test_labels = take(data.labels, split.test);
  }
  return out;
}

class elasticnet_app final : public application {
 public:
  explicit elasticnet_app(std::uint64_t seed)
      : data_(prepare(make_wine_like({.seed = seed ^ 0x77696e65ULL}), seed)) {}

  [[nodiscard]] std::string name() const override { return "Elasticnet"; }
  [[nodiscard]] std::string dataset_name() const override { return "wine-like"; }
  [[nodiscard]] std::string metric_name() const override { return "R^2"; }
  [[nodiscard]] const matrix& train_features() const override { return data_.train_x; }

  [[nodiscard]] double evaluate(const matrix& stored) const override {
    expects(stored.rows() == data_.train_x.rows() &&
                stored.cols() == data_.train_x.cols(),
            "stored training features have the wrong shape");
    elasticnet model({.alpha = 0.01, .l1_ratio = 0.5});
    model.fit(stored, data_.train_y);
    const std::vector<double> predicted = model.predict(data_.test_x);
    return r2_score(data_.test_y, predicted);
  }

 private:
  prepared_data data_;
};

class pca_app final : public application {
 public:
  explicit pca_app(std::uint64_t seed)
      : data_(prepare(make_madelon_like({.seed = seed ^ 0x6d61646cULL}), seed)),
        holdout_(data_.test_x) {}

  [[nodiscard]] std::string name() const override { return "PCA"; }
  [[nodiscard]] std::string dataset_name() const override { return "madelon-like"; }
  [[nodiscard]] std::string metric_name() const override {
    return "Explained Variance";
  }
  [[nodiscard]] const matrix& train_features() const override { return data_.train_x; }

  [[nodiscard]] double evaluate(const matrix& stored) const override {
    check_shape(stored);
    pca model(n_components);
    model.fit(stored);
    return holdout_.score(model.components());
  }

  [[nodiscard]] group_evaluator make_group_evaluator(
      const matrix& /*clean_stored*/) const override {
    return [this](const readback_source& produce, std::span<double> metrics) {
      const std::vector<matrix> bases = jacobi_top_vectors(
          metrics.size(), n_components, [&](std::size_t k) {
            const readback stored = produce(k);
            check_shape(stored.values);
            return covariance(stored.values);
          });
      for (std::size_t k = 0; k < metrics.size(); ++k) {
        metrics[k] = holdout_.score(bases[k]);
      }
    };
  }

 private:
  static constexpr std::size_t n_components = 5;

  void check_shape(const matrix& stored) const {
    expects(stored.rows() == data_.train_x.rows() &&
                stored.cols() == data_.train_x.cols(),
            "stored training features have the wrong shape");
  }

  prepared_data data_;
  pca_holdout holdout_;  // the clean test set, centered once
};

class knn_app final : public application {
 public:
  explicit knn_app(std::uint64_t seed)
      : data_(prepare(make_har_like({.seed = seed ^ 0x686172ULL}), seed)) {}

  [[nodiscard]] std::string name() const override { return "KNN"; }
  [[nodiscard]] std::string dataset_name() const override { return "har-like"; }
  [[nodiscard]] std::string metric_name() const override { return "Score"; }
  [[nodiscard]] const matrix& train_features() const override { return data_.train_x; }

  [[nodiscard]] double evaluate(const matrix& stored) const override {
    expects(stored.rows() == data_.train_x.rows() &&
                stored.cols() == data_.train_x.cols(),
            "stored training features have the wrong shape");
    knn_classifier model(k);
    model.fit(stored, data_.train_labels);
    return model.score(data_.test_x, data_.test_labels);
  }

  [[nodiscard]] group_evaluator make_group_evaluator(
      const matrix& clean_stored) const override {
    expects(clean_stored.rows() == data_.train_x.rows() &&
                clean_stored.cols() == data_.train_x.cols(),
            "clean training features have the wrong shape");
    struct baseline {
      knn_classifier model{k};
      knn_classifier::neighbor_prefix prefix;
    };
    auto clean = std::make_shared<baseline>();
    clean->model.fit(clean_stored, data_.train_labels);
    clean->prefix = clean->model.nearest_prefix(data_.test_x, prefix_depth);
    return [this, clean = std::shared_ptr<const baseline>(std::move(clean))](
               const readback_source& produce, std::span<double> metrics) {
      for (std::size_t i = 0; i < metrics.size(); ++i) {
        const readback stored = produce(i);
        metrics[i] = accuracy_score(
            data_.test_labels,
            clean->model.predict_changed(data_.test_x, clean->prefix,
                                         stored.values, stored.changed_rows));
      }
    };
  }

 private:
  static constexpr std::size_t k = 5;
  /// Clean neighbors kept per test query: 300 x 32 entries is ~150 KB,
  /// where the full order would hold 300 x 1200. A trial changes ~10%
  /// of the rows, so 32 almost always leave k unchanged neighbors.
  static constexpr std::size_t prefix_depth = 32;

  prepared_data data_;
};

class image_app final : public application {
 public:
  explicit image_app(std::uint64_t seed)
      : image_(make_image_like({.seed = seed ^ 0x696d67ULL}).features) {}

  [[nodiscard]] std::string name() const override { return "FrameBuffer"; }
  [[nodiscard]] std::string dataset_name() const override { return "image-like"; }
  [[nodiscard]] std::string metric_name() const override { return "PSNR [dB]"; }
  [[nodiscard]] const matrix& train_features() const override { return image_; }

  [[nodiscard]] double evaluate(const matrix& stored) const override {
    expects(stored.rows() == image_.rows() && stored.cols() == image_.cols(),
            "stored frame has the wrong shape");
    // PSNR against the original frame; the fault-free baseline is the
    // (finite) quantization-only PSNR.
    return psnr_db(image_.data(), stored.data());
  }

 private:
  matrix image_;
};

}  // namespace

std::unique_ptr<application> make_image_app(std::uint64_t seed) {
  return std::make_unique<image_app>(seed);
}

std::unique_ptr<application> make_elasticnet_app(std::uint64_t seed) {
  return std::make_unique<elasticnet_app>(seed);
}

std::unique_ptr<application> make_pca_app(std::uint64_t seed) {
  return std::make_unique<pca_app>(seed);
}

std::unique_ptr<application> make_knn_app(std::uint64_t seed) {
  return std::make_unique<knn_app>(seed);
}

std::vector<std::unique_ptr<application>> make_all_applications(std::uint64_t seed) {
  std::vector<std::unique_ptr<application>> apps;
  apps.push_back(make_elasticnet_app(seed));
  apps.push_back(make_pca_app(seed));
  apps.push_back(make_knn_app(seed));
  return apps;
}

std::unique_ptr<application> make_application(std::string_view name,
                                              std::uint64_t seed) {
  if (name == "elasticnet") return make_elasticnet_app(seed);
  if (name == "pca") return make_pca_app(seed);
  if (name == "knn") return make_knn_app(seed);
  if (name == "image") return make_image_app(seed);
  return nullptr;
}

bool is_known_application(std::string_view name) {
  return name == "elasticnet" || name == "pca" || name == "knn" ||
         name == "image";
}

}  // namespace urmem
