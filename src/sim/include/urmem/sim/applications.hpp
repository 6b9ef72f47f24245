// The three evaluation applications of the paper's Table 1, packaged
// behind one interface: each holds its (synthetic) dataset, a fixed
// 0.8:0.2 train/test split, and a quality metric; evaluate() trains on
// a (possibly memory-corrupted) copy of the standardized training
// features and scores on the clean test set.
//
//   Elasticnet  -> wine-like data,    R^2
//   PCA         -> madelon-like data, explained variance
//   KNN         -> HAR-like data,     classification score
//
// Only the training *features* live in the unreliable data memory;
// targets/labels are control data held in reliable storage (the paper
// does not state otherwise, and data memories hold bulk numeric data).
//
// A Fig. 7 campaign scores trials in groups of consecutive trials, and
// make_group_evaluator lets an application build state once from the
// clean readback and choose how to score a group. Each takes its own
// route, and every route returns exactly evaluate()'s value:
//   * KNN scores each trial from its changed rows (the sparse
//     store_and_readback reports which), re-ranking each test query
//     against them and a bounded prefix of its clean neighbor order;
//   * PCA retrains the group at once: the covariances go into the
//     lanes of one batched Jacobi solve (jacobi_top_vectors);
//   * Elasticnet retrains each trial in full.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "urmem/ml/matrix.hpp"
#include "urmem/sim/memory_pipeline.hpp"

namespace urmem {

/// One benchmark application bound to its dataset and metric.
class application {
 public:
  virtual ~application() = default;

  /// Algorithm name, e.g. "Elasticnet".
  [[nodiscard]] virtual std::string name() const = 0;

  /// Dataset name, e.g. "wine-like".
  [[nodiscard]] virtual std::string dataset_name() const = 0;

  /// Metric name of Table 1, e.g. "R^2".
  [[nodiscard]] virtual std::string metric_name() const = 0;

  /// Standardized training features as they would be written to memory.
  [[nodiscard]] virtual const matrix& train_features() const = 0;

  /// Trains on `stored_train_features` (same shape as train_features())
  /// and returns the quality metric measured on the clean test set.
  [[nodiscard]] virtual double evaluate(const matrix& stored_train_features) const = 0;

  /// Produces the readback of trial k of a group, drawing its faults
  /// from that trial's own engine.
  using readback_source = std::function<readback(std::size_t k)>;

  /// Scores one group of trials: metrics[k] = evaluate(produce(k).values)
  /// for every k < metrics.size(), bit for bit. Calls produce(k) once per
  /// trial, in order, and drops each readback before producing the next.
  using group_evaluator = std::function<void(const readback_source& produce,
                                             std::span<double> metrics)>;

  /// Builds, once from the fault-free readback `clean_stored`, a group
  /// evaluator that may be called from many threads at once; it refers
  /// to this application, which must outlive it. Default: evaluate()
  /// per trial.
  [[nodiscard]] virtual group_evaluator make_group_evaluator(
      const matrix& clean_stored) const;
};

/// Elasticnet regression on wine-like data (metric: R^2).
[[nodiscard]] std::unique_ptr<application> make_elasticnet_app(std::uint64_t seed = 7);

/// PCA on madelon-like data (metric: explained variance, 5 components).
[[nodiscard]] std::unique_ptr<application> make_pca_app(std::uint64_t seed = 7);

/// KNN (k=5) on HAR-like data (metric: score/accuracy).
[[nodiscard]] std::unique_ptr<application> make_knn_app(std::uint64_t seed = 7);

/// Frame-buffer storage on image-like data (metric: PSNR in dB against
/// the original frame) — the multimedia context of the P-ECC prior art
/// (paper Sec. 2, refs. [4, 12]); not part of Table 1.
[[nodiscard]] std::unique_ptr<application> make_image_app(std::uint64_t seed = 7);

/// All three applications of Table 1 in paper order.
[[nodiscard]] std::vector<std::unique_ptr<application>> make_all_applications(
    std::uint64_t seed = 7);

/// Application by registry name ("elasticnet", "pca", "knn", "image");
/// nullptr for unknown names.
[[nodiscard]] std::unique_ptr<application> make_application(
    std::string_view name, std::uint64_t seed = 7);

/// True when make_application accepts `name` — the single source of
/// truth validators check against (cheap: no dataset is built).
[[nodiscard]] bool is_known_application(std::string_view name);

}  // namespace urmem
