// K-nearest-neighbors classification — the paper's classification
// benchmark (Table 1, activity-recognition dataset, score metric).
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "urmem/ml/matrix.hpp"

namespace urmem {

/// Brute-force Euclidean KNN with majority vote. The k nearest are the
/// first k training rows in (squared distance, training index) order,
/// so equal distances break toward the smaller training index; vote
/// ties break toward the smaller label (scikit-learn's deterministic
/// behaviour). The training set is stored column-major (one contiguous
/// run per feature), and each squared distance sums its per-feature
/// terms in feature order. Features and queries must be finite: a NaN
/// distance has no place in that order.
class knn_classifier {
 public:
  /// `k` neighbors considered per query.
  explicit knn_classifier(std::size_t k = 5);

  /// Stores the training set (n x p features, n labels), transposed.
  void fit(const matrix& x, std::vector<int> labels);

  /// Predicted label of one query row.
  [[nodiscard]] int predict_one(std::span<const double> query) const;

  /// Predicted labels for every row of `x`.
  [[nodiscard]] std::vector<int> predict(const matrix& x) const;

  /// Mean accuracy on a labeled holdout set.
  [[nodiscard]] double score(const matrix& x, const std::vector<int>& labels) const;

  /// The first `depth` entries of each query's (squared distance,
  /// training index) order over the fitted training set: query q's
  /// entries sit at [q * depth, (q + 1) * depth). depth is capped at
  /// the training set size.
  struct neighbor_prefix {
    std::size_t depth = 0;
    std::vector<std::pair<double, std::size_t>> entries;
  };
  [[nodiscard]] neighbor_prefix nearest_prefix(const matrix& queries,
                                               std::size_t depth) const;

  /// predict(queries) of a classifier with these labels fitted on
  /// `stored`, which equals the fitted training set except in the rows
  /// `changed` (ascending); `prefix` is nearest_prefix(queries, ...) of
  /// this classifier. Only the changed rows' distances are computed,
  /// with the same kernel as predict. Each query merges them with the
  /// first k unchanged rows of its prefix, in the same total order, so
  /// the labels are identical; a query whose prefix holds fewer than k
  /// unchanged rows takes a full pass over `stored`.
  [[nodiscard]] std::vector<int> predict_changed(
      const matrix& queries, const neighbor_prefix& prefix,
      const matrix& stored, std::span<const std::size_t> changed) const;

 private:
  /// Per-query working storage, reused across the rows of predict().
  struct query_buffers {
    std::vector<double> distances;  // squared, one per training row
    std::vector<std::pair<double, std::size_t>> nearest;  // (d^2, row)
    std::vector<int> votes;  // labels of `nearest`, sorted
  };

  [[nodiscard]] int predict_one(std::span<const double> query,
                                query_buffers& buffers) const;

  /// Majority vote over the labels of `nearest`; ties resolve to the
  /// smaller label.
  [[nodiscard]] int vote(query_buffers& buffers) const;

  std::size_t k_;
  matrix train_by_feature_;  // p x n: row j is feature j of every training row
  std::vector<int> labels_;
};

}  // namespace urmem
