#include "urmem/ml/knn.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "urmem/common/contracts.hpp"
#include "urmem/ml/metrics.hpp"

namespace urmem {

knn_classifier::knn_classifier(std::size_t k) : k_(k) {
  expects(k >= 1, "k must be at least 1");
}

void knn_classifier::fit(const matrix& x, std::vector<int> labels) {
  expects(x.rows() == labels.size(), "feature/label count mismatch");
  expects(x.rows() >= k_, "training set smaller than k");
  train_by_feature_ = transpose(x);
  labels_ = std::move(labels);
}

int knn_classifier::predict_one(std::span<const double> query) const {
  query_buffers buffers;
  return predict_one(query, buffers);
}

int knn_classifier::predict_one(std::span<const double> query,
                                query_buffers& buffers) const {
  expects(!labels_.empty(), "fit must be called before predict");
  expects(query.size() == train_by_feature_.rows(),
          "query dimension mismatch");

  // Squared distance to every training row, filled feature column by
  // feature column, two columns per pass: each pair still sums
  // 0 + d0^2 + d1^2 + ... in feature order.
  const std::size_t n = labels_.size();
  const std::size_t p = query.size();
  std::vector<double>& distances = buffers.distances;
  distances.assign(n, 0.0);
  double* const dist = distances.data();
  std::size_t j = 0;
  for (; j + 2 <= p; j += 2) {
    const double* const c0 = train_by_feature_.row(j).data();
    const double* const c1 = train_by_feature_.row(j + 1).data();
    const double q0 = query[j];
    const double q1 = query[j + 1];
    for (std::size_t i = 0; i < n; ++i) {
      const double d0 = c0[i] - q0;
      const double d1 = c1[i] - q1;
      dist[i] = dist[i] + d0 * d0 + d1 * d1;
    }
  }
  if (j < p) {
    const double* const c0 = train_by_feature_.row(j).data();
    const double q0 = query[j];
    for (std::size_t i = 0; i < n; ++i) {
      const double d0 = c0[i] - q0;
      dist[i] += d0 * d0;
    }
  }

  // The k nearest in (distance, index) order, kept sorted by insertion.
  // Indices arrive ascending, so once the buffer holds k rows a later
  // row enters only when strictly closer than the current k-th: equal
  // distances keep the smaller training index, exactly as a full sort
  // of the (distance, index) pairs would.
  auto& nearest = buffers.nearest;
  nearest.clear();
  const auto insert = [&](std::size_t i) {
    auto pos = nearest.end();
    while (pos != nearest.begin() && dist[i] < std::prev(pos)->first) --pos;
    nearest.insert(pos, {dist[i], i});
  };
  for (std::size_t i = 0; i < k_; ++i) insert(i);
  double kth = nearest.back().first;
  const auto offer = [&](std::size_t i) {
    if (!(dist[i] < kth)) return;
    nearest.pop_back();
    insert(i);
    kth = nearest.back().first;
  };
  // Few rows beat the k-th, so each block of 8 rows is screened by its
  // smallest distance first. The min tree needs NaN-free distances
  // (finite inputs; NaN has no place in the (distance, index) order).
  const auto lower = [](double a, double b) { return a < b ? a : b; };
  std::size_t i = k_;
  for (; i + 8 <= n; i += 8) {
    const double* const d = dist + i;
    const double lowest = lower(lower(lower(d[0], d[1]), lower(d[2], d[3])),
                                lower(lower(d[4], d[5]), lower(d[6], d[7])));
    if (!(lowest < kth)) continue;
    for (std::size_t b = i; b < i + 8; ++b) offer(b);
  }
  for (; i < n; ++i) offer(i);

  // Majority vote; ties resolve to the smaller label.
  auto& votes = buffers.votes;
  votes.clear();
  for (const auto& [d2, row] : nearest) votes.push_back(labels_[row]);
  std::sort(votes.begin(), votes.end());
  int best_label = votes.front();
  std::size_t best_count = 0;
  for (std::size_t run = 0; run < votes.size();) {
    std::size_t end = run;
    while (end < votes.size() && votes[end] == votes[run]) ++end;
    if (end - run > best_count) {
      best_count = end - run;
      best_label = votes[run];
    }
    run = end;
  }
  return best_label;
}

std::vector<int> knn_classifier::predict(const matrix& x) const {
  std::vector<int> out;
  out.reserve(x.rows());
  query_buffers buffers;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    out.push_back(predict_one(x.row(i), buffers));
  }
  return out;
}

double knn_classifier::score(const matrix& x, const std::vector<int>& labels) const {
  const std::vector<int> predicted = predict(x);
  return accuracy_score(labels, predicted);
}

}  // namespace urmem
