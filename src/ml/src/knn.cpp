#include "urmem/ml/knn.hpp"

#include <algorithm>
#include <iterator>
#include <optional>
#include <utility>

#include "urmem/common/contracts.hpp"
#include "urmem/ml/metrics.hpp"

namespace urmem {

namespace {

/// Squared distance from `query` to every column of `by_feature` (one
/// row per feature), filled feature row by feature row, two per pass:
/// each column still sums 0 + d0^2 + d1^2 + ... in feature order, so a
/// column's distance does not depend on which other columns share the
/// matrix.
void squared_distances(const matrix& by_feature, std::span<const double> query,
                       std::vector<double>& distances) {
  const std::size_t n = by_feature.cols();
  const std::size_t p = query.size();
  distances.assign(n, 0.0);
  double* const dist = distances.data();
  std::size_t j = 0;
  for (; j + 2 <= p; j += 2) {
    const double* const c0 = by_feature.row(j).data();
    const double* const c1 = by_feature.row(j + 1).data();
    const double q0 = query[j];
    const double q1 = query[j + 1];
    for (std::size_t i = 0; i < n; ++i) {
      const double d0 = c0[i] - q0;
      const double d1 = c1[i] - q1;
      dist[i] = dist[i] + d0 * d0 + d1 * d1;
    }
  }
  if (j < p) {
    const double* const c0 = by_feature.row(j).data();
    const double q0 = query[j];
    for (std::size_t i = 0; i < n; ++i) {
      const double d0 = c0[i] - q0;
      dist[i] += d0 * d0;
    }
  }
}

}  // namespace

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

  const std::size_t n = labels_.size();
  std::vector<double>& distances = buffers.distances;
  squared_distances(train_by_feature_, query, distances);
  const double* const dist = distances.data();

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

  return vote(buffers);
}

int knn_classifier::vote(query_buffers& buffers) const {
  auto& votes = buffers.votes;
  votes.clear();
  for (const auto& [d2, row] : buffers.nearest) votes.push_back(labels_[row]);
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

knn_classifier::neighbor_prefix knn_classifier::nearest_prefix(
    const matrix& queries, std::size_t depth) const {
  expects(!labels_.empty(), "fit must be called before nearest_prefix");
  expects(queries.cols() == train_by_feature_.rows(),
          "query dimension mismatch");
  neighbor_prefix prefix;
  prefix.depth = std::min(depth, labels_.size());
  prefix.entries.reserve(queries.rows() * prefix.depth);
  std::vector<double> distances;
  std::vector<std::pair<double, std::size_t>> order(labels_.size());
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    squared_distances(train_by_feature_, queries.row(q), distances);
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = {distances[i], i};
    const auto end = order.begin() + static_cast<std::ptrdiff_t>(prefix.depth);
    std::partial_sort(order.begin(), end, order.end());
    prefix.entries.insert(prefix.entries.end(), order.begin(), end);
  }
  return prefix;
}

std::vector<int> knn_classifier::predict_changed(
    const matrix& queries, const neighbor_prefix& prefix, const matrix& stored,
    std::span<const std::size_t> changed) const {
  const std::size_t n = labels_.size();
  const std::size_t p = train_by_feature_.rows();
  expects(n > 0, "fit must be called before predict_changed");
  expects(stored.rows() == n && stored.cols() == p,
          "stored training set has the wrong shape");
  expects(queries.cols() == p, "query dimension mismatch");
  expects(prefix.entries.size() == queries.rows() * prefix.depth,
          "prefix does not match the queries");

  // The changed rows, column-major like the training set, so their
  // distances come out of the same kernel bit for bit.
  std::vector<bool> is_changed(n, false);
  matrix changed_by_feature;  // stays empty (0 x 0) when nothing changed
  if (!changed.empty()) changed_by_feature = matrix(p, changed.size());
  for (std::size_t c = 0; c < changed.size(); ++c) {
    expects(changed[c] < n, "changed row out of range");
    is_changed[changed[c]] = true;
    for (std::size_t j = 0; j < p; ++j) {
      changed_by_feature(j, c) = stored(changed[c], j);
    }
  }

  std::vector<int> out;
  out.reserve(queries.rows());
  query_buffers buffers;
  auto& nearest = buffers.nearest;
  std::optional<knn_classifier> full;  // fitted on `stored` on first need
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    const std::span<const double> query = queries.row(q);
    // An unchanged row keeps its clean distance, and the prefix lists
    // the unchanged rows in clean order: its first k unchanged entries
    // are the k nearest unchanged rows.
    nearest.clear();
    const std::span<const std::pair<double, std::size_t>> clean_order(
        prefix.entries.data() + q * prefix.depth, prefix.depth);
    for (const auto& entry : clean_order) {
      if (nearest.size() == k_) break;
      if (!is_changed[entry.second]) nearest.push_back(entry);
    }
    if (nearest.size() < k_) {
      if (!full) {
        full.emplace(k_);
        full->fit(stored, labels_);
      }
      out.push_back(full->predict_one(query, buffers));
      continue;
    }
    if (!changed.empty()) {
      squared_distances(changed_by_feature, query, buffers.distances);
    }
    for (std::size_t c = 0; c < changed.size(); ++c) {
      const std::pair<double, std::size_t> candidate{buffers.distances[c],
                                                     changed[c]};
      if (!(candidate < nearest.back())) continue;
      nearest.pop_back();
      nearest.insert(
          std::upper_bound(nearest.begin(), nearest.end(), candidate),
          candidate);
    }
    out.push_back(vote(buffers));
  }
  return out;
}

}  // namespace urmem
