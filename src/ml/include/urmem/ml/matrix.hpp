// Dense row-major matrix — the minimal linear algebra the three
// benchmark algorithms (Elasticnet, PCA, KNN) are built on.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace urmem {

/// Dense matrix of doubles, row-major storage: element (r, c) lives at
/// data()[r * cols() + c], so row(r) is contiguous and a column is
/// strided. Kernels that sweep columns (kNN distances, elastic-net
/// coordinate descent, Jacobi eigenvectors) keep a transposed copy,
/// whose rows are the original columns.
class matrix {
 public:
  matrix() = default;

  /// `rows` x `cols` matrix filled with `value`.
  matrix(std::size_t rows, std::size_t cols, double value = 0.0);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Row `r` as a contiguous span.
  [[nodiscard]] std::span<const double> row(std::size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<double> row(std::size_t r) {
    return {data_.data() + r * cols_, cols_};
  }

  /// Column `c` copied out.
  [[nodiscard]] std::vector<double> col(std::size_t c) const;

  /// Raw storage (row-major).
  [[nodiscard]] std::span<const double> data() const { return data_; }
  [[nodiscard]] std::span<double> data() { return data_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// A^T.
[[nodiscard]] matrix transpose(const matrix& a);

/// A * B; inner dimensions must agree.
[[nodiscard]] matrix matmul(const matrix& a, const matrix& b);

/// Per-column means of `a`.
[[nodiscard]] std::vector<double> column_means(const matrix& a);

/// Subtracts `means[c]` from every element of column c (in place).
void center_columns(matrix& a, std::span<const double> means);

/// Sample covariance (n-1 denominator) of the columns of `a`; rows are
/// centered four at a time into a small buffer, so neither the input
/// is modified nor a centered copy of it made. Each entry sums its row
/// terms in ascending row order (four rows per pass over the upper
/// triangle), skipping rows whose multiplier is zero, then divides once
/// and mirrors into the lower triangle.
[[nodiscard]] matrix covariance(const matrix& a);

/// Squared Frobenius norm.
[[nodiscard]] double frobenius_norm_squared(const matrix& a);

}  // namespace urmem
