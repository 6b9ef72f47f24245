#include "urmem/ml/matrix.hpp"

#include "urmem/common/contracts.hpp"

namespace urmem {

matrix::matrix(std::size_t rows, std::size_t cols, double value)
    : rows_(rows), cols_(cols), data_(rows * cols, value) {
  expects(rows >= 1 && cols >= 1, "matrix dimensions must be positive");
}

std::vector<double> matrix::col(std::size_t c) const {
  expects(c < cols_, "column out of range");
  std::vector<double> out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

matrix transpose(const matrix& a) {
  matrix out(a.cols(), a.rows());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) out(c, r) = a(r, c);
  }
  return out;
}

matrix matmul(const matrix& a, const matrix& b) {
  expects(a.cols() == b.rows(), "matmul inner dimension mismatch");
  matrix out(a.rows(), b.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) out(i, j) += aik * b(k, j);
    }
  }
  return out;
}

std::vector<double> column_means(const matrix& a) {
  std::vector<double> means(a.cols(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) means[c] += a(r, c);
  }
  for (double& m : means) m /= static_cast<double>(a.rows());
  return means;
}

void center_columns(matrix& a, std::span<const double> means) {
  expects(means.size() == a.cols(), "means size mismatch");
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) a(r, c) -= means[c];
  }
}

matrix covariance(const matrix& a) {
  expects(a.rows() >= 2, "covariance needs at least two rows");
  const std::vector<double> means = column_means(a);
  const std::size_t n = a.rows();
  const std::size_t cols = a.cols();
  matrix cov(cols, cols, 0.0);
  // Rows are centered four at a time into `block`, the same subtraction
  // center_columns makes, so no centered copy of `a` is held.
  std::vector<double> block(4 * cols);
  const auto center = [&](std::size_t r, std::size_t slot) {
    const auto in = a.row(r);
    const std::span<double> out(block.data() + slot * cols, cols);
    for (std::size_t c = 0; c < cols; ++c) out[c] = in[c] - means[c];
    return std::span<const double>(out);
  };
  // Upper triangle, row terms added in ascending row order; a row whose
  // multiplier row[p] is zero adds nothing. Four rows per pass when none
  // of their multipliers is zero, so each cov(p, q) is loaded and stored
  // once per four terms; storing between terms would round identically,
  // so the two paths agree bit for bit.
  const auto add_row = [&](std::span<const double> row, std::size_t p) {
    const double v = row[p];
    if (v == 0.0) return;
    const auto out = cov.row(p);
    for (std::size_t q = p; q < cols; ++q) out[q] += v * row[q];
  };
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const auto r0 = center(i, 0);
    const auto r1 = center(i + 1, 1);
    const auto r2 = center(i + 2, 2);
    const auto r3 = center(i + 3, 3);
    for (std::size_t p = 0; p < cols; ++p) {
      const double v0 = r0[p];
      const double v1 = r1[p];
      const double v2 = r2[p];
      const double v3 = r3[p];
      if (v0 == 0.0 || v1 == 0.0 || v2 == 0.0 || v3 == 0.0) {
        for (const auto& row : {r0, r1, r2, r3}) add_row(row, p);
        continue;
      }
      const auto out = cov.row(p);
      for (std::size_t q = p; q < cols; ++q) {
        out[q] = out[q] + v0 * r0[q] + v1 * r1[q] + v2 * r2[q] + v3 * r3[q];
      }
    }
  }
  for (; i < n; ++i) {
    const auto row = center(i, 0);
    for (std::size_t p = 0; p < cols; ++p) add_row(row, p);
  }
  const double denom = static_cast<double>(n - 1);
  for (std::size_t p = 0; p < cols; ++p) {
    for (std::size_t q = p; q < cols; ++q) {
      cov(p, q) /= denom;
      cov(q, p) = cov(p, q);
    }
  }
  return cov;
}

double frobenius_norm_squared(const matrix& a) {
  double acc = 0.0;
  for (const double v : a.data()) acc += v * v;
  return acc;
}

}  // namespace urmem
