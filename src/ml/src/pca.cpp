#include "urmem/ml/pca.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "urmem/common/contracts.hpp"

namespace urmem {

eigen_decomposition jacobi_eigen(const matrix& a, double tol, std::size_t max_sweeps) {
  expects(a.rows() == a.cols() && a.rows() >= 1, "jacobi needs a square matrix");
  const std::size_t p = a.rows();
  matrix m = a;
  // Eigenvectors accumulate as the rows of vt (V transposed), so each
  // rotation updates two contiguous rows.
  matrix vt(p, p, 0.0);
  for (std::size_t i = 0; i < p; ++i) vt(i, i) = 1.0;

  std::vector<double> col_i(p);

  const double total_scale = std::max(frobenius_norm_squared(a), 1e-300);

  for (std::size_t sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (std::size_t i = 0; i < p; ++i) {
      for (std::size_t j = i + 1; j < p; ++j) off += 2.0 * m(i, j) * m(i, j);
    }
    if (off / total_scale < tol) break;

    for (std::size_t i = 0; i < p; ++i) {
      // Every rotation (i, j) of this pass updates column i of m, so the
      // column is held contiguously in col_i until the pass ends; the
      // stored copy is stale meanwhile.
      for (std::size_t k = 0; k < p; ++k) col_i[k] = m(k, i);
      for (std::size_t j = i + 1; j < p; ++j) {
        const double apq = m(i, j);
        if (apq == 0.0) continue;
        const double app = col_i[i];
        const double aqq = m(j, j);
        // Classic Jacobi rotation choosing the smaller-angle root.
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        // Columns i and j, then rows i and j: the two-sided rotation in
        // its usual order, element by element.
        for (std::size_t k = 0; k < p; ++k) {
          const double mki = col_i[k];
          const double mkj = m(k, j);
          col_i[k] = c * mki - s * mkj;
          m(k, j) = s * mki + c * mkj;
        }
        // The rows' column-i entries live in col_i: the pass over the
        // stored rows fills their stale slots, the live pair is rotated
        // on its own.
        const double mii = col_i[i];
        const double mji = col_i[j];
        const auto mi = m.row(i);
        const auto mj = m.row(j);
        for (std::size_t k = 0; k < p; ++k) {
          const double mik = mi[k];
          const double mjk = mj[k];
          mi[k] = c * mik - s * mjk;
          mj[k] = s * mik + c * mjk;
        }
        col_i[i] = c * mii - s * mji;
        col_i[j] = s * mii + c * mji;

        const auto vi = vt.row(i);
        const auto vj = vt.row(j);
        for (std::size_t k = 0; k < p; ++k) {
          const double vik = vi[k];
          const double vjk = vj[k];
          vi[k] = c * vik - s * vjk;
          vj[k] = s * vik + c * vjk;
        }
      }
      for (std::size_t k = 0; k < p; ++k) m(k, i) = col_i[k];
    }
  }

  eigen_decomposition result;
  result.values.resize(p);
  std::vector<std::size_t> order(p);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<double> diag(p);
  for (std::size_t i = 0; i < p; ++i) diag[i] = m(i, i);
  std::sort(order.begin(), order.end(),
            [&](std::size_t l, std::size_t r) { return diag[l] > diag[r]; });

  result.vectors = matrix(p, p);
  for (std::size_t rank = 0; rank < p; ++rank) {
    result.values[rank] = diag[order[rank]];
    const auto vector = vt.row(order[rank]);
    for (std::size_t k = 0; k < p; ++k) result.vectors(k, rank) = vector[k];
  }
  return result;
}

pca::pca(std::size_t n_components) : n_components_(n_components) {
  expects(n_components >= 1, "need at least one component");
}

void pca::fit(const matrix& x) {
  expects(x.rows() >= 2, "PCA needs at least two samples");
  expects(n_components_ <= x.cols(), "more components than features");

  const matrix cov = covariance(x);
  const eigen_decomposition eig = jacobi_eigen(cov);

  components_ = matrix(x.cols(), n_components_);
  for (std::size_t c = 0; c < n_components_; ++c) {
    for (std::size_t r = 0; r < x.cols(); ++r) {
      components_(r, c) = eig.vectors(r, c);
    }
  }
}

double pca::score(const matrix& x) const {
  expects(!components_.empty(), "fit must be called before score");
  // Center by the holdout's own mean: a corrupted training mean must
  // not inflate the total variance the basis is scored against.
  matrix centered = x;
  center_columns(centered, column_means(x));
  const double total = frobenius_norm_squared(centered);
  if (total == 0.0) return 1.0;
  const matrix projected = matmul(centered, components_);
  const matrix reconstructed = matmul(projected, transpose(components_));
  double residual = 0.0;
  for (std::size_t r = 0; r < centered.rows(); ++r) {
    for (std::size_t c = 0; c < centered.cols(); ++c) {
      const double d = centered(r, c) - reconstructed(r, c);
      residual += d * d;
    }
  }
  return 1.0 - residual / total;
}

}  // namespace urmem
