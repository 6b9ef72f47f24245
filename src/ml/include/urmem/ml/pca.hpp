// Principal component analysis via a cyclic Jacobi eigensolver — the
// paper's dimensionality-reduction benchmark (Table 1, Madelon dataset,
// explained-variance metric).
#pragma once

#include <cstddef>
#include <vector>

#include "urmem/ml/matrix.hpp"

namespace urmem {

/// Symmetric eigendecomposition by the cyclic Jacobi method.
/// Returns eigenvalues (descending) and matching eigenvectors as the
/// columns of `vectors` (p x p, row-major like every matrix).
struct eigen_decomposition {
  std::vector<double> values;
  matrix vectors;
};

/// Decomposes a symmetric matrix `a`; sweeps until the off-diagonal
/// Frobenius mass drops below `tol` (relative) or `max_sweeps` is hit.
/// Jacobi converges quadratically, so the tight default costs at most a
/// sweep or two over a loose one. The working copy of `a` is kept in
/// full (both triangles, rotated row- and column-wise in the classic
/// order), and the eigenvectors accumulate as rows of V^T so each
/// rotation updates contiguous memory; the result is transposed back.
[[nodiscard]] eigen_decomposition jacobi_eigen(const matrix& a, double tol = 1e-24,
                                               std::size_t max_sweeps = 64);

/// PCA fitted on the covariance of the training features: the
/// components are the top-k Jacobi eigenvectors of covariance(x).
class pca {
 public:
  /// Keeps the top `n_components` principal directions.
  explicit pca(std::size_t n_components);

  /// Fits the components on `x` (n x p), n >= 2, n_components <= p.
  void fit(const matrix& x);

  /// Component directions as columns (p x k), orthonormal.
  [[nodiscard]] const matrix& components() const { return components_; }

  /// Explained-variance score of the fitted basis on a holdout set:
  /// 1 - ||Xc - Xc V V^T||_F^2 / ||Xc||_F^2, with Xc centered by the
  /// holdout's own mean (so a corrupted training mean cannot inflate
  /// the variance the basis is scored against). Equals the captured
  /// variance fraction on the training set; degrades when the basis was
  /// fitted on corrupted data.
  [[nodiscard]] double score(const matrix& x) const;

 private:
  std::size_t n_components_;
  matrix components_;  // p x k
};

}  // namespace urmem
