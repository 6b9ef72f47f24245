// Principal component analysis via a cyclic Jacobi eigensolver — the
// paper's dimensionality-reduction benchmark (Table 1, Madelon dataset,
// explained-variance metric).
//
// Two solvers run the same cyclic Jacobi. jacobi_eigen decomposes one
// matrix; it serves pca::fit and single fits such as the clean
// baselines, and it is the reference the batched solver is tested
// against. jacobi_top_vectors decomposes many matrices in SIMD lanes,
// one matrix per lane (8 with AVX-512F, 4 with AVX2, else 2): every lane
// executes jacobi_eigen's operation sequence on its own matrix, so each
// result is bit for bit jacobi_eigen's. Fig. 7 fits one PCA per fault
// trial and batches them this way.
#pragma once

#include <cstddef>
#include <functional>
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

/// jacobi_eigen's default stopping rule, which jacobi_top_vectors
/// always applies. Jacobi converges quadratically, so the tight
/// tolerance costs at most a sweep or two over a loose one.
inline constexpr double jacobi_tol = 1e-24;
inline constexpr std::size_t jacobi_max_sweeps = 64;

/// Decomposes a symmetric matrix `a`; sweeps until the off-diagonal
/// Frobenius mass drops below `tol` (relative) or `max_sweeps` is hit.
/// The working copy of `a` is kept in full (both triangles, rotated
/// row- and column-wise in the classic order), and the eigenvectors
/// accumulate as rows of V^T so each rotation updates contiguous
/// memory; the result is transposed back.
[[nodiscard]] eigen_decomposition jacobi_eigen(
    const matrix& a, double tol = jacobi_tol,
    std::size_t max_sweeps = jacobi_max_sweeps);

/// Supplies member `m` of a batch: a symmetric p x p matrix, the same p
/// for every member.
using matrix_source = std::function<matrix(std::size_t m)>;

/// Top-`k` eigenvectors of `count` symmetric matrices, solved a lane
/// group at a time: result m (p x k) is bit for bit the first k columns
/// of jacobi_eigen(load(m)).vectors. `load` is called
/// once per member, in order, and its matrix is dropped once copied into
/// its lane; the working set is one per-thread scratch (~465 KB for
/// 8 lanes of 60 x 60) that later calls on the thread reuse, so `load`
/// must not itself call jacobi_top_vectors.
[[nodiscard]] std::vector<matrix> jacobi_top_vectors(
    std::size_t count, std::size_t k, const matrix_source& load);

namespace detail {

/// Lanes jacobi_top_vectors solves at once on this CPU: 8 with AVX-512F,
/// 4 with AVX2, else 2 (1 without GCC/Clang vector extensions, where it
/// loops jacobi_eigen). Read from the CPU once per process.
[[nodiscard]] std::size_t jacobi_lane_width();

/// jacobi_top_vectors at a given lane width, for tests: `width` must be
/// 1, 2 or a width the CPU supports (<= jacobi_lane_width()).
[[nodiscard]] std::vector<matrix> jacobi_top_vectors_at(
    std::size_t width, std::size_t count, std::size_t k,
    const matrix_source& load);

}  // namespace detail

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
  /// fitted on corrupted data. Same as pca_holdout(x).score(components()).
  [[nodiscard]] double score(const matrix& x) const;

 private:
  std::size_t n_components_;
  matrix components_;  // p x k
};

/// A holdout set centered by its own mean, with its squared norm, taken
/// once: scoring many fitted bases against one fixed holdout (a Fig. 7
/// trial per basis) skips the per-call centering.
class pca_holdout {
 public:
  explicit pca_holdout(const matrix& x);

  /// pca::score of a basis with these `components` (p x k), bit for bit.
  [[nodiscard]] double score(const matrix& components) const;

 private:
  matrix centered_;
  double total_ = 0.0;  // ||Xc||_F^2
};

}  // namespace urmem
