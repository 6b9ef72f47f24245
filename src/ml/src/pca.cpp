#include "urmem/ml/pca.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <new>
#include <numeric>

#include "urmem/common/contracts.hpp"

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define URMEM_X86_LANES 1
#endif
#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#define URMEM_MAPPED_SCRATCH 1
#endif

namespace urmem {

namespace {

/// p x k matrix of element(r, rank): the top-k eigenvector columns.
matrix top_columns(std::size_t p, std::size_t k, const auto& element) {
  matrix out(p, k);
  for (std::size_t r = 0; r < p; ++r) {
    for (std::size_t rank = 0; rank < k; ++rank) {
      out(r, rank) = element(r, rank);
    }
  }
  return out;
}

/// The eigenvalue order both solvers return: indices of `diag`,
/// largest first.
std::vector<std::size_t> descending_order(const std::vector<double>& diag) {
  std::vector<std::size_t> order(diag.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t l, std::size_t r) { return diag[l] > diag[r]; });
  return order;
}

}  // namespace

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
  std::vector<double> diag(p);
  for (std::size_t i = 0; i < p; ++i) diag[i] = m(i, i);
  const std::vector<std::size_t> order = descending_order(diag);

  result.vectors = matrix(p, p);
  for (std::size_t rank = 0; rank < p; ++rank) {
    result.values[rank] = diag[order[rank]];
    const auto vector = vt.row(order[rank]);
    for (std::size_t k = 0; k < p; ++k) result.vectors(k, rank) = vector[k];
  }
  return result;
}

namespace {

/// Runs jacobi_eigen's sweeps on the lanes of (m, vt) in place, with
/// `col` as the held column (see lane_kernel).
using lane_solver = void (*)(double* m, double* vt, double* col,
                             std::size_t p);

#if defined(__GNUC__)

// GCC/Clang vector extensions. The vector types live in explicit
// specializations: a vector_size that depends on a template parameter
// is not applied inside the template, and attributes on a template
// argument are dropped. may_alias lets the kernel view the double
// scratch as lane vectors.
template <std::size_t W>
struct lane_types;
template <>
struct lane_types<2> {
  typedef double vd __attribute__((vector_size(16), __may_alias__));
  typedef std::int64_t vi __attribute__((vector_size(16), __may_alias__));
};
template <>
struct lane_types<4> {
  typedef double vd __attribute__((vector_size(32), __may_alias__));
  typedef std::int64_t vi __attribute__((vector_size(32), __may_alias__));
};
template <>
struct lane_types<8> {
  typedef double vd __attribute__((vector_size(64), __may_alias__));
  typedef std::int64_t vi __attribute__((vector_size(64), __may_alias__));
};

/// jacobi_eigen's sweeps on W matrices at once. Element (r, c) of lane
/// l sits at [(r * p + c) * W + l], so every element access is one
/// contiguous lane vector and each lane performs exactly the scalar
/// operation sequence on its own matrix. A lane that has converged, or
/// whose (i, j) entry is zero, keeps its bits by blending (rotating it
/// by c = 1, s = 0 would turn -0.0 into +0.0). Every member is
/// always_inline and vectors pass by reference only, so each target
/// wrapper below compiles the whole kernel for its own ISA.
template <std::size_t W>
struct lane_kernel {
  using vd = typename lane_types<W>::vd;
  using vi = typename lane_types<W>::vi;

  [[gnu::always_inline]] static inline bool any(const vi& mask) {
    std::int64_t acc = 0;
    for (std::size_t l = 0; l < W; ++l) acc |= mask[l];
    return acc != 0;
  }

  [[gnu::always_inline]] static inline bool all(const vi& mask) {
    std::int64_t acc = -1;
    for (std::size_t l = 0; l < W; ++l) acc &= mask[l];
    return acc != 0;
  }

  [[gnu::always_inline]] static inline void sqrt_lanes(vd& x) {
    for (std::size_t l = 0; l < W; ++l) x[l] = std::sqrt(x[l]);
  }

  /// (x, y) <- (c x - s y, s x + c y) over n vectors at strides sx, sy;
  /// with Masked, lanes outside `rot` keep their old bits.
  template <bool Masked>
  [[gnu::always_inline]] static inline void rotate(
      vd* x, std::size_t sx, vd* y, std::size_t sy, std::size_t n,
      const vd& c, const vd& s, const vi& rot) {
    for (std::size_t k = 0; k < n; ++k) {
      const vd xk = x[k * sx];
      const vd yk = y[k * sy];
      const vd nx = c * xk - s * yk;
      const vd ny = s * xk + c * yk;
      if constexpr (Masked) {
        x[k * sx] = (vd)(((vi)nx & rot) | ((vi)xk & ~rot));
        y[k * sy] = (vd)(((vi)ny & rot) | ((vi)yk & ~rot));
      } else {
        x[k * sx] = nx;
        y[k * sy] = ny;
      }
    }
  }

  /// Rotation (i, j) of one pass, in jacobi_eigen's order: column j
  /// against the held column i, rows i and j (the live pair of column i
  /// last), then rows i and j of V^T.
  template <bool Masked>
  [[gnu::always_inline]] static inline void rotation(
      vd* m, vd* vt, vd* col, std::size_t p, std::size_t i, std::size_t j,
      const vd& c, const vd& s, const vi& rot) {
    rotate<Masked>(col, 1, m + j, p, p, c, s, rot);
    rotate<Masked>(m + i * p, 1, m + j * p, 1, p, c, s, rot);
    rotate<Masked>(col + i, 0, col + j, 0, 1, c, s, rot);
    rotate<Masked>(vt + i * p, 1, vt + j * p, 1, p, c, s, rot);
  }

  [[gnu::always_inline]] static inline void solve(
      double* m_data, double* vt_data, double* col_data, std::size_t p) {
    vd* const m = reinterpret_cast<vd*>(m_data);
    vd* const vt = reinterpret_cast<vd*>(vt_data);
    vd* const col = reinterpret_cast<vd*>(col_data);

    vd total = vd{};
    for (std::size_t e = 0; e < p * p; ++e) total += m[e] * m[e];
    const vi tiny = (vi)(total < 1e-300);  // std::max(total, 1e-300)
    total = (vd)(((vi)(vd{} + 1e-300) & tiny) | ((vi)total & ~tiny));
    const vi one = (vi)(vd{} + 1.0);
    const vi minus_one = (vi)(vd{} - 1.0);
    const vi magnitude = vi{} + INT64_MAX;

    vi active = ~vi{};
    for (std::size_t sweep = 0; sweep < jacobi_max_sweeps; ++sweep) {
      vd off = vd{};
      for (std::size_t i = 0; i < p; ++i) {
        for (std::size_t j = i + 1; j < p; ++j) {
          off += 2.0 * m[i * p + j] * m[i * p + j];
        }
      }
      // A lane stops where jacobi_eigen breaks; NaN keeps sweeping.
      active &= ~(vi)(off / total < jacobi_tol);
      if (!any(active)) break;

      for (std::size_t i = 0; i < p; ++i) {
        for (std::size_t k = 0; k < p; ++k) col[k] = m[k * p + i];
        for (std::size_t j = i + 1; j < p; ++j) {
          const vd apq = m[i * p + j];
          const vi rot = active & (vi)(apq != 0.0);
          if (!any(rot)) continue;
          const vd app = col[i];
          const vd aqq = m[j * p + j];
          const vd theta = (aqq - app) / (2.0 * apq);
          const vi nonneg = (vi)(theta >= 0.0);
          const vd sign = (vd)((one & nonneg) | (minus_one & ~nonneg));
          vd root = theta * theta + 1.0;
          sqrt_lanes(root);
          const vd t = sign / ((vd)((vi)theta & magnitude) + root);
          vd norm = t * t + 1.0;
          sqrt_lanes(norm);
          const vd c = 1.0 / norm;
          const vd s = t * c;
          if (all(rot)) {
            rotation<false>(m, vt, col, p, i, j, c, s, rot);
          } else {
            rotation<true>(m, vt, col, p, i, j, c, s, rot);
          }
        }
        for (std::size_t k = 0; k < p; ++k) m[k * p + i] = col[k];
      }
    }
  }
};

void solve_lanes_2(double* m, double* vt, double* col, std::size_t p) {
  lane_kernel<2>::solve(m, vt, col, p);
}

#if defined(URMEM_X86_LANES)
__attribute__((target("avx2"))) void solve_lanes_4(double* m, double* vt,
                                                   double* col,
                                                   std::size_t p) {
  lane_kernel<4>::solve(m, vt, col, p);
}

__attribute__((target("avx512f"))) void solve_lanes_8(double* m, double* vt,
                                                      double* col,
                                                      std::size_t p) {
  lane_kernel<8>::solve(m, vt, col, p);
}
#endif

lane_solver solver_for(std::size_t width) {
  switch (width) {
    case 2:
      return solve_lanes_2;
#if defined(URMEM_X86_LANES)
    case 4:
      return solve_lanes_4;
    case 8:
      return solve_lanes_8;
#endif
    default:
      return nullptr;
  }
}

std::size_t cpu_lane_width() {
#if defined(URMEM_X86_LANES)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return 8;
  if (__builtin_cpu_supports("avx2")) return 4;
#endif
  return 2;
}

#else  // no vector extensions: one matrix at a time

lane_solver solver_for(std::size_t) { return nullptr; }
std::size_t cpu_lane_width() { return 1; }

#endif

/// One page-aligned buffer per thread, grown on demand and reused by
/// every batched solve on that thread. It is mapped outside the malloc
/// heap: held in a worker's heap arena, the ~465 KB block fragmented it
/// and raised Fig. 7's peak RSS by ~5% instead of ~1.5%.
double* lane_scratch(std::size_t doubles) {
  class buffer {
   public:
    buffer() = default;
    buffer(const buffer&) = delete;
    buffer& operator=(const buffer&) = delete;
    ~buffer() { release(); }

    double* reserve(std::size_t bytes) {
      if (bytes_ < bytes) {
        release();
#if defined(URMEM_MAPPED_SCRATCH)
        void* const data = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                                MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (data == MAP_FAILED) throw std::bad_alloc();
        data_ = data;
#else
        data_ = ::operator new(bytes, std::align_val_t{64});
#endif
        bytes_ = bytes;
      }
      return static_cast<double*>(data_);
    }

   private:
    void release() {
      if (data_ == nullptr) return;
#if defined(URMEM_MAPPED_SCRATCH)
      munmap(data_, bytes_);
#else
      ::operator delete(data_, std::align_val_t{64});
#endif
      data_ = nullptr;
      bytes_ = 0;
    }

    void* data_ = nullptr;
    std::size_t bytes_ = 0;
  };
  thread_local buffer scratch;
  constexpr std::size_t page = 4096;
  return scratch.reserve((doubles * sizeof(double) + page - 1) / page * page);
}

}  // namespace

namespace detail {

std::size_t jacobi_lane_width() {
  static const std::size_t width = cpu_lane_width();
  return width;
}

std::vector<matrix> jacobi_top_vectors_at(std::size_t width,
                                          std::size_t count, std::size_t k,
                                          const matrix_source& load) {
  const lane_solver solve = solver_for(width);
  expects(width == 1 || (solve != nullptr && width <= jacobi_lane_width()),
          "lane width not supported on this CPU");
  std::vector<matrix> out;
  out.reserve(count);
  if (width == 1) {
    for (std::size_t m = 0; m < count; ++m) {
      const eigen_decomposition eig = jacobi_eigen(load(m));
      expects(k >= 1 && k <= eig.vectors.cols(), "k must be in [1, p]");
      out.push_back(top_columns(eig.vectors.rows(), k,
                                [&](std::size_t r, std::size_t rank) {
                                  return eig.vectors(r, rank);
                                }));
    }
    return out;
  }
  for (std::size_t first = 0; first < count; first += width) {
    const std::size_t lanes = std::min(width, count - first);
    matrix a = load(first);
    const std::size_t p = a.rows();
    expects(a.cols() == p && p >= 1, "jacobi needs a square matrix");
    expects(k >= 1 && k <= p, "k must be in [1, p]");
    const std::size_t block = p * p * width;
    double* const m = lane_scratch(2 * block + p * width);
    double* const vt = m + block;
    double* const col = vt + block;
    // Unused lanes stay zero and converge before the first sweep.
    std::fill(m, m + 2 * block, 0.0);
    for (std::size_t lane = 0; lane < width; ++lane) {
      for (std::size_t i = 0; i < p; ++i) vt[(i * p + i) * width + lane] = 1.0;
    }
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      if (lane > 0) {
        a = load(first + lane);
        expects(a.rows() == p && a.cols() == p,
                "every member must have the same square shape");
      }
      const std::span<const double> data = a.data();
      for (std::size_t e = 0; e < p * p; ++e) m[e * width + lane] = data[e];
    }
    a = matrix();
    solve(m, vt, col, p);
    std::vector<double> diag(p);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      for (std::size_t i = 0; i < p; ++i) {
        diag[i] = m[(i * p + i) * width + lane];
      }
      const std::vector<std::size_t> order = descending_order(diag);
      out.push_back(top_columns(p, k, [&](std::size_t r, std::size_t rank) {
        return vt[(order[rank] * p + r) * width + lane];
      }));
    }
  }
  return out;
}

}  // namespace detail

std::vector<matrix> jacobi_top_vectors(std::size_t count, std::size_t k,
                                       const matrix_source& load) {
  return detail::jacobi_top_vectors_at(detail::jacobi_lane_width(), count, k,
                                       load);
}

pca::pca(std::size_t n_components) : n_components_(n_components) {
  expects(n_components >= 1, "need at least one component");
}

void pca::fit(const matrix& x) {
  expects(x.rows() >= 2, "PCA needs at least two samples");
  expects(n_components_ <= x.cols(), "more components than features");

  const eigen_decomposition eig = jacobi_eigen(covariance(x));
  components_ = top_columns(x.cols(), n_components_,
                            [&](std::size_t r, std::size_t rank) {
                              return eig.vectors(r, rank);
                            });
}

double pca::score(const matrix& x) const {
  expects(!components_.empty(), "fit must be called before score");
  return pca_holdout(x).score(components_);
}

// Center by the holdout's own mean: a corrupted training mean must not
// inflate the total variance the basis is scored against.
pca_holdout::pca_holdout(const matrix& x) : centered_(x) {
  center_columns(centered_, column_means(x));
  total_ = frobenius_norm_squared(centered_);
}

double pca_holdout::score(const matrix& components) const {
  if (total_ == 0.0) return 1.0;
  const matrix projected = matmul(centered_, components);
  const matrix reconstructed = matmul(projected, transpose(components));
  double residual = 0.0;
  for (std::size_t r = 0; r < centered_.rows(); ++r) {
    for (std::size_t c = 0; c < centered_.cols(); ++c) {
      const double d = centered_(r, c) - reconstructed(r, c);
      residual += d * d;
    }
  }
  return 1.0 - residual / total_;
}

}  // namespace urmem
