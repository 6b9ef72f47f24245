// Synthetic dataset generators standing in for the UCI datasets of the
// paper's Table 1, so no experiment needs a download. Each one keeps
// the structure its application's metric depends on (e.g. a few strong
// principal directions for PCA); see each config for where it departs
// from the original.
//
// All generators are fully deterministic in their seed, so experiments
// are reproducible and the train/test partition is identical across
// protection schemes.
#pragma once

#include <cstddef>
#include <cstdint>

#include "urmem/datasets/dataset.hpp"

namespace urmem {

/// Wine-quality-style regression data (ref. [18]): 11 physicochemical
/// features with realistic ranges and cross-correlations; the quality
/// score 3..8 is a sparse noisy function of a few of them (alcohol,
/// volatile acidity, sulphates, ...), which is exactly the structure
/// elastic net exploits.
struct wine_like_config {
  std::size_t samples = 1599;  ///< red-wine subset size
  double noise = 0.55;         ///< score noise std-dev before rounding
  std::uint64_t seed = 2015;
};
[[nodiscard]] dataset make_wine_like(const wine_like_config& config = {});

/// Madelon-style feature-selection data (ref. [19], NIPS 2003): points
/// in clusters on the vertices of a hypercube in `informative`
/// dimensions, `redundant` random linear combinations of them, and pure
/// Gaussian noise features. The spectrum (few strong directions over a
/// noise floor) drives the PCA explained-variance behaviour. Scaled
/// down from the original 500 features for tractable Monte-Carlo.
struct madelon_like_config {
  std::size_t samples = 500;
  std::size_t informative = 5;
  std::size_t redundant = 15;
  std::size_t noise_features = 40;  ///< 60 features total: the informative+
                                    ///< redundant block must carry a
                                    ///< meaningful variance share for the
                                    ///< explained-variance metric
  double cluster_sep = 2.5;  ///< hypercube half-side in feature units
  double cluster_std = 1.0;
  std::uint64_t seed = 2003;
};
[[nodiscard]] dataset make_madelon_like(const madelon_like_config& config = {});

/// Natural-image-style pixel data — the multimedia context in which the
/// P-ECC baseline was originally proposed (refs. [4, 12]: JPEG2000 /
/// H.264 frame memories, PSNR metric). A smooth 2-D random field
/// (sum of low-frequency cosines + gradient) with mild texture noise,
/// intensities in [0, 255].
struct image_like_config {
  std::size_t width = 96;
  std::size_t height = 96;
  std::size_t waves = 6;       ///< low-frequency components
  double texture_noise = 4.0;  ///< high-frequency detail std-dev (intensity)
  std::uint64_t seed = 264;
};
/// The returned dataset's `features` matrix is the height x width image.
[[nodiscard]] dataset make_image_like(const image_like_config& config = {});

/// Activity-recognition-style classification data (ref. [20]):
/// accelerometer window statistics (mean and std per axis) for five
/// activities with per-class signatures and realistic within-class
/// spread; KNN separates the clusters with high (but not perfect)
/// accuracy.
struct har_like_config {
  std::size_t samples = 1500;
  std::size_t classes = 5;
  double within_class_std = 1.0;  ///< relative spread multiplier
  std::uint64_t seed = 1501;
};
[[nodiscard]] dataset make_har_like(const har_like_config& config = {});

}  // namespace urmem
