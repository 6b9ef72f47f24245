// Quality-aware yield criterion (paper Sec. 4, Fig. 5).
//
// The paper replaces the traditional zero-failure yield by a cost
// function over the application-level error magnitude:
//
//   Pr(N = n, Q = q) = Pr(Q = q | N = n) * Pr(N = n)          (Eq. 3)
//   Pr(N = n)        = C(M, n) Pcell^n (1 - Pcell)^(M-n)      (Eq. 4)
//   Pr(Q = q)        = sum_{i=1..n} Pr(N = i, Q = q)          (Eq. 5)
//
// with the local quality metric
//
//   MSE = (1/R) * sum_i (2^{b_i})^2,  0 <= b_i < W            (Eq. 6)
//
// where b_i is the logical significance of the i-th failure after the
// protection scheme has done its work.
//
// compute_mse_cdf realizes Eq. (5) as a stratified Monte-Carlo sweep:
// for every failure count n it draws Pr(N = n) * total_runs random fault
// placements (the paper's Fig. 5 uses total_runs = 1e7 and n = 1..150),
// evaluates Eq. (6) through the scheme's worst_case_row_cost, and
// weights each stratum by its binomial probability. The resulting
// weighted CDF *is* the yield as a function of the tolerated MSE. The
// sweep is a campaign on a campaign_runner: trial i draws its faults on
// its own stream, make_stream_rng(seed, i), so the CDF is bit-identical
// at any thread count.
//
// Almost every faulty row holds one fault, and on a homogeneous scheme
// that fault's cost depends only on its column. So a trial builds no
// fault_map: it sorts the cells of its Floyd draw, charges a
// single-fault row from a per-column table (single_fault_costs, built
// once per sweep) and calls worst_case_row_cost only for rows with two
// or more faults. sample_mse, which builds the fault_map and evaluates
// analytic_mse on it, is the oracle this kernel equals bit for bit;
// tiered schemes, whose cost depends on the row, and the reference fault
// path (URMEM_FAULT_PATH=reference) score every trial through it.
#pragma once

#include <cstdint>

#include "urmem/common/rng.hpp"
#include "urmem/common/stats.hpp"
#include "urmem/scheme/protection_scheme.hpp"
#include "urmem/sim/campaign_runner.hpp"

namespace urmem {

/// Parameters of the Fig. 5 experiment.
struct mse_cdf_config {
  std::uint64_t total_runs = 10'000'000;  ///< Trun of the paper
  std::uint64_t n_min = 1;                ///< smallest failure count stratum
  std::uint64_t n_max = 150;              ///< largest failure count stratum
  bool include_fault_free = false;        ///< add the Pr(N=0) mass at MSE 0
                                          ///< (Eq. 5 sums from i = 1)
  std::uint64_t seed = 42;                ///< must equal the runner's seed
};

/// One stratum of the stratified sweep: `count` random fault maps at
/// failure count `n`, each carrying probability weight `weight_each`.
struct mse_stratum {
  std::uint64_t n = 0;
  std::uint64_t count = 0;
  double weight_each = 0.0;
};

/// Per-stratum sample allocation Pr(N = n) * total_runs of the Fig. 5
/// sweep over `geometry`; strata whose allocation rounds to zero are
/// omitted (the paper's "samples per count = Pr(N = n) * Trun").
[[nodiscard]] std::vector<mse_stratum> mse_strata(
    const array_geometry& geometry, double pcell, const mse_cdf_config& config);

/// Draws one exactly-`n`-fault map over `geometry`
/// (sample_fault_map_exact) and evaluates Eq. (6) on it (analytic_mse):
/// the oracle of one compute_mse_cdf trial. The sweep's table kernel
/// consumes the same stream and returns the same double; it runs this
/// itself for tiered schemes and on the reference fault path. Scratch
/// buffers are thread-local, so concurrent calls (one rng per caller)
/// are safe.
[[nodiscard]] double sample_mse(const protection_scheme& scheme,
                                const array_geometry& geometry,
                                std::uint64_t n, rng& gen);

/// Stratified Monte-Carlo CDF of the analytic MSE of `scheme` on a
/// memory with `rows` words and cell failure probability `pcell`.
/// Fault positions are uniform over the scheme's storage columns. Trial
/// i belongs to the stratum covering i in the flattened per-stratum
/// allocation (the Pr(N = 0) mass, when included, is an n = 0 stratum
/// of one trial at MSE 0) and runs on `runner`, whose seed must equal
/// config.seed.
[[nodiscard]] empirical_cdf compute_mse_cdf(campaign_runner& runner,
                                            const protection_scheme& scheme,
                                            std::uint32_t rows, double pcell,
                                            const mse_cdf_config& config);

/// Yield achieved when memories with MSE <= `mse_target` qualify —
/// the redefined test criterion of Sec. 4.
[[nodiscard]] double yield_at_mse(const empirical_cdf& cdf, double mse_target);

/// Smallest MSE budget that must be tolerated to reach `yield_target`.
[[nodiscard]] double mse_for_yield(const empirical_cdf& cdf, double yield_target);

/// Analytic MSE (Eq. 6) of one concrete fault map under `scheme`.
[[nodiscard]] double analytic_mse(const protection_scheme& scheme,
                                  const fault_map& faults);

}  // namespace urmem
