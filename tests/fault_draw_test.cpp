// Fault draws built once and shared: a binomial distribution read by
// several threads, campaign injectors built once per operating point,
// and the exact draw's single sort. Each shared form must draw exactly
// what a fresh per-draw construction draws. CI also runs this suite
// under ThreadSanitizer, so the shared tables are checked for races.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <latch>
#include <thread>
#include <vector>

#include "urmem/common/binomial.hpp"
#include "urmem/common/rng.hpp"
#include "urmem/memory/fault_sampler.hpp"
#include "urmem/sim/memory_pipeline.hpp"

namespace urmem {
namespace {

constexpr unsigned kThreads = 4;

/// Runs fn(i) for every i in [0, count) on kThreads threads (i striped
/// by thread), all released together so first uses race.
template <typename Fn>
void striped_on_threads(std::size_t count, Fn fn) {
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (std::size_t i = t; i < count; i += kThreads) fn(i);
    });
  }
  for (std::thread& thread : threads) thread.join();
}

void expect_same_map(const fault_map& got, const fault_map& want) {
  ASSERT_EQ(got.geometry(), want.geometry());
  ASSERT_EQ(got.fault_count(), want.fault_count());
  EXPECT_TRUE(std::ranges::equal(got.all_faults(), want.all_faults()));
}

TEST(BinomialTest, SharedAcrossThreadsEqualsFreshPerDraw) {
  constexpr std::size_t trials = 24;
  for (const double p : {1e-9, 5e-6, 1e-3, 0.5}) {
    for (const std::uint64_t cells :
         {std::uint64_t{1}, std::uint64_t{39}, std::uint64_t{4096} * 32,
          std::uint64_t{4104} * 39}) {
      SCOPED_TRACE(testing::Message() << "p=" << p << " cells=" << cells);
      const binomial_distribution shared(cells, p);
      std::vector<std::uint64_t> drawn(trials);
      striped_on_threads(trials, [&](std::size_t i) {
        rng gen = make_stream_rng(17, i);
        drawn[i] = shared.sample(gen);
      });
      for (std::size_t i = 0; i < trials; ++i) {
        rng gen = make_stream_rng(17, i);
        const binomial_distribution fresh(cells, p);
        EXPECT_EQ(drawn[i], fresh.sample(gen)) << "trial " << i;
      }
    }
  }
}

TEST(BinomialTest, CopyDrawsLikeItsSource) {
  const binomial_distribution source(4096 * 32, 1e-3);
  rng a(5);
  (void)source.sample(a);  // the source's table exists, the copy's not
  const binomial_distribution copy(source);  // NOLINT(performance-unnecessary-copy-initialization)
  rng b(9);
  rng c(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(source.sample(b), copy.sample(c));
}

/// The region draw as it was built per tile: a fresh distribution per
/// region, sub-maps rebased in region order, one sorting constructor.
fault_map region_oracle(const array_geometry& geometry,
                        const std::vector<region_operating_point>& points,
                        rng& gen, fault_polarity polarity) {
  std::uint32_t spare_base = 0;
  for (const region_operating_point& point : points) {
    spare_base += point.region.rows();
  }
  std::vector<fault> faults;
  for (const region_operating_point& point : points) {
    const array_geometry sub{point.region.rows() + point.region.spare_rows,
                             geometry.width};
    const binomial_distribution dist(sub.cells(), point.pcell);
    const fault_map drawn = sample_fault_map_binomial(sub, dist, gen, polarity);
    for (const fault& f : drawn.all_faults()) {
      const bool is_spare = f.row >= point.region.rows();
      faults.push_back({is_spare ? spare_base + (f.row - point.region.rows())
                                 : point.region.first_row + f.row,
                        f.col, f.kind});
    }
    spare_base += point.region.spare_rows;
  }
  return fault_map(geometry, std::move(faults));
}

TEST(InjectorTest, BuiltOnceDrawsLikePerCallConstruction) {
  constexpr std::size_t tiles = 200;
  const array_geometry uniform{256 + 8, 39};
  const std::vector<region_operating_point> points{
      {{0, 63, 4, 39}, 2e-3}, {{64, 255, 2, 32}, 1e-2}};
  const array_geometry tiered{256 + 6, 39};
  for (const fault_polarity polarity :
       {fault_polarity::flip, fault_polarity::random_stuck,
        fault_polarity::mixed}) {
    SCOPED_TRACE(to_string(polarity));
    const fault_injector binomial =
        binomial_fault_injector(uniform, 5e-3, polarity);
    const fault_injector region =
        region_fault_injector(tiered, points, polarity);
    std::vector<fault_map> binomial_maps(tiles);
    std::vector<fault_map> region_maps(tiles);
    striped_on_threads(tiles, [&](std::size_t tile) {
      rng gen = make_stream_rng(23, tile);
      binomial_maps[tile] = binomial(uniform, gen);
      region_maps[tile] = region(tiered, gen);
    });
    for (std::size_t tile = 0; tile < tiles; ++tile) {
      SCOPED_TRACE(testing::Message() << "tile " << tile);
      rng gen = make_stream_rng(23, tile);
      const binomial_distribution dist(uniform.cells(), 5e-3);
      expect_same_map(binomial_maps[tile],
                      sample_fault_map_binomial(uniform, dist, gen, polarity));
      expect_same_map(region_maps[tile],
                      region_oracle(tiered, points, gen, polarity));
      // The geometry-free forms build the same injectors per call.
      rng again = make_stream_rng(23, tile);
      expect_same_map(binomial_fault_injector(5e-3, polarity)(uniform, again),
                      binomial_maps[tile]);
      expect_same_map(region_fault_injector(points, polarity)(tiered, again),
                      region_maps[tile]);
    }
  }
}

TEST(InjectorTest, RejectsAnotherGeometry) {
  const fault_injector inject = binomial_fault_injector({64, 32}, 1e-3);
  rng gen(1);
  EXPECT_THROW((void)inject({64, 39}, gen), std::invalid_argument);
  const std::vector<region_operating_point> points{{{0, 63, 2, 0}, 1e-3}};
  EXPECT_THROW((void)region_fault_injector({64, 32}, points), std::invalid_argument);
  const fault_injector region = region_fault_injector({66, 32}, points);
  EXPECT_THROW((void)region({66, 39}, gen), std::invalid_argument);
}

TEST(ExactDrawTest, SortedDrawEqualsStableSortedBuild) {
  for (const array_geometry geometry :
       {array_geometry{4096, 32}, array_geometry{4104, 39}, array_geometry{3, 5}}) {
    for (const fault_polarity polarity :
         {fault_polarity::flip, fault_polarity::random_stuck,
          fault_polarity::mixed}) {
      for (const std::uint64_t n : {0, 1, 2, 160, 1000}) {
        const std::uint64_t count = std::min(n, geometry.cells());
        for (std::uint64_t seed = 0; seed < 8; ++seed) {
          rng gen(seed);
          rng oracle_gen(seed);
          const fault_map drawn =
              sample_fault_map_exact(geometry, count, gen, polarity);
          // The former build: faults in draw order, stable-sorted by the
          // bulk constructor.
          std::vector<fault> faults;
          draw_distinct_cells(geometry.cells(), count, oracle_gen,
                              [&](std::uint64_t cell) {
                                faults.push_back(
                                    {static_cast<std::uint32_t>(cell / geometry.width),
                                     static_cast<std::uint32_t>(cell % geometry.width),
                                     sample_fault_kind(oracle_gen, polarity)});
                              });
          expect_same_map(drawn, fault_map(geometry, std::move(faults)));
          EXPECT_EQ(gen(), oracle_gen()) << "the rng streams diverged";
        }
      }
    }
  }
}

}  // namespace
}  // namespace urmem
