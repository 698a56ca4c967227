#include "dynamics/epidemic.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/metrics.h"
#include "support/stats.h"

namespace pp {
namespace {

double harmonic(int n) {
  double h = 0.0;
  for (int i = 1; i <= n; ++i) h += 1.0 / i;
  return h;
}

TEST(Broadcast, InfectsEveryone) {
  const graph g = make_cycle(20);
  const auto r = simulate_broadcast(g, 3, rng(1));
  int at_zero = 0;
  for (node_id v = 0; v < 20; ++v) {
    if (r.infection_step[static_cast<std::size_t>(v)] == 0) ++at_zero;
  }
  EXPECT_EQ(at_zero, 1);  // only the source
  EXPECT_GT(r.completion_step, 0u);
}

TEST(Broadcast, InfectionStepsBoundedByCompletion) {
  const graph g = make_clique(12);
  const auto r = simulate_broadcast(g, 0, rng(2));
  std::uint64_t max_step = 0;
  for (const auto s : r.infection_step) max_step = std::max(max_step, s);
  EXPECT_EQ(max_step, r.completion_step);
}

TEST(Broadcast, CliqueMatchesClosedForm) {
  // E[T(v)] on K_n is exactly (n-1)·H_{n-1}.
  const int n = 64;
  const graph g = make_clique(n);
  const double expected = (n - 1) * harmonic(n - 1);
  const double measured = estimate_broadcast_time(g, 0, 3000, rng(3));
  EXPECT_NEAR(measured, expected, 0.04 * expected);
}

TEST(Broadcast, CycleMatchesClosedForm) {
  // The infected set is an arc with a 2-edge boundary at every stage, so
  // E[T(v)] = (n-1)·m/2 = n(n-1)/2 exactly.
  const int n = 32;
  const graph g = make_cycle(n);
  const double expected = n * (n - 1) / 2.0;
  const double measured = estimate_broadcast_time(g, 5, 2000, rng(4));
  EXPECT_NEAR(measured, expected, 0.05 * expected);
}

TEST(Broadcast, StarFromCentreMatchesClosedForm) {
  // From the centre: coupon collector over leaves, E = (n-1)·H_{n-1}.
  const int n = 40;
  const graph g = make_star(n);
  const double expected = (n - 1) * harmonic(n - 1);
  const double measured = estimate_broadcast_time(g, 0, 3000, rng(5));
  EXPECT_NEAR(measured, expected, 0.05 * expected);
}

TEST(Broadcast, NaiveAndEventDrivenAgree) {
  // Identical distribution; compare means and dispersion over many trials.
  for (const auto& g : {make_cycle(12), make_star(10), make_clique(8)}) {
    std::vector<double> naive;
    std::vector<double> event;
    rng gen(6);
    for (int t = 0; t < 1200; ++t) {
      naive.push_back(static_cast<double>(
          simulate_broadcast_naive(g, 0, gen.fork(2 * t)).completion_step));
      event.push_back(static_cast<double>(
          simulate_broadcast(g, 0, gen.fork(2 * t + 1)).completion_step));
    }
    const auto a = summarize(naive);
    const auto b = summarize(event);
    EXPECT_NEAR(a.mean, b.mean, 4 * (a.ci95_halfwidth + b.ci95_halfwidth))
        << "graph with n=" << g.num_nodes();
    EXPECT_NEAR(a.median, b.median, 0.25 * a.mean);
  }
}

TEST(Broadcast, Theorem6UpperBoundHolds) {
  // B(G) <= m·max{6 ln n, D} + 2 (Lemma 8).
  rng gen(7);
  const std::vector<graph> graphs{make_cycle(48), make_clique(24), make_star(32),
                                  make_grid_2d(6, 6, true)};
  for (const auto& g : graphs) {
    const double n = g.num_nodes();
    const double m = static_cast<double>(g.num_edges());
    const double d = diameter(g);
    const double bound = m * std::max(6.0 * std::log(n), d) + 2.0;
    const double measured =
        estimate_broadcast_time(g, 0, 200, gen.fork(static_cast<std::uint64_t>(m)));
    EXPECT_LE(measured, bound) << "n=" << n << " m=" << m;
  }
}

TEST(Broadcast, Lemma12LowerBoundHolds) {
  // B(G) >= (m/Δ)·ln(n-1); allow 5% Monte-Carlo slack on the estimate.
  rng gen(8);
  const std::vector<graph> graphs{make_cycle(40), make_clique(24), make_star(40),
                                  make_grid_2d(6, 6, true)};
  for (const auto& g : graphs) {
    const double bound = static_cast<double>(g.num_edges()) / g.max_degree() *
                         std::log(static_cast<double>(g.num_nodes() - 1));
    const auto est = estimate_worst_case_broadcast_time(
        g, 200, 16, gen.fork(static_cast<std::uint64_t>(g.num_nodes())));
    EXPECT_GE(est.value, 0.95 * bound) << "n=" << g.num_nodes();
  }
}

TEST(Broadcast, WorstCaseEstimateAtLeastSingleSource) {
  const graph g = make_lollipop(8, 12);
  const double single = estimate_broadcast_time(g, 0, 100, rng(9));
  const auto worst = estimate_worst_case_broadcast_time(g, 100, 30, rng(9));
  EXPECT_GE(worst.value, 0.8 * single);
  EXPECT_GE(worst.value, worst.min_value);
}

TEST(Propagation, DistanceKStepsIncrease) {
  const graph g = make_cycle(40);
  const auto dist = bfs_distances(g, 0);
  rng gen(10);
  double t5 = 0.0;
  double t20 = 0.0;
  const int trials = 300;
  for (int t = 0; t < trials; ++t) {
    const auto r = simulate_broadcast(g, 0, gen.fork(t));
    t5 += static_cast<double>(distance_k_propagation_step(r, dist, 5));
    t20 += static_cast<double>(distance_k_propagation_step(r, dist, 20));
  }
  EXPECT_LT(t5 / trials, t20 / trials);
}

TEST(Propagation, MissingDistanceGivesInfinity) {
  const graph g = make_clique(6);  // diameter 1
  const auto dist = bfs_distances(g, 0);
  const auto r = simulate_broadcast(g, 0, rng(11));
  EXPECT_EQ(distance_k_propagation_step(r, dist, 3), static_cast<std::uint64_t>(-1));
}

TEST(Propagation, Lemma14LowerBoundOnCycle) {
  // P[T_k < km/(Δe³)] <= 1/n for k >= ln n; on a cycle Δ = 2.
  const int n = 64;
  const graph g = make_cycle(n);
  const auto dist = bfs_distances(g, 0);
  const int k = 16;
  const double threshold =
      static_cast<double>(k) * g.num_edges() / (2.0 * std::exp(3.0));
  rng gen(12);
  int below = 0;
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    const auto r = simulate_broadcast(g, 0, gen.fork(t));
    if (static_cast<double>(distance_k_propagation_step(r, dist, k)) < threshold) {
      ++below;
    }
  }
  EXPECT_LE(below, trials / 16);
}

TEST(Broadcast, DisconnectedGraphThrows) {
  const graph g = graph::from_edges(4, {{0, 1}, {2, 3}});
  EXPECT_THROW(simulate_broadcast(g, 0, rng(13)), std::logic_error);
}

TEST(Broadcast, DeterministicGivenSeed) {
  const graph g = make_grid_2d(5, 5, false);
  const auto a = simulate_broadcast(g, 7, rng(14));
  const auto b = simulate_broadcast(g, 7, rng(14));
  EXPECT_EQ(a.completion_step, b.completion_step);
  EXPECT_EQ(a.infection_step, b.infection_step);
}

// ------------------------------------------------------------- goldens
//
// The B(G) estimate sets the fast protocol's h, so its exact doubles are
// pinned on fixed seeds, as is the per-node trajectory of
// simulate_broadcast.  Both must survive any change to the broadcast
// kernel's storage unchanged.  If the draws change on purpose, regenerate by
// running
//   build/test_epidemic --gtest_filter='BroadcastGolden.*'
// and pasting the printed `actual` rows over the old ones.

struct estimate_golden {
  const char* family;
  double value;
  node_id argmax;
  double min_value;
};

graph golden_graph(const std::string& family) {
  if (family == "clique 200") return make_clique(200);
  if (family == "rr8 2000") {
    rng gen(2000);
    return make_random_regular(2000, 8, gen);
  }
  if (family == "cycle 1000") return make_cycle(1000);
  return make_star(2000);
}

TEST(BroadcastGolden, WorstCaseEstimateExactDoubles) {
  const std::vector<estimate_golden> table{
      {"clique 200", 1218.7, 131, 1105.7},
      {"rr8 2000", 19387.033333333333, 0, 18458.966666666667},
      {"cycle 1000", 502167.36666666664, 0, 497619.59999999998},
      {"star 2000", 19080.066666666666, 1877, 15962.966666666667},
  };
  for (const estimate_golden& want : table) {
    const graph g = golden_graph(want.family);
    const auto est = estimate_worst_case_broadcast_time(g, 30, 6, rng(17));
    EXPECT_TRUE(est.value == want.value && est.argmax == want.argmax &&
                est.min_value == want.min_value)
        << std::setprecision(17) << "actual {\"" << want.family << "\", "
        << est.value << ", " << est.argmax << ", " << est.min_value << "},";
  }
}

// FNV-1a over the infection steps, then the completion step.
std::uint64_t trajectory_digest(const broadcast_result& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  for (const std::uint64_t s : r.infection_step) mix(s);
  mix(r.completion_step);
  return h;
}

TEST(BroadcastGolden, PerSeedTrajectoryDigestRr8) {
  struct row {
    std::uint64_t seed;
    std::uint64_t digest;
    std::uint64_t completion;
  };
  rng gg(500);
  const graph g = make_random_regular(500, 8, gg);
  const std::vector<row> table{
      {1, 0xb6803e3c66afb941ull, 3791ull},
      {2, 0x1ab039dbb173f3b8ull, 3614ull},
      {3, 0x2dc0009ac7137398ull, 3636ull},
      {4, 0xe16b7c73ccf7e709ull, 3476ull},
  };
  for (const row& want : table) {
    const auto r = simulate_broadcast(g, 0, rng(want.seed));
    const std::uint64_t digest = trajectory_digest(r);
    std::ostringstream hex;
    hex << std::hex << digest;
    EXPECT_TRUE(digest == want.digest && r.completion_step == want.completion)
        << "actual {" << want.seed << ", 0x" << hex.str() << "ull, "
        << r.completion_step << "ull},";
  }
}

}  // namespace
}  // namespace pp
