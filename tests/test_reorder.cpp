// Property tests for graph/reorder.h and graph::relabel: the orders are
// permutations, relabelling preserves structure, RCM does not increase
// bandwidth on the families the engine targets, and reordered elections
// agree with natural-order elections statistically (3σ) — the contract
// reordered engine runs trade per-seed equivalence for.
#include "graph/reorder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "core/beauquier.h"
#include "core/majority.h"
#include "graph/generators.h"
#include "graph/metrics.h"
#include "stat_gate.h"

namespace pp {
namespace {

std::vector<std::pair<std::string, graph>> property_families() {
  rng gen(91);
  std::vector<std::pair<std::string, graph>> fams;
  fams.emplace_back("path", make_path(17));
  fams.emplace_back("cycle", make_cycle(40));
  fams.emplace_back("grid", make_grid_2d(6, 7, false));
  fams.emplace_back("torus", make_grid_2d(5, 5, true));
  fams.emplace_back("star", make_star(12));
  fams.emplace_back("erdos-renyi", make_connected_erdos_renyi(48, 0.12, gen));
  fams.emplace_back("regular", make_random_regular(40, 4, gen));
  return fams;
}

bool is_permutation_of_range(const std::vector<node_id>& perm, node_id n) {
  if (perm.size() != static_cast<std::size_t>(n)) return false;
  std::vector<char> hit(static_cast<std::size_t>(n), 0);
  for (const node_id p : perm) {
    if (p < 0 || p >= n || hit[static_cast<std::size_t>(p)]) return false;
    hit[static_cast<std::size_t>(p)] = 1;
  }
  return true;
}

// A uniformly random relabelling (the adversarial starting point for the
// bandwidth properties: natural labels on the library's generators are
// already friendly).
std::vector<node_id> random_permutation(node_id n, rng& gen) {
  std::vector<node_id> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  for (node_id i = n - 1; i > 0; --i) {
    const auto j = static_cast<node_id>(
        gen.uniform_below(static_cast<std::uint64_t>(i) + 1));
    std::swap(perm[static_cast<std::size_t>(i)], perm[static_cast<std::size_t>(j)]);
  }
  return perm;
}

TEST(Reorder, BfsAndRcmArePermutations) {
  for (const auto& [name, g] : property_families()) {
    EXPECT_TRUE(is_permutation_of_range(bfs_permutation(g), g.num_nodes())) << name;
    EXPECT_TRUE(is_permutation_of_range(rcm_permutation(g), g.num_nodes())) << name;
  }
}

TEST(Reorder, NaturalOrderIsIdentity) {
  const graph g = make_grid_2d(4, 5, false);
  const auto perm = order_permutation(g, vertex_order::natural);
  for (node_id v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(perm[static_cast<std::size_t>(v)], v);
  }
}

TEST(Reorder, InvertPermutationRoundtrip) {
  for (const auto& [name, g] : property_families()) {
    const auto perm = rcm_permutation(g);
    const auto inv = invert_permutation(perm);
    for (node_id v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(inv[static_cast<std::size_t>(perm[static_cast<std::size_t>(v)])], v)
          << name;
    }
    // Relabelling by perm then by its inverse restores the edge list.
    const graph round = g.relabel(perm).relabel(inv);
    EXPECT_EQ(round.edges(), g.edges()) << name;
  }
}

TEST(Reorder, RelabelPreservesStructure) {
  for (const auto& [name, g] : property_families()) {
    const auto perm = rcm_permutation(g);
    const graph h = g.relabel(perm);
    ASSERT_EQ(h.num_nodes(), g.num_nodes()) << name;
    ASSERT_EQ(h.num_edges(), g.num_edges()) << name;
    EXPECT_EQ(is_connected(h), is_connected(g)) << name;

    // Degree sequence is preserved as a multiset, and node-for-node under
    // the permutation.
    std::vector<node_id> dg, dh;
    for (node_id v = 0; v < g.num_nodes(); ++v) {
      dg.push_back(g.degree(v));
      dh.push_back(h.degree(v));
      EXPECT_EQ(h.degree(perm[static_cast<std::size_t>(v)]), g.degree(v)) << name;
    }
    std::sort(dg.begin(), dg.end());
    std::sort(dh.begin(), dh.end());
    EXPECT_EQ(dg, dh) << name;

    // Every original edge exists under the renaming (and counts match, so
    // the edge sets correspond exactly).
    for (const edge& e : g.edges()) {
      EXPECT_TRUE(h.has_edge(perm[static_cast<std::size_t>(e.u)],
                             perm[static_cast<std::size_t>(e.v)]))
          << name;
    }
  }
}

TEST(Reorder, RelabelRejectsInvalidPermutations) {
  const graph g = make_cycle(6);
  EXPECT_THROW(g.relabel({0, 1, 2}), std::invalid_argument);           // short
  EXPECT_THROW(g.relabel({0, 1, 2, 3, 4, 7}), std::invalid_argument);  // range
  EXPECT_THROW(g.relabel({0, 1, 2, 3, 4, 4}), std::invalid_argument);  // dup
}

TEST(Reorder, RcmBandwidthNonIncreasingOnEngineFamilies) {
  // On the families the tuned engine targets (and their adversarially
  // shuffled relabellings), RCM never increases the bandwidth — usually it
  // collapses it.  RCM is a heuristic, so this is asserted for the concrete
  // deterministic instances the engine cares about, not for all graphs: the
  // star is excluded, since any BFS-shaped order pins the centre near one
  // end of the range while the optimum (and a lucky shuffle) centres it.
  rng gen(17);
  for (auto& [name, g] : property_families()) {
    if (name == "star") continue;
    const graph shuffled = g.relabel(random_permutation(g.num_nodes(), gen));
    for (const graph* instance : {static_cast<const graph*>(&g), &shuffled}) {
      const node_id before = bandwidth(*instance);
      const node_id after = bandwidth(instance->relabel(rcm_permutation(*instance)));
      EXPECT_LE(after, before) << name;
    }
  }
}

TEST(Reorder, RcmCollapsesBandwidthOnMeshes) {
  // The headline cases: a cycle's wrap edge spans n-1 naturally but 2 after
  // RCM; a shuffled grid recovers O(side) bandwidth.
  const graph cyc = make_cycle(64);
  EXPECT_EQ(bandwidth(cyc), 63);
  EXPECT_EQ(bandwidth(cyc.relabel(rcm_permutation(cyc))), 2);

  rng gen(23);
  const graph grid = make_grid_2d(12, 12, false);
  const graph shuffled = grid.relabel(random_permutation(grid.num_nodes(), gen));
  const node_id shuffled_bw = bandwidth(shuffled);
  const node_id rcm_bw = bandwidth(shuffled.relabel(rcm_permutation(shuffled)));
  EXPECT_GT(shuffled_bw, 100);  // random labels are terrible
  EXPECT_LE(rcm_bw, 26);        // ~2x the optimal 12 leaves heuristic slack
}

// Reordered tuned elections agree with natural-order elections within 3σ of
// the combined standard errors — the statistical contract that replaces
// per-seed equivalence once the draw-to-edge mapping changes.
template <typename P>
void expect_3sigma_agreement(const P& proto, const graph& g, int trials,
                             std::uint64_t seed, vertex_order order) {
  const tuned_runner<P> natural_runner(proto, g);
  const tuned_runner<P> reordered_runner(proto, g, {order, 0});
  const auto natural = measure_election_tuned(natural_runner, trials, rng(seed));
  const auto reordered =
      measure_election_tuned(reordered_runner, trials, rng(seed + 1));
  stat_gate::expect_step_agreement(natural, reordered, to_string(order));
}

TEST(Reorder, BeauquierElectionTimeAgreesUnderRcm) {
  const graph g = make_grid_2d(6, 6, false);
  const beauquier_protocol proto(36);
  expect_3sigma_agreement(proto, g, 24, 1234, vertex_order::rcm);
  expect_3sigma_agreement(proto, g, 24, 1834, vertex_order::bfs);
}

TEST(Reorder, MajorityWithAsymmetricInputRidesTheRelabelling) {
  // majority's initial states depend on the node id; the engine must assign
  // initial_state(old id) to the relabelled node, making the reordered run
  // the exact original process under an isomorphism — so even this
  // node-asymmetric input agrees within 3σ.
  const graph g = make_cycle(31);
  rng votes_gen(55);
  const majority_protocol proto(random_vote_assignment(31, 21, votes_gen));
  expect_3sigma_agreement(proto, g, 24, 4321, vertex_order::rcm);
}

}  // namespace
}  // namespace pp
