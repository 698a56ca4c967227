#include "engine/engine.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "core/beauquier.h"
#include "core/fast_election.h"
#include "core/majority.h"
#include "core/simulator.h"
#include "core/star_protocol.h"
#include "engine/block_rng.h"
#include "graph/generators.h"

namespace pp {
namespace {

// ---------------------------------------------------------------- block_rng

TEST(BlockRng, MatchesRngDrawForDraw) {
  // Same seed, same bound sequence: block_rng must replicate
  // rng::uniform_below exactly, including Lemire rejections.
  rng reference(42);
  block_rng buffered(rng(42));
  const std::uint64_t bounds[] = {2, 3, 7, 1ull << 33, 6, 12345, 2 * 977};
  for (int round = 0; round < 5000; ++round) {
    for (const std::uint64_t bound : bounds) {
      ASSERT_EQ(reference.uniform_below(bound), buffered.uniform_below(bound));
    }
  }
}

// ------------------------------------------------------- compiled_protocol

TEST(CompiledProtocol, ClosureOfBeauquierFindsAllSixStates) {
  const beauquier_protocol proto(8);
  compiled_protocol<beauquier_protocol> compiled(proto);
  for (node_id v = 0; v < 8; ++v) compiled.intern(proto.initial_state(v));
  ASSERT_TRUE(compiled.close(64));
  EXPECT_TRUE(compiled.closed());
  // All candidates initially: reachable space is 5 of the 6 states (a
  // candidate holding a white token resolves instantly and is never
  // observable between interactions).
  EXPECT_GE(compiled.num_states(), 4u);
  EXPECT_LE(compiled.num_states(), 6u);
}

TEST(CompiledProtocol, TransitionsMatchDirectInteract) {
  fast_params params;  // small default space: closes quickly
  const fast_protocol proto(params);
  compiled_protocol<fast_protocol> compiled(proto);
  compiled.intern(proto.initial_state(0));
  ASSERT_TRUE(compiled.close(kEngineClosureBudget));

  const auto k = static_cast<std::uint32_t>(compiled.num_states());
  for (std::uint32_t a = 0; a < k; ++a) {
    for (std::uint32_t b = 0; b < k; ++b) {
      auto sa = compiled.decode(a);
      auto sb = compiled.decode(b);
      proto.interact(sa, sb);
      const auto e = compiled.transition(a, b);
      ASSERT_EQ(proto.encode(compiled.decode(e.a2)), proto.encode(sa));
      ASSERT_EQ(proto.encode(compiled.decode(e.b2)), proto.encode(sb));
      // The entry's census delta is consistent with the per-state
      // contributions it was derived from.
      for (int c = 0; c < census_traits<fast_protocol>::kCounters; ++c) {
        const auto i = static_cast<std::size_t>(c);
        ASSERT_EQ(static_cast<int>(e.delta[i]),
                  compiled.contribution(e.a2)[i] + compiled.contribution(e.b2)[i] -
                      compiled.contribution(a)[i] - compiled.contribution(b)[i]);
      }
    }
  }
}

TEST(CompiledProtocol, InternIsStableAndDense) {
  const beauquier_protocol proto(4);
  compiled_protocol<beauquier_protocol> compiled(proto);
  const auto a = compiled.intern(bq_init(true));
  const auto b = compiled.intern(bq_init(false));
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(compiled.intern(bq_init(true)), a);
  EXPECT_EQ(compiled.num_states(), 2u);
  EXPECT_EQ(compiled.output(a), role::leader);
  EXPECT_EQ(compiled.output(b), role::follower);
}

// The closure as it was first written: every round rescans all of [0, k)²
// and skips the pairs over ids < done.  Driven through the public
// transition(), so it is an independent reference for close()'s visit order.
template <typename P>
void close_by_rescan(compiled_protocol<P>& compiled) {
  std::size_t done = 0;
  while (done < compiled.num_states()) {
    const std::size_t k = compiled.num_states();
    for (std::size_t a = 0; a < k; ++a) {
      for (std::size_t b = 0; b < k; ++b) {
        if (a >= done || b >= done) {
          compiled.transition(static_cast<std::uint32_t>(a),
                              static_cast<std::uint32_t>(b));
        }
      }
    }
    done = k;
  }
}

// close() must intern every state under the same id and fill every entry
// exactly as the rescanning closure does.
template <typename P>
void expect_close_matches_rescan(const P& proto, node_id n, const std::string& label) {
  compiled_protocol<P> closed(proto);
  compiled_protocol<P> reference(proto);
  for (node_id v = 0; v < n; ++v) {
    closed.intern(proto.initial_state(v));
    reference.intern(proto.initial_state(v));
  }
  ASSERT_TRUE(closed.close(kEngineClosureBudget)) << label;
  close_by_rescan(reference);
  ASSERT_EQ(closed.num_states(), reference.num_states()) << label;
  const auto k = static_cast<std::uint32_t>(closed.num_states());
  for (std::uint32_t id = 0; id < k; ++id) {
    ASSERT_EQ(proto.encode(closed.decode(id)), proto.encode(reference.decode(id)))
        << label << " id " << id;
  }
  for (std::uint32_t a = 0; a < k; ++a) {
    for (std::uint32_t b = 0; b < k; ++b) {
      const auto want = reference.transition(a, b);
      const auto& got = closed.closed_transition(a, b);
      ASSERT_TRUE(got.a2 == want.a2 && got.b2 == want.b2 && got.delta == want.delta)
          << label << " pair (" << a << ", " << b << ")";
    }
  }
}

fast_params fast_params_of(int h, int level_threshold, int max_level) {
  fast_params p;
  p.h = h;
  p.level_threshold = level_threshold;
  p.max_level = max_level;
  return p;
}

TEST(CompiledProtocol, CloseMatchesRescanReference) {
  expect_close_matches_rescan(fast_protocol(fast_params_of(6, 16, 64)), 4,
                              "fast h=6 L=16 aL=64");
  expect_close_matches_rescan(fast_protocol(fast_params_of(7, 27, 108)), 4,
                              "fast h=7 L=27 aL=108");
  expect_close_matches_rescan(fast_protocol(fast_params_of(4, 8, 9)), 4,
                              "fast backup regime h=4 L=8 aL=9");
  expect_close_matches_rescan(beauquier_protocol(8), 8, "beauquier");
  expect_close_matches_rescan(star_protocol{}, 4, "star");
}

// -------------------------------------------------- engine <-> reference

// The graph families every protocol is cross-checked on.
std::vector<std::pair<std::string, graph>> test_families() {
  rng gen(7);
  std::vector<std::pair<std::string, graph>> fams;
  fams.emplace_back("clique", make_clique(24));
  fams.emplace_back("cycle", make_cycle(33));
  fams.emplace_back("grid", make_grid_2d(5, 6, false));
  fams.emplace_back("erdos-renyi", make_connected_erdos_renyi(40, 0.15, gen));
  return fams;
}

// `make_proto` builds the protocol for a given node count (beauquier and
// majority are sized by their input assignment).
template <typename MakeProto>
void expect_equivalent(const MakeProto& make_proto, const sim_options& options,
                       std::uint64_t seed_base) {
  for (const auto& [name, g] : test_families()) {
    const auto proto = make_proto(g.num_nodes());
    rng seed(seed_base);
    for (std::uint64_t t = 0; t < 6; ++t) {
      const auto ref = run_until_stable(proto, g, seed.fork(t), options);
      const auto fast = run_until_stable_fast(proto, g, seed.fork(t), options);
      ASSERT_EQ(ref.stabilized, fast.stabilized) << name << " trial " << t;
      ASSERT_EQ(ref.steps, fast.steps) << name << " trial " << t;
      ASSERT_EQ(ref.leader, fast.leader) << name << " trial " << t;
      ASSERT_EQ(ref.distinct_states_used, fast.distinct_states_used)
          << name << " trial " << t;
    }
  }
}

TEST(EngineEquivalence, FastProtocolAcrossFamilies) {
  expect_equivalent([](node_id) { return fast_protocol(fast_params{}); }, {}, 11);
}

TEST(EngineEquivalence, FastProtocolWithCensus) {
  expect_equivalent([](node_id) { return fast_protocol(fast_params{}); },
                    {.state_census = true}, 12);
}

TEST(EngineEquivalence, BeauquierAcrossFamilies) {
  expect_equivalent([](node_id n) { return beauquier_protocol(n); }, {}, 13);
}

TEST(EngineEquivalence, BeauquierWithCensus) {
  expect_equivalent([](node_id n) { return beauquier_protocol(n); },
                    {.state_census = true}, 14);
}

TEST(EngineEquivalence, MajorityAcrossFamilies) {
  expect_equivalent(
      [](node_id n) {
        rng votes_gen(15);
        return majority_protocol(random_vote_assignment(n, (2 * n) / 3, votes_gen));
      },
      {}, 16);
}

TEST(EngineEquivalence, MaxStepsCapMatchesReference) {
  const graph g = make_cycle(48);
  const beauquier_protocol proto(48);
  const sim_options options{.max_steps = 500, .state_census = true};
  const auto ref = run_until_stable(proto, g, rng(17), options);
  const auto fast = run_until_stable_fast(proto, g, rng(17), options);
  EXPECT_FALSE(fast.stabilized);
  EXPECT_EQ(ref.steps, fast.steps);
  EXPECT_EQ(fast.steps, 500u);
  EXPECT_EQ(ref.leader, fast.leader);
  EXPECT_EQ(ref.distinct_states_used, fast.distinct_states_used);
}

TEST(EngineEquivalence, SizeMismatchedProtocolIsRejected)
{
  // Protocol sized for 8 nodes, graph with 9: initial_state must throw before
  // the engine runs (same contract as the reference simulator).
  const graph g = make_grid_2d(3, 3, false);
  const beauquier_protocol proto(8);
  EXPECT_THROW(run_until_stable_fast(proto, g, rng(1)), std::exception);
}

// --------------------------------------------------------- shared tables

TEST(EngineSharing, ClosedTableSharedAcrossRunsMatchesLazyTables) {
  const graph g = make_clique(16);
  const beauquier_protocol proto(16);

  compiled_protocol<beauquier_protocol> shared(proto);
  for (node_id v = 0; v < 16; ++v) shared.intern(proto.initial_state(v));
  ASSERT_TRUE(shared.close(64));
  const edge_endpoints edges(g);

  rng seed(19);
  for (std::uint64_t t = 0; t < 8; ++t) {
    const auto lazy = run_until_stable_fast(proto, g, seed.fork(t));
    const auto closed = run_compiled(shared, edges, g, seed.fork(t));
    ASSERT_EQ(lazy.steps, closed.steps);
    ASSERT_EQ(lazy.leader, closed.leader);
  }
}

TEST(EngineSharing, MeasureElectionFastMatchesMeasureElection) {
  rng gen(21);
  const graph g = make_connected_erdos_renyi(32, 0.2, gen);
  const beauquier_protocol proto(32);
  const auto ref = measure_election(proto, g, 12, rng(22));
  const auto fast = measure_election_fast(proto, g, 12, rng(22));
  EXPECT_DOUBLE_EQ(ref.steps.mean, fast.steps.mean);
  EXPECT_DOUBLE_EQ(ref.stabilized_fraction, fast.stabilized_fraction);
}

TEST(EngineSharing, MeasureElectionFastFallsBackWhenClosureExceedsBudget) {
  // A fast protocol with a large level range blows the closure budget; the
  // sweep must silently fall back to per-trial lazy tables and still match
  // the reference summary.
  const graph g = make_clique(12);
  fast_params params;
  params.h = 8;
  params.level_threshold = 600;
  params.max_level = 60000;  // |Λ| far beyond kEngineClosureBudget
  const fast_protocol proto(params);
  const sim_options options{.max_steps = 20000};
  const auto ref = measure_election(proto, g, 4, rng(23), options);
  const auto fast = measure_election_fast(proto, g, 4, rng(23), options);
  EXPECT_DOUBLE_EQ(ref.stabilized_fraction, fast.stabilized_fraction);
  EXPECT_DOUBLE_EQ(ref.steps.mean, fast.steps.mean);
}

}  // namespace
}  // namespace pp
