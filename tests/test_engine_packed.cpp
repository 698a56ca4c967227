// The packed-width engine (run_packed / tuned_runner) against the PR 2 lazy
// u32 engine: at natural order every width must be bit-identical per seed —
// same steps, leader, stabilization flag and census — across the protocol ×
// family matrix; forced widths that do not fit fail loudly; reordered runs
// agree statistically (the relabel property tests live in test_reorder.cpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "core/beauquier.h"
#include "core/fast_election.h"
#include "core/majority.h"
#include "engine/engine.h"
#include "graph/generators.h"

namespace pp {
namespace {

TEST(PackedEntry, Sizes) {
  EXPECT_EQ(sizeof(packed_entry<std::uint8_t>), 4u);
  EXPECT_EQ(sizeof(packed_entry<std::uint16_t>), 8u);
  EXPECT_EQ(sizeof(packed_entry<std::uint32_t>), 12u);
}

TEST(PackedEntry, NibbleDeltaRoundtrip) {
  // Every 4-tuple over the nibble range survives encode/decode, and the
  // zero-word test matches "all deltas zero" exactly.
  for (int d0 = -8; d0 <= 7; ++d0) {
    for (int d1 = -8; d1 <= 7; ++d1) {
      for (int d2 = -8; d2 <= 7; ++d2) {
        for (int d3 : {-8, -2, -1, 0, 1, 2, 7}) {
          packed_entry<std::uint8_t> e;
          const std::array<std::int8_t, kMaxCensusCounters> d = {
              static_cast<std::int8_t>(d0), static_cast<std::int8_t>(d1),
              static_cast<std::int8_t>(d2), static_cast<std::int8_t>(d3)};
          e.delta = packed_entry<std::uint8_t>::encode_delta(d);
          for (int c = 0; c < kMaxCensusCounters; ++c) {
            ASSERT_EQ(e.delta_of(c), d[static_cast<std::size_t>(c)]);
          }
          ASSERT_EQ(e.delta_nonzero(), d0 != 0 || d1 != 0 || d2 != 0 || d3 != 0);
        }
      }
    }
  }
}

TEST(PackedTable, SnapshotsMatchClosedEntries) {
  const beauquier_protocol proto(16);
  compiled_protocol<beauquier_protocol> compiled(proto);
  for (node_id v = 0; v < 16; ++v) compiled.intern(proto.initial_state(v));
  ASSERT_TRUE(compiled.close(64));
  ASSERT_TRUE(compiled.deltas_fit_nibble());

  const packed_table<std::uint8_t, beauquier_protocol> t8(compiled);
  const packed_table<std::uint16_t, beauquier_protocol> t16(compiled);
  const packed_table<std::uint32_t, beauquier_protocol> t32(compiled);
  const auto k = compiled.num_states();
  ASSERT_EQ(t8.num_states(), k);
  EXPECT_EQ(t8.bytes(), k * k * 4);
  EXPECT_EQ(t16.bytes(), k * k * 8);
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = 0; b < k; ++b) {
      const auto& e = compiled.closed_transition(static_cast<std::uint32_t>(a),
                                                 static_cast<std::uint32_t>(b));
      ASSERT_EQ(t8.at(a, b).a2, e.a2);
      ASSERT_EQ(t8.at(a, b).b2, e.b2);
      ASSERT_EQ(t16.at(a, b).a2, e.a2);
      ASSERT_EQ(t32.at(a, b).a2, e.a2);
      for (int c = 0; c < census_traits<beauquier_protocol>::kCounters; ++c) {
        const auto i = static_cast<std::size_t>(c);
        ASSERT_EQ(t8.at(a, b).delta_of(c), e.delta[i]);
        ASSERT_EQ(t16.at(a, b).delta_of(c), e.delta[i]);
        ASSERT_EQ(t32.at(a, b).delta_of(c), e.delta[i]);
      }
    }
  }
}

std::vector<std::pair<std::string, graph>> test_families() {
  rng gen(7);
  std::vector<std::pair<std::string, graph>> fams;
  fams.emplace_back("clique", make_clique(24));
  fams.emplace_back("ring", make_cycle(33));
  fams.emplace_back("grid", make_grid_2d(5, 6, false));
  return fams;
}

// Natural-order packed runs at every admissible width produce exactly the
// reference engine's result for the same seed.
template <typename MakeProto>
void expect_widths_bit_identical(const MakeProto& make_proto,
                                 const sim_options& options,
                                 std::uint64_t seed_base) {
  for (const auto& [name, g] : test_families()) {
    const auto proto = make_proto(g.num_nodes());
    using P = decltype(make_proto(0));

    // Which widths fit is a property of the closed table.
    compiled_protocol<P> compiled(proto);
    for (node_id v = 0; v < g.num_nodes(); ++v) {
      compiled.intern(proto.initial_state(v));
    }
    ASSERT_TRUE(compiled.close(kEngineClosureBudget)) << name;
    std::vector<int> widths{0, 16, 32};  // auto, u16, u32
    if (compiled.num_states() <= 256 && compiled.deltas_fit_nibble()) {
      widths.push_back(8);
    }

    rng seed(seed_base);
    for (std::uint64_t t = 0; t < 4; ++t) {
      const auto ref = run_until_stable_fast(proto, g, seed.fork(t), options);
      for (const int bits : widths) {
        const tuned_runner<P> runner(proto, g, {vertex_order::natural, bits});
        const auto packed = runner.run(seed.fork(t), options);
        ASSERT_EQ(ref.stabilized, packed.stabilized)
            << name << " bits=" << bits << " trial " << t;
        ASSERT_EQ(ref.steps, packed.steps)
            << name << " bits=" << bits << " trial " << t;
        ASSERT_EQ(ref.leader, packed.leader)
            << name << " bits=" << bits << " trial " << t;
        ASSERT_EQ(ref.distinct_states_used, packed.distinct_states_used)
            << name << " bits=" << bits << " trial " << t;
      }
    }
  }
}

TEST(PackedEngine, FastProtocolBitIdenticalAcrossWidths) {
  expect_widths_bit_identical(
      [](node_id) { return fast_protocol(fast_params{}); }, {}, 31);
}

TEST(PackedEngine, FastProtocolWithCensusBitIdentical) {
  expect_widths_bit_identical(
      [](node_id) { return fast_protocol(fast_params{}); },
      {.state_census = true}, 32);
}

TEST(PackedEngine, BeauquierBitIdenticalAcrossWidths) {
  expect_widths_bit_identical([](node_id n) { return beauquier_protocol(n); },
                              {.state_census = true}, 33);
}

TEST(PackedEngine, MajorityBitIdenticalAcrossWidths) {
  expect_widths_bit_identical(
      [](node_id n) {
        rng votes_gen(34);
        return majority_protocol(random_vote_assignment(n, (2 * n) / 3, votes_gen));
      },
      {}, 35);
}

TEST(PackedEngine, AutoWidthPicksNarrowestFit) {
  const graph g = make_cycle(20);
  const beauquier_protocol proto(20);  // |Λ| = 5 -> u8
  const tuned_runner<beauquier_protocol> r8(proto, g);
  EXPECT_EQ(r8.pack_bits(), 8);
  EXPECT_TRUE(r8.packed());

  fast_params params;  // |Λ| = 863 with these constants -> u16
  params.h = 6;
  params.level_threshold = 20;
  params.max_level = 80;
  const fast_protocol fast(params);
  const tuned_runner<fast_protocol> r16(fast, g);
  EXPECT_EQ(r16.pack_bits(), 16);
}

TEST(PackedEngine, TooNarrowForcedWidthFailsLoudly) {
  const graph g = make_cycle(20);
  fast_params params;
  params.h = 6;
  params.level_threshold = 20;
  params.max_level = 80;
  const fast_protocol proto(params);
  {
    // Guard: the reachable space really is beyond u8.
    compiled_protocol<fast_protocol> compiled(proto);
    compiled.intern(proto.initial_state(0));
    ASSERT_TRUE(compiled.close(kEngineClosureBudget));
    ASSERT_GT(compiled.num_states(), 256u);
  }
  EXPECT_THROW(
      (tuned_runner<fast_protocol>(proto, g, {vertex_order::natural, 8})),
      std::invalid_argument);
}

TEST(PackedEngine, MaxStepsCapMatchesReference) {
  const graph g = make_cycle(48);
  const beauquier_protocol proto(48);
  const sim_options options{.max_steps = 500, .state_census = true};
  const auto ref = run_until_stable(proto, g, rng(17), options);
  for (const int bits : {8, 16, 32}) {
    const tuned_runner<beauquier_protocol> runner(proto, g,
                                                  {vertex_order::natural, bits});
    const auto packed = runner.run(rng(17), options);
    EXPECT_FALSE(packed.stabilized);
    EXPECT_EQ(ref.steps, packed.steps);
    EXPECT_EQ(packed.steps, 500u);
    EXPECT_EQ(ref.leader, packed.leader);
    EXPECT_EQ(ref.distinct_states_used, packed.distinct_states_used);
  }
}

TEST(PackedEngine, ClosureBudgetFallbackMatchesLazyEngine) {
  // A reachable space beyond the closure budget degrades to lazy u32 tables;
  // the summary must still match measure_election / measure_election_fast.
  const graph g = make_clique(12);
  fast_params params;
  params.h = 8;
  params.level_threshold = 600;
  params.max_level = 60000;
  const fast_protocol proto(params);
  const sim_options options{.max_steps = 20000};
  const tuned_runner<fast_protocol> runner(proto, g);
  EXPECT_FALSE(runner.packed());
  EXPECT_EQ(runner.pack_bits(), 32);
  const auto ref = measure_election_fast(proto, g, 4, rng(23), options);
  const auto tuned = measure_election_tuned(runner, 4, rng(23), options);
  EXPECT_DOUBLE_EQ(ref.stabilized_fraction, tuned.stabilized_fraction);
  EXPECT_DOUBLE_EQ(ref.steps.mean, tuned.steps.mean);
  // ...and forcing a packed width on an unclosable table is refused.
  EXPECT_THROW(
      (tuned_runner<fast_protocol>(proto, g, {vertex_order::natural, 16})),
      std::invalid_argument);
}

TEST(PackedEngine, MeasureTunedNaturalMatchesMeasureFast) {
  rng gen(21);
  const graph g = make_connected_erdos_renyi(32, 0.2, gen);
  const beauquier_protocol proto(32);
  const auto fast = measure_election_fast(proto, g, 12, rng(22));
  const tuned_runner<beauquier_protocol> runner(proto, g);
  const auto tuned = measure_election_tuned(runner, 12, rng(22));
  EXPECT_DOUBLE_EQ(fast.steps.mean, tuned.steps.mean);
  EXPECT_DOUBLE_EQ(fast.stabilized_fraction, tuned.stabilized_fraction);
}

TEST(PackedEngine, WorkingSetAccountingIsConsistent) {
  const graph g = make_cycle(64);
  const beauquier_protocol proto(64);
  const tuned_runner<beauquier_protocol> runner(proto, g);
  ASSERT_EQ(runner.pack_bits(), 8);
  const std::size_t k = runner.compiled().num_states();
  // config (64 x 1B) + packed table (k² x 4B) + u16 endpoint pairs (64 x 4B).
  EXPECT_EQ(runner.working_set_bytes(), 64u * 1 + k * k * 4 + 64u * 4);
  // One u16 pair + one packed entry + two config words.
  EXPECT_EQ(runner.bytes_per_step(), 4u + 4u + 2u * 1);
}

}  // namespace
}  // namespace pp
