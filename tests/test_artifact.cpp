// Fleet artifact container (src/fleet/artifact.h): byte-stable round trips,
// header/checksum rejection, and snapshot/validate over the compiled engine.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/beauquier.h"
#include "core/fast_election.h"
#include "core/star_protocol.h"
#include "dynamics/epidemic.h"
#include "engine/engine.h"
#include "fleet/artifact.h"
#include "graph/generators.h"

namespace pp::fleet {
namespace {

// A small tuned sweep whose reachable space closes (ring + fast protocol).
struct tuned_fixture {
  graph g = make_cycle(200);
  fast_protocol proto;
  tuned_runner<fast_protocol> runner;

  explicit tuned_fixture(engine_tuning tuning = {})
      : proto(fast_params::practical(
            g, estimate_worst_case_broadcast_time(g, 5, 3, rng(3)).value)),
        runner(proto, g, tuning) {}

  sweep_artifact artifact() const {
    return make_tuned_artifact(runner, g, "cycle", fast_desc(proto.params()));
  }
};

TEST(Artifact, TunedRoundTripIsByteStable) {
  const tuned_fixture fx;
  const sweep_artifact a = fx.artifact();
  const auto bytes = artifact_bytes(a);
  const sweep_artifact b = artifact_from_bytes(bytes);
  EXPECT_TRUE(a == b);
  // save(load(x)) must reproduce x byte for byte — the CI round-trip gate.
  EXPECT_EQ(bytes, artifact_bytes(b));
}

TEST(Artifact, FileRoundTrip) {
  const tuned_fixture fx;
  const sweep_artifact a = fx.artifact();
  const std::string path = testing::TempDir() + "/artifact_roundtrip.ppaf";
  save_artifact(a, path);
  const sweep_artifact b = load_artifact(path);
  EXPECT_TRUE(a == b);
  std::remove(path.c_str());
}

TEST(Artifact, ChecksumDetectsPayloadCorruption) {
  const tuned_fixture fx;
  auto bytes = artifact_bytes(fx.artifact());
  ASSERT_GT(bytes.size(), 64u);
  bytes[60] ^= 0x01;  // flip one payload bit past the 40-byte header
  EXPECT_THROW(artifact_from_bytes(bytes), std::invalid_argument);
}

TEST(Artifact, RejectsBadMagicVersionAndEndianness) {
  const tuned_fixture fx;
  const auto good = artifact_bytes(fx.artifact());

  auto bad_magic = good;
  bad_magic[0] ^= 0xFF;
  EXPECT_THROW(artifact_from_bytes(bad_magic), std::invalid_argument);

  auto bad_endian = good;
  // Byte-swap the endianness tag: exactly what a foreign-endian writer
  // would have produced.
  std::swap(bad_endian[4], bad_endian[7]);
  std::swap(bad_endian[5], bad_endian[6]);
  EXPECT_THROW(artifact_from_bytes(bad_endian), std::invalid_argument);

  auto bad_version = good;
  bad_version[8] = static_cast<std::uint8_t>(kArtifactVersion + 1);
  EXPECT_THROW(artifact_from_bytes(bad_version), std::invalid_argument);

  // v1 files stay loadable: v2 only added the optional EDGE section, so a
  // version-1 header over the same layout parses (the version byte is
  // outside the checksummed payload).
  auto v1 = good;
  v1[8] = 1;
  EXPECT_NO_THROW(artifact_from_bytes(v1));

  auto truncated = good;
  truncated.resize(truncated.size() - 1);
  EXPECT_THROW(artifact_from_bytes(truncated), std::invalid_argument);

  EXPECT_THROW(artifact_from_bytes({}), std::invalid_argument);
}

TEST(Artifact, TableSnapshotValidatesAndDetectsSkew) {
  const tuned_fixture fx;
  const auto& compiled = fx.runner.compiled();
  table_section t = snapshot_table(compiled);
  EXPECT_NO_THROW(validate_table(t, compiled));
  EXPECT_EQ(t.codes.size(), compiled.num_states());
  EXPECT_EQ(t.entries.size(), compiled.num_states() * compiled.num_states());

  table_section skewed = t;
  skewed.codes[0] ^= 1;  // a producer whose states encode differently
  EXPECT_THROW(validate_table(skewed, compiled), std::invalid_argument);

  table_section wrong_entry = t;
  wrong_entry.entries[1].a2 ^= 1;
  EXPECT_THROW(validate_table(wrong_entry, compiled), std::invalid_argument);
}

TEST(Artifact, PackedSnapshotMatchesResolvedWidth) {
  const tuned_fixture fx;
  const auto& compiled = fx.runner.compiled();
  const int width = fx.runner.pack_bits();
  packed_section p = snapshot_packed(compiled, width);
  EXPECT_EQ(p.width_bits, static_cast<std::uint32_t>(width));
  EXPECT_EQ(p.num_states, compiled.num_states());
  EXPECT_NO_THROW(validate_packed(p, compiled));

  packed_section corrupt = p;
  corrupt.bytes[0] ^= 1;
  EXPECT_THROW(validate_packed(corrupt, compiled), std::invalid_argument);
}

TEST(Artifact, GraphSectionRoundTripsWithPermutation) {
  // RCM order exercises the stored permutation path.
  const tuned_fixture fx({.order = vertex_order::rcm});
  const sweep_artifact a = fx.artifact();
  ASSERT_TRUE(a.graph.has_value());
  EXPECT_EQ(a.graph->old_of_new.size(),
            static_cast<std::size_t>(fx.g.num_nodes()));

  const graph rebuilt = rebuild_graph(*a.graph);
  EXPECT_EQ(rebuilt.num_nodes(), fx.g.num_nodes());
  EXPECT_EQ(rebuilt.num_edges(), fx.g.num_edges());
  EXPECT_TRUE(rebuilt.edges() == fx.g.edges());
  // Snapshot of the rebuilt graph reproduces the section exactly.
  std::vector<node_id> old_of_new(a.graph->old_of_new.begin(),
                                  a.graph->old_of_new.end());
  EXPECT_TRUE(snapshot_graph(rebuilt, vertex_order::rcm, old_of_new) == *a.graph);
}

TEST(Artifact, TunedArtifactValidatesAgainstFreshRebuild) {
  const tuned_fixture fx;
  const sweep_artifact a = fx.artifact();
  // A worker's view: rebuild everything from the artifact alone.
  const fast_protocol proto(fast_params_of(a.protocol));
  const graph g = rebuild_graph(*a.graph);
  const tuned_runner<fast_protocol> rebuilt(proto, g, tuning_of(a));
  EXPECT_NO_THROW(validate_tuned_artifact(a, rebuilt));

  sweep_artifact skewed = a;
  skewed.pack_bits = skewed.pack_bits == 32 ? 16 : 32;
  EXPECT_THROW(validate_tuned_artifact(skewed, rebuilt), std::invalid_argument);
}

// Star fixture: the edge-census protocol on a small cycle (the EDGE-section
// path of the container).
struct star_fixture {
  graph g = make_cycle(120);
  star_protocol proto;
  tuned_runner<star_protocol> runner;

  explicit star_fixture(engine_tuning tuning = {}) : runner(proto, g, tuning) {}

  sweep_artifact artifact() const {
    return make_tuned_artifact(runner, g, "cycle", star_desc());
  }
};

TEST(Artifact, StarArtifactCarriesTheEdgeSectionAndRoundTrips) {
  const star_fixture fx;
  const sweep_artifact a = fx.artifact();
  ASSERT_TRUE(a.edge.has_value());
  EXPECT_EQ(a.edge->num_classes, 2u);
  // Reachable states: undecided (class 0), leader and follower (class 1).
  ASSERT_EQ(a.edge->classes.size(), fx.runner.compiled().num_states());
  EXPECT_EQ(a.edge->classes[0], 0);
  for (std::size_t id = 1; id < a.edge->classes.size(); ++id) {
    EXPECT_EQ(a.edge->classes[id], 1) << "state id " << id;
  }

  const auto bytes = artifact_bytes(a);
  const sweep_artifact b = artifact_from_bytes(bytes);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(bytes, artifact_bytes(b));  // the CI round-trip gate, star flavour

  // Checksum rejection holds for EDGE-bearing artifacts too.
  auto corrupt = bytes;
  corrupt[corrupt.size() - 1] ^= 0x01;
  EXPECT_THROW(artifact_from_bytes(corrupt), std::invalid_argument);
}

TEST(Artifact, StarArtifactValidatesAgainstFreshRebuildAndDetectsSkew) {
  const star_fixture fx({.order = vertex_order::rcm});
  const sweep_artifact a = fx.artifact();
  const graph g = rebuild_graph(*a.graph);
  const tuned_runner<star_protocol> rebuilt(star_protocol{}, g, tuning_of(a));
  EXPECT_NO_THROW(validate_tuned_artifact(a, rebuilt));

  // A producer whose build assigns different edge classes must fail loudly.
  sweep_artifact skewed = a;
  skewed.edge->classes[0] ^= 1;
  EXPECT_THROW(validate_tuned_artifact(skewed, rebuilt), std::invalid_argument);

  // A star artifact stripped of its EDGE section is rejected outright.
  sweep_artifact stripped = a;
  stripped.edge.reset();
  EXPECT_THROW(validate_tuned_artifact(stripped, rebuilt), std::invalid_argument);
}

TEST(Artifact, EdgeSectionClassBoundsAreEnforcedOnParse) {
  const star_fixture fx;
  sweep_artifact a = fx.artifact();
  a.edge->classes[0] = 7;  // beyond num_classes = 2
  EXPECT_THROW(artifact_from_bytes(artifact_bytes(a)), std::invalid_argument);
}

TEST(Artifact, ProtocolDescriptorsRoundTrip) {
  fast_params p;
  p.h = 5;
  p.level_threshold = 11;
  p.max_level = 44;
  const fast_params q = fast_params_of(fast_desc(p));
  EXPECT_EQ(q.h, p.h);
  EXPECT_EQ(q.level_threshold, p.level_threshold);
  EXPECT_EQ(q.max_level, p.max_level);

  EXPECT_EQ(six_population_of(six_desc(1234)), 1234);
  EXPECT_THROW(fast_params_of(six_desc(9)), std::invalid_argument);
  EXPECT_THROW(six_population_of(fast_desc(p)), std::invalid_argument);

  EXPECT_TRUE(star_desc().params.empty());
  EXPECT_NO_THROW(expect_star_desc(star_desc()));
  EXPECT_THROW(expect_star_desc(six_desc(9)), std::invalid_argument);
  EXPECT_THROW(fast_params_of(star_desc()), std::invalid_argument);
}

TEST(Artifact, WellmixedArtifactRoundTripsAndValidates) {
  const beauquier_protocol proto(500);
  const std::uint64_t n = 500;
  const auto initial = initial_multiset(proto, n);
  const sweep_artifact a =
      make_wellmixed_artifact(proto, initial, n, "clique", six_desc(500));
  ASSERT_TRUE(a.wellmixed.has_value());
  EXPECT_EQ(a.wellmixed->population, n);
  // Six states, all candidates with a black token initially: one class.
  EXPECT_EQ(a.wellmixed->classes.size(), 1u);
  EXPECT_TRUE(a.table.has_value());  // |Λ| = 6 closes easily

  const auto bytes = artifact_bytes(a);
  const sweep_artifact b = artifact_from_bytes(bytes);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(bytes, artifact_bytes(b));
  EXPECT_NO_THROW(validate_wellmixed_artifact(b, proto, initial));

  // A different population diverges loudly.
  const auto other = initial_multiset(proto, n - 1);
  EXPECT_THROW(validate_wellmixed_artifact(b, proto, other), std::invalid_argument);
}

// prepare_sweep is the one rebuild behind popsim --worker, --load-artifact
// and popsimd: its trials are the producer's trials, and its facts are the
// producer's layout.
TEST(Artifact, PrepareSweepRebuildsTheProducersSweep) {
  const tuned_fixture fx({.order = vertex_order::rcm});
  const prepared_sweep sweep = prepare_sweep(fx.artifact());
  ASSERT_NE(sweep.g, nullptr);
  EXPECT_EQ(sweep.g->num_edges(), fx.g.num_edges());
  EXPECT_EQ(sweep.population, 200u);
  EXPECT_EQ(sweep.order, vertex_order::rcm);
  EXPECT_EQ(sweep.pack_bits, fx.runner.pack_bits());
  EXPECT_TRUE(sweep.packed);
  EXPECT_TRUE(sweep.snapshot() == fx.artifact());
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const election_result want = fx.runner.run(rng(seed));
    obs::run_probe probe;
    for (const election_result& got :
         {sweep.run(rng(seed), {}, nullptr), sweep.run(rng(seed), {}, &probe)}) {
      EXPECT_EQ(got.steps, want.steps) << "seed " << seed;
      EXPECT_EQ(got.leader, want.leader) << "seed " << seed;
    }
  }

  // The six-state protocol on the tuned engine, run (as popsim runs it) on
  // the silent scheduler.
  const beauquier_protocol bq(fx.g.num_nodes());
  const tuned_runner<beauquier_protocol> bq_runner(bq, fx.g);
  const sweep_artifact six_tuned =
      make_tuned_artifact(bq_runner, fx.g, "cycle", six_desc(fx.g.num_nodes()));
  const prepared_sweep six_sweep = prepare_sweep(six_tuned);
  ASSERT_NE(six_sweep.g, nullptr);
  EXPECT_EQ(six_sweep.population, 200u);
  EXPECT_EQ(six_sweep.pack_bits, 8);
  EXPECT_TRUE(six_sweep.snapshot() == six_tuned);
  const sim_options silent{.scheduler = scheduler_kind::silent};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const election_result want = bq_runner.run(rng(seed), silent);
    const election_result got = six_sweep.run(rng(seed), silent, nullptr);
    EXPECT_TRUE(got.stabilized) << "seed " << seed;
    EXPECT_EQ(got.steps, want.steps) << "seed " << seed;
    EXPECT_EQ(got.leader, want.leader) << "seed " << seed;
  }

  const std::uint64_t n = 500;
  const beauquier_protocol six(500);
  const sweep_artifact wm =
      make_wellmixed_artifact(six, initial_multiset(six, n), n, "clique", six_desc(500));
  const prepared_sweep mixed = prepare_sweep(wm);
  EXPECT_EQ(mixed.g, nullptr);
  EXPECT_EQ(mixed.population, n);
  EXPECT_TRUE(mixed.snapshot() == wm);
  EXPECT_EQ(mixed.run(rng(4), {}, nullptr).steps,
            wellmixed_sweep<beauquier_protocol>(six, n).run(rng(4)).steps);
}

// popsimd accepts artifacts from any TCP peer, so every descriptor the
// engines cannot run and every missing section must throw
// std::invalid_argument out of prepare_sweep — never crash.
TEST(Artifact, PrepareSweepRejectsHostileArtifacts) {
  const tuned_fixture fx;
  const sweep_artifact tuned = fx.artifact();
  const beauquier_protocol six(500);
  const sweep_artifact wellmixed = make_wellmixed_artifact(
      six, initial_multiset(six, 500), 500, "clique", six_desc(500));

  sweep_artifact six_on_tuned = tuned;
  six_on_tuned.protocol = six_desc(200);
  // A genuine six artifact whose population is not the graph's node count,
  // once directly and once aliasing it modulo 2^32.
  const beauquier_protocol bq(fx.g.num_nodes());
  const sweep_artifact six_tuned = make_tuned_artifact(
      tuned_runner<beauquier_protocol>(bq, fx.g), fx.g, "cycle",
      six_desc(fx.g.num_nodes()));
  sweep_artifact six_wrong_population = six_tuned;
  six_wrong_population.protocol = six_desc(201);
  sweep_artifact six_aliased_population = six_tuned;
  six_aliased_population.protocol.params[0] += std::uint64_t{1} << 32;
  // A well-mixed six descriptor naming more agents than the multiset holds.
  sweep_artifact six_wellmixed_wrong_population = wellmixed;
  six_wellmixed_wrong_population.protocol = six_desc(501);
  sweep_artifact star_on_wellmixed = wellmixed;
  star_on_wellmixed.protocol = star_desc();
  sweep_artifact tuned_without_graph = tuned;
  tuned_without_graph.graph.reset();
  sweep_artifact wellmixed_without_multiset = wellmixed;
  wellmixed_without_multiset.wellmixed.reset();
  EXPECT_NO_THROW(prepare_sweep(six_tuned));
  for (const sweep_artifact* hostile : {&six_on_tuned, &six_wrong_population,
                                        &six_aliased_population,
                                        &six_wellmixed_wrong_population,
                                        &star_on_wellmixed,
                                        &tuned_without_graph,
                                        &wellmixed_without_multiset}) {
    EXPECT_THROW(prepare_sweep(*hostile), std::invalid_argument);
  }
}

TEST(Artifact, HostileElementCountsAreRejectedBeforeAllocating) {
  // Hand-craft a checksummed file whose META section claims 2^32-1 protocol
  // parameters but carries none: the parser must reject it as truncated
  // instead of reserving gigabytes on the attacker-controlled count.
  auto put32 = [](std::vector<std::uint8_t>& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  auto put64 = [](std::vector<std::uint8_t>& out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  std::vector<std::uint8_t> payload;
  put32(payload, 0x4154454D);  // 'META'
  put32(payload, 0);           // reserved
  put64(payload, 12);          // section length
  put32(payload, 0);           // empty family string
  put32(payload, 1);           // protocol kind = fast
  put32(payload, 0xFFFFFFFF);  // hostile parameter count, no bytes behind it

  std::vector<std::uint8_t> file;
  put32(file, kArtifactMagic);
  put32(file, kArtifactEndianTag);
  put32(file, kArtifactVersion);
  put32(file, 0);  // engine = tuned
  put32(file, 1);  // one section
  put32(file, 0);  // reserved
  put64(file, payload.size());
  put64(file, fnv1a64(payload.data(), payload.size()));
  file.insert(file.end(), payload.begin(), payload.end());
  EXPECT_THROW(artifact_from_bytes(file), std::invalid_argument);
}

TEST(Artifact, FnvVectors) {
  // Classic FNV-1a test vectors.
  EXPECT_EQ(fnv1a64(nullptr, 0), 0xcbf29ce484222325ull);
  const std::uint8_t a = 'a';
  EXPECT_EQ(fnv1a64(&a, 1), 0xaf63dc4c8601ec8cull);
}

}  // namespace
}  // namespace pp::fleet
