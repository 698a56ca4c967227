// Serializable protocol artefacts: the closed, immutable objects of a sweep
// — a closed compiled_protocol table, its packed_table snapshot, the graph
// (with its reorder permutation) and the well-mixed initial multiset — in a
// versioned, endianness-tagged, checksummed binary container, so worker
// processes (and, later, other hosts) can share one prepared sweep instead
// of each re-deriving it.
//
// Container layout (all integers native-endian; the header's endianness tag
// makes a foreign-endian reader fail loudly instead of mis-reading):
//
//   offset  size  field
//   0       4     magic ("PPAF" on little-endian disks)
//   4       4     endianness tag 0x01020304
//   8       4     format version (kArtifactVersion)
//   12      4     engine (artifact_engine)
//   16      4     section count
//   20      4     reserved (0)
//   24      8     payload length in bytes
//   32      8     FNV-1a 64 checksum of the payload
//   40      ...   sections: {tag u32, reserved u32, length u64, bytes}
//
// Versioning policy: any change to the header or a section layout bumps
// kArtifactVersion; loaders accept the versions whose layout they can parse
// exactly (currently {1, 2} — v2 only *added* the optional EDGE section) and
// reject everything else (artifacts are cheap to regenerate — the closed
// table is O(|Λ|²) — so there is no migration machinery).
//
// Load semantics: load_artifact only parses and checksums.  prepare_sweep
// (below) then *rebuilds* the protocol, graph and compiled table from the
// artifact's protocol descriptor — the closure is deterministic — and
// validates its rebuild byte-for-byte against the stored sections
// (validate_tuned_artifact / validate_wellmixed_artifact).  It is the one
// rebuild every consumer shares: popsim --worker, popsim --load-artifact and
// the popsimd daemon.  A consumer whose binary compiles a different table
// than the artifact's producer fails loudly instead of silently computing a
// different sweep; this is the version-skew gate of the fleet protocol
// (src/fleet/README.md).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/beauquier.h"
#include "core/fast_election.h"
#include "engine/compiled_protocol.h"
#include "engine/engine.h"
#include "engine/wellmixed/wellmixed.h"
#include "graph/graph.h"
#include "graph/reorder.h"
#include "obs/probe.h"
#include "support/expects.h"

namespace pp::fleet {

inline constexpr std::uint32_t kArtifactMagic = 0x46415050;  // "PPAF"
inline constexpr std::uint32_t kArtifactEndianTag = 0x01020304;
// Version 2 added the EDGE section (per-state edge classes) and the star
// protocol kind; version-1 readers reject such artifacts loudly.  Because
// nothing in the v1 layout changed, this build still reads v1 files
// (load accepts {1, 2}, save always writes 2).
inline constexpr std::uint32_t kArtifactVersion = 2;

// Which engine the artifact's sweep runs on.
enum class artifact_engine : std::uint32_t { tuned = 0, wellmixed = 1 };

// Protocols an artifact can describe.  The descriptor stores the *resolved*
// construction parameters (e.g. the fast protocol's h/L/α·L, which normally
// come from a seeded broadcast-time estimate), so every worker reconstructs
// exactly the producer's protocol object without re-estimating anything.
enum class protocol_kind : std::uint32_t { fast = 1, six = 2, star = 3 };

struct protocol_desc {
  protocol_kind kind = protocol_kind::fast;
  std::vector<std::uint64_t> params;  // fast: {h, L, α·L}; six: {n}

  friend bool operator==(const protocol_desc&, const protocol_desc&) = default;
};

protocol_desc fast_desc(const fast_params& params);
fast_params fast_params_of(const protocol_desc& desc);
protocol_desc six_desc(node_id n);
node_id six_population_of(const protocol_desc& desc);
// star_protocol is parameter-free: the descriptor is {star, {}} and
// expect_star_desc only validates the shape (workers construct
// star_protocol{} directly).
protocol_desc star_desc();
void expect_star_desc(const protocol_desc& desc);

// Semantic snapshot of a closed compiled_protocol table over its dense ids:
// the per-state encode() codes (the cross-process state identity), output
// roles, census contributions and the full k×k transition matrix.
struct table_section {
  std::uint32_t counters = 0;
  std::vector<std::uint64_t> codes;  // encode(state) per dense id
  std::vector<std::uint8_t> roles;   // role per dense id
  std::vector<std::array<std::int8_t, kMaxCensusCounters>> contrib;
  struct entry {
    std::uint32_t a2 = 0;
    std::uint32_t b2 = 0;
    std::array<std::int8_t, kMaxCensusCounters> delta{};

    friend bool operator==(const entry&, const entry&) = default;
  };
  std::vector<entry> entries;  // k×k, row-major (a·k + b)

  friend bool operator==(const table_section&, const table_section&) = default;
};

// Raw bytes of a packed_table<W> snapshot at the resolved config word width
// (the exact entries run_packed's hot loop loads).
struct packed_section {
  std::uint32_t width_bits = 0;  // 8 / 16 / 32
  std::uint64_t num_states = 0;
  std::vector<std::uint8_t> bytes;  // num_states² packed entries

  friend bool operator==(const packed_section&, const packed_section&) = default;
};

// The sweep's graph in its *original* labelling plus the vertex order the
// tuned engine relabels it with; old_of_new is tuned_runner's inverse
// permutation (empty for natural order), stored so a worker can verify its
// recomputed reordering matches the producer's bit-for-bit.
struct graph_section {
  std::uint32_t num_nodes = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;  // u < v, sorted
  std::uint32_t order = 0;  // vertex_order
  std::vector<std::uint32_t> old_of_new;  // empty for natural order

  friend bool operator==(const graph_section&, const graph_section&) = default;
};

// Edge-census declaration of a tuned sweep (edge-census protocols only):
// the number of edge classes and each dense state id's class, i.e. exactly
// the table run_packed's class-flip walks load.  The CSR adjacency itself is
// derived deterministically from the GRPH section, so it is not stored.
struct edge_section {
  std::uint32_t num_classes = 0;
  std::vector<std::uint8_t> classes;  // class per dense state id

  friend bool operator==(const edge_section&, const edge_section&) = default;
};

// Well-mixed initial configuration as (encode(state), multiplicity) classes
// in interning order; multiplicities sum to the population size.
struct wellmixed_section {
  std::uint64_t population = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> classes;

  friend bool operator==(const wellmixed_section&, const wellmixed_section&) = default;
};

struct sweep_artifact {
  artifact_engine engine = artifact_engine::tuned;
  std::string family;  // display name of the graph family ("cycle", ...)
  protocol_desc protocol;
  std::uint32_t pack_bits = 0;  // resolved config word width (tuned engine)
  std::optional<graph_section> graph;         // tuned engine
  std::optional<table_section> table;         // closed tables only
  std::optional<packed_section> packed;       // tuned engine
  std::optional<edge_section> edge;           // edge-census protocols only
  std::optional<wellmixed_section> wellmixed;  // well-mixed engine

  friend bool operator==(const sweep_artifact&, const sweep_artifact&) = default;
};

// FNV-1a 64-bit hash (the header checksum).
std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t size);

// Serialization is deterministic: equal artifacts produce equal bytes, so
// save → load → save round-trips byte-identically (the CI round-trip gate).
std::vector<std::uint8_t> artifact_bytes(const sweep_artifact& artifact);
sweep_artifact artifact_from_bytes(const std::vector<std::uint8_t>& bytes);
void save_artifact(const sweep_artifact& artifact, const std::string& path);
sweep_artifact load_artifact(const std::string& path);

graph_section snapshot_graph(const graph& g, vertex_order order,
                             const std::vector<node_id>& old_of_new);
graph rebuild_graph(const graph_section& section);

// ---------------------------------------------------------------------------
// Snapshot / validate helpers over the compiled engine.  Snapshots require a
// closed table (an artifact of a lazily-filled table would depend on which
// pairs happened to occur); validators throw std::invalid_argument naming the
// first divergence.

template <compilable_protocol P>
table_section snapshot_table(const compiled_protocol<P>& compiled) {
  expects(compiled.closed(), "snapshot_table: artifacts hold closed tables only");
  using state_id = typename compiled_protocol<P>::state_id;
  const std::size_t k = compiled.num_states();
  table_section t;
  t.counters = static_cast<std::uint32_t>(compiled.kCounters);
  t.codes.reserve(k);
  t.roles.reserve(k);
  t.contrib.reserve(k);
  for (std::size_t id = 0; id < k; ++id) {
    const auto sid = static_cast<state_id>(id);
    t.codes.push_back(compiled.protocol().encode(compiled.decode(sid)));
    t.roles.push_back(static_cast<std::uint8_t>(compiled.output(sid)));
    t.contrib.push_back(compiled.contribution(sid));
  }
  t.entries.reserve(k * k);
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = 0; b < k; ++b) {
      const auto& e = compiled.closed_transition(static_cast<state_id>(a),
                                                 static_cast<state_id>(b));
      t.entries.push_back({e.a2, e.b2, e.delta});
    }
  }
  return t;
}

template <compilable_protocol P>
void validate_table(const table_section& section,
                    const compiled_protocol<P>& compiled) {
  expects(snapshot_table(compiled) == section,
          "artifact: this build's closed table diverges from the stored one "
          "(producer/worker version skew)");
}

template <compilable_protocol P>
packed_section snapshot_packed(const compiled_protocol<P>& compiled,
                               int pack_bits) {
  packed_section s;
  s.width_bits = static_cast<std::uint32_t>(pack_bits);
  s.num_states = compiled.num_states();
  const auto snap = [&]<typename W>() {
    const packed_table<W, P> table(compiled);
    const auto entries = table.entries();
    s.bytes.resize(entries.size_bytes());
    std::memcpy(s.bytes.data(), entries.data(), entries.size_bytes());
  };
  switch (pack_bits) {
    case 8: snap.template operator()<std::uint8_t>(); break;
    case 16: snap.template operator()<std::uint16_t>(); break;
    case 32: snap.template operator()<std::uint32_t>(); break;
    default:
      expects(false, "snapshot_packed: pack_bits must be 8, 16 or 32");
  }
  return s;
}

template <compilable_protocol P>
void validate_packed(const packed_section& section,
                     const compiled_protocol<P>& compiled) {
  expects(section.width_bits == 8 || section.width_bits == 16 ||
              section.width_bits == 32,
          "artifact: packed section has an invalid word width");
  expects(snapshot_packed(compiled, static_cast<int>(section.width_bits)) ==
              section,
          "artifact: this build's packed table diverges from the stored one");
}

template <edge_census_protocol P>
edge_section snapshot_edge(const compiled_protocol<P>& compiled) {
  expects(compiled.closed(), "snapshot_edge: artifacts hold closed tables only");
  edge_section s;
  s.num_classes = static_cast<std::uint32_t>(edge_census_traits<P>::kClasses);
  s.classes.reserve(compiled.num_states());
  using state_id = typename compiled_protocol<P>::state_id;
  for (std::size_t id = 0; id < compiled.num_states(); ++id) {
    s.classes.push_back(compiled.state_class(static_cast<state_id>(id)));
  }
  return s;
}

template <edge_census_protocol P>
void validate_edge(const edge_section& section,
                   const compiled_protocol<P>& compiled) {
  expects(snapshot_edge(compiled) == section,
          "artifact: this build's edge classes diverge from the stored ones "
          "(producer/worker version skew)");
}

template <node_census_protocol P>
wellmixed_section snapshot_wellmixed(const P& proto,
                                     const wellmixed_multiset<P>& initial,
                                     std::uint64_t n) {
  wellmixed_section s;
  s.population = n;
  std::uint64_t mass = 0;
  for (const auto& [state, count] : initial) {
    s.classes.emplace_back(proto.encode(state), count);
    mass += count;
  }
  expects(mass == n, "snapshot_wellmixed: multiplicities must sum to n");
  return s;
}

template <node_census_protocol P>
void validate_wellmixed(const wellmixed_section& section, const P& proto,
                        const wellmixed_multiset<P>& initial) {
  expects(snapshot_wellmixed(proto, initial, section.population) == section,
          "artifact: this build's initial multiset diverges from the stored "
          "one");
}

// ---------------------------------------------------------------------------
// Whole-sweep artifacts.

// Snapshot of a prepared tuned_runner (per-interaction engine).  Requires
// the reachable space to have closed — an artifact cannot pin a lazy table.
template <compilable_protocol P>
sweep_artifact make_tuned_artifact(const tuned_runner<P>& runner,
                                   const graph& original, std::string family,
                                   protocol_desc protocol) {
  expects(runner.packed(),
          "make_tuned_artifact: the reachable state space exceeded the "
          "closure budget; artifacts hold closed tables only");
  sweep_artifact a;
  a.engine = artifact_engine::tuned;
  a.family = std::move(family);
  a.protocol = std::move(protocol);
  a.pack_bits = static_cast<std::uint32_t>(runner.pack_bits());
  a.graph = snapshot_graph(original, runner.order(), runner.old_of_new());
  a.table = snapshot_table(runner.compiled());
  a.packed = snapshot_packed(runner.compiled(), runner.pack_bits());
  if constexpr (edge_census_protocol<P>) {
    a.edge = snapshot_edge(runner.compiled());
  }
  return a;
}

// The engine_tuning a worker rebuilds the runner with: the stored order plus
// the *resolved* width, forced so the rebuild cannot re-resolve differently.
engine_tuning tuning_of(const sweep_artifact& artifact);

// Validates a rebuilt runner against the artifact: same resolved layout,
// same reorder permutation, byte-identical closed and packed tables.
template <compilable_protocol P>
void validate_tuned_artifact(const sweep_artifact& artifact,
                             const tuned_runner<P>& runner) {
  expects(artifact.engine == artifact_engine::tuned &&
              artifact.graph.has_value() && artifact.table.has_value() &&
              artifact.packed.has_value(),
          "artifact: not a tuned-engine sweep artifact");
  expects(runner.packed(), "artifact: rebuilt runner fell back to a lazy table");
  expects(runner.pack_bits() == static_cast<int>(artifact.pack_bits),
          "artifact: rebuilt runner resolved a different config word width");
  expects(static_cast<std::uint32_t>(runner.order()) == artifact.graph->order,
          "artifact: rebuilt runner uses a different vertex order");
  const auto& map = runner.old_of_new();
  expects(map.size() == artifact.graph->old_of_new.size(),
          "artifact: reorder permutation size diverges from this build");
  for (std::size_t v = 0; v < map.size(); ++v) {
    expects(static_cast<std::uint32_t>(map[v]) == artifact.graph->old_of_new[v],
            "artifact: reorder permutation diverges from this build");
  }
  validate_table(*artifact.table, runner.compiled());
  validate_packed(*artifact.packed, runner.compiled());
  if constexpr (edge_census_protocol<P>) {
    expects(artifact.edge.has_value(),
            "artifact: edge-census protocol without an EDGE section");
    validate_edge(*artifact.edge, runner.compiled());
  } else {
    expects(!artifact.edge.has_value(),
            "artifact: EDGE section on a counter-shaped protocol");
  }
}

// Snapshot of a well-mixed sweep: the initial multiset plus — when the
// reachable space closes within the engine budget — the closed table, so
// workers can also gate their transition semantics.
template <node_census_protocol P>
sweep_artifact make_wellmixed_artifact(const P& proto,
                                       const wellmixed_multiset<P>& initial,
                                       std::uint64_t n, std::string family,
                                       protocol_desc protocol) {
  sweep_artifact a;
  a.engine = artifact_engine::wellmixed;
  a.family = std::move(family);
  a.protocol = std::move(protocol);
  a.wellmixed = snapshot_wellmixed(proto, initial, n);
  const wellmixed_sweep<P> sweep(proto, initial, n);
  if (sweep.shared()) a.table = snapshot_table(sweep.compiled());
  return a;
}

template <node_census_protocol P>
void validate_wellmixed_artifact(const sweep_artifact& artifact, const P& proto,
                                 const wellmixed_multiset<P>& initial) {
  expects(artifact.engine == artifact_engine::wellmixed &&
              artifact.wellmixed.has_value(),
          "artifact: not a well-mixed sweep artifact");
  validate_wellmixed(*artifact.wellmixed, proto, initial);
  if (artifact.table.has_value()) {
    const wellmixed_sweep<P> sweep(proto, initial, artifact.wellmixed->population);
    expects(sweep.shared(),
            "artifact: stored table is closed but this build's closure "
            "exceeded the budget");
    validate_table(*artifact.table, sweep.compiled());
  }
}

// ---------------------------------------------------------------------------
// Prepared sweeps: a sweep ready to run, its protocol type erased.

struct prepared_sweep {
  std::string family;      // display name of the graph family
  protocol_desc protocol;
  // Tuned engine: the graph in its original labelling.  Null on the
  // well-mixed engine, which has no graph object.
  std::shared_ptr<const graph> g;
  std::uint64_t population = 0;  // agents (the graph's nodes on the tuned engine)
  // The tuned engine's resolved layout.
  vertex_order order = vertex_order::natural;
  int pack_bits = 0;
  bool packed = false;  // false on the lazy-table fallback
  // One trial.  A null probe runs the engines' null_probe instantiation, so
  // an unobserved trial costs what a direct runner call does.
  std::function<election_result(rng, const sim_options&, obs::run_probe*)> run;
  // This sweep as an artifact (tuned sweeps need a closed table).
  std::function<sweep_artifact()> snapshot;
};

// Prepares a tuned sweep of `proto` on `g`, owning both for the runner that
// borrows them.  Throws std::invalid_argument when the tuning does not fit
// the state space (e.g. pack_bits 8 beyond 256 states), and — given
// `expected` — when the build diverges from that artifact.
template <compilable_protocol P>
prepared_sweep prepare_tuned(P proto, graph g, const engine_tuning& tuning,
                             std::string family, protocol_desc desc,
                             const sweep_artifact* expected = nullptr) {
  struct owned {
    owned(P p, graph original, const engine_tuning& t)
        : proto(std::move(p)), g(std::move(original)), runner(proto, g, t) {}
    P proto;
    graph g;
    tuned_runner<P> runner;
  };
  const std::shared_ptr<const owned> s =
      std::make_shared<owned>(std::move(proto), std::move(g), tuning);
  if (expected != nullptr) validate_tuned_artifact(*expected, s->runner);
  prepared_sweep p;
  p.family = family;
  p.protocol = desc;
  p.g = std::shared_ptr<const graph>(s, &s->g);
  p.population = static_cast<std::uint64_t>(s->g.num_nodes());
  p.order = s->runner.order();
  p.pack_bits = s->runner.pack_bits();
  p.packed = s->runner.packed();
  p.run = [s](rng gen, const sim_options& options, obs::run_probe* probe) {
    return probe != nullptr ? s->runner.run(gen, options, probe)
                            : s->runner.run(gen, options);
  };
  p.snapshot = [s, family = std::move(family), desc = std::move(desc)] {
    return make_tuned_artifact(s->runner, s->g, family, desc);
  };
  return p;
}

// Prepares a well-mixed sweep of `proto` on `n` agents, validated against
// `expected` when given.
template <node_census_protocol P>
prepared_sweep prepare_wellmixed(P proto, std::uint64_t n, std::string family,
                                 protocol_desc desc,
                                 const sweep_artifact* expected = nullptr) {
  struct owned {
    owned(P p, std::uint64_t agents) : proto(std::move(p)), sweep(proto, agents) {}
    P proto;
    wellmixed_sweep<P> sweep;
  };
  const std::shared_ptr<const owned> s =
      std::make_shared<owned>(std::move(proto), n);
  if (expected != nullptr) {
    validate_wellmixed_artifact(*expected, s->proto, s->sweep.initial());
  }
  prepared_sweep p;
  p.family = family;
  p.protocol = desc;
  p.population = n;
  p.run = [s](rng gen, const sim_options& options, obs::run_probe* probe) {
    return probe != nullptr ? s->sweep.run(gen, options, probe)
                            : s->sweep.run(gen, options);
  };
  p.snapshot = [s, family = std::move(family), desc = std::move(desc)] {
    return make_wellmixed_artifact(s->proto, s->sweep.initial(),
                                   s->sweep.population(), family, desc);
  };
  return p;
}

// The well-mixed instantiations are compiled once, in their own translation
// unit (prepare_wellmixed.cpp).  Instantiated next to the tuned ones, the
// multiset engine's bulk exhausts GCC's inline-unit-growth budget and the
// tuned step loop's per-step draw stops inlining (~15% per trial).
extern template prepared_sweep prepare_wellmixed<fast_protocol>(
    fast_protocol, std::uint64_t, std::string, protocol_desc,
    const sweep_artifact*);
extern template prepared_sweep prepare_wellmixed<beauquier_protocol>(
    beauquier_protocol, std::uint64_t, std::string, protocol_desc,
    const sweep_artifact*);

// The one artifact rebuild (defined in prepare.cpp): maps the descriptor to
// its protocol type (fast or star on the tuned engine, fast or six on the
// well-mixed engine), rebuilds the sweep and validates it against the
// artifact.  Throws std::invalid_argument on any missing section,
// unsupported protocol or divergence — popsimd feeds it artifacts from any
// TCP peer.
prepared_sweep prepare_sweep(const sweep_artifact& artifact);

}  // namespace pp::fleet
