// The batched simulation engine: compiled transition tables + a branch-free
// scheduler fast path.
//
// `run_until_stable_fast` computes exactly the same election_result as the
// reference run_until_stable (same seed ⇒ same steps, leader, stabilized and
// census — tested step-for-step in tests/test_engine.cpp) but executes each
// scheduler step as:
//   * one buffered Lemire draw in [0, 2m) (block_rng — no call, no modulo);
//   * one endpoint-pair load, prefetched a batch-lag ahead together with the
//     two config words it names;
//   * one compiled-table load and two config stores;
//   * a few integer adds onto the census totals and the stability predicate,
//     both skipped entirely on zero-delta steps (the predicate cannot flip
//     when the totals do not move).
// The reference path instead pays two non-inlined calls (scheduler + rng), a
// 64-bit modulo, the full protocol transition logic and four tracker updates
// per step; bench/engine.cpp measures the resulting speedup (≥5× on the
// fast protocol across clique / ring / dense-random graphs).
//
// There is one batched step loop (detail::step_batches, run to max_steps by
// detail::step_loop) over one per-run election state
// (detail::election_run); run_compiled and run_packed differ only in the
// layout they hand it (src/engine/README.md documents both):
//   * run_compiled — the lazy layout: u32 config words, a lazily filled
//     compiled_protocol table and the doubled edge_endpoints array (the
//     draw's orientation is part of the index);
//   * run_packed (+ tuned_runner) — the packed layout, built around cache
//     locality (bench/locality.cpp measures the effect): config words packed
//     to the narrowest width holding |Λ| (u8/u16/u32) with correspondingly
//     packed 4/8/12-byte entries of a closed packed_table, and a
//     single-orientation endpoint array (half the memory of the doubled one;
//     the draw's orientation bit becomes two conditional moves), optionally
//     under BFS/RCM vertex reordering (graph/reorder.h) so the two config
//     touches of mesh-like families land on nearby cache lines.
// At equal (seed, graph, natural order) a packed run is bit-identical to
// run_compiled at every width — tests/test_engine_packed.cpp pins u8/u16/u32
// against the reference.  Reordered runs execute the identical process on an
// isomorphic graph (initial states and the reported leader ride the
// permutation), so they agree statistically — the wellmixed 3σ contract —
// but not per seed.  The silent scheduler (silent/silent.h) drives the same
// election state: through step_batches while most edges are active, and by
// jumping over the silent runs of its active edge set while the
// configuration is quiet.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/simulator.h"
#include "engine/block_rng.h"
#include "engine/census.h"
#include "engine/compiled_protocol.h"
#include "engine/edgecensus/census.h"
#include "engine/edgecensus/edgecensus.h"
#include "graph/graph.h"
#include "graph/reorder.h"
#include "obs/probe.h"
#include "sched/scheduler.h"
#include "support/expects.h"

namespace pp {

// The doubled edge list as one flat array of ordered pairs: index k < m is
// edge k in its stored orientation, k in [m, 2m) is edge k - m flipped.  A
// scheduler draw in [0, 2m) maps straight to pairs[k] — the same
// pick-to-interaction mapping as edge_scheduler::next, made branch-free (no
// modulo, no orientation flip) and one cache line per step instead of two.
struct edge_endpoints {
  explicit edge_endpoints(const graph& g);

  std::vector<interaction> pairs;  // size 2m
  std::uint64_t doubled() const { return static_cast<std::uint64_t>(pairs.size()); }
};

// Smallest-id node with leader output in `config` — original ids when
// `old_of_new` is given (reordered runs), run-graph ids otherwise.  At u8
// word width with exactly one leader-role state id and no map, the scan is a
// memchr for that byte — first occurrence == smallest node id with leader
// output, so the result is identical to the generic loop.  This matters for
// one-interaction elections (star graphs), where the O(n) epilogue scan,
// not the run, dominates a trial.
template <typename W, compilable_protocol P>
node_id elected_leader(const std::vector<W>& config,
                       const compiled_protocol<P>& compiled,
                       const std::vector<node_id>* old_of_new) {
  if constexpr (std::is_same_v<W, std::uint8_t>) {
    if (old_of_new == nullptr) {
      int leader_states = 0;
      std::uint8_t leader_id = 0;
      const auto k = static_cast<std::uint32_t>(compiled.num_states());
      for (std::uint32_t id = 0; id < k; ++id) {
        if (compiled.output(id) == role::leader) {
          ++leader_states;
          leader_id = static_cast<std::uint8_t>(id);
        }
      }
      if (leader_states == 0) return -1;
      if (leader_states == 1) {
        const void* hit = std::memchr(config.data(), leader_id, config.size());
        if (hit == nullptr) return -1;
        return static_cast<node_id>(static_cast<const std::uint8_t*>(hit) -
                                    config.data());
      }
    }
  }
  node_id leader = -1;
  for (std::size_t v = 0; v < config.size(); ++v) {
    if (compiled.output(config[v]) != role::leader) continue;
    if (old_of_new == nullptr) return static_cast<node_id>(v);
    const node_id original = (*old_of_new)[v];
    if (leader < 0 || original < leader) leader = original;
  }
  return leader;
}

// Single-orientation endpoint array at node word width N (u16 when n fits,
// u32 otherwise).  Each edge is stored once in its canonical u < v
// orientation; the packed layout folds the orientation half of the scheduler
// draw k ∈ [0, 2m) into two conditional moves (k >= m swaps the endpoints),
// which halves the randomly-accessed endpoint working set relative to
// edge_endpoints' doubled array — the dominant term on sparse graphs, where
// the pair array is 4×–8× the config array.
template <typename N>
struct packed_endpoints {
  struct pair_type {
    N a;
    N b;
  };

  explicit packed_endpoints(const graph& g) {
    expects(g.num_edges() >= 1,
            "packed_endpoints: graph must have at least one edge");
    expects(static_cast<std::uint64_t>(g.num_nodes() - 1) <=
                static_cast<std::uint64_t>(std::numeric_limits<N>::max()),
            "packed_endpoints: node ids do not fit the word width");
    pairs.reserve(static_cast<std::size_t>(g.num_edges()));
    for (const edge& e : g.edges()) {
      pairs.push_back({static_cast<N>(e.u), static_cast<N>(e.v)});
    }
  }

  std::vector<pair_type> pairs;  // size m, stored (u < v) orientation
  std::size_t bytes() const { return pairs.size() * sizeof(pair_type); }
};

// The initial state of a run at config word width W: the initial config, the
// census totals it implies and — for edge-census protocols — the initial
// edge-class census.  The initial configuration of a sweep is deterministic,
// so tuned_runner computes this once and every trial's setup collapses to a
// few memcpys instead of n intern lookups plus an O(m) pair recount — the
// term that dominates one-interaction elections like star-on-star
// (bench/star.cpp).
template <typename W>
struct packed_start {
  std::vector<W> config;
  std::array<std::int64_t, kMaxCensusCounters> totals{};
  edge_class_census ecensus;  // empty for counter-shaped protocols
};

// Builds the initial state a run on (compiled, g, old_of_new) starts from;
// node v starts in initial_state(old_of_new[v]) (v itself without a map).
// `id_of` maps a state to its table id — compiled.intern on a lazy table,
// compiled.id_of on a prepared one (make_packed_start below).
template <typename W, compilable_protocol P, typename IdOf>
packed_start<W> make_start(const compiled_protocol<P>& compiled,
                           const graph& g,
                           const std::vector<node_id>* old_of_new,
                           IdOf&& id_of) {
  using traits = census_model_t<P>;
  const P& proto = compiled.protocol();
  const node_id n = g.num_nodes();
  packed_start<W> s;
  s.config.resize(static_cast<std::size_t>(n));
  for (node_id v = 0; v < n; ++v) {
    const node_id src = old_of_new ? (*old_of_new)[static_cast<std::size_t>(v)] : v;
    const auto id = id_of(proto.initial_state(src));
    s.config[static_cast<std::size_t>(v)] = static_cast<W>(id);
    const auto& c = compiled.contribution(id);
    for (int i = 0; i < traits::kCounters; ++i) {
      s.totals[static_cast<std::size_t>(i)] += c[static_cast<std::size_t>(i)];
    }
  }
  if constexpr (edge_census_protocol<P>) {
    std::vector<std::uint8_t> cls(s.config.size());
    for (std::size_t v = 0; v < cls.size(); ++v) {
      cls[v] = compiled.state_class(s.config[v]);
    }
    s.ecensus.reset(cls, g.edges());
  }
  return s;
}

// make_start on a prepared table: every initial state must be interned
// already, so the table is only read.
template <typename W, compilable_protocol P>
packed_start<W> make_packed_start(const compiled_protocol<P>& compiled,
                                  const graph& g,
                                  const std::vector<node_id>* old_of_new) {
  return make_start<W>(compiled, g, old_of_new,
                       [&](const auto& s) { return compiled.id_of(s); });
}

namespace detail {

// The per-run election state every engine loop drives: the W-word config,
// the census totals, the edge-class census over `Rows` adjacency, the
// state-census marks, the stability predicate, one interaction's apply and
// the result epilogue.  The step loop below and run_silent own only how the
// next interaction is chosen.
template <typename W, compilable_protocol P, typename Rows, typename Probe>
class election_run {
  using traits = census_model_t<P>;
  static constexpr bool kEdgeCensus = edge_census_protocol<P>;

 public:
  using probe_type = Probe;

  election_run(const compiled_protocol<P>& compiled, packed_start<W> start,
               const Rows* rows, const std::vector<node_id>* old_of_new,
               bool census, Probe* probe)
      : config(std::move(start.config)),
        probe(probe),
        compiled_(compiled),
        totals_(start.totals),
        ecensus_(std::move(start.ecensus)),
        rows_(rows),
        old_of_new_(old_of_new),
        census_(census),
        fills_at_start_(compiled.lazy_fills()) {
    if constexpr (Probe::enabled) {
      expects(probe != nullptr, "engine: enabled probe type needs a probe");
    }
    // With the census on, distinct states are a byte-mark per interned id:
    // every id ever written into `config` gets marked, which is exactly the
    // set the reference simulator's unordered_set accumulates.
    if (census_) {
      seen_.assign(compiled.num_states(), 0);
      for (const auto id : config) seen_[id] = 1;
    }
  }

  // The stability predicate over the current totals (and, for edge-census
  // protocols, the class-pair counters).
  bool stable() {
    if constexpr (Probe::enabled) probe->on_predicate_evals(1);
    if constexpr (kEdgeCensus) {
      return traits::stable(totals_.data(), ecensus_.pairs());
    } else {
      return traits::stable(totals_.data());
    }
  }

  // Applies transition `e` to the drawn pair (u, v), whose words were
  // (ca, cb): stores both words, marks new ids, moves the totals and
  // reclassifies flipped nodes.  Returns whether the predicate's inputs
  // moved — a step that changes neither the node totals nor any node's class
  // cannot move the pair counters either, so only then can stability flip.
  // Census marks fire only for ids that actually changed: an unchanged id
  // was marked when it was written into `config`.
  bool apply(std::size_t u, std::size_t v, W ca, W cb,
             const packed_entry<W>& e) {
    config[u] = e.a2;
    config[v] = e.b2;
    if (census_) {
      if (e.a2 != ca) mark(e.a2);
      if (e.b2 != cb) mark(e.b2);
    }
    bool moved = e.delta_nonzero();
    if constexpr (kEdgeCensus) {
      if (e.a2 != ca) {
        moved |= ecensus_.reclass(*rows_, u, compiled_.state_class(e.a2));
      }
      if (e.b2 != cb) {
        moved |= ecensus_.reclass(*rows_, v, compiled_.state_class(e.b2));
      }
    }
    if (e.delta_nonzero()) {
      for (int c = 0; c < traits::kCounters; ++c) {
        totals_[static_cast<std::size_t>(c)] += e.delta_of(c);
      }
    }
    return moved;
  }

  // Census sample after `steps` steps, when the probe wants one.
  void sample(std::uint64_t steps) {
    if constexpr (Probe::enabled) {
      if (probe->want_census(steps)) {
        probe->on_census(steps, totals_.data(), traits::kCounters);
      }
    }
  }

  // The result of a run that stopped after `steps` steps; the leader is only
  // reported for stabilized runs.
  election_result finish(std::uint64_t steps, bool stabilized) {
    election_result result;
    result.stabilized = stabilized;
    result.steps = steps;
    for (const auto s : seen_) result.distinct_states_used += s;
    if (stabilized) {
      result.leader = elected_leader(config, compiled_, old_of_new_);
    }
    if constexpr (Probe::enabled) {
      probe->on_table_fills(compiled_.lazy_fills() - fills_at_start_);
    }
    return result;
  }

  std::vector<W> config;
  [[maybe_unused]] Probe* probe;

 private:
  // A lazy table can intern ids past the marks' size mid-run; a closed one
  // never does.
  void mark(std::uint32_t id) {
    if (id >= seen_.size()) seen_.resize(compiled_.num_states(), 0);
    seen_[id] = 1;
  }

  const compiled_protocol<P>& compiled_;
  std::array<std::int64_t, kMaxCensusCounters> totals_;
  edge_class_census ecensus_;  // empty for counter-shaped protocols
  std::vector<std::uint8_t> seen_;
  const Rows* rows_;
  const std::vector<node_id>* old_of_new_;
  bool census_;
  std::uint64_t fills_at_start_;
};

// Endpoints of one scheduler draw.  A pair fetch answers at(k) with the
// oriented pair (u initiates) and ends(k) with the two endpoints in either
// order — enough for a prefetch hint, and free of the orientation branch.
struct drawn_pair {
  std::size_t u;
  std::size_t v;
};

// Pair fetch over the doubled edge_endpoints: draw k is pairs[k].
struct doubled_fetch {
  explicit doubled_fetch(const edge_endpoints& edges)
      : pairs(edges.pairs.data()), two_m(edges.doubled()) {}

  const interaction* line(std::uint64_t k) const { return pairs + k; }
  drawn_pair at(std::uint64_t k) const {
    return {static_cast<std::size_t>(pairs[k].initiator),
            static_cast<std::size_t>(pairs[k].responder)};
  }
  drawn_pair ends(std::uint64_t k) const { return at(k); }

  const interaction* pairs;
  std::uint64_t two_m;
};

// Pair fetch over packed_endpoints<N>: draw k < m is edge k as stored, k >= m
// is edge k - m flipped.
template <typename N>
struct packed_fetch {
  explicit packed_fetch(const packed_endpoints<N>& edges)
      : pairs(edges.pairs.data()),
        m(static_cast<std::uint64_t>(edges.pairs.size())),
        two_m(2 * m) {}

  const auto* line(std::uint64_t k) const { return pairs + (k >= m ? k - m : k); }
  drawn_pair at(std::uint64_t k) const {
    const bool flip = k >= m;
    const auto& pr = pairs[flip ? k - m : k];
    return {static_cast<std::size_t>(flip ? pr.b : pr.a),
            static_cast<std::size_t>(flip ? pr.a : pr.b)};
  }
  drawn_pair ends(std::uint64_t k) const {
    const auto& pr = *line(k);
    return {static_cast<std::size_t>(pr.a), static_cast<std::size_t>(pr.b)};
  }

  const typename packed_endpoints<N>::pair_type* pairs;
  std::uint64_t m;
  std::uint64_t two_m;
};

// What one step_batches call did: the step counter it stopped at, how many
// of its steps changed a config word (counted only when asked for), and
// whether it stopped because the run stabilized.
struct batches_result {
  std::uint64_t steps = 0;
  std::uint64_t changing = 0;
  bool stabilized = false;
};

// The batched step core, run on a layout: the pair fetch `pairs`
// (doubled_fetch or packed_fetch<N>), the table `lookup(a, b)` (a lazy
// compiled_protocol or a closed packed_table) and the word width W and
// adjacency rows the `run` state was built with.  `pairs` and `lookup` are
// taken by value: as the loop's own locals their pointers and bounds stay in
// registers instead of being reloaded after every (possibly aliasing) config
// store.  It continues a run at step `steps`, draws from the caller's
// `draw` stream and stops at the step counter `limit` — step_loop runs one
// call to max_steps, run_silent runs its dense windows through it.
// kCountChanging asks for the count of steps that changed a word; without
// it (and without an enabled probe) the count compiles away.
//
// Picks are generated a batch ahead of their use: the draw stream does not
// depend on the configuration, so it drives a two-level software-prefetch
// pipeline — the pair line is requested kPairAhead steps early; once it has
// (likely) arrived, kConfAhead steps out, it is loaded and the two config
// words it names are requested in turn.  Everything there is loads and
// hints, so the executed trajectory is untouched (prefetching a word that an
// intervening step overwrites is harmless: the real load sees the stored
// value).  The draw *order* is unchanged, so runs stay bit-identical to the
// reference simulator; a batch never runs past `limit`, and draws generated
// past the stabilizing step are simply discarded (the run is over).
//
// The limit is folded into the batch length, and the stability predicate is
// only re-evaluated after a step that moved its inputs
// (election_run::apply) — on zero-delta steps, the overwhelming majority on
// sparse-token protocols, neither the counter adds nor the predicate run.
// This is observationally identical to per-step checks (same stopping step,
// same marks), so seeded equivalence with the reference simulator holds.
//
// Always inlined into its callers (step_loop here, run_silent's out-of-line
// detail::dense_window), so the draw buffer and the loop's bounds stay in the
// caller's frame and registers (tools/check_inlining.py guards the draw's
// inlining in both).
template <bool kCountChanging, typename Run, typename Pairs, typename Lookup>
[[gnu::always_inline]] inline batches_result step_batches(
    Run& run, const Pairs pairs, const Lookup lookup, block_rng& draw,
    std::uint64_t steps, std::uint64_t limit) {
  using Probe = typename Run::probe_type;
  [[maybe_unused]] Probe* const probe = run.probe;
  const auto* const config = run.config.data();
  constexpr std::size_t kBatch = 256;
  constexpr std::size_t kPairAhead = 16;
  constexpr std::size_t kConfAhead = 8;
  std::uint64_t picks[kBatch];

  [[maybe_unused]] std::uint64_t changing = 0;
  while (!run.stable()) {
    if (steps >= limit) return {steps, changing, false};
    const std::uint64_t remaining = limit - steps;
    const std::size_t len =
        remaining < kBatch ? static_cast<std::size_t>(remaining) : kBatch;
    for (std::size_t i = 0; i < len; ++i) {
      picks[i] = draw.uniform_below(pairs.two_m);
    }
    if constexpr (Probe::enabled) probe->on_draws(len);
    // Step/changing counts accumulate in locals and flush once per batch: a
    // per-step read-modify-write through the probe pointer is measurable at
    // this loop's step rate, a register add is not (bench/obs.cpp gates the
    // enabled path at <= 10%).
    [[maybe_unused]] const std::uint64_t batch_base = steps;
    [[maybe_unused]] std::uint64_t batch_changing = 0;
    for (std::size_t i = 0; i < len; ++i) {
      if (i + kPairAhead < len) {
        __builtin_prefetch(pairs.line(picks[i + kPairAhead]), /*rw=*/0,
                           /*locality=*/1);
      }
      if (i + kConfAhead < len) {
        const drawn_pair next = pairs.ends(picks[i + kConfAhead]);
        __builtin_prefetch(&config[next.u], /*rw=*/1, /*locality=*/1);
        __builtin_prefetch(&config[next.v], /*rw=*/1, /*locality=*/1);
      }
      const drawn_pair p = pairs.at(picks[i]);
      const auto ca = config[p.u];
      const auto cb = config[p.v];
      const auto e = lookup(ca, cb);
      ++steps;
      if constexpr (kCountChanging || Probe::enabled) {
        batch_changing += (e.a2 != ca || e.b2 != cb) ? 1u : 0u;
      }
      if (run.apply(p.u, p.v, ca, cb, e) && run.stable()) break;
      // Sampled after the delta lands, so a sample at step s reports the
      // census *after* s steps; the stabilizing step breaks above and is
      // reported by the result instead.
      run.sample(steps);
    }
    if constexpr (Probe::enabled) {
      probe->on_steps(steps - batch_base, batch_changing);
    }
    if constexpr (kCountChanging) changing += batch_changing;
  }
  return {steps, changing, true};
}

// The step loop: one run from step 0 to max_steps through step_batches, on a
// block_rng over `gen`.
template <typename Run, typename Pairs, typename Lookup>
election_result step_loop(Run& run, const Pairs pairs, const Lookup lookup,
                          rng gen, std::uint64_t max_steps) {
  block_rng draw(gen);
  const batches_result r =
      step_batches<false>(run, pairs, lookup, draw, 0, max_steps);
  return run.finish(r.steps, r.stabilized);
}

// Checks the inputs run_packed and run_silent share and returns the run's
// start: a copy of `start`, or the identical one built locally without it.
template <typename W, typename N, compilable_protocol P>
packed_start<W> packed_run_start(const char* who,
                                 const compiled_protocol<P>& compiled,
                                 const packed_table<W, P>& table,
                                 const packed_endpoints<N>& edges,
                                 const graph& g,
                                 const std::vector<node_id>* old_of_new,
                                 const packed_csr<N>* adjacency,
                                 const packed_start<W>* start) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  const auto check = [who](bool ok, const char* what) {
    if (!ok) expects(false, std::string(who) + ": " + what);
  };
  check(edges.pairs.size() == static_cast<std::size_t>(g.num_edges()),
        "endpoint array does not match the graph");
  check(g.num_edges() >= 1, "graph must have at least one edge");
  check(table.num_states() == compiled.num_states(),
        "packed table does not match the compiled table");
  check(old_of_new == nullptr || old_of_new->size() == n,
        "node map does not match the graph");
  if constexpr (edge_census_protocol<P>) {
    check(adjacency != nullptr && adjacency->offsets.size() == n + 1,
          "edge-census protocols need the graph's CSR adjacency view");
  }
  if (start == nullptr) return make_packed_start<W>(compiled, g, old_of_new);
  check(start->config.size() == n,
        "shared initial state does not match the graph");
  return *start;
}

}  // namespace detail

// Runs one election on a lazy compiled table and the doubled endpoint array.
// `compiled` fills lazily during the run; if it is closed() the run never
// mutates it, so a single closed table (and one edge_endpoints) can be shared
// by concurrent trials of a parameter sweep.
//
// `old_of_new`, when given, maps the run's node ids back to the caller's
// (pre-relabelling) ids: node v starts in initial_state(old_of_new[v]) and
// the reported leader is the smallest *original* id with leader output, so a
// run on a relabelled graph is the exact original process under an
// isomorphism.  nullptr (the default) leaves behaviour — and the bit-identity
// with the reference simulator — untouched.
//
// `probe` (obs/probe.h) collects phase telemetry when Probe::enabled; with
// the default null_probe every hook is an `if constexpr` dead branch, so the
// instrumented loop compiles to the uninstrumented one.  Probes only read
// the run — they never alter the draw stream, the stopping step or the
// result (the zero-cost/determinism contract bench/obs.cpp and
// tests/test_obs.cpp enforce).
template <compilable_protocol P, typename Probe = obs::null_probe>
election_result run_compiled(compiled_protocol<P>& compiled,
                             const edge_endpoints& edges, const graph& g,
                             rng gen, const sim_options& options = {},
                             const std::vector<node_id>* old_of_new = nullptr,
                             Probe* probe = nullptr) {
  expects(edges.doubled() == 2 * static_cast<std::uint64_t>(g.num_edges()),
          "run_compiled: endpoint arrays do not match the graph");
  expects(g.num_edges() >= 1, "run_compiled: graph must have at least one edge");
  expects(old_of_new == nullptr ||
              old_of_new->size() == static_cast<std::size_t>(g.num_nodes()),
          "run_compiled: node map does not match the graph");
  const graph_rows rows{&g};
  detail::election_run<std::uint32_t, P, graph_rows, Probe> run(
      compiled,
      make_start<std::uint32_t>(
          compiled, g, old_of_new,
          [&](const auto& s) { return compiled.intern(s); }),
      &rows, old_of_new, options.state_census, probe);
  return detail::step_loop(
      run, detail::doubled_fetch(edges),
      [&](std::uint32_t a, std::uint32_t b) { return compiled.transition(a, b); },
      gen, options.max_steps);
}

// Drop-in fast replacement for run_until_stable on compilable protocols:
// compiles the protocol lazily and runs one election.  Same result as the
// reference simulator for the same seed.
template <compilable_protocol P>
election_result run_until_stable_fast(const P& proto, const graph& g, rng gen,
                                      const sim_options& options = {}) {
  compiled_protocol<P> compiled(proto);
  const edge_endpoints edges(g);
  return run_compiled(compiled, edges, g, gen, options);
}

// run_packed: the step loop over a width-packed closed table, packed endpoint
// array and W-word config.  For the same (seed, graph, nullptr map) it is
// bit-identical to run_compiled at every width: the draw stream, the
// pick-to-interaction mapping, the census marks and the stability predicate
// are all unchanged — only the bytes per touch shrink.  Requires the closed
// table the packed_table snapshot was taken from.
//
// Edge-census protocols additionally need `adjacency` — the packed CSR view
// their class-flip walks load (edgecensus/edgecensus.h).  `start`, when
// given, replaces the per-trial initial-state computation with copies of the
// precomputed values (identical by construction, so bit-identity holds
// either way).
template <typename W, typename N, compilable_protocol P,
          typename Probe = obs::null_probe>
election_result run_packed(const compiled_protocol<P>& compiled,
                           const packed_table<W, P>& table,
                           const packed_endpoints<N>& edges, const graph& g,
                           rng gen, const sim_options& options = {},
                           const std::vector<node_id>* old_of_new = nullptr,
                           const packed_csr<N>* adjacency = nullptr,
                           const packed_start<W>* start = nullptr,
                           Probe* probe = nullptr) {
  detail::election_run<W, P, packed_csr<N>, Probe> run(
      compiled,
      detail::packed_run_start("run_packed", compiled, table, edges, g,
                               old_of_new, adjacency, start),
      adjacency, old_of_new, options.state_census, probe);
  return detail::step_loop(
      run, detail::packed_fetch<N>(edges),
      [&](W a, W b) { return table.at(a, b); }, gen, options.max_steps);
}

}  // namespace pp

// The adaptive silent scheduler (run_silent + silent_index) builds on the
// packed views and the step core defined above; tuned_runner below dispatches
// into it when sim_options::scheduler == scheduler_kind::silent.
#include "engine/silent/silent.h"  // NOLINT(build/include_order)

namespace pp {

// States the reachable closure may intern before tuned/sweep runners fall
// back to per-trial lazy u32 tables (a closed table of k states is k²
// entries; 2048² packed u16 entries are ~34 MB).
inline constexpr std::size_t kEngineClosureBudget = 2048;

// Data-layout knobs for tuned_runner.
struct engine_tuning {
  // Vertex relabelling applied to the graph before the run (graph/reorder.h).
  // natural preserves per-seed bit-identity with the reference simulator;
  // bfs/rcm trade it for 3σ statistical agreement.
  vertex_order order = vertex_order::natural;
  // Config word width: 0 picks the narrowest width that holds |Λ| (and, for
  // u8, whose census deltas fit the nibble encoding); 8/16/32 force a width
  // and fail loudly if the closed table does not fit it.
  int pack_bits = 0;
};

// tuned_runner resolves the engine data layout once — vertex order, config
// word width, endpoint node width — and then serves any number of runs
// through the branch-free loop instantiated for that layout.  Construction
// does all the heavy setup (reorder + relabel, reachability closure, packed
// table + endpoint snapshots); run() only dispatches on the stored widths,
// so trials of a sweep share every byte of read-only state.  If the
// reachable space exceeds the closure budget the runner degrades to the lazy
// u32 path (packed widths need a closed table) with per-run tables,
// preserving the measure_election_fast fallback semantics.
template <compilable_protocol P>
class tuned_runner {
 public:
  tuned_runner(const P& proto, const graph& g, const engine_tuning& tuning = {},
               std::size_t closure_budget = kEngineClosureBudget)
      : proto_(&proto), tuning_(tuning), original_(&g), compiled_(proto) {
    expects(tuning.pack_bits == 0 || tuning.pack_bits == 8 ||
                tuning.pack_bits == 16 || tuning.pack_bits == 32,
            "tuned_runner: pack_bits must be 0 (auto), 8, 16 or 32");
    if (tuning_.order != vertex_order::natural) {
      const auto perm = order_permutation(g, tuning_.order);
      relabeled_ = g.relabel(perm);
      old_of_new_ = invert_permutation(perm);
    }
    for (node_id v = 0; v < g.num_nodes(); ++v) {
      compiled_.intern(proto.initial_state(v));
    }
    closed_ = compiled_.close(closure_budget);
    if (!closed_) {
      expects(tuning_.pack_bits == 0 || tuning_.pack_bits == 32,
              "tuned_runner: packed widths need a closed table (reachable "
              "space exceeded the closure budget)");
      pack_bits_ = 32;
      // The failed closure left a partially-grown table (tens of MB at the
      // default budget) that run() never reads — every fallback run compiles
      // its own lazy table.  Record its footprint for the accounting, then
      // release it for the runner's lifetime.
      fallback_table_bytes_ = compiled_.table_bytes();
      compiled_ = compiled_protocol<P>(proto);
      fallback_edges_.emplace(run_graph());
      return;
    }
    const std::size_t k = compiled_.num_states();
    if (tuning_.pack_bits == 0) {
      pack_bits_ = (k <= 256 && compiled_.deltas_fit_nibble()) ? 8
                   : k <= 65536                                ? 16
                                                               : 32;
    } else {
      pack_bits_ = tuning_.pack_bits;
    }
    if (static_cast<std::uint64_t>(run_graph().num_nodes()) <= 65536) {
      pairs_.template emplace<packed_endpoints<std::uint16_t>>(run_graph());
      if constexpr (edge_census_protocol<P>) {
        csr_.template emplace<packed_csr<std::uint16_t>>(run_graph());
      }
    } else {
      pairs_.template emplace<packed_endpoints<std::uint32_t>>(run_graph());
      if constexpr (edge_census_protocol<P>) {
        csr_.template emplace<packed_csr<std::uint32_t>>(run_graph());
      }
    }
    switch (pack_bits_) {
      case 8:
        table_.template emplace<packed_table<std::uint8_t, P>>(compiled_);
        build_start<std::uint8_t>();
        break;
      case 16:
        table_.template emplace<packed_table<std::uint16_t, P>>(compiled_);
        build_start<std::uint16_t>();
        break;
      default:
        table_.template emplace<packed_table<std::uint32_t, P>>(compiled_);
        build_start<std::uint32_t>();
        break;
    }
  }

  // One election through the resolved layout.  Thread-safe for concurrent
  // calls: packed state is read-only, and the lazy fallback compiles a local
  // table per call.
  election_result run(rng gen, const sim_options& options = {}) const {
    return run(gen, options, static_cast<obs::null_probe*>(nullptr));
  }

  // Probed variant: same dispatch, same trajectory (the probe only reads).
  template <typename Probe>
  election_result run(rng gen, const sim_options& options, Probe* probe) const {
    const auto* map = old_of_new_.empty() ? nullptr : &old_of_new_;
    if (!closed_) {
      expects(options.scheduler != scheduler_kind::silent,
              "tuned_runner: the silent scheduler needs a closed table "
              "(reachable space exceeded the closure budget)");
      compiled_protocol<P> local(*proto_);
      return run_compiled(local, *fallback_edges_, run_graph(), gen, options,
                          map, probe);
    }
    switch (pack_bits_) {
      case 8: return run_width<std::uint8_t>(gen, options, map, probe);
      case 16: return run_width<std::uint16_t>(gen, options, map, probe);
      default: return run_width<std::uint32_t>(gen, options, map, probe);
    }
  }

  // The graph the hot loop actually runs on (relabelled unless natural).
  const graph& run_graph() const {
    return old_of_new_.empty() ? *original_ : relabeled_;
  }

  vertex_order order() const { return tuning_.order; }
  // Resolved config word width (8/16/32; 32 on the lazy fallback).
  int pack_bits() const { return pack_bits_; }
  // False iff the closure budget was exceeded and runs use lazy u32 tables.
  bool packed() const { return closed_; }
  // The shared closed table; empty on the lazy fallback (each run owns one).
  const compiled_protocol<P>& compiled() const { return compiled_; }
  // Maps run-graph node ids back to original ids; empty for natural order.
  const std::vector<node_id>& old_of_new() const { return old_of_new_; }

  // Resident bytes of the hot loop: config array + transition table +
  // endpoint pairs (the quantities bench/locality.cpp attributes wins to).
  std::size_t working_set_bytes() const {
    const auto n = static_cast<std::size_t>(run_graph().num_nodes());
    std::size_t total = n * static_cast<std::size_t>(pack_bits_ / 8);
    if (!closed_) {
      total += fallback_table_bytes_;
      total += fallback_edges_->pairs.size() * sizeof(interaction);
      return total;
    }
    std::visit(
        [&](const auto& t) {
          if constexpr (!std::is_same_v<std::decay_t<decltype(t)>, std::monostate>) {
            total += t.bytes();
          }
        },
        table_);
    std::visit(
        [&](const auto& e) {
          if constexpr (!std::is_same_v<std::decay_t<decltype(e)>, std::monostate>) {
            total += e.bytes();
          }
        },
        pairs_);
    std::visit(
        [&](const auto& c) {
          if constexpr (!std::is_same_v<std::decay_t<decltype(c)>, std::monostate>) {
            total += c.bytes();
          }
        },
        csr_);
    // Edge-census runs also touch the class byte per node on flip walks.
    if constexpr (edge_census_protocol<P>) {
      total += static_cast<std::size_t>(run_graph().num_nodes());
    }
    return total;
  }

  // Bytes one scheduler step touches: one endpoint pair, one table entry and
  // two config words (each word's load and store hit the same line).
  std::size_t bytes_per_step() const {
    const std::size_t word = static_cast<std::size_t>(pack_bits_ / 8);
    std::size_t pair_bytes = sizeof(interaction);
    std::size_t entry_bytes = sizeof(typename compiled_protocol<P>::entry);
    if (closed_) {
      // Inspect the stored variant rather than re-deriving the constructor's
      // width threshold, so the accounting tracks the layout actually run.
      pair_bytes = std::holds_alternative<packed_endpoints<std::uint16_t>>(pairs_)
                       ? sizeof(typename packed_endpoints<std::uint16_t>::pair_type)
                       : sizeof(typename packed_endpoints<std::uint32_t>::pair_type);
      entry_bytes = pack_bits_ == 8    ? sizeof(packed_entry<std::uint8_t>)
                    : pack_bits_ == 16 ? sizeof(packed_entry<std::uint16_t>)
                                       : sizeof(packed_entry<std::uint32_t>);
    }
    return pair_bytes + entry_bytes + 2 * word;
  }

 private:
  // Precomputes the sweep's shared initial state (config, totals, edge-class
  // census) for the resolved width; run() hands it to every trial.
  template <typename W>
  void build_start() {
    start_ = make_packed_start<W>(
        compiled_, run_graph(), old_of_new_.empty() ? nullptr : &old_of_new_);
  }

  template <typename W, typename Probe>
  election_result run_width(rng gen, const sim_options& options,
                            const std::vector<node_id>* map,
                            Probe* probe) const {
    return std::holds_alternative<packed_endpoints<std::uint16_t>>(pairs_)
               ? run_nodes<W, std::uint16_t>(gen, options, map, probe)
               : run_nodes<W, std::uint32_t>(gen, options, map, probe);
  }

  template <typename W, typename N, typename Probe>
  election_result run_nodes(rng gen, const sim_options& options,
                            const std::vector<node_id>* map,
                            Probe* probe) const {
    const auto& table = std::get<packed_table<W, P>>(table_);
    const auto& edges = std::get<packed_endpoints<N>>(pairs_);
    const auto& start = std::get<packed_start<W>>(start_);
    // get_if yields nullptr while csr_ holds monostate — exactly the
    // counter-shaped protocols, for which the loops ignore the view.
    const auto* csr = std::get_if<packed_csr<N>>(&csr_);
    if (options.scheduler == scheduler_kind::silent) {
      return run_silent(compiled_, table, edges, index(), run_graph(), gen,
                        options, map, csr, &start, probe);
    }
    return run_packed(compiled_, table, edges, run_graph(), gen, options, map,
                      csr, &start, probe);
  }

  // The silent scheduler's index (incidence rows + pair activity bits),
  // built on first use — so the build stays out of the runner's setup — and
  // then shared read-only across trials.  std::call_once makes the lazy
  // build safe for run()'s concurrent-trial contract (the TSan CI job
  // covers this path).
  const silent_index& index() const {
    std::call_once(index_once_, [this] {
      std::visit(
          [this](const auto& t) {
            if constexpr (!std::is_same_v<std::decay_t<decltype(t)>,
                                          std::monostate>) {
              silent_index_.emplace(run_graph(), t);
            }
          },
          table_);
    });
    return *silent_index_;
  }

  const P* proto_;
  engine_tuning tuning_;
  const graph* original_;
  graph relabeled_;                 // only filled when order != natural
  std::vector<node_id> old_of_new_;  // empty for natural order
  compiled_protocol<P> compiled_;
  bool closed_ = false;
  int pack_bits_ = 32;
  std::variant<std::monostate, packed_table<std::uint8_t, P>,
               packed_table<std::uint16_t, P>, packed_table<std::uint32_t, P>>
      table_;
  std::variant<std::monostate, packed_endpoints<std::uint16_t>,
               packed_endpoints<std::uint32_t>>
      pairs_;
  // CSR adjacency for edge-census class walks (monostate otherwise).
  std::variant<std::monostate, packed_csr<std::uint16_t>,
               packed_csr<std::uint32_t>>
      csr_;
  // Shared initial state at the resolved width (monostate on the fallback).
  std::variant<std::monostate, packed_start<std::uint8_t>,
               packed_start<std::uint16_t>, packed_start<std::uint32_t>>
      start_;
  std::optional<edge_endpoints> fallback_edges_;  // lazy fallback only
  std::size_t fallback_table_bytes_ = 0;          // released table's footprint
  // Lazily built silent-scheduler index (mutable: run() is const and
  // thread-safe; call_once guards the build).
  mutable std::once_flag index_once_;
  mutable std::optional<silent_index> silent_index_;
};

}  // namespace pp
