// Event-driven silent-edge scheduler (the ROADMAP's "skip the quiet phase
// entirely" item; cost model and math in README.md next to this file).
//
// Late in an election almost every scheduler step is *silent*: the drawn
// oriented pair's transition changes neither endpoint.  run_packed's fast
// path makes those steps cheap (one draw, two loads) but still pays for each
// one; on the waiting phase (~2^h·L steps per agent) that is the entire wall
// clock.  run_silent instead maintains the set of active (non-silent)
// oriented pairs incrementally:
//
//   * a pair k ∈ [0, 2m) is active iff its transition would change a config
//     word; activity only depends on the two endpoint words, so it can only
//     change when one of them flips — an O(deg(u) + deg(v)) re-evaluation
//     walk over silent_adjacency per executed step;
//   * the step counter advances over silent runs by one geometric jump
//     (jump.h): with A active pairs of 2m, the silent run before the next
//     active step is Geometric(A/2m), and the active step itself is a
//     uniform draw from the active list;
//   * stability is re-checked exactly when the step loop would re-check it
//     — both apply steps through the same detail::election_run, which
//     reports a census delta or an edge-census class flip — silent steps
//     cannot move the predicate, so skipping them analytically leaves the
//     stopping rule's trigger set untouched.
//
// The executed process is distributed identically to run_packed's: the same
// per-configuration law for (next active pair, silent run length), hence the
// same distribution of (steps-to-stabilization, elected leader, census).
// Draw *consumption* differs (one uniform01 + one pick per active step
// instead of one pick per step), so equality is statistical — the 3σ
// contract of the wellmixed/RCM precedent (tests/test_silent.cpp,
// bench/silent.cpp) — not per-seed.
//
// If the active set empties while the predicate is false the configuration
// can never change again: the run jumps straight to max_steps and reports
// unstabilized, which is the reference engine's t → max_steps behaviour
// delivered in O(1).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "core/simulator.h"
#include "engine/block_rng.h"
#include "engine/census.h"
#include "engine/compiled_protocol.h"
#include "engine/edgecensus/census.h"
#include "engine/edgecensus/edgecensus.h"
#include "engine/silent/jump.h"
#include "graph/graph.h"
#include "obs/probe.h"
#include "support/expects.h"

// This header is included by engine/engine.h (after the packed_endpoints /
// packed_start / detail::election_run definitions it builds on, and before
// the tuned_runner that dispatches into it).  Include "engine/engine.h" to
// use run_silent.

namespace pp {

// Incidence view for the activity re-evaluation walks: for every node, the
// indices of its incident edges (row v lists each edge exactly once; both
// oriented pairs j and j + m of edge j are re-evaluated when either endpoint
// flips, so no orientation flag is stored).  Width-independent — neighbor
// ids come from the packed_endpoints array — and built once per tuned_runner
// (lazily, first silent run), then shared read-only across trials.
struct silent_adjacency {
  explicit silent_adjacency(const graph& g) {
    const auto n = static_cast<std::size_t>(g.num_nodes());
    const auto m = static_cast<std::uint64_t>(g.num_edges());
    expects(2 * m <= std::numeric_limits<std::uint32_t>::max(),
            "silent_adjacency: oriented pair indices exceed u32");
    offsets.assign(n + 1, 0);
    for (const edge& e : g.edges()) {
      ++offsets[static_cast<std::size_t>(e.u) + 1];
      ++offsets[static_cast<std::size_t>(e.v) + 1];
    }
    for (std::size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
    entries.resize(static_cast<std::size_t>(2 * m));
    std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    std::uint32_t j = 0;
    for (const edge& e : g.edges()) {
      entries[cursor[static_cast<std::size_t>(e.u)]++] = j;
      entries[cursor[static_cast<std::size_t>(e.v)]++] = j;
      ++j;
    }
  }

  std::span<const std::uint32_t> row(std::size_t v) const {
    return {entries.data() + offsets[v], offsets[v + 1] - offsets[v]};
  }

  std::vector<std::uint32_t> offsets;  // size n + 1
  std::vector<std::uint32_t> entries;  // size 2m, edge indices
  std::size_t bytes() const {
    return offsets.size() * sizeof(std::uint32_t) +
           entries.size() * sizeof(std::uint32_t);
  }
};

// The active oriented-pair set: O(1) membership toggle (swap-with-last
// removal through a position index), uniform draw by index.  Sized for
// 2m oriented pairs.
class active_pair_set {
 public:
  explicit active_pair_set(std::uint64_t two_m)
      : pos_(static_cast<std::size_t>(two_m), kNone) {}

  std::uint64_t size() const { return list_.size(); }
  std::uint32_t at(std::uint64_t i) const {
    return list_[static_cast<std::size_t>(i)];
  }

  void set(std::uint32_t k, bool active) {
    std::uint32_t& p = pos_[k];
    if (active) {
      if (p != kNone) return;
      p = static_cast<std::uint32_t>(list_.size());
      list_.push_back(k);
    } else {
      if (p == kNone) return;
      const std::uint32_t last = list_.back();
      list_[p] = last;
      pos_[last] = p;
      list_.pop_back();
      p = kNone;
    }
  }

 private:
  static constexpr std::uint32_t kNone = UINT32_MAX;
  std::vector<std::uint32_t> list_;
  std::vector<std::uint32_t> pos_;
};

// run_silent: the event-driven counterpart of run_packed over the same
// packed table / endpoint / CSR views plus the silent_adjacency incidence
// rows, driving the same election state (detail::election_run) as the step
// loop.  Same signature conventions as run_packed: `adjacency` is required
// for edge-census protocols, `start` (when given) replaces the per-trial
// initial-state computation, `probe` only reads the run.
template <typename W, typename N, compilable_protocol P,
          typename Probe = obs::null_probe>
election_result run_silent(const compiled_protocol<P>& compiled,
                           const packed_table<W, P>& table,
                           const packed_endpoints<N>& edges,
                           const silent_adjacency& adj, const graph& g,
                           rng gen, const sim_options& options = {},
                           const std::vector<node_id>* old_of_new = nullptr,
                           const packed_csr<N>* adjacency = nullptr,
                           const packed_start<W>* start = nullptr,
                           Probe* probe = nullptr) {
  expects(adj.offsets.size() == static_cast<std::size_t>(g.num_nodes()) + 1,
          "run_silent: incidence rows do not match the graph");
  detail::election_run<W, P, packed_csr<N>, Probe> run(
      compiled,
      detail::packed_run_start("run_silent", compiled, table, edges, g,
                               old_of_new, adjacency, start),
      adjacency, old_of_new, options.state_census, probe);
  const detail::packed_fetch<N> pairs(edges);
  const std::uint64_t m = pairs.m;
  const W* const config = run.config.data();

  // Activity of oriented pair k under the *current* config.
  const auto pair_active = [&](std::uint64_t k) {
    const detail::drawn_pair p = pairs.at(k);
    const W ca = config[p.u];
    const W cb = config[p.v];
    const packed_entry<W> e = table.at(ca, cb);
    return e.a2 != ca || e.b2 != cb;
  };

  active_pair_set active(pairs.two_m);
  for (std::uint64_t k = 0; k < pairs.two_m; ++k) {
    active.set(static_cast<std::uint32_t>(k), pair_active(k));
  }
  // Re-evaluates both orientations of every edge incident to v.  An edge
  // whose other endpoint also flipped this step gets walked twice; the
  // evaluation reads the current config, so the second pass is a no-op.
  const auto reeval_node = [&](std::size_t v) {
    for (const std::uint32_t j : adj.row(v)) {
      active.set(j, pair_active(j));
      active.set(j + static_cast<std::uint32_t>(m), pair_active(j + m));
    }
  };

  block_rng draw(gen);
  std::uint64_t steps = 0;
  while (!run.stable()) {
    if (steps >= options.max_steps) return run.finish(steps, false);
    const std::uint64_t remaining = options.max_steps - steps;
    const std::uint64_t a = active.size();
    if (a == 0) {
      // No transition can ever fire again; the remaining budget is all
      // silent.  (With the default unbounded budget this is the reference
      // engine's forever-spin, delivered in O(1).)
      if constexpr (Probe::enabled) probe->on_steps(remaining, 0);
      return run.finish(options.max_steps, false);
    }
    const std::uint64_t skip = sample_silent_run(
        [&] { return draw.uniform01(); }, a, pairs.two_m, remaining);
    if constexpr (Probe::enabled) probe->on_draws(1);
    if (skip >= remaining) {
      if constexpr (Probe::enabled) probe->on_steps(remaining, 0);
      return run.finish(options.max_steps, false);
    }
    // The active step after the silent run: uniform over the active list.
    const detail::drawn_pair p = pairs.at(active.at(draw.uniform_below(a)));
    if constexpr (Probe::enabled) probe->on_draws(1);
    const W ca = config[p.u];
    const W cb = config[p.v];
    const packed_entry<W> e = table.at(ca, cb);
    steps += skip + 1;
    if constexpr (Probe::enabled) probe->on_steps(skip + 1, 1);
    const bool moved = run.apply(p.u, p.v, ca, cb, e);
    // Membership re-evaluation after both words are stored; the drawn pair
    // itself is covered by its endpoints' walks.
    if (e.a2 != ca) reeval_node(p.u);
    if (e.b2 != cb) reeval_node(p.v);
    run.sample(steps);
    if constexpr (Probe::enabled) {
      if (probe->want_active_set(steps)) {
        probe->on_active_set(steps, active.size());
      }
    }
    if (moved && run.stable()) break;
    // Loop condition re-checks stability; `moved == false` steps (pure
    // state swaps) cannot flip the predicate, and the while-condition's
    // extra evaluation keeps the loop structure simple.
  }
  return run.finish(steps, true);
}

}  // namespace pp
