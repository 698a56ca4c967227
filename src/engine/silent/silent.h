// The adaptive silent scheduler (cost model, constants and measurements in
// README.md next to this file).
//
// Late in an election almost every scheduler step is *silent*: the drawn
// oriented pair's transition changes neither endpoint.  Early on — and for
// the whole run of the fast protocol's default parameters, where every
// interaction ticks a streak clock — almost every step changes a word.
// run_silent executes the uniform scheduler in whichever of two exact ways
// is cheaper at the moment, and switches between them at deterministic
// points:
//
//   * dense mode — windows of plain uniform draws over the 2m oriented
//     pairs, run by the step loop's own batched core (detail::step_batches)
//     on the run's one block_rng; the window reports how many of its steps
//     changed a word;
//   * sparse mode — the set of active edges, maintained incrementally.  An
//     edge j ∈ [0, m) is active iff the transition of either of its two
//     oriented pairs would change a config word (one bit of pair_activity);
//     activity only depends on the two endpoint words, so it can only
//     change when one of them flips — an O(deg(u) + deg(v)) re-walk over
//     silent_adjacency per executed step.  The step counter advances over
//     silent runs by one geometric jump (jump.h): with A active edges of m,
//     the 2A oriented pairs of active edges are hit with probability A/m per
//     step, so the run before the next hit is Geometric(A/m), and the hit
//     itself is one uniform draw over those 2A pairs (bit 0 picks the
//     orientation).  A hit on an active edge's silent orientation is one
//     step that applies nothing, exactly as the step loop would execute it.
//
// The switch rule (detail::silent_policy) reads only the run's own counts:
// the changing fraction of a dense window, and in sparse mode A and the
// re-walk length each executed step observed.  The process is Markov and
// every switch is a stopping-time decision (a window boundary, or right
// after a sparse hit — the geometric jump is memoryless), so the executed
// process is distributed identically to run_packed's: the same
// distribution of (steps-to-stabilization, elected leader, census).  Sparse
// mode consumes draws differently (one uniform01 + one pick per hit instead
// of one pick per step), so equality is statistical — the 3σ contract of
// the wellmixed/RCM precedent (tests/test_silent.cpp, bench/silent.cpp) —
// not per-seed; a run that never leaves dense mode is run_packed's run.
// Stability is re-checked exactly when the step loop would re-check it:
// both modes apply steps through the same detail::election_run.
//
// If the active set empties while the predicate is false the configuration
// can never change again: the run jumps straight to max_steps and reports
// unstabilized, which is the reference engine's t → max_steps behaviour
// delivered in O(1).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
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
// packed_start / detail::election_run / detail::step_batches definitions it
// builds on, and before
// the tuned_runner that dispatches into it).  Include "engine/engine.h" to
// use run_silent.

namespace pp {

// Incidence view for the activity re-evaluation walks: for every node, the
// indices of its incident edges (row v lists each edge exactly once).
// Width-independent — neighbor ids come from the packed_endpoints array —
// and built once per tuned_runner (lazily, first silent run), then shared
// read-only across trials.
struct silent_adjacency {
  explicit silent_adjacency(const graph& g) {
    const auto n = static_cast<std::size_t>(g.num_nodes());
    const auto m = static_cast<std::uint64_t>(g.num_edges());
    expects(2 * m <= std::numeric_limits<std::uint32_t>::max(),
            "silent_adjacency: incidence entries exceed u32");
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

// Per-state-pair activity: bit (a, b) is set iff the transition of (a, b)
// or of (b, a) changes a word, so an edge whose endpoints hold words a and b
// is active iff the bit is set.  One k² bit table (61 KB at k = 700, where
// the packed table it replaces on this path is 3.9 MB) turns an edge's
// activity test from up to two table loads into one bit load.
class pair_activity {
 public:
  template <typename W, compilable_protocol P>
  explicit pair_activity(const packed_table<W, P>& table)
      : k_(table.num_states()), bits_((k_ * k_ + 63) / 64, 0) {
    for (std::size_t a = 0; a < k_; ++a) {
      for (std::size_t b = 0; b < k_; ++b) {
        const packed_entry<W> e = table.at(a, b);
        if (e.a2 != a || e.b2 != b) {
          set(a * k_ + b);
          set(b * k_ + a);
        }
      }
    }
  }

  bool operator()(std::size_t a, std::size_t b) const {
    const std::size_t i = a * k_ + b;
    return ((bits_[i >> 6] >> (i & 63)) & 1u) != 0;
  }
  std::size_t num_states() const { return k_; }
  std::size_t bytes() const { return bits_.size() * sizeof(std::uint64_t); }

 private:
  void set(std::size_t i) { bits_[i >> 6] |= std::uint64_t{1} << (i & 63); }

  std::size_t k_;
  std::vector<std::uint64_t> bits_;
};

// Everything run_silent reads besides the step loop's own layout: the
// incidence rows of the graph and the activity bits of the table.  Built
// once per tuned_runner (lazily, on the first silent run) and shared
// read-only across trials.
struct silent_index {
  template <typename W, compilable_protocol P>
  silent_index(const graph& g, const packed_table<W, P>& table)
      : adjacency(g), activity(table) {}

  silent_adjacency adjacency;
  pair_activity activity;
  std::size_t bytes() const { return adjacency.bytes() + activity.bytes(); }
};

// The active edge set of sparse mode: O(1) membership toggle (swap-with-last
// removal through a position index), uniform draw by index.  The list is
// allocated once at `capacity` entries, which run_silent sets to a_hi + 1:
// a full list means the set has passed a_hi and the run goes dense, so the
// list never grows.  Inserting into a full list is a caller error.
class active_edge_set {
 public:
  active_edge_set(std::uint64_t m, std::uint64_t capacity)
      : pos_(static_cast<std::size_t>(m), kNone),
        list_(static_cast<std::size_t>(capacity)) {}

  std::uint64_t size() const { return size_; }
  std::uint64_t capacity() const { return list_.size(); }
  bool full() const { return size_ == list_.size(); }
  std::uint32_t at(std::uint64_t i) const {
    return list_[static_cast<std::size_t>(i)];
  }

  void set(std::uint32_t j, bool active) {
    std::uint32_t& p = pos_[j];
    if (active) {
      if (p != kNone) return;
      p = static_cast<std::uint32_t>(size_);
      list_[size_++] = j;
    } else {
      if (p == kNone) return;
      const std::uint32_t last = list_[--size_];
      list_[p] = last;
      pos_[last] = p;
      p = kNone;
    }
  }

  // Empties the set in O(size()): only listed edges have a position.
  void clear() {
    for (std::size_t i = 0; i < size_; ++i) pos_[list_[i]] = kNone;
    size_ = 0;
  }

 private:
  static constexpr std::uint32_t kNone = UINT32_MAX;
  std::vector<std::uint32_t> pos_;
  std::vector<std::uint32_t> list_;
  std::size_t size_ = 0;
};

namespace detail {

// The cost model of run_silent's switch rule: nanoseconds per unit of work,
// measured by forcing each mode for whole elections on the host README.md
// names (bench/silent.cpp's cost rows re-check the outcome on every run).
inline constexpr double kDenseStepNs = 13.0;  // one dense-window step
inline constexpr double kSparseHitNs = 90.0;  // one hit: jump, pick, apply
inline constexpr double kEdgeNs = 4.0;  // one edge re-walked or scanned
// Dense mode gives way only to a sparse mode predicted this many times
// cheaper, so a run near the break-even point does not flip back and forth.
inline constexpr double kHysteresis = 1.5;
// Steps per dense window: how often dense mode reconsiders.
inline constexpr std::uint64_t kDenseWindow = 4096;
// Weight, in hits of mean-degree re-walks, of the prior in a sparse
// stretch's running mean re-walk length.
inline constexpr double kPriorHits = 16.0;

// The switch rule.  It reads only the run's own counts — the changing steps
// of a dense window, the active set and the edges each sparse hit re-walked
// — never a clock, so a seeded run switches at the same steps every time.
class silent_policy {
 public:
  silent_policy(std::uint64_t m, std::uint64_t n)
      : m_(static_cast<double>(m)),
        a_hi_(std::min(m, static_cast<std::uint64_t>(m_ * kDenseStepNs /
                                                     kSparseHitNs))),
        mean_degree_(2.0 * m_ / static_cast<double>(n)),
        edges_per_hit_(mean_degree_) {}

  // The largest active set sparse mode keeps: past it a sparse hit costs
  // more per simulated step than a dense step even with no re-walk at all.
  std::uint64_t a_hi() const { return a_hi_; }

  // Dense → sparse, after a window of `steps` steps of which `changing`
  // changed a word.  Sparse mode hits active edges as many times more often
  // than words change as it did in the last sparse stretch (a hit on the
  // silent orientation of an active edge changes nothing), and a hit is
  // predicted to cost what one cost there, its share of the O(m) rebuild
  // included.  Before the first stretch: one hit per change, mean degree.
  bool prefers_sparse(std::uint64_t changing, std::uint64_t steps) const {
    return kHysteresis * static_cast<double>(changing) * hits_per_change_ *
               (kSparseHitNs + kEdgeNs * edges_per_hit_) <
           static_cast<double>(steps) * kDenseStepNs;
  }

  // A sparse stretch begins (its rebuild scanned `scanned` edges) or a
  // rebuild stopped at the cap; either way its scan is charged to it.
  void on_rebuild(std::uint64_t scanned) {
    hits_ = 0;
    changes_ = 0;
    walked_ = 0;
    scanned_ = scanned;
    edges_per_hit_ = static_cast<double>(scanned);
  }
  // A sparse hit; `walked` edges re-walked, none when it changed nothing.
  void on_hit(bool changed, std::uint64_t walked) {
    ++hits_;
    changes_ += changed ? 1u : 0u;
    walked_ += walked;
  }

  // Sparse → dense, after a hit that left `active` edges active (`full`:
  // the list cap stopped the re-walk past a_hi): the hit rate A/m times the
  // cost of a hit at the stretch's observed re-walk length, against a dense
  // step.  The observed length, not the mean degree, is what charges a
  // star's hub its n − 1 edge re-walks.
  bool prefers_dense(std::uint64_t active, bool full) {
    const double walk =
        (static_cast<double>(walked_) + kPriorHits * mean_degree_) /
        (static_cast<double>(hits_) + kPriorHits);
    const double sparse_ns =
        static_cast<double>(active) * (kSparseHitNs + kEdgeNs * walk);
    if (!full && sparse_ns <= m_ * kDenseStepNs) return false;
    const double hits = static_cast<double>(hits_ == 0 ? 1 : hits_);
    edges_per_hit_ = static_cast<double>(walked_ + scanned_) / hits;
    hits_per_change_ = hits / static_cast<double>(changes_ == 0 ? 1 : changes_);
    return true;
  }

 private:
  double m_;
  std::uint64_t a_hi_;
  double mean_degree_;
  double edges_per_hit_;  // of the last sparse stretch, rebuild included
  double hits_per_change_ = 1.0;  // of the last sparse stretch
  std::uint64_t hits_ = 0;
  std::uint64_t changes_ = 0;
  std::uint64_t walked_ = 0;
  std::uint64_t scanned_ = 0;
};

// One dense window: step_batches, counting the steps that changed a word.
// Kept out of line so that the window compiles as the step loop does on its
// own, whatever the large run_silent body around the call would leave of it
// (tools/check_inlining.py checks this function by name).
template <typename Run, typename Pairs, typename Lookup>
[[gnu::noinline]] batches_result dense_window(Run& run, const Pairs pairs,
                                              const Lookup lookup,
                                              block_rng& draw,
                                              std::uint64_t steps,
                                              std::uint64_t limit) {
  return step_batches<true>(run, pairs, lookup, draw, steps, limit);
}

}  // namespace detail

// run_silent: the adaptive counterpart of run_packed over the same packed
// table / endpoint / CSR views plus the silent_index, driving the same
// election state (detail::election_run) as the step loop.  Same signature
// conventions as run_packed: `adjacency` is required for edge-census
// protocols, `start` (when given) replaces the per-trial initial-state
// computation, `probe` only reads the run.
template <typename W, typename N, compilable_protocol P,
          typename Probe = obs::null_probe>
election_result run_silent(const compiled_protocol<P>& compiled,
                           const packed_table<W, P>& table,
                           const packed_endpoints<N>& edges,
                           const silent_index& index, const graph& g,
                           rng gen, const sim_options& options = {},
                           const std::vector<node_id>* old_of_new = nullptr,
                           const packed_csr<N>* adjacency = nullptr,
                           const packed_start<W>* start = nullptr,
                           Probe* probe = nullptr) {
  expects(index.adjacency.offsets.size() ==
              static_cast<std::size_t>(g.num_nodes()) + 1,
          "run_silent: incidence rows do not match the graph");
  expects(index.activity.num_states() == table.num_states(),
          "run_silent: activity bits do not match the table");
  detail::election_run<W, P, packed_csr<N>, Probe> run(
      compiled,
      detail::packed_run_start("run_silent", compiled, table, edges, g,
                               old_of_new, adjacency, start),
      adjacency, old_of_new, options.state_census, probe);
  const detail::packed_fetch<N> pairs(edges);
  const auto lookup = [&table](W a, W b) { return table.at(a, b); };
  const std::uint64_t m = pairs.m;
  const std::uint64_t max_steps = options.max_steps;
  const W* const config = run.config.data();
  detail::silent_policy policy(m, static_cast<std::uint64_t>(g.num_nodes()));

  // Activity of edge j under the *current* config.
  const auto edge_active = [&](std::uint32_t j) {
    const auto& pr = pairs.pairs[j];
    return index.activity(config[pr.a], config[pr.b]);
  };
  // Allocated on the first switch to sparse mode; runs that stay dense
  // never pay for it.
  std::optional<active_edge_set> active;
  // Rebuilds the set from the current config by an O(m) scan that stops as
  // soon as the list is full; false then (the run stays dense).
  const auto rebuild = [&] {
    if (!active) active.emplace(m, policy.a_hi() + 1);
    active->clear();
    for (std::uint32_t j = 0; j < m; ++j) {
      if (!edge_active(j)) continue;
      active->set(j, true);
      if (active->full()) {
        policy.on_rebuild(j + 1);
        return false;
      }
    }
    policy.on_rebuild(m);
    return true;
  };
  // Re-evaluates every edge incident to v and returns how many it walked,
  // stopping once the list is full.  An edge whose other endpoint also
  // flipped this step gets walked twice; the evaluation reads the current
  // config, so the second pass is a no-op.
  const auto reeval_node = [&](std::size_t v) -> std::uint64_t {
    const auto row = index.adjacency.row(v);
    for (std::size_t i = 0; i < row.size(); ++i) {
      active->set(row[i], edge_active(row[i]));
      if (active->full()) return i + 1;
    }
    return row.size();
  };
  [[maybe_unused]] const auto fraction = [](std::uint64_t part,
                                            std::uint64_t whole) {
    return whole == 0 ? 0.0
                      : static_cast<double>(part) / static_cast<double>(whole);
  };

  block_rng draw(gen);
  std::uint64_t steps = 0;
  if constexpr (Probe::enabled) probe->on_mode({.step = 0, .dense = true});
  for (;;) {
    // Dense mode: one window of plain uniform draws through the step loop's
    // own batched core.
    const std::uint64_t window_begin = steps;
    const std::uint64_t window_end =
        max_steps - steps > detail::kDenseWindow ? steps + detail::kDenseWindow
                                                 : max_steps;
    const detail::batches_result window =
        detail::dense_window(run, pairs, lookup, draw, steps, window_end);
    steps = window.steps;
    if (window.stabilized) return run.finish(steps, true);
    if (steps >= max_steps) return run.finish(steps, false);
    if (!policy.prefers_sparse(window.changing, steps - window_begin) ||
        !rebuild()) {
      continue;
    }
    if constexpr (Probe::enabled) {
      probe->on_mode({.step = steps,
                      .dense = false,
                      .changing_frac =
                          fraction(window.changing, steps - window_begin),
                      .active_edges = active->size()});
    }

    // Sparse mode: the step counter advances over silent runs by geometric
    // jumps until the run stabilizes, the budget runs out or the rule sends
    // it back to dense mode.
    // The stretch's changing fraction, for the probe's switch record.
    [[maybe_unused]] const std::uint64_t sparse_begin = steps;
    [[maybe_unused]] std::uint64_t sparse_changing = 0;
    for (;;) {
      if (steps >= max_steps) return run.finish(steps, false);
      const std::uint64_t remaining = max_steps - steps;
      const std::uint64_t a = active->size();
      if (a == 0) {
        // No transition can ever fire again; the remaining budget is all
        // silent.  (With the default unbounded budget this is the reference
        // engine's forever-spin, delivered in O(1).)
        if constexpr (Probe::enabled) probe->on_steps(remaining, 0);
        return run.finish(max_steps, false);
      }
      const std::uint64_t skip = sample_silent_run(
          [&] { return draw.uniform01(); }, a, m, remaining);
      if constexpr (Probe::enabled) probe->on_draws(1);
      if (skip >= remaining) {
        if constexpr (Probe::enabled) probe->on_steps(remaining, 0);
        return run.finish(max_steps, false);
      }
      // The step after the silent run: uniform over the 2A oriented pairs
      // of the active edges — bits above 0 pick the edge, bit 0 its
      // orientation.
      const std::uint64_t pick = draw.uniform_below(2 * a);
      const std::uint64_t j = active->at(pick >> 1);
      const detail::drawn_pair p = pairs.at((pick & 1) != 0 ? j + m : j);
      if constexpr (Probe::enabled) probe->on_draws(1);
      const W ca = config[p.u];
      const W cb = config[p.v];
      const packed_entry<W> e = lookup(ca, cb);
      steps += skip + 1;
      const bool changes = e.a2 != ca || e.b2 != cb;
      if constexpr (Probe::enabled) probe->on_steps(skip + 1, changes ? 1 : 0);
      // The silent orientation of an active edge: one step, nothing
      // applied, and the set is unchanged.
      if (!changes) {
        policy.on_hit(false, 0);
        continue;
      }
      const bool moved = run.apply(p.u, p.v, ca, cb, e);
      // Membership re-evaluation after both words are stored; the drawn
      // edge itself is covered by its endpoints' walks.
      std::uint64_t walked = 0;
      if (e.a2 != ca) walked += reeval_node(p.u);
      if (e.b2 != cb && !active->full()) walked += reeval_node(p.v);
      run.sample(steps);
      // `moved == false` steps (pure state swaps) cannot flip the predicate.
      if (moved && run.stable()) return run.finish(steps, true);
      if constexpr (Probe::enabled) ++sparse_changing;
      policy.on_hit(true, walked);
      if (policy.prefers_dense(active->size(), active->full())) {
        if constexpr (Probe::enabled) {
          probe->on_mode({.step = steps,
                          .dense = true,
                          .changing_frac =
                              fraction(sparse_changing, steps - sparse_begin),
                          .active_edges = active->size()});
        }
        break;
      }
      if constexpr (Probe::enabled) {
        if (probe->want_active_set(steps)) {
          probe->on_active_set(steps, active->size());
        }
      }
    }
  }
}

}  // namespace pp
