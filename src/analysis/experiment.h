// Multi-trial, multithreaded measurement of election and dynamics quantities.
//
// An election sweep is a trial function times an executor.  A trial
// function is fn(trial, gen) -> election_result; the executors are the
// in-process measure_trials below and the fleet supervisor
// (fleet/supervisor.h: supervised_fleet_run, the exec and remote sweeps).
// Every trial t of a sweep uses the generator seed_gen.fork(t) whichever
// executor runs it, so the estimates are reproducible regardless of thread
// or worker count.  The measure_election* functions are one-line adapters
// that hand measure_trials one engine's trial function.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/families.h"
#include "core/simulator.h"
#include "dynamics/epidemic.h"
#include "engine/engine.h"
#include "engine/wellmixed/wellmixed.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "support/stats.h"

namespace pp {

// Aggregate of repeated election runs of one protocol on one graph.
struct election_summary {
  sample_summary steps;            // over stabilized trials only
  double stabilized_fraction = 0;  // trials that stabilized within max_steps
  double max_states_used = 0;      // empirical space complexity (census runs)
};

// Aggregates per-trial results into an election_summary.
election_summary summarize_election_results(const std::vector<election_result>& results);

// The in-process executor: runs `trials` trials of `fn` in parallel on
// `threads` threads (0 = all hardware threads), trial t as
// fn(t, seed_gen.fork(t)), and summarizes them.
template <typename Fn>
election_summary measure_trials(int trials, rng seed_gen, Fn&& fn,
                                std::size_t threads = 0) {
  std::vector<election_result> results(static_cast<std::size_t>(trials));
  parallel_for(
      static_cast<std::size_t>(trials),
      [&](std::size_t t) {
        results[t] = fn(static_cast<std::uint64_t>(t), seed_gen.fork(t));
      },
      threads);
  return summarize_election_results(results);
}

// Runs `trials` independent elections of `proto` on `g` on the reference
// simulator.
template <typename P>
election_summary measure_election(const P& proto, const graph& g, int trials,
                                  rng seed_gen, const sim_options& options = {},
                                  std::size_t threads = 0) {
  return measure_trials(
      trials, seed_gen,
      [&](std::uint64_t, rng gen) { return run_until_stable(proto, g, gen, options); },
      threads);
}

// kEngineClosureBudget — the states the reachable closure may intern before
// sweeps fall back to per-trial lazy tables — lives in engine/engine.h next
// to the tuned_runner that shares it.

// As measure_election, but on the compiled engine (src/engine/): trial t uses
// the same seed_gen.fork(t) generator and the engine is draw-for-draw
// equivalent to the reference simulator, so the summary is identical — only
// faster.  When the protocol's reachable state space closes within
// kEngineClosureBudget the compiled table is built once and shared read-only
// across the worker threads; otherwise each trial compiles its own table
// lazily (still fast: only pairs that occur are materialised).
template <compilable_protocol P>
election_summary measure_election_fast(const P& proto, const graph& g, int trials,
                                       rng seed_gen, const sim_options& options = {},
                                       std::size_t threads = 0) {
  compiled_protocol<P> compiled(proto);
  for (node_id v = 0; v < g.num_nodes(); ++v) compiled.intern(proto.initial_state(v));
  const bool shared = compiled.close(kEngineClosureBudget);
  const edge_endpoints edges(g);
  return measure_trials(
      trials, seed_gen,
      [&](std::uint64_t, rng gen) {
        if (shared) return run_compiled(compiled, edges, g, gen, options);
        compiled_protocol<P> local(proto);
        return run_compiled(local, edges, g, gen, options);
      },
      threads);
}

// As measure_election_fast, but through the tuned packed engine
// (engine/engine.h): the vertex order (natural / BFS / RCM relabelling) and
// the config word width are resolved once by a shared tuned_runner, and every
// trial reuses its packed table, packed endpoint array and relabelled graph.
// With the default tuning's natural order the summary is bit-identical to
// measure_election_fast (and hence to the reference simulator) per seed at
// every width; reordered runs execute the same process on an isomorphic graph
// — initial states and leaders ride the permutation — so every statistic's
// *distribution* is unchanged but per-seed equality is traded for 3σ
// statistical agreement, the same contract as the well-mixed engine.
template <compilable_protocol P>
election_summary measure_election_tuned(const tuned_runner<P>& runner,
                                        int trials, rng seed_gen,
                                        const sim_options& options = {},
                                        std::size_t threads = 0) {
  return measure_trials(
      trials, seed_gen,
      [&](std::uint64_t, rng gen) { return runner.run(gen, options); }, threads);
}

// Well-mixed (clique) sweep on the multiset batch engine: trial t runs
// run_wellmixed with seed_gen.fork(t) on a population of n agents.  The O(n)
// initial multiset is built once and shared by every trial, so each trial
// costs only the O(|Λ|)-per-batch simulation; there is no graph object and
// no Θ(n²) edge memory, which is what lets clique sweeps reach n = 10⁸.
// Results agree with measure_election / measure_election_fast statistically
// (bench/wellmixed.cpp pins the 3σ agreement), not per-seed — see
// engine/wellmixed/README.md for the batching caveat.
template <node_census_protocol P>
election_summary measure_election_wellmixed(const P& proto, std::uint64_t n,
                                            int trials, rng seed_gen,
                                            const sim_options& options = {},
                                            std::size_t threads = 0) {
  const wellmixed_sweep<P> sweep(proto, n);
  return measure_trials(
      trials, seed_gen,
      [&](std::uint64_t, rng gen) { return sweep.run(gen, options); }, threads);
}

// Estimates B(G) and wraps it with the family's predicted shape for
// measured/shape ratio reporting.
struct broadcast_summary {
  double measured = 0.0;   // estimate of B(G) in scheduler steps
  double shape = 0.0;      // family closed-form Θ-shape value
  double ratio() const { return shape > 0 ? measured / shape : 0.0; }
};
broadcast_summary measure_broadcast(const graph& g, const graph_family& family,
                                    int trials_per_source, int max_sources,
                                    rng seed_gen);

// Reads a positive scale factor from the PP_BENCH_SCALE environment variable
// (default 1.0); benches multiply their problem sizes/trial counts by it.
double bench_scale();

}  // namespace pp
