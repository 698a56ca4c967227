// E14 — compiled-engine throughput versus the reference simulator.
//
// Runs the same seeded election twice — once through the reference
// run_until_stable (per-step scheduler + protocol logic + tracker), once
// through the compiled engine (src/engine/: interned transition table,
// doubled endpoint arrays, block-buffered RNG) — and reports steps/sec for
// each plus the speedup.  Because the engine is draw-for-draw equivalent to
// the reference path, both runs execute *exactly* the same interaction
// sequence, so the comparison is step-for-step fair; the `eq` column
// re-checks that the two step counts agree.
//
// A second table times the one-off setup a practical-parameter sweep pays
// before its first trial — the B(G) estimate, the reachability closure and
// the packed table — against one trial, on clique 200, rr8 2000 and (at
// PP_BENCH_SCALE >= 1) rr8 10⁴.  The closure is gated at <= 150 ns per
// compiled pair at scale >= 1: it compiles each of the k² pairs once.
//
// Emits BENCH_engine.json (machine-readable rows) next to the tables.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "bench_common.h"
#include "core/beauquier.h"
#include "core/fast_election.h"
#include "core/majority.h"
#include "core/simulator.h"
#include "dynamics/epidemic.h"
#include "engine/engine.h"
#include "graph/generators.h"

namespace pp {
namespace {

struct cell {
  std::string protocol;
  std::string graph_name;
  node_id n = 0;
  std::int64_t m = 0;
  std::uint64_t steps = 0;
  double ref_sps = 0;
  double engine_sps = 0;
  bool equal_steps = false;
  // Resident hot-loop bytes of the engine run (u32 config + lazy table +
  // doubled endpoint pairs) and the bytes one step touches (one pair, one
  // table entry, two config words) — recorded so locality changes across
  // PRs are attributable to layout, not just observed (bench/locality.cpp
  // reports the same accounting for the packed widths).
  std::size_t working_set = 0;
  std::size_t step_bytes = 0;
  double speedup() const { return ref_sps > 0 ? engine_sps / ref_sps : 0; }
};

fast_params bench_fast_params(const graph& g) {
  const double n = static_cast<double>(g.num_nodes());
  fast_params p;
  p.h = 6;
  p.level_threshold = std::max(1, static_cast<int>(std::ceil(2.0 * std::log2(n))));
  p.max_level = 4 * p.level_threshold;
  return p;
}

// Times the steady-state step rate of both paths on the same seeded run.
// Each path executes the run twice and the second execution is timed: for
// the engine that amortises the one-time table/endpoint-array construction
// exactly as measure_election_fast does across the trials of a sweep, and
// both paths get equally warm caches.  The untimed first executions double
// as the end-to-end equivalence check.
template <typename P>
cell run_cell(const std::string& protocol, const std::string& graph_name,
              const P& proto, const graph& g, std::uint64_t max_steps,
              std::uint64_t seed) {
  cell c;
  c.protocol = protocol;
  c.graph_name = graph_name;
  c.n = g.num_nodes();
  c.m = g.num_edges();
  const sim_options options{.max_steps = max_steps};

  const auto ref = run_until_stable(proto, g, rng(seed), options);
  bench::stopwatch ref_clock;
  const auto ref2 = run_until_stable(proto, g, rng(seed), options);
  const double ref_seconds = ref_clock.seconds();

  compiled_protocol<P> compiled(proto);
  const edge_endpoints edges(g);
  const auto fast = run_compiled(compiled, edges, g, rng(seed), options);
  bench::stopwatch engine_clock;
  const auto fast2 = run_compiled(compiled, edges, g, rng(seed), options);
  const double engine_seconds = engine_clock.seconds();

  c.steps = ref.steps;
  c.equal_steps = ref.steps == fast.steps && ref.leader == fast.leader &&
                  ref2.steps == fast2.steps;
  if (ref_seconds > 0) c.ref_sps = static_cast<double>(ref2.steps) / ref_seconds;
  if (engine_seconds > 0) {
    c.engine_sps = static_cast<double>(fast2.steps) / engine_seconds;
  }
  c.working_set = static_cast<std::size_t>(c.n) * sizeof(std::uint32_t) +
                  compiled.table_bytes() +
                  edges.pairs.size() * sizeof(interaction);
  c.step_bytes = sizeof(interaction) +
                 sizeof(typename compiled_protocol<P>::entry) +
                 2 * sizeof(std::uint32_t);
  return c;
}

// One-off setup of a practical-parameter fast-protocol sweep on one graph.
struct setup_cell {
  std::string graph_name;
  node_id n = 0;
  std::size_t k = 0;  // closed state-space size |Λ|
  double estimate_s = 0;
  double close_s = 0;
  double pack_s = 0;
  double one_trial_s = 0;
  double close_ns_per_pair() const {
    return k > 0 ? close_s * 1e9 / (static_cast<double>(k) * static_cast<double>(k))
                 : 0;
  }
};

inline constexpr double kCloseNsPerPairGate = 150.0;

// Times each setup phase as popsim runs it: the B(G) estimate behind
// fast_params::practical, the closure from the initial states, the packed
// table at the width tuned_runner resolves, then one trial through a
// tuned_runner (whose own construction is not timed).
setup_cell run_setup_cell(const std::string& graph_name, const graph& g,
                          std::uint64_t seed) {
  setup_cell c;
  c.graph_name = graph_name;
  c.n = g.num_nodes();

  bench::stopwatch estimate_clock;
  const double b = estimate_worst_case_broadcast_time(g, 30, 6, rng(seed)).value;
  c.estimate_s = estimate_clock.seconds();
  const fast_protocol proto(fast_params::practical(g, b));

  compiled_protocol<fast_protocol> compiled(proto);
  for (node_id v = 0; v < g.num_nodes(); ++v) compiled.intern(proto.initial_state(v));
  bench::stopwatch close_clock;
  const bool closed = compiled.close(kEngineClosureBudget);
  c.close_s = close_clock.seconds();
  c.k = compiled.num_states();
  if (!closed) return c;

  bench::stopwatch pack_clock;
  if (c.k <= 256 && compiled.deltas_fit_nibble()) {
    const packed_table<std::uint8_t, fast_protocol> table(compiled);
  } else {
    const packed_table<std::uint16_t, fast_protocol> table(compiled);
  }
  c.pack_s = pack_clock.seconds();

  const tuned_runner<fast_protocol> runner(proto, g);
  bench::stopwatch trial_clock;
  runner.run(rng(seed + 1));
  c.one_trial_s = trial_clock.seconds();
  return c;
}

// Returns false if any cell broke seeded equivalence, or if a setup row
// missed the closure gate at scale >= 1 (CI fails on either).
bool run() {
  bench::banner("E14", "engine microbenchmark (compiled tables, src/engine/)",
                "compiled transition table + batched scheduling vs the\n"
                "reference simulator, same seeded interaction sequence.");

  const auto budget = static_cast<std::uint64_t>(bench::scaled(4'000'000));

  std::vector<std::pair<std::string, graph>> graphs;
  graphs.emplace_back("clique", make_clique(1024));
  graphs.emplace_back("ring", make_cycle(4096));
  {
    rng gen(12);
    graphs.emplace_back("dense-random", make_connected_erdos_renyi(10'000, 0.01, gen));
  }

  std::vector<cell> cells;
  std::uint64_t seed = 100;
  for (const auto& [name, g] : graphs) {
    cells.push_back(run_cell("fast", name, fast_protocol(bench_fast_params(g)), g,
                             budget, seed++));
    cells.push_back(
        run_cell("beauquier", name, beauquier_protocol(g.num_nodes()), g, budget,
                 seed++));
    rng votes_gen(seed);
    const auto votes =
        random_vote_assignment(g.num_nodes(), (3 * g.num_nodes()) / 5, votes_gen);
    cells.push_back(
        run_cell("majority", name, majority_protocol(votes), g, budget, seed++));
  }

  text_table table({"protocol", "graph", "n", "m", "steps", "ref steps/s",
                    "engine steps/s", "speedup", "ws MB", "B/step", "eq"});
  for (const cell& c : cells) {
    table.add_row({c.protocol, c.graph_name, format_number(c.n),
                   format_number(static_cast<double>(c.m)),
                   format_number(static_cast<double>(c.steps)),
                   format_number(c.ref_sps, 3), format_number(c.engine_sps, 3),
                   format_number(c.speedup(), 3),
                   format_number(static_cast<double>(c.working_set) / 1e6, 3),
                   format_number(static_cast<double>(c.step_bytes)),
                   c.equal_steps ? "yes" : "NO"});
  }
  bench::print_table(table);

  const bool full = bench_scale() >= 1.0;
  std::vector<setup_cell> setups;
  setups.push_back(run_setup_cell("clique 200", make_clique(200), 200));
  {
    rng gen(2000);
    setups.push_back(run_setup_cell("rr8 2000", make_random_regular(2000, 8, gen), 2000));
  }
  if (full) {
    rng gen(10'000);
    setups.push_back(
        run_setup_cell("rr8 10000", make_random_regular(10'000, 8, gen), 10'000));
  }
  bool setup_ok = true;
  for (const setup_cell& c : setups) {
    setup_ok = setup_ok && c.close_ns_per_pair() <= kCloseNsPerPairGate;
  }
  const bool setup_pass = !full || setup_ok;

  text_table setup_table({"setup", "n", "k", "estimate s", "close s",
                          "close ns/pair", "pack s", "one trial s"});
  for (const setup_cell& c : setups) {
    setup_table.add_row({c.graph_name, format_number(c.n),
                         format_number(static_cast<double>(c.k)),
                         format_number(c.estimate_s, 3), format_number(c.close_s, 3),
                         format_number(c.close_ns_per_pair(), 3),
                         format_number(c.pack_s, 3), format_number(c.one_trial_s, 3)});
  }
  bench::print_table(setup_table);
  std::printf("setup: closure <= %.0f ns per compiled pair %s: %s\n\n",
              kCloseNsPerPairGate,
              full ? "(enforced)" : "(informational, enforced at scale >= 1)",
              setup_ok ? "PASS" : (full ? "FAIL" : "over"));

  bench::json_writer json;
  json.begin_object();
  json.key("bench").value("engine");
  json.key("step_budget").value(budget);
  json.key("results").begin_array();
  for (const cell& c : cells) {
    json.begin_object();
    json.key("protocol").value(c.protocol);
    json.key("graph").value(c.graph_name);
    json.key("n").value(static_cast<std::int64_t>(c.n));
    json.key("m").value(static_cast<std::int64_t>(c.m));
    json.key("steps").value(c.steps);
    json.key("ref_steps_per_sec").value(c.ref_sps);
    json.key("engine_steps_per_sec").value(c.engine_sps);
    json.key("speedup").value(c.speedup());
    json.key("working_set_bytes").value(static_cast<std::uint64_t>(c.working_set));
    json.key("bytes_per_step").value(static_cast<std::uint64_t>(c.step_bytes));
    json.key("equal_steps").value(c.equal_steps);
    json.end_object();
  }
  json.end_array();
  json.key("setup").begin_array();
  for (const setup_cell& c : setups) {
    json.begin_object();
    json.key("graph").value(c.graph_name);
    json.key("n").value(static_cast<std::int64_t>(c.n));
    json.key("k").value(static_cast<std::uint64_t>(c.k));
    json.key("estimate_s").value(c.estimate_s);
    json.key("close_s").value(c.close_s);
    json.key("close_ns_per_pair").value(c.close_ns_per_pair());
    json.key("pack_s").value(c.pack_s);
    json.key("one_trial_s").value(c.one_trial_s);
    json.end_object();
  }
  json.end_array();
  json.key("setup_pass").value(setup_pass);
  json.end_object();
  json.write_file("BENCH_engine.json");

  std::printf(
      "Reading: the engine runs the identical interaction sequence (eq = yes)\n"
      "at a multiple of the reference step rate; the dense-random fast row is\n"
      "the ISSUE acceptance cell (>= 5x on 10k nodes).\n"
      "Wrote BENCH_engine.json.\n");

  bool all_equal = true;
  for (const cell& c : cells) all_equal = all_equal && c.equal_steps;
  if (!all_equal) {
    std::fprintf(stderr,
                 "FAIL: at least one cell broke engine/reference seeded "
                 "equivalence (eq = NO above).\n");
  }
  if (!setup_pass) {
    std::fprintf(stderr, "FAIL: a closure cost more than %.0f ns per pair.\n",
                 kCloseNsPerPairGate);
  }
  return all_equal && setup_pass;
}

}  // namespace
}  // namespace pp

int main() { return pp::run() ? 0 : 1; }
