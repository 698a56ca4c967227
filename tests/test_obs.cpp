// The flight recorder (src/obs/):
//   * probe determinism — the contract that probes observe and never steer:
//     for a given seed, running any engine with a full run_probe is
//     bit-identical (stabilized/steps/leader/census) to the default
//     null_probe run, across the fast/star × {clique, cycle, star} ×
//     {u8, u16, u32} matrix and the well-mixed batch engine, and the lazy
//     layout's probe books equal the packed layout's on the same table;
//   * probe accounting — steps split into silent vs active, census samples
//     ascend and respect the stride, the thinning cap bounds the vector;
//   * histogram bucket boundaries (bucket_of == bit_width) and merging;
//   * metrics JSON/text serialisation, sidecar merge, torn-tail tolerance;
//   * catapult trace JSON shape, sidecar round-trip, torn-tail drop;
//   * the leveled logger's strict level parser.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/beauquier.h"
#include "core/fast_election.h"
#include "core/star_protocol.h"
#include "engine/engine.h"
#include "engine/wellmixed/wellmixed.h"
#include "graph/generators.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/probe.h"
#include "obs/trace.h"

namespace pp {
namespace {

// ---------------------------------------------------------------------------
// Probe determinism: enabling probes never changes the simulation.

std::vector<std::pair<std::string, graph>> probe_families() {
  std::vector<std::pair<std::string, graph>> fams;
  fams.emplace_back("clique", make_clique(24));
  fams.emplace_back("cycle", make_cycle(33));
  fams.emplace_back("star", make_star(28));
  return fams;
}

template <typename P>
void expect_probe_invisible(const P& proto, const sim_options& options,
                            std::uint64_t seed_base) {
  for (const auto& [name, g] : probe_families()) {
    // Which widths fit is a property of the closed table.
    compiled_protocol<P> compiled(proto);
    for (node_id v = 0; v < g.num_nodes(); ++v) {
      compiled.intern(proto.initial_state(v));
    }
    ASSERT_TRUE(compiled.close(kEngineClosureBudget)) << name;
    std::vector<int> widths{16, 32};
    if (compiled.num_states() <= 256 && compiled.deltas_fit_nibble()) {
      widths.push_back(8);
    }

    const edge_endpoints edges(g);
    rng seed(seed_base);
    for (std::uint64_t t = 0; t < 3; ++t) {
      for (const int bits : widths) {
        const tuned_runner<P> runner(proto, g, {vertex_order::natural, bits});
        const election_result plain = runner.run(seed.fork(t), options);
        obs::run_probe probe(64, 256);
        const election_result probed =
            runner.run(seed.fork(t), options, &probe);
        ASSERT_EQ(plain.stabilized, probed.stabilized)
            << name << " u" << bits << " trial " << t;
        ASSERT_EQ(plain.steps, probed.steps)
            << name << " u" << bits << " trial " << t;
        ASSERT_EQ(plain.leader, probed.leader)
            << name << " u" << bits << " trial " << t;
        ASSERT_EQ(plain.distinct_states_used, probed.distinct_states_used)
            << name << " u" << bits << " trial " << t;

        // The probe's own books must agree with the result.
        const obs::probe_stats& st = probe.stats();
        ASSERT_EQ(st.steps, probed.steps) << name << " u" << bits;
        ASSERT_LE(st.active_steps, st.steps) << name << " u" << bits;
        ASSERT_EQ(st.silent_steps(), st.steps - st.active_steps);
        ASSERT_GE(st.predicate_evals, 1u) << name << " u" << bits;
        std::uint64_t prev = 0;
        for (const obs::census_sample& s : st.census) {
          ASSERT_GT(s.step, prev) << name << " u" << bits;
          ASSERT_LE(s.step, probed.steps) << name << " u" << bits;
          prev = s.step;
        }

        // The lazy layout (run_compiled) on the same closed table keeps the
        // packed run's books entry for entry: both layouts drive one step
        // loop, so they must report the same steps, draws, predicate
        // evaluations, census samples and windows.
        obs::run_probe lazy_probe(64, 256);
        const election_result lazy = run_compiled(
            compiled, edges, g, seed.fork(t), options, nullptr, &lazy_probe);
        ASSERT_EQ(lazy.steps, probed.steps) << name << " u" << bits;
        ASSERT_EQ(lazy.leader, probed.leader) << name << " u" << bits;
        probe.finish();
        lazy_probe.finish();
        const obs::probe_stats& ls = lazy_probe.stats();
        ASSERT_EQ(ls.steps, st.steps) << name << " u" << bits;
        ASSERT_EQ(ls.active_steps, st.active_steps) << name << " u" << bits;
        ASSERT_EQ(ls.predicate_evals, st.predicate_evals)
            << name << " u" << bits;
        ASSERT_EQ(ls.rng_draws, st.rng_draws) << name << " u" << bits;
        ASSERT_EQ(ls.table_fills, st.table_fills) << name << " u" << bits;
        ASSERT_EQ(ls.census.size(), st.census.size()) << name << " u" << bits;
        for (std::size_t i = 0; i < st.census.size(); ++i) {
          ASSERT_EQ(ls.census[i].step, st.census[i].step) << name << " u" << bits;
          ASSERT_EQ(ls.census[i].counters, st.census[i].counters);
          ASSERT_EQ(ls.census[i].totals, st.census[i].totals)
              << name << " u" << bits << " sample " << i;
        }
        ASSERT_EQ(ls.windows, st.windows) << name << " u" << bits;
        ASSERT_EQ(ls.windows_closed, st.windows_closed) << name << " u" << bits;
      }
    }
  }
}

TEST(ProbeDeterminism, FastAcrossFamiliesAndWidths) {
  expect_probe_invisible(fast_protocol(fast_params{}), {}, 41);
}

TEST(ProbeDeterminism, FastWithCensusAcrossFamiliesAndWidths) {
  expect_probe_invisible(fast_protocol(fast_params{}), {.state_census = true},
                         42);
}

TEST(ProbeDeterminism, StarAcrossFamiliesAndWidths) {
  // max_steps caps the non-stabilizing star runs (two-leader deadlocks on
  // general graphs); the probe must be invisible at the cap too.
  expect_probe_invisible(star_protocol{}, {.max_steps = 20000}, 43);
}

TEST(ProbeDeterminism, LazyU32FallbackEngine) {
  // run_compiled (the lazy u32 fallback) probed directly, with table-fill
  // accounting: every pair class compiled during the run is counted.
  const fast_protocol proto(fast_params{});
  const graph g = make_cycle(33);
  rng seed(44);
  for (std::uint64_t t = 0; t < 3; ++t) {
    const election_result plain = run_until_stable_fast(proto, g, seed.fork(t));
    compiled_protocol<fast_protocol> compiled(proto);
    const edge_endpoints edges(g);
    obs::run_probe probe(128);
    const election_result probed =
        run_compiled(compiled, edges, g, seed.fork(t), {}, nullptr, &probe);
    ASSERT_EQ(plain.steps, probed.steps) << "trial " << t;
    ASSERT_EQ(plain.leader, probed.leader) << "trial " << t;
    ASSERT_EQ(probe.stats().steps, probed.steps);
    ASSERT_GT(probe.stats().table_fills, 0u);
    ASSERT_GT(probe.stats().rng_draws, 0u);
  }
}

TEST(ProbeDeterminism, WellmixedBatchEngine) {
  // The multiset batch engine credits steps batch-wise; with a probe the
  // result is still bit-identical and the step accounting exact.
  const std::uint64_t n = 4096;
  const fast_protocol proto(fast_params::practical_clique(n));
  rng seed(45);
  for (std::uint64_t t = 0; t < 3; ++t) {
    const election_result plain = run_wellmixed(proto, n, seed.fork(t), {});
    obs::run_probe probe(1024);
    const election_result probed =
        run_wellmixed(proto, n, seed.fork(t), {}, &probe);
    ASSERT_EQ(plain.stabilized, probed.stabilized) << "trial " << t;
    ASSERT_EQ(plain.steps, probed.steps) << "trial " << t;
    ASSERT_EQ(probe.stats().steps, probed.steps);
    ASSERT_GT(probe.stats().batches, 0u);
    ASSERT_GE(probe.stats().predicate_evals, 1u);
  }
}

TEST(ProbeDeterminism, WellmixedSixProtocol) {
  const std::uint64_t n = 512;
  const beauquier_protocol proto(static_cast<node_id>(n));
  rng seed(46);
  const election_result plain = run_wellmixed(proto, n, seed.fork(0), {});
  obs::run_probe probe(256);
  const election_result probed =
      run_wellmixed(proto, n, seed.fork(0), {}, &probe);
  ASSERT_EQ(plain.steps, probed.steps);
  ASSERT_EQ(plain.stabilized, probed.stabilized);
}

TEST(RunProbe, StrideControlsSampling) {
  obs::run_probe probe(10);
  const std::int64_t totals[2] = {3, 4};
  EXPECT_FALSE(probe.want_census(9));
  EXPECT_TRUE(probe.want_census(10));
  EXPECT_TRUE(probe.want_census(25));  // first step past a missed multiple
  probe.on_census(25, totals, 2);
  EXPECT_FALSE(probe.want_census(29));  // next target realigned to 30
  EXPECT_TRUE(probe.want_census(30));
  ASSERT_EQ(probe.stats().census.size(), 1u);
  EXPECT_EQ(probe.stats().census[0].step, 25u);
  EXPECT_EQ(probe.stats().census[0].totals[0], 3);
  EXPECT_EQ(probe.stats().census[0].totals[1], 4);
}

TEST(RunProbe, ThinningBoundsTheSampleVector) {
  obs::run_probe probe(1);
  const std::int64_t totals[1] = {1};
  for (std::uint64_t s = 1; s <= 3 * obs::run_probe::kMaxSamples; ++s) {
    if (probe.want_census(s)) probe.on_census(s, totals, 1);
  }
  EXPECT_LT(probe.stats().census.size(), obs::run_probe::kMaxSamples);
  EXPECT_GT(probe.stride(), 1u);  // doubled at least once
  std::uint64_t prev = 0;
  for (const obs::census_sample& s : probe.stats().census) {
    ASSERT_GT(s.step, prev);
    prev = s.step;
  }
}

// ---------------------------------------------------------------------------
// Window ring: fixed-interval streaming stats whose boundaries live purely
// on the deterministic step counter — bit-identical across reruns.

TEST(ProbeWindows, BoundariesLiveOnTheStepCounter) {
  obs::run_probe probe(16, 100);
  for (int i = 0; i < 250; ++i) probe.on_step(i % 2 == 0);
  ASSERT_EQ(probe.windows().size(), 2u);
  EXPECT_EQ(probe.windows()[0].index, 0u);
  EXPECT_EQ(probe.windows()[0].steps, 100u);
  EXPECT_EQ(probe.windows()[0].active_steps, 50u);
  EXPECT_EQ(probe.windows()[1].index, 1u);
  EXPECT_EQ(probe.windows()[1].steps, 100u);
  EXPECT_DOUBLE_EQ(probe.windows()[0].silent_fraction(), 0.5);
  // finish() closes the trailing 50-step partial; a second call is a no-op.
  probe.finish();
  ASSERT_EQ(probe.windows().size(), 3u);
  EXPECT_EQ(probe.windows()[2].steps, 50u);
  EXPECT_EQ(probe.stats().windows_closed, 3u);
  probe.finish();
  EXPECT_EQ(probe.stats().windows_closed, 3u);
}

TEST(ProbeWindows, ModeSwitchesSplitStepsAndDropStaleActiveSamples) {
  // The silent scheduler reports its mode once at the start and then at
  // every switch: steps reported in dense mode count as dense steps, only
  // real changes count as switches, and entering dense mode drops the
  // window's last active-set sample (dense mode keeps no active set).
  obs::run_probe probe(16, 100);
  probe.on_steps(40, 40);  // before any mode report: not a silent run
  EXPECT_EQ(probe.stats().dense_steps, 0u);
  probe.on_mode({.step = 40, .dense = true});
  probe.on_steps(30, 30);
  probe.on_mode({.step = 70, .dense = false, .changing_frac = 0.01,
                 .active_edges = 7});
  probe.on_active_set(75, 7);
  probe.on_steps(20, 1);
  probe.on_mode({.step = 90, .dense = false});  // same mode: no switch
  probe.on_mode({.step = 90, .dense = true, .active_edges = 9});
  probe.on_steps(30, 30);  // closes window 0 at 120
  const auto& st = probe.stats();
  EXPECT_EQ(st.dense_steps, 60u);
  EXPECT_EQ(st.mode_switches, 2u);
  ASSERT_EQ(st.switches.size(), 2u);
  EXPECT_FALSE(st.switches[0].dense);
  EXPECT_EQ(st.switches[0].step, 70u);
  EXPECT_DOUBLE_EQ(st.switches[0].changing_frac, 0.01);
  EXPECT_EQ(st.switches[0].active_edges, 7u);
  EXPECT_TRUE(st.switches[1].dense);
  EXPECT_EQ(st.switches[1].active_edges, 9u);
  ASSERT_EQ(probe.windows().size(), 1u);
  EXPECT_EQ(probe.windows()[0].dense_steps, 60u);
  EXPECT_EQ(probe.windows()[0].active_pairs, 0u);  // dropped on going dense
  // A probe reused without reset: the next run's start (step 0, dense)
  // after a sparse end is not a switch.
  probe.on_mode({.step = 150, .dense = false});
  EXPECT_EQ(st.mode_switches, 3u);
  probe.on_mode({.step = 0, .dense = true});
  EXPECT_EQ(st.mode_switches, 3u);
  probe.reset();
  EXPECT_EQ(probe.stats().mode_switches, 0u);
  probe.on_steps(10, 0);  // the reset forgot the mode
  EXPECT_EQ(probe.stats().dense_steps, 0u);
}

TEST(ProbeWindows, BatchOvershootClosesEmptyWindows) {
  // A batch spanning several boundaries is attributed to the window where
  // it completes; the overshot windows close with zero steps.
  obs::run_probe probe(0, 100);
  probe.on_steps(30, 10);
  ASSERT_TRUE(probe.windows().empty());
  probe.on_steps(350, 100);  // counter jumps 30 -> 380: closes w0, w1, w2
  ASSERT_EQ(probe.windows().size(), 3u);
  EXPECT_EQ(probe.windows()[0].steps, 380u);
  EXPECT_EQ(probe.windows()[0].active_steps, 110u);
  EXPECT_EQ(probe.windows()[1].steps, 0u);
  EXPECT_EQ(probe.windows()[2].steps, 0u);
  probe.on_steps(20, 0);  // 400 exactly: the boundary step closes w3
  ASSERT_EQ(probe.windows().size(), 4u);
  EXPECT_EQ(probe.windows()[3].steps, 20u);
  probe.finish();  // nothing accumulated past the last boundary
  EXPECT_EQ(probe.stats().windows_closed, 4u);
}

TEST(ProbeWindows, RingDropsOldestWindowAtTheCap) {
  obs::run_probe probe(0, 1);
  const std::uint64_t total = obs::run_probe::kMaxWindows + 10;
  for (std::uint64_t s = 0; s < total; ++s) probe.on_step(false);
  EXPECT_EQ(probe.windows().size(), obs::run_probe::kMaxWindows);
  EXPECT_EQ(probe.stats().windows_closed, total);
  EXPECT_EQ(probe.windows().front().index, 10u);
  EXPECT_EQ(probe.windows().back().index, total - 1);
}

// Runs `run` twice with window-enabled probes and asserts the rings are
// bit-identical (probe_window::operator== excludes wall_ns by design) and
// consistent with the aggregate counters.
template <typename RunFn>
void expect_windows_reproducible(RunFn&& run, std::uint64_t stride,
                                 std::uint64_t window_len) {
  obs::run_probe a(stride, window_len);
  obs::run_probe b(stride, window_len);
  run(&a);
  run(&b);
  a.finish();
  b.finish();
  ASSERT_FALSE(a.windows().empty());
  ASSERT_EQ(a.stats().windows_closed, b.stats().windows_closed);
  EXPECT_TRUE(a.windows() == b.windows());
  if (a.stats().windows_closed == a.windows().size()) {
    std::uint64_t steps = 0;
    std::uint64_t active = 0;
    std::uint64_t prev_index = 0;
    for (std::size_t i = 0; i < a.windows().size(); ++i) {
      const obs::probe_window& w = a.windows()[i];
      ASSERT_EQ(w.index, i == 0 ? prev_index : prev_index + 1);
      prev_index = w.index;
      steps += w.steps;
      active += w.active_steps;
    }
    EXPECT_EQ(steps, a.stats().steps);
    EXPECT_EQ(active, a.stats().active_steps);
  }
}

TEST(ProbeWindows, StepEngineBitIdenticalAcrossReruns) {
  // run_compiled: the lazy u32 per-step fallback.
  const fast_protocol proto(fast_params{});
  const graph g = make_cycle(33);
  compiled_protocol<fast_protocol> compiled(proto);
  const edge_endpoints edges(g);
  expect_windows_reproducible(
      [&](obs::run_probe* p) {
        run_compiled(compiled, edges, g, rng(47).fork(0), {}, nullptr, p);
      },
      64, 256);
}

TEST(ProbeWindows, PackedEngineBitIdenticalAcrossReruns) {
  const fast_protocol proto(fast_params{});
  const graph g = make_clique(24);
  const tuned_runner<fast_protocol> runner(proto, g,
                                           {vertex_order::natural, 16});
  expect_windows_reproducible(
      [&](obs::run_probe* p) { runner.run(rng(48).fork(0), {}, p); }, 64,
      256);
}

TEST(ProbeWindows, SilentSchedulerBitIdenticalAcrossReruns) {
  // The event-driven scheduler in its backup-dominated regime: windows
  // also carry the active-pair trajectory.
  fast_params params;
  params.h = 4;
  params.level_threshold = 8;
  params.max_level = 9;
  rng gg(5);
  const graph g = make_random_regular(64, 4, gg);
  const fast_protocol proto(params);
  const tuned_runner<fast_protocol> runner(proto, g);
  sim_options options;
  options.scheduler = scheduler_kind::silent;
  expect_windows_reproducible(
      [&](obs::run_probe* p) { runner.run(rng(49).fork(0), options, p); },
      64, 512);
}

TEST(ProbeWindows, WellmixedBatchEngineBitIdenticalAcrossReruns) {
  // Batch engine: window steps may exceed the nominal length (a batch is
  // attributed where it completes) but the ring is still bit-identical.
  const std::uint64_t n = 4096;
  const fast_protocol proto(fast_params::practical_clique(n));
  expect_windows_reproducible(
      [&](obs::run_probe* p) { run_wellmixed(proto, n, rng(50).fork(0), {}, p); },
      1024, 4096);
}

TEST(ProbeWindows, ProbeWithWindowsIsStillInvisible) {
  // Enabling the window ring must not steer the simulation, exactly like
  // every other probe feature.
  const fast_protocol proto(fast_params{});
  const graph g = make_cycle(33);
  const tuned_runner<fast_protocol> runner(proto, g);
  const election_result plain = runner.run(rng(51).fork(0), {});
  obs::run_probe probe(64, 256);
  const election_result probed = runner.run(rng(51).fork(0), {}, &probe);
  probe.finish();
  EXPECT_EQ(plain.steps, probed.steps);
  EXPECT_EQ(plain.leader, probed.leader);
  EXPECT_EQ(plain.stabilized, probed.stabilized);
  EXPECT_GT(probe.stats().windows_closed, 0u);
}

// ---------------------------------------------------------------------------
// Histograms: bucket_of == bit_width, bucket 0 = {0}, bucket i = [2^(i-1), 2^i).

TEST(Histogram, BucketBoundaries) {
  EXPECT_EQ(obs::histogram::bucket_of(0), 0);
  EXPECT_EQ(obs::histogram::bucket_of(1), 1);
  EXPECT_EQ(obs::histogram::bucket_of(2), 2);
  EXPECT_EQ(obs::histogram::bucket_of(3), 2);
  EXPECT_EQ(obs::histogram::bucket_of(4), 3);
  EXPECT_EQ(obs::histogram::bucket_of(7), 3);
  EXPECT_EQ(obs::histogram::bucket_of(8), 4);
  for (int k = 1; k < 64; ++k) {
    const std::uint64_t lo = std::uint64_t{1} << (k - 1);
    EXPECT_EQ(obs::histogram::bucket_of(lo), k) << "k=" << k;
    EXPECT_EQ(obs::histogram::bucket_of(2 * lo - 1), k) << "k=" << k;
    EXPECT_EQ(obs::histogram::bucket_lo(k), lo) << "k=" << k;
  }
  EXPECT_EQ(obs::histogram::bucket_of(UINT64_MAX), 64);
  EXPECT_EQ(obs::histogram::bucket_lo(0), 0u);
}

TEST(Histogram, ObserveAndMerge) {
  obs::histogram a;
  a.observe(0);
  a.observe(5);
  a.observe(5);
  EXPECT_EQ(a.count, 3u);
  EXPECT_EQ(a.sum, 10u);
  EXPECT_EQ(a.min, 0u);
  EXPECT_EQ(a.max, 5u);
  EXPECT_EQ(a.buckets[0], 1u);
  EXPECT_EQ(a.buckets[3], 2u);

  obs::histogram b;
  b.observe(100);
  b.merge(a);
  EXPECT_EQ(b.count, 4u);
  EXPECT_EQ(b.sum, 110u);
  EXPECT_EQ(b.min, 0u);
  EXPECT_EQ(b.max, 100u);
  EXPECT_EQ(b.buckets[7], 1u);  // 100 in [64, 128)
  EXPECT_EQ(b.buckets[3], 2u);
}

// ---------------------------------------------------------------------------
// Metrics registry: serialisations and the sidecar merge contract.

TEST(MetricsRegistry, JsonIsDeterministicAndSorted) {
  obs::metrics_registry m;
  m.add("b.counter", 2);
  m.add("a.counter");
  m.set("z.gauge", -5);
  m.observe("h.steps", 3);
  const std::string json = m.json();
  EXPECT_NE(json.find("\"popsim_metrics\": 1"), std::string::npos);
  EXPECT_LT(json.find("a.counter"), json.find("b.counter"));
  EXPECT_NE(json.find("\"z.gauge\": -5"), std::string::npos);
  EXPECT_NE(json.find("h.steps"), std::string::npos);
  EXPECT_EQ(json, m.json());  // byte-stable
}

TEST(MetricsRegistry, TextRoundTrip) {
  obs::metrics_registry m;
  m.add("engine.steps", 12345);
  m.set("fleet.jobs", 4);
  m.observe("engine.steps_per_trial", 1);
  m.observe("engine.steps_per_trial", 100);

  obs::metrics_registry back;
  ASSERT_TRUE(back.merge_text(m.text()));
  EXPECT_EQ(back.counter("engine.steps"), 12345u);
  EXPECT_EQ(back.gauge("fleet.jobs"), 4);
  const obs::histogram* h = back.find_histogram("engine.steps_per_trial");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2u);
  EXPECT_EQ(h->sum, 101u);
  EXPECT_EQ(h->min, 1u);
  EXPECT_EQ(h->max, 100u);
  EXPECT_EQ(back.json(), m.json());
}

TEST(MetricsRegistry, MergeAddsCountersAndHistograms) {
  obs::metrics_registry a;
  obs::metrics_registry b;
  a.add("c", 1);
  b.add("c", 2);
  a.observe("h", 4);
  b.observe("h", 8);
  a.set("g", 1);
  b.set("g", 9);
  a.merge(b);
  EXPECT_EQ(a.counter("c"), 3u);
  EXPECT_EQ(a.find_histogram("h")->count, 2u);
  EXPECT_EQ(a.gauge("g"), 9);  // last writer wins
}

TEST(MetricsRegistry, TornSidecarLinesAreSkippedNotFatal) {
  obs::metrics_registry m;
  m.add("good", 7);
  std::string text = m.text();
  text += "c torn.counter 123";  // no trailing newline: a torn tail
  text.resize(text.size() - 2);  // and the value itself is cut mid-digit

  obs::metrics_registry back;
  ASSERT_TRUE(back.merge_text(text));
  EXPECT_EQ(back.counter("good"), 7u);

  obs::metrics_registry junk;
  EXPECT_FALSE(junk.merge_text("not a metrics sidecar\n"));
}

// ---------------------------------------------------------------------------
// Trace writer: catapult JSON shape and the sidecar round-trip.

class temp_path {
 public:
  explicit temp_path(const char* name)
      : path_("/tmp/popsim-test-obs-" + std::to_string(::getpid()) + "-" +
              name) {}
  ~temp_path() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(TraceWriter, EventShapeAndDocument) {
  obs::trace_writer t(42);
  t.name_process("test");
  t.begin("span", 0, {obs::trace_arg::num("k", std::int64_t{7})});
  t.instant("mark", 0, {obs::trace_arg::str("why", "because \"quotes\"")});
  t.end("span", 0);
  const std::string json = t.json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"s\": \"t\""), std::string::npos);  // scoped instant
  EXPECT_NE(json.find("\\\"quotes\\\""), std::string::npos);  // escaped
  EXPECT_NE(json.find("\"k\": 7"), std::string::npos);  // bare number
}

TEST(TraceWriter, TimestampsAreMonotone) {
  obs::trace_writer t(1);
  for (int i = 0; i < 100; ++i) t.instant("tick", 0);
  // Rendered ts fields must be non-decreasing; spot-check via the clock.
  const std::int64_t a = obs::trace_now_us();
  const std::int64_t b = obs::trace_now_us();
  EXPECT_LE(a, b);
  EXPECT_EQ(t.size(), 100u);
}

TEST(TraceWriter, SidecarRoundTripAndTornTailDrop) {
  obs::trace_writer worker(7);
  worker.begin_at("trial", 0, 1000, {obs::trace_arg::num("trial", std::uint64_t{0})});
  worker.end_at("trial", 0, 2000);
  worker.begin_at("trial", 0, 3000, {obs::trace_arg::num("trial", std::uint64_t{1})});
  worker.end_at("trial", 0, 4000);
  const temp_path sidecar("trace.jsonl");
  ASSERT_TRUE(worker.write_sidecar(sidecar.path()));

  obs::trace_writer sup(8);
  sup.instant("merge", 0);
  EXPECT_EQ(sup.merge_sidecar(sidecar.path()), 4u);
  EXPECT_EQ(sup.size(), 5u);
  EXPECT_NE(sup.json().find("\"pid\": 7"), std::string::npos);

  // Chop the file mid-line: the torn final event is dropped, the rest merge.
  std::ifstream in(sidecar.path());
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(sidecar.path(), std::ios::trunc);
  out << content.substr(0, content.size() - 10);
  out.close();
  obs::trace_writer sup2(9);
  EXPECT_EQ(sup2.merge_sidecar(sidecar.path()), 3u);

  obs::trace_writer sup3(10);
  EXPECT_EQ(sup3.merge_sidecar("/tmp/popsim-test-obs-no-such-file"), 0u);
}

// ---------------------------------------------------------------------------
// Logger: strict level parsing (the threshold itself is process-global
// state, exercised end-to-end by the CLI tests).

TEST(Log, ParseLevelIsStrict) {
  obs::log_level level = obs::log_level::info;
  EXPECT_TRUE(obs::parse_log_level("error", level));
  EXPECT_EQ(level, obs::log_level::error);
  EXPECT_TRUE(obs::parse_log_level("debug", level));
  EXPECT_EQ(level, obs::log_level::debug);
  EXPECT_FALSE(obs::parse_log_level("chatty", level));
  EXPECT_FALSE(obs::parse_log_level("", level));
  EXPECT_FALSE(obs::parse_log_level("INFO", level));
  EXPECT_EQ(level, obs::log_level::debug);  // untouched on failure
  EXPECT_STREQ(obs::to_string(obs::log_level::warn), "warn");
}

}  // namespace
}  // namespace pp
