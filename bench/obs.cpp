// E18 — flight recorder overhead (src/obs/): the probes' zero-cost contract.
//
// Two claims are pinned here:
//
//   1. Disabled cost: every engine loop takes a Probe template parameter
//      defaulting to null_probe, with each hook site behind
//      `if constexpr (Probe::enabled)`.  The compiled loop must therefore be
//      the pre-probe loop: a run with probes disabled (either the default
//      call or an explicit null_probe* argument) may cost at most 1% of
//      steps/sec vs itself across variants.  Enforced at PP_BENCH_SCALE >= 1,
//      informational below (CI benches at scale 0.1).
//
//   2. Enabled cost: a full run_probe at the default census stride (1024)
//      counts every step, predicate evaluation and rng draw, and samples the
//      census trajectory — for at most 10% of the uninstrumented steps/sec.
//
//   3. Window-ring cost: the same probe with the fixed-interval window ring
//      on (window_len 65536, the CLI's stride*64 default) stays inside the
//      same 10% enabled budget, and the ring of closed windows is
//      bit-identical across reps of the same seed.
//
//   4. --progress cost: a supervised W=2 sweep with the live status line
//      enabled (fleet/supervisor.h progress) costs at most 10% of trials/sec
//      vs the same sweep with it off, and the merged summary is unchanged —
//      the line is throttled stderr, never part of the data path.
//
// Determinism is a hard gate at every scale: the probed run must be
// bit-identical (stabilized/steps/leader) to the unprobed run per seed —
// probes observe, they never steer (tests/test_obs.cpp has the full matrix;
// this pins it on the bench workload too).
//
// Emits BENCH_obs.json next to the table.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "bench_common.h"
#include "core/fast_election.h"
#include "engine/engine.h"
#include "fleet/supervisor.h"
#include "graph/generators.h"
#include "obs/probe.h"

namespace pp {
namespace {

struct obs_cell {
  std::string variant;
  int trials = 0;
  std::uint64_t steps = 0;
  double seconds = 0;
  double steps_per_sec() const { return seconds > 0 ? steps / seconds : 0.0; }
};

int run() {
  const double scale = bench_scale();
  bench::banner(
      "E18", "flight recorder overhead (engine probes, src/obs/)",
      "Compile-time-gated probes must cost nothing when disabled (the hooks\n"
      "are if-constexpr dead branches) and <= 10% when fully enabled, and\n"
      "must never change a seeded run's steps/leader.");

  const node_id n = static_cast<node_id>(6000 * scale) + 128;
  const int trials = bench::scaled(16);
  const int reps = 3;  // fastest-of: scheduler noise must not read as cost
  const graph g = make_cycle(n);
  const double b = estimate_worst_case_broadcast_time(g, 10, 4, rng(11)).value;
  const fast_protocol proto(fast_params::practical(g, b));
  const tuned_runner<fast_protocol> runner(proto, g);
  const sim_options options;
  const rng seed(7);

  // Per-trial results of the unprobed run, the determinism reference.
  std::vector<election_result> reference(static_cast<std::size_t>(trials));

  // default:   the pre-existing call, probe type null_probe by default
  // null-ptr:  an explicit disabled-probe pointer through the new overload
  // probed:    a full run_probe at the default stride
  // windowed:  the same probe with the fixed-interval window ring on
  obs_cell base{"default", trials, 0, 0};
  obs_cell disabled{"null-ptr", trials, 0, 0};
  obs_cell probed{"probed-1024", trials, 0, 0};
  obs_cell windowed{"windowed-65536", trials, 0, 0};
  bool determinism_ok = true;
  bool window_determinism_ok = true;
  std::uint64_t census_samples = 0;
  std::uint64_t silent_steps = 0;
  std::uint64_t windows_closed = 0;
  constexpr std::uint64_t kWindowLen = 65536;  // the CLI's stride*64 default
  std::vector<std::vector<obs::probe_window>> ring_reference(
      static_cast<std::size_t>(trials));

  for (int rep = 0; rep < reps; ++rep) {
    std::uint64_t steps = 0;
    bench::stopwatch t_base;
    for (int t = 0; t < trials; ++t) {
      const election_result r =
          runner.run(seed.fork(static_cast<std::uint64_t>(t)), options);
      steps += r.steps;
      reference[static_cast<std::size_t>(t)] = r;
    }
    const double s = t_base.seconds();
    if (rep == 0 || s < base.seconds) base.seconds = s;
    base.steps = steps;

    steps = 0;
    bench::stopwatch t_disabled;
    for (int t = 0; t < trials; ++t) {
      steps += runner
                   .run(seed.fork(static_cast<std::uint64_t>(t)), options,
                        static_cast<obs::null_probe*>(nullptr))
                   .steps;
    }
    const double ds = t_disabled.seconds();
    if (rep == 0 || ds < disabled.seconds) disabled.seconds = ds;
    disabled.steps = steps;

    steps = 0;
    census_samples = 0;
    silent_steps = 0;
    bench::stopwatch t_probed;
    for (int t = 0; t < trials; ++t) {
      obs::run_probe probe;
      const election_result r =
          runner.run(seed.fork(static_cast<std::uint64_t>(t)), options, &probe);
      steps += r.steps;
      census_samples += probe.stats().census.size();
      silent_steps += probe.stats().silent_steps();
      const election_result& ref = reference[static_cast<std::size_t>(t)];
      determinism_ok = determinism_ok && r.stabilized == ref.stabilized &&
                       r.steps == ref.steps && r.leader == ref.leader &&
                       probe.stats().steps == r.steps;
    }
    const double ps = t_probed.seconds();
    if (rep == 0 || ps < probed.seconds) probed.seconds = ps;
    probed.steps = steps;

    steps = 0;
    windows_closed = 0;
    bench::stopwatch t_windowed;
    for (int t = 0; t < trials; ++t) {
      obs::run_probe probe(obs::run_probe::kDefaultStride, kWindowLen);
      const election_result r =
          runner.run(seed.fork(static_cast<std::uint64_t>(t)), options, &probe);
      probe.finish();
      steps += r.steps;
      windows_closed += probe.stats().windows_closed;
      const election_result& ref = reference[static_cast<std::size_t>(t)];
      determinism_ok = determinism_ok && r.stabilized == ref.stabilized &&
                       r.steps == ref.steps && r.leader == ref.leader;
      // Window boundaries live on the step counter, so the ring must be
      // bit-identical rep over rep (probe_window:: operator== skips wall_ns).
      auto& ring = ring_reference[static_cast<std::size_t>(t)];
      if (rep == 0) {
        ring = probe.windows();
      } else {
        window_determinism_ok =
            window_determinism_ok && probe.windows() == ring;
      }
    }
    const double ws = t_windowed.seconds();
    if (rep == 0 || ws < windowed.seconds) windowed.seconds = ws;
    windowed.steps = steps;
  }

  // --- --progress overhead: supervised W=2 sweep, status line off vs on ---
  // Fastest of two reps, like the engine rows; the line is throttled to the
  // supervisor's poll cadence, so its cost must vanish against real trials.
  double progress_overhead = 0;
  double sup_plain_s = 0, sup_progress_s = 0;
  {
    const int sup_trials = bench::scaled(16);
    const fleet::trial_fn trial = [&](std::uint64_t, rng gen) {
      return runner.run(gen, options);
    };
    election_summary plain_sum, progressed_sum;
    for (int rep = 0; rep < 2; ++rep) {
      bench::stopwatch plain_timer;
      plain_sum = summarize_election_results(fleet::supervised_fleet_run(
          static_cast<std::uint64_t>(sup_trials), rng(7), trial, 2, {}));
      const double s = plain_timer.seconds();
      if (rep == 0 || s < sup_plain_s) sup_plain_s = s;

      fleet::supervise_options with_progress;
      with_progress.progress = true;
      with_progress.progress_interval_ms = 200;
      bench::stopwatch progress_timer;
      progressed_sum = summarize_election_results(fleet::supervised_fleet_run(
          static_cast<std::uint64_t>(sup_trials), rng(7), trial, 2, with_progress));
      const double gs = progress_timer.seconds();
      if (rep == 0 || gs < sup_progress_s) sup_progress_s = gs;
    }
    determinism_ok = determinism_ok &&
                     plain_sum.stabilized_fraction ==
                         progressed_sum.stabilized_fraction &&
                     plain_sum.steps.mean == progressed_sum.steps.mean &&
                     plain_sum.steps.count == progressed_sum.steps.count;
    progress_overhead =
        sup_plain_s > 0
            ? std::max(0.0, (sup_progress_s - sup_plain_s) / sup_plain_s)
            : 0.0;
  }

  const auto overhead = [&](const obs_cell& c) {
    return base.steps_per_sec() > 0
               ? std::max(0.0, 1.0 - c.steps_per_sec() / base.steps_per_sec())
               : 0.0;
  };
  const double disabled_frac = overhead(disabled);
  const double enabled_frac = overhead(probed);
  const double windowed_frac = overhead(windowed);

  text_table table({"variant", "trials", "steps", "seconds", "steps/s",
                    "overhead"});
  for (const obs_cell* c : {&base, &disabled, &probed, &windowed}) {
    table.add_row({c->variant, std::to_string(c->trials),
                   std::to_string(c->steps), format_number(c->seconds, 3),
                   format_number(c->steps_per_sec(), 4),
                   c == &base ? "-" : format_number(overhead(*c), 4)});
  }
  bench::print_table(table);
  std::printf("probed runs: %llu census samples, %llu silent steps, "
              "%llu windows closed (determinism %s, window ring %s)\n",
              static_cast<unsigned long long>(census_samples),
              static_cast<unsigned long long>(silent_steps),
              static_cast<unsigned long long>(windows_closed),
              determinism_ok ? "yes" : "NO",
              window_determinism_ok ? "bit-identical" : "DIVERGED");
  std::printf("--progress (supervised W=2): off %.3fs, on %.3fs "
              "(overhead %.2f%%)\n",
              sup_plain_s, sup_progress_s, 100.0 * progress_overhead);

  // The overhead gates need the full workload to drown out per-trial setup;
  // at CI's scale 0.1 they are informational.  Determinism — engine results
  // and the window ring alike — is always a gate.
  const bool enforce = scale >= 1.0;
  const bool disabled_ok = !enforce || disabled_frac <= 0.01;
  const bool enabled_ok = !enforce || enabled_frac <= 0.10;
  const bool windowed_ok = !enforce || windowed_frac <= 0.10;
  const bool progress_ok = !enforce || progress_overhead <= 0.10;

  bench::json_writer json;
  json.begin_object();
  json.key("bench").value("obs");
  json.key("scale").value(scale);
  json.key("n").value(static_cast<std::uint64_t>(n));
  json.key("results").begin_array();
  for (const obs_cell* c : {&base, &disabled, &probed, &windowed}) {
    json.begin_object();
    json.key("variant").value(c->variant);
    json.key("trials").value(c->trials);
    json.key("steps").value(c->steps);
    json.key("seconds").value(c->seconds);
    json.key("steps_per_sec").value(c->steps_per_sec());
    json.end_object();
  }
  json.end_array();
  json.key("census_samples").value(census_samples);
  json.key("silent_steps").value(silent_steps);
  json.key("windows_closed").value(windows_closed);
  json.key("overhead_disabled_frac").value(disabled_frac);
  json.key("overhead_enabled_frac").value(enabled_frac);
  json.key("overhead_windowed_frac").value(windowed_frac);
  json.key("progress_overhead_frac").value(progress_overhead);
  json.key("overhead_enforced").value(enforce);
  json.key("disabled_pass").value(disabled_ok);
  json.key("enabled_pass").value(enabled_ok);
  json.key("windowed_pass").value(windowed_ok);
  json.key("progress_pass").value(progress_ok);
  json.key("determinism_pass").value(determinism_ok);
  json.key("window_determinism_pass").value(window_determinism_ok);
  json.end_object();
  json.write_file("BENCH_obs.json");

  std::printf(
      "Reading: `probed-1024` carries a full run_probe (census stride 1024);\n"
      "`windowed-65536` adds the fixed-interval window ring on top (same 10%%\n"
      "budget); `null-ptr` goes through the probe-templated overload with the\n"
      "probe type disabled and must be free (<= 1%%, the zero-cost contract).\n"
      "Determinism is a hard gate at every scale.  Wrote BENCH_obs.json.\n");

  if (!determinism_ok) {
    std::fprintf(stderr, "FAIL: a probed run diverged from the unprobed run.\n");
  }
  if (!window_determinism_ok) {
    std::fprintf(stderr,
                 "FAIL: the window ring diverged between reps of the same "
                 "seed.\n");
  }
  if (!disabled_ok) {
    std::fprintf(stderr,
                 "FAIL: disabled probes cost %.2f%%, above the 1%% zero-cost "
                 "threshold.\n",
                 100.0 * disabled_frac);
  }
  if (!enabled_ok) {
    std::fprintf(stderr,
                 "FAIL: enabled probes cost %.2f%%, above the 10%% "
                 "threshold.\n",
                 100.0 * enabled_frac);
  }
  if (!windowed_ok) {
    std::fprintf(stderr,
                 "FAIL: the window ring costs %.2f%%, above the 10%% "
                 "threshold.\n",
                 100.0 * windowed_frac);
  }
  if (!progress_ok) {
    std::fprintf(stderr,
                 "FAIL: --progress costs %.2f%%, above the 10%% threshold.\n",
                 100.0 * progress_overhead);
  }
  return determinism_ok && window_determinism_ok && disabled_ok &&
                 enabled_ok && windowed_ok && progress_ok
             ? 0
             : 1;
}

}  // namespace
}  // namespace pp

int main() { return pp::run(); }
