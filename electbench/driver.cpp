// electbench — the election-sweep benchmark driver.
//
// One invocation runs one named workload the way popsim and the paper benches
// do: graph, B(G) estimate, prepared tuned_runner, trials, merged summary,
// check.  It repeats that sweep for a fixed wall-clock budget, checks every
// trial, and prints one JSON result line last on stdout (README.md has the
// metric definitions).  Every call into a layer's public entry point is timed
// here, around the call; with --trace 1 those timings are also kept as spans
// (name, start, end, parent) and written when the run ends.
//
//   electbench --workload NAME --seed N --seconds S --trace 0|1
//              --reference DIR --workdir DIR --popsim PATH
//   electbench --record NAME [--reference DIR]
//
// --record regenerates a workload's reference file (the rr8-step per-trial
// digest, or the step-engine statistics the silent workloads are checked
// against).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/families.h"
#include "core/fast_election.h"
#include "dynamics/epidemic.h"
#include "engine/engine.h"
#include "fleet/artifact.h"
#include "fleet/supervisor.h"
#include "obs/probe.h"
#include "obs/trace.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "support/stats.h"

namespace {

using pp::election_result;
using pp::fast_params;
using pp::fast_protocol;
using pp::node_id;
using pp::rng;
using runner_type = pp::tuned_runner<fast_protocol>;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double secs(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Linear-interpolation quantile; 0 for an empty sample.
double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  return pp::quantile_sorted(xs, q);
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 0.5); }

// ------------------------------------------------------------- workloads ---

enum class check_kind {
  digest,  // every trial's (steps, leader) equals the recorded digest
  stats,   // mean steps and mean leader id within 3σ of step-engine stats
  fleet,   // fleet results equal an in-process run of the same seeds
};

struct workload {
  std::string name;
  std::string family;
  std::vector<node_id> sizes;
  // Practical parameters over an estimated B(G) (as popsim does); otherwise
  // the backup-dominated regime of bench/silent.cpp, with no estimate.
  bool practical = true;
  pp::scheduler_kind scheduler = pp::scheduler_kind::step;
  check_kind check = check_kind::digest;
  int trials = 100;       // per size and sweep
  int blocks = 0;         // in-process: trial-seed pool = blocks x trials
  int calib_trials = 1;   // single-threaded probe calibration (traced runs)
  std::uint64_t graph_seed = 0;
  int ref_trials = 0;     // step-engine trials behind a stats reference
};

// The four workloads; README.md and workloads.json say why each exists and
// which layers it loads.  Graphs and B(G) estimates come from fixed seeds so
// the recorded references stay valid; --seed picks the trials.
const std::vector<workload>& all_workloads() {
  static const std::vector<workload> all = {
      {"rr8-step", "rr8", {10000}, true, pp::scheduler_kind::step,
       check_kind::digest, 100, 16, 8, 0xe1ec0001},
      {"rr8-backup-silent", "rr8", {20000}, false, pp::scheduler_kind::silent,
       check_kind::stats, 100, 8, 6, 0xe1ec0002, 240},
      {"clique-silent", "clique", {200}, true, pp::scheduler_kind::silent,
       check_kind::stats, 100, 8, 3, 0xe1ec0003, 2000},
      {"rr8-sweep-fleet", "rr8", {500, 1000, 2000}, true,
       pp::scheduler_kind::step, check_kind::fleet, 64, 0, 16, 0xe1ec0004},
  };
  return all;
}

const workload& workload_by_name(const std::string& name) {
  for (const workload& w : all_workloads()) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// bench/silent.cpp's backup-dominated regime: h = 4, L = 8, α·L = 9.
fast_params backup_regime() {
  fast_params p;
  p.h = 4;
  p.level_threshold = 8;
  p.max_level = 9;
  return p;
}

// Per-size seed root: graph = fork(0), B(G) estimate = fork(1), in-process
// trial pool = fork(2), step-engine reference trials = fork(3).
rng size_root(const workload& w, node_id n) {
  return rng(w.graph_seed).fork(static_cast<std::uint64_t>(n));
}

// Fleet trial t of size n runs rng(manifest_seed).fork(2).fork(t), exactly
// as popsim --worker derives it.
std::uint64_t manifest_seed(std::uint64_t seed, node_id n) {
  return mix64(seed ^ mix64(static_cast<std::uint64_t>(n)));
}

std::size_t bench_threads() {
  return std::min<std::size_t>(4, pp::hardware_threads());
}

// ----------------------------------------------------------------- spans ---

struct span {
  int id = 0;
  int parent = -1;
  std::string name;  // "<layer>.<call>"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int lane = 0;
};

// In-memory span log; disabled logs record nothing and return id -1.
class span_log {
 public:
  explicit span_log(bool on) : on_(on) {}
  bool on() const { return on_; }

  int add(const std::string& name, int parent, std::int64_t start,
          std::int64_t end, int lane = 0) {
    if (!on_) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({id, parent, name, start, end, lane});
    return id;
  }
  void set_end(int id, std::int64_t end) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = end;
  }
  const std::vector<span>& spans() const { return spans_; }

 private:
  bool on_;
  std::vector<span> spans_;
};

// Times one layer call; the span (if tracing) has exactly the timed extent.
class phase {
 public:
  phase(span_log& log, const std::string& name, int parent)
      : log_(log), start_(now_ns()), id_(log.add(name, parent, start_, start_)) {}
  phase(const phase&) = delete;
  phase& operator=(const phase&) = delete;
  ~phase() { stop(); }

  int id() const { return id_; }
  double stop() {
    if (end_ == 0) {
      end_ = now_ns();
      log_.set_end(id_, end_);
    }
    return secs(end_ - start_);
  }

 private:
  span_log& log_;
  std::int64_t start_;
  int id_;
  std::int64_t end_ = 0;
};

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

// Self time per layer under `root`: each instant of the root's extent goes to
// the layer of the deepest span covering it, so overlapping sibling spans
// (concurrent trials) count once and the layers sum to the root's duration.
std::map<std::string, double> self_times(const std::vector<span>& spans,
                                         int root) {
  std::vector<const span*> tree;
  std::map<int, int> depth;
  for (const span& s : spans) {
    if (s.id == root) {
      depth[s.id] = 0;
    } else if (depth.count(s.parent) != 0) {
      depth[s.id] = depth[s.parent] + 1;
    } else {
      continue;
    }
    tree.push_back(&s);
  }
  std::vector<std::int64_t> cuts;
  for (const span* s : tree) {
    cuts.push_back(s->start_ns);
    cuts.push_back(s->end_ns);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  std::map<std::string, double> out;
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    const span* deepest = nullptr;
    for (const span* s : tree) {
      if (s->start_ns <= cuts[i] && s->end_ns >= cuts[i + 1] &&
          (deepest == nullptr || depth[s->id] > depth[deepest->id])) {
        deepest = s;
      }
    }
    if (deepest != nullptr) {
      out[layer_of(deepest->name)] += secs(cuts[i + 1] - cuts[i]);
    }
  }
  return out;
}

// ------------------------------------------------------------ references ---

struct digest_entry {
  std::uint64_t steps = 0;
  node_id leader = -1;
};

struct ref_stats {
  double trials = 0, steps_mean = 0, steps_sd = 0, leader_mean = 0,
         leader_sd = 0;
};

std::string reference_path(const std::string& dir, const workload& w) {
  return dir + "/" + w.name + (w.check == check_kind::digest ? ".trials" : ".stats");
}

// "<pool index> <steps> <leader>" per line; '#' lines are comments.
std::vector<digest_entry> read_digest(const std::string& path, std::size_t pool) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference " + path);
  std::vector<digest_entry> out(pool);
  std::vector<bool> seen(pool, false);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::uint64_t index = 0;
    digest_entry e;
    if (!(fields >> index >> e.steps >> e.leader) || index >= pool) {
      throw std::runtime_error("malformed reference line in " + path + ": " + line);
    }
    out[index] = e;
    seen[index] = true;
  }
  if (std::find(seen.begin(), seen.end(), false) != seen.end()) {
    throw std::runtime_error("reference " + path + " does not cover the pool");
  }
  return out;
}

ref_stats read_stats(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference " + path);
  std::map<std::string, double> kv;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    double value = 0;
    if (!(fields >> key >> value)) {
      throw std::runtime_error("malformed reference line in " + path + ": " + line);
    }
    kv[key] = value;
  }
  for (const char* key : {"trials", "steps_mean", "steps_sd", "leader_mean", "leader_sd"}) {
    if (kv.count(key) == 0) throw std::runtime_error(path + " lacks " + key);
  }
  return {kv["trials"], kv["steps_mean"], kv["steps_sd"], kv["leader_mean"],
          kv["leader_sd"]};
}

// Deviation in combined standard errors between a sample and the reference.
double sigmas(const pp::running_stats& sample, double ref_mean, double ref_sd,
              double ref_n) {
  const double n = static_cast<double>(sample.count());
  const double se =
      std::sqrt(sample.variance() / n + ref_sd * ref_sd / ref_n);
  return se > 0 ? std::fabs(sample.mean() - ref_mean) / se : 0.0;
}

struct stats_verdict {
  double steps_sigmas = 0, leader_sigmas = 0;
  bool pass() const { return steps_sigmas <= 3.0 && leader_sigmas <= 3.0; }
};

stats_verdict check_stats(const std::vector<election_result>& results,
                          const ref_stats& ref) {
  pp::running_stats steps, leaders;
  for (const election_result& r : results) {
    steps.add(static_cast<double>(r.steps));
    leaders.add(static_cast<double>(r.leader));
  }
  return {sigmas(steps, ref.steps_mean, ref.steps_sd, ref.trials),
          sigmas(leaders, ref.leader_mean, ref.leader_sd, ref.trials)};
}

// ----------------------------------------------------------------- sweep ---

// One size's prepared sweep.  The runner borrows the graph and protocol, so
// the struct is heap-allocated and never moves.
struct prepared {
  node_id n = 0;
  pp::graph g;
  std::optional<fast_protocol> proto;
  std::optional<runner_type> runner;
  std::string artifact_path;
};

struct setup_times {
  double graph = 0, dynamics = 0, prepare = 0, save = 0;
};

struct run_context {
  const workload& w;
  std::uint64_t seed;
  std::string workdir;
  std::string popsim;
  std::size_t threads;
  std::vector<std::uint64_t> pool_indices;          // in-process trial set
  std::vector<digest_entry> digest;                 // check_kind::digest
  ref_stats stats;                                  // check_kind::stats
  std::vector<std::vector<election_result>> fleet_ref;  // per size
};

pp::sim_options options_of(const workload& w) {
  pp::sim_options o;
  o.scheduler = w.scheduler;
  return o;
}

std::vector<std::unique_ptr<prepared>> set_up(const run_context& ctx,
                                              span_log& log, int parent,
                                              setup_times& t) {
  const workload& w = ctx.w;
  std::vector<std::unique_ptr<prepared>> out;
  for (const node_id n : w.sizes) {
    auto p = std::make_unique<prepared>();
    p->n = n;
    const rng root = size_root(w, n);
    {
      phase ph(log, "graph.build", parent);
      rng gen = root.fork(0);
      p->g = pp::family_by_name(w.family).make(n, gen);
      t.graph += ph.stop();
    }
    fast_params params = backup_regime();
    if (w.practical) {
      phase ph(log, "dynamics.broadcast", parent);
      const double b =
          pp::estimate_worst_case_broadcast_time(p->g, 30, 6, root.fork(1)).value;
      params = fast_params::practical(p->g, b);
      t.dynamics += ph.stop();
    }
    p->proto.emplace(params);
    {
      phase ph(log, "engine.prepare", parent);
      p->runner.emplace(*p->proto, p->g);
      t.prepare += ph.stop();
    }
    if (w.check == check_kind::fleet) {
      phase ph(log, "fleet.artifact_save", parent);
      p->artifact_path = ctx.workdir + "/" + w.family + "-" + std::to_string(n) + ".ppaf";
      pp::fleet::save_artifact(
          pp::fleet::make_tuned_artifact(*p->runner, p->g, w.family,
                                         pp::fleet::fast_desc(params)),
          p->artifact_path);
      t.save += ph.stop();
    }
    out.push_back(std::move(p));
  }
  return out;
}

struct sweep_record {
  bool traced = false;
  double sweep_s = 0, setup_s = 0, trials_s = 0, check_s = 0;
  setup_times setup;
  double busy_s = 0;         // sum of in-process run() wall times
  double fleet_s = 0;        // sum of supervised sweep wall times
  double first_trial_s = 0;  // the earliest-started run() (lazy views)
  std::vector<double> latency_s;
  std::vector<election_result> results;  // in trial order, sizes concatenated
  pp::election_summary summary;
  std::uint64_t steps = 0;
  int attempted = 0, ok = 0, fleet_failed = 0;
  stats_verdict verdict;
  int root = -1;
  std::size_t states = 0, working_set = 0, bytes_per_step = 0;
};

bool elected(const election_result& r) { return r.stabilized && r.leader >= 0; }

bool same_result(const election_result& a, const election_result& b) {
  return a.stabilized == b.stabilized && a.steps == b.steps &&
         a.leader == b.leader && a.distinct_states_used == b.distinct_states_used;
}

// Per-trial latency of a supervised sweep, from the supervisor's timeline:
// trial t took from the previous record of its chunk (or the chunk's
// assignment, which includes worker start-up) to its own record.
std::vector<double> fleet_latencies(const std::string& trace_json,
                                    std::uint64_t trials) {
  const auto number_after = [&](std::size_t from, const std::string& key) {
    const std::size_t at = trace_json.find("\"" + key + "\": ", from);
    return std::stoll(trace_json.substr(at + key.size() + 4, 24));
  };
  std::vector<std::int64_t> record_ts(trials, -1), chunk_ts(trials, -1);
  const std::string_view json = trace_json;
  for (std::size_t at = json.find("{\"name\": "); at != std::string::npos;
       at = json.find("{\"name\": ", at + 1)) {
    const bool record = json.substr(at).starts_with("{\"name\": \"record\"");
    const bool chunk = json.substr(at).starts_with("{\"name\": \"chunk_assign\"");
    if (!record && !chunk) continue;
    const std::int64_t ts = number_after(at, "ts");
    if (record) {
      record_ts[static_cast<std::size_t>(number_after(at, "trial"))] = ts;
    } else {
      chunk_ts[static_cast<std::size_t>(number_after(at, "base"))] = ts;
    }
  }
  std::vector<double> out;
  for (std::uint64_t t = 0; t < trials; ++t) {
    const std::int64_t from = chunk_ts[t] >= 0 ? chunk_ts[t]
                              : t > 0          ? record_ts[t - 1]
                                               : -1;
    if (record_ts[t] >= 0 && from >= 0) {
      out.push_back(static_cast<double>(record_ts[t] - from) * 1e-6);
    }
  }
  return out;
}

std::vector<election_result> fleet_sweep(const run_context& ctx,
                                         const prepared& p, std::uint64_t trials,
                                         std::vector<double>& latency) {
  pp::fleet::worker_manifest manifest;
  manifest.artifact_path = p.artifact_path;
  manifest.seed = manifest_seed(ctx.seed, p.n);
  manifest.trials = trials;
  manifest.jobs = static_cast<int>(ctx.threads);
  const std::string manifest_path =
      ctx.workdir + "/" + ctx.w.family + "-" + std::to_string(p.n) + ".manifest";
  pp::fleet::write_manifest(manifest, manifest_path);
  pp::obs::trace_writer timeline;
  pp::fleet::supervise_options sup;
  sup.trace = &timeline;
  const pp::sim_options options;
  const runner_type& runner = *p.runner;
  auto results = pp::fleet::supervised_spawn_sweep(
      ctx.popsim, manifest_path, manifest, sup,
      [&](std::uint64_t, rng gen) { return runner.run(gen, options); });
  for (const double s : fleet_latencies(timeline.json(), trials)) {
    latency.push_back(s);
  }
  return results;
}

// In-process trials on the shared runner, one run() per trial on up to
// ctx.threads threads; start/end stamps go into per-trial slots.
void in_process_trials(const run_context& ctx, const prepared& p,
                       std::vector<election_result>& results,
                       std::vector<std::int64_t>& start,
                       std::vector<std::int64_t>& end) {
  const std::size_t count = ctx.pool_indices.size();
  results.assign(count, {});
  start.assign(count, 0);
  end.assign(count, 0);
  const rng pool = size_root(ctx.w, p.n).fork(2);
  const pp::sim_options options = options_of(ctx.w);
  pp::parallel_for(
      count,
      [&](std::size_t i) {
        start[i] = now_ns();
        results[i] = p.runner->run(pool.fork(ctx.pool_indices[i]), options);
        end[i] = now_ns();
      },
      ctx.threads);
}

// Assigns overlapping trial spans to display lanes (first free lane).
std::vector<int> lanes_of(const std::vector<std::int64_t>& start,
                          const std::vector<std::int64_t>& end) {
  std::vector<std::size_t> order(start.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return start[a] < start[b]; });
  std::vector<std::int64_t> lane_end;
  std::vector<int> lane(start.size(), 0);
  for (const std::size_t i : order) {
    std::size_t l = 0;
    while (l < lane_end.size() && lane_end[l] > start[i]) ++l;
    if (l == lane_end.size()) lane_end.push_back(0);
    lane_end[l] = end[i];
    lane[i] = static_cast<int>(l) + 1;
  }
  return lane;
}

sweep_record run_sweep(const run_context& ctx, span_log& log) {
  const workload& w = ctx.w;
  sweep_record rec;
  rec.traced = log.on();
  phase whole(log, "bench.workload", -1);
  rec.root = whole.id();

  std::vector<std::unique_ptr<prepared>> sizes;
  {
    phase ph(log, "bench.setup", whole.id());
    sizes = set_up(ctx, log, ph.id(), rec.setup);
    rec.setup_s = ph.stop();
  }
  const runner_type& last = *sizes.back()->runner;
  rec.states = last.compiled().num_states();
  rec.working_set = last.working_set_bytes();
  rec.bytes_per_step = last.bytes_per_step();

  std::vector<election_result> results;
  if (w.check == check_kind::fleet) {
    const std::int64_t t0 = now_ns();
    for (const auto& p : sizes) {
      phase ph(log, "fleet.sweep", whole.id());
      auto part = fleet_sweep(ctx, *p, static_cast<std::uint64_t>(w.trials),
                              rec.latency_s);
      rec.fleet_s += ph.stop();
      results.insert(results.end(), part.begin(), part.end());
    }
    rec.trials_s = secs(now_ns() - t0);
  } else {
    std::vector<std::int64_t> start, end;
    phase ph(log, "parallel.trials", whole.id());
    in_process_trials(ctx, *sizes.front(), results, start, end);
    rec.trials_s = ph.stop();
    const std::string name =
        w.scheduler == pp::scheduler_kind::silent ? "silent.run" : "engine.run";
    const auto lane = log.on() ? lanes_of(start, end) : std::vector<int>{};
    std::size_t first = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      rec.latency_s.push_back(secs(end[i] - start[i]));
      rec.busy_s += secs(end[i] - start[i]);
      if (start[i] < start[first]) first = i;
      log.add(name, ph.id(), start[i], end[i], log.on() ? lane[i] : 0);
    }
    rec.first_trial_s = secs(end[first] - start[first]);
  }

  {
    phase ph(log, "bench.check", whole.id());
    // The merged summary a sweep reports, then the per-trial check.
    rec.summary = pp::summarize_election_results(results);
    bool sweep_ok = true;
    if (w.check == check_kind::stats) {
      rec.verdict = check_stats(results, ctx.stats);
      sweep_ok = rec.verdict.pass();
    }
    for (std::size_t i = 0; i < results.size(); ++i) {
      const election_result& r = results[i];
      rec.steps += r.steps;
      bool ok = sweep_ok && elected(r);
      if (w.check == check_kind::digest) {
        const digest_entry& e = ctx.digest[ctx.pool_indices[i]];
        ok = ok && r.steps == e.steps && r.leader == e.leader;
      } else if (w.check == check_kind::fleet) {
        const auto per_size = static_cast<std::size_t>(w.trials);
        const bool match = same_result(r, ctx.fleet_ref[i / per_size][i % per_size]);
        rec.fleet_failed += match ? 0 : 1;
        ok = ok && match;
      }
      rec.ok += ok ? 1 : 0;
    }
    rec.attempted = static_cast<int>(results.size());
    rec.check_s = ph.stop();
  }
  rec.results = std::move(results);
  rec.sweep_s = whole.stop();
  return rec;
}

// ------------------------------------------------------------- calibrate ---

// Single-threaded runs of the first trials of this run's set, alternating
// plain and probed runs on the same seeds (probe counts therefore repeat
// exactly for a given --seed).
struct calibration {
  double plain_s = 0, probed_s = 0;
  std::uint64_t steps = 0, active = 0, predicate_evals = 0, draws = 0;
  double active_pairs_sum = 0;
  std::uint64_t active_pairs_samples = 0;
};

calibration calibrate(const run_context& ctx, const prepared& p) {
  const workload& w = ctx.w;
  const pp::sim_options options = options_of(w);
  calibration c;
  for (int t = 0; t < w.calib_trials; ++t) {
    const rng gen = w.check == check_kind::fleet
                        ? rng(manifest_seed(ctx.seed, p.n)).fork(2).fork(
                              static_cast<std::uint64_t>(t))
                        : size_root(w, p.n).fork(2).fork(
                              ctx.pool_indices[static_cast<std::size_t>(t)]);
    std::int64_t t0 = now_ns();
    p.runner->run(gen, options);
    c.plain_s += secs(now_ns() - t0);
    pp::obs::run_probe probe;
    t0 = now_ns();
    p.runner->run(gen, options, &probe);
    c.probed_s += secs(now_ns() - t0);
    const pp::obs::probe_stats& st = probe.stats();
    c.steps += st.steps;
    c.active += st.active_steps;
    c.predicate_evals += st.predicate_evals;
    c.draws += st.rng_draws;
    for (const auto& s : st.active_sets) {
      c.active_pairs_sum += static_cast<double>(s.active_pairs);
      ++c.active_pairs_samples;
    }
  }
  return c;
}

// Load + validate of every size's artifact: the work each fleet worker
// repeats before its first trial.
double artifact_load_s(const std::vector<std::unique_ptr<prepared>>& sizes) {
  const std::int64_t t0 = now_ns();
  for (const auto& p : sizes) {
    const auto artifact = pp::fleet::load_artifact(p->artifact_path);
    const pp::graph g = pp::fleet::rebuild_graph(*artifact.graph);
    const fast_protocol proto(pp::fleet::fast_params_of(artifact.protocol));
    const runner_type runner(proto, g, pp::fleet::tuning_of(artifact));
    pp::fleet::validate_tuned_artifact(artifact, runner);
  }
  return secs(now_ns() - t0);
}

// ---------------------------------------------------------------- output ---

struct metric {
  std::string name;
  double value;
  std::string unit;
};

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_result(bool correct, int attempted, int failed,
                  const std::vector<metric>& metrics) {
  std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + fmt(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

double peak_rss_mb() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}


void write_spans(const std::string& path, const run_context& ctx,
                 const span_log& log,
                 const std::vector<std::map<std::string, double>>& self) {
  std::ofstream out(path);
  out << "{\"workload\": \"" << ctx.w.name << "\", \"seed\": " << ctx.seed
      << ", \"clock\": \"steady_clock\", \"traceEvents\": [";
  bool first = true;
  for (const span& s : log.spans()) {
    out << (first ? "\n" : ",\n") << "{\"name\": \"" << s.name
        << "\", \"cat\": \"" << layer_of(s.name) << "\", \"ph\": \"X\", \"ts\": "
        << fmt(static_cast<double>(s.start_ns) / 1e3)
        << ", \"dur\": " << fmt(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
        << ", \"pid\": 1, \"tid\": " << s.lane << ", \"args\": {\"id\": " << s.id
        << ", \"parent\": " << s.parent << "}}";
    first = false;
  }
  out << "\n], \"self_time_s\": [";
  for (std::size_t i = 0; i < self.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "{";
    bool f = true;
    for (const auto& [layer, s] : self[i]) {
      out << (f ? "" : ", ") << "\"" << layer << "\": " << fmt(s);
      f = false;
    }
    out << "}";
  }
  out << "]}\n";
}

// ----------------------------------------------------------------- runs ---

struct args {
  std::string workload, record, reference = "electbench/reference",
                                workdir = ".bench_build/work", popsim;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

run_context make_context(const args& a, const workload& w) {
  run_context ctx{w, a.seed, a.workdir, a.popsim, bench_threads(), {}, {}, {}, {}};
  if (w.check != check_kind::fleet) {
    const std::uint64_t block = mix64(a.seed) % static_cast<std::uint64_t>(w.blocks);
    for (int t = 0; t < w.trials; ++t) {
      ctx.pool_indices.push_back(block * static_cast<std::uint64_t>(w.trials) +
                                 static_cast<std::uint64_t>(t));
    }
  }
  if (w.check == check_kind::digest) {
    ctx.digest = read_digest(reference_path(a.reference, w),
                             static_cast<std::size_t>(w.blocks * w.trials));
  } else if (w.check == check_kind::stats) {
    ctx.stats = read_stats(reference_path(a.reference, w));
  }
  return ctx;
}

// The fleet check's expected per-trial results: the same seeds run in
// process, outside any timed region.  Also yields the in-process busy time
// and threaded efficiency the fleet metrics compare against.
struct fleet_reference {
  double busy_s = 0, wall_s = 0;
};

fleet_reference compute_fleet_reference(run_context& ctx) {
  span_log off(false);
  setup_times ignored;
  const auto sizes = set_up(ctx, off, -1, ignored);
  fleet_reference ref;
  for (const auto& p : sizes) {
    const std::size_t trials = static_cast<std::size_t>(ctx.w.trials);
    std::vector<election_result> results(trials);
    std::vector<double> busy(trials, 0.0);
    const rng gen = rng(manifest_seed(ctx.seed, p->n)).fork(2);
    const std::int64_t t0 = now_ns();
    pp::parallel_for(
        trials,
        [&](std::size_t t) {
          const std::int64_t s = now_ns();
          results[t] = p->runner->run(gen.fork(t));
          busy[t] = secs(now_ns() - s);
        },
        ctx.threads);
    ref.wall_s += secs(now_ns() - t0);
    for (const double b : busy) ref.busy_s += b;
    ctx.fleet_ref.push_back(std::move(results));
  }
  return ref;
}

int run(const args& a) {
  const workload& w = workload_by_name(a.workload);
  std::filesystem::create_directories(a.workdir);
  run_context ctx = make_context(a, w);
  fleet_reference fref;
  if (w.check == check_kind::fleet) fref = compute_fleet_reference(ctx);

  // Sweeps until the next one would overrun the budget (at least one; in a
  // traced run at least one untraced and one traced, alternating).
  std::vector<sweep_record> sweeps;
  span_log spans(true);
  const std::int64_t t0 = now_ns();
  for (;;) {
    const bool traced = a.trace && sweeps.size() % 2 == 1;
    span_log off(false);
    sweeps.push_back(run_sweep(ctx, traced ? spans : off));
    std::vector<double> lengths;
    for (const auto& s : sweeps) lengths.push_back(s.sweep_s);
    const double elapsed = secs(now_ns() - t0);
    const bool need_traced = a.trace && sweeps.size() < 2;
    if (!need_traced && elapsed + median(lengths) > a.seconds) break;
  }
  // Set up at least five times in all, so setup_s is a median of five.
  std::vector<double> setup_samples;
  for (const auto& s : sweeps) setup_samples.push_back(s.setup_s);
  while (setup_samples.size() < 5) {
    span_log off(false);
    setup_times ignored;
    const std::int64_t s0 = now_ns();
    set_up(ctx, off, -1, ignored);
    setup_samples.push_back(secs(now_ns() - s0));
  }

  int attempted = 0, ok = 0;
  bool deterministic = true;
  std::vector<double> latency;
  for (const auto& s : sweeps) {
    attempted += s.attempted;
    ok += s.ok;
    latency.insert(latency.end(), s.latency_s.begin(), s.latency_s.end());
    // Every sweep of a run replays the same trials: results must repeat.
    for (std::size_t i = 0; i < s.results.size(); ++i) {
      deterministic = deterministic && same_result(s.results[i], sweeps[0].results[i]);
    }
  }
  if (!deterministic) ok = 0;
  const int failed = attempted - ok;
  const bool correct = failed == 0;

  const auto pick = [&](bool traced, auto field) {
    std::vector<double> xs;
    for (const auto& s : sweeps) {
      if (s.traced == traced) xs.push_back(field(s));
    }
    return xs;
  };
  const auto untraced_sweep_s = pick(false, [](const sweep_record& s) { return s.sweep_s; });
  const sweep_record& s0 = sweeps[0];
  std::fprintf(stderr,
               "electbench: %s seed=%llu sweeps=%zu (traced %zu) trials=%d "
               "threads=%zu jobs=%zu\n",
               w.name.c_str(), static_cast<unsigned long long>(a.seed),
               sweeps.size(), sweeps.size() - untraced_sweep_s.size(), attempted,
               ctx.threads, w.check == check_kind::fleet ? ctx.threads : 0);
  for (const auto& s : sweeps) {
    std::fprintf(stderr,
                 "  sweep%s %.4f s: setup %.4f trials %.4f check %.4f, "
                 "mean steps %.0f\n",
                 s.traced ? " (traced)" : "", s.sweep_s, s.setup_s, s.trials_s,
                 s.check_s, s.summary.steps.mean);
  }
  if (w.check == check_kind::stats) {
    std::fprintf(stderr, "electbench: 3-sigma check steps %.2f leader %.2f\n",
                 s0.verdict.steps_sigmas, s0.verdict.leader_sigmas);
  }

  // Machine record (stdout, before the result line).
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  std::printf(
      "{\"machine\": {\"nproc\": %zu, \"threads\": %zu, \"jobs\": %zu, "
      "\"l2_bytes_per_core\": %ld, \"l3_bytes_shared\": %ld, \"working_set_bytes\": %zu, "
      "\"working_set_fits_l3\": %s, \"timer\": \"std::chrono::steady_clock "
      "(CLOCK_MONOTONIC); no hardware PMU counters\"}, \"samples\": "
      "{\"sweeps\": %zu, \"setups\": %zu, \"trials\": %zu}}\n",
      pp::hardware_threads(), ctx.threads,
      w.check == check_kind::fleet ? ctx.threads : std::size_t{0}, l2, l3,
      s0.working_set, l3 > 0 && s0.working_set <= static_cast<std::size_t>(l3) ? "true" : "false",
      untraced_sweep_s.size(), setup_samples.size(), latency.size());

  if (!a.trace) {
    const double trials_per_s = median(pick(false, [](const sweep_record& s) {
      return s.attempted / s.trials_s;
    }));
    print_result(correct, attempted, failed,
                 {{"sweep_s", median(untraced_sweep_s), "s"},
                  {"setup_s", median(setup_samples), "s"},
                  {"trials_per_s", trials_per_s, "1/s"},
                  {"trial_s_p50", percentile(latency, 0.5), "s"},
                  {"trial_s_p90", percentile(latency, 0.9), "s"},
                  {"peak_rss_mb", peak_rss_mb(), "MB"},
                  {"ok_frac", static_cast<double>(ok) / attempted, "fraction"}});
    return 0;
  }

  // Traced run: per-layer metrics from the traced sweeps, calibration, and
  // the span file with its self-time table.
  const auto traced = [&](auto field) { return median(pick(true, field)); };
  std::vector<std::map<std::string, double>> self;
  for (const auto& s : sweeps) {
    if (s.traced) self.push_back(self_times(spans.spans(), s.root));
  }
  std::map<std::string, std::vector<double>> by_layer;
  for (const auto& m : self) {
    for (const auto& [layer, v] : m) by_layer[layer].push_back(v);
  }
  const double traced_sweep_s = traced([](const sweep_record& s) { return s.sweep_s; });
  std::fprintf(stderr, "electbench: self time by layer (median of %zu traced sweeps)\n",
               self.size());
  double self_sum = 0;
  for (const auto& [layer, vs] : by_layer) {
    std::fprintf(stderr, "  %-10s %10.4f s  %5.1f%%\n", layer.c_str(), median(vs),
                 100.0 * median(vs) / traced_sweep_s);
    self_sum += median(vs);
  }
  std::fprintf(stderr, "  %-10s %10.4f s  (traced sweep_s %.4f s)\n", "sum", self_sum,
               traced_sweep_s);
  const std::string span_path = a.workdir + "/spans-" + w.name + "-seed" +
                                std::to_string(a.seed) + ".json";
  write_spans(span_path, ctx, spans, self);
  std::fprintf(stderr, "electbench: spans -> %s\n", span_path.c_str());

  span_log off(false);
  setup_times ignored;
  const auto sizes = set_up(ctx, off, -1, ignored);
  const calibration c = calibrate(ctx, *sizes.back());
  const bool silent = w.scheduler == pp::scheduler_kind::silent;
  const bool fleet = w.check == check_kind::fleet;
  const double steps = static_cast<double>(c.steps);
  const double ns_per_step = c.plain_s * 1e9 / steps;
  const double active_frac = static_cast<double>(c.active) / steps;
  const double active_pairs_mean =
      c.active_pairs_samples > 0
          ? c.active_pairs_sum / static_cast<double>(c.active_pairs_samples)
          : 0.0;
  const double busy = fleet ? fref.busy_s : traced([](const sweep_record& s) {
    return s.busy_s;
  });
  const double trials_wall = fleet ? fref.wall_s : traced([](const sweep_record& s) {
    return s.trials_s;
  });
  const double fleet_s = traced([](const sweep_record& s) { return s.fleet_s; });
  const double threads = static_cast<double>(ctx.threads);
  // A layer the workload bypasses reports 0 (workloads.json lists them).
  const auto only = [](bool runs, double value) { return runs ? value : 0.0; };

  const std::vector<metric> metrics = {
      {"graph.build_s", traced([](const sweep_record& s) { return s.setup.graph; }), "s"},
      {"dynamics.broadcast_s",
       traced([](const sweep_record& s) { return s.setup.dynamics; }), "s"},
      {"engine.prepare_s", traced([](const sweep_record& s) { return s.setup.prepare; }),
       "s"},
      {"engine.states", static_cast<double>(s0.states), "count"},
      {"engine.busy_s", busy, "s"},
      {"engine.ns_per_step", ns_per_step, "ns"},
      {"engine.steps", static_cast<double>(s0.steps), "count"},
      {"engine.working_set_bytes", static_cast<double>(s0.working_set), "bytes-computed"},
      {"engine.bytes_per_step", static_cast<double>(s0.bytes_per_step), "bytes-computed"},
      {"engine.active_frac", active_frac, "fraction"},
      {"engine.predicate_evals_per_step", static_cast<double>(c.predicate_evals) / steps,
       "count/step"},
      {"engine.draws_per_step", static_cast<double>(c.draws) / steps, "count/step"},
      {"silent.first_trial_s",
       only(silent, traced([](const sweep_record& s) { return s.first_trial_s; })), "s"},
      {"silent.ns_per_step", only(silent, ns_per_step), "ns"},
      {"silent.ns_per_active_step", only(silent && c.active > 0, ns_per_step / active_frac),
       "ns"},
      {"silent.active_frac", only(silent, active_frac), "fraction"},
      {"silent.active_pairs_mean", only(silent, active_pairs_mean), "count"},
      {"fleet.artifact_save_s", traced([](const sweep_record& s) { return s.setup.save; }),
       "s"},
      {"fleet.artifact_load_s", fleet ? artifact_load_s(sizes) : 0.0, "s"},
      {"fleet.sweep_s", fleet_s, "s"},
      {"fleet.efficiency", only(fleet, busy / (threads * fleet_s)), "fraction"},
      {"fleet.failed_trials", static_cast<double>(s0.fleet_failed), "count"},
      {"parallel.efficiency", busy / (threads * trials_wall), "fraction"},
      {"obs.probe_overhead_frac", c.probed_s / c.plain_s - 1.0, "fraction"},
      {"trace.overhead_frac", traced_sweep_s / median(untraced_sweep_s) - 1.0, "fraction"},
  };
  print_result(correct, attempted, failed, metrics);
  return 0;
}

// ---------------------------------------------------------------- record ---

int record(const args& a) {
  const workload& w = workload_by_name(a.record);
  if (w.check == check_kind::fleet) {
    std::fprintf(stderr, "electbench: %s is checked against an in-process run, "
                         "it has no reference file\n", w.name.c_str());
    return 2;
  }
  run_context ctx{w, 0, a.workdir, "", bench_threads(), {}, {}, {}, {}};
  span_log off(false);
  setup_times ignored;
  const auto sizes = set_up(ctx, off, -1, ignored);
  const prepared& p = *sizes.front();
  const rng root = size_root(w, p.n);
  const std::size_t pool = static_cast<std::size_t>(w.blocks * w.trials);
  const std::string path = reference_path(a.reference, w);
  std::ofstream out(path);
  if (w.check == check_kind::digest) {
    std::vector<election_result> results(pool);
    pp::parallel_for(pool, [&](std::size_t t) {
      results[t] = p.runner->run(root.fork(2).fork(t), options_of(w));
    }, ctx.threads);
    out << "# " << w.name << ": (steps, leader) of every trial of the seed pool,\n"
        << "# packed step engine, natural order (electbench --record " << w.name << ").\n";
    for (std::size_t t = 0; t < pool; ++t) {
      out << t << ' ' << results[t].steps << ' ' << results[t].leader << '\n';
    }
    return 0;
  }
  // Step-engine reference statistics on seeds disjoint from the pool, then
  // the 3σ verdict of every pool block under the workload's scheduler.
  const std::size_t n_ref = static_cast<std::size_t>(w.ref_trials);
  std::vector<election_result> ref(n_ref);
  pp::parallel_for(n_ref, [&](std::size_t t) {
    ref[t] = p.runner->run(root.fork(3).fork(t));
  }, ctx.threads);
  pp::running_stats steps, leaders;
  for (const auto& r : ref) {
    steps.add(static_cast<double>(r.steps));
    leaders.add(static_cast<double>(r.leader));
  }
  const ref_stats stats{static_cast<double>(n_ref), steps.mean(), steps.stddev(),
                        leaders.mean(), leaders.stddev()};
  std::vector<election_result> pooled(pool);
  pp::parallel_for(pool, [&](std::size_t t) {
    pooled[t] = p.runner->run(root.fork(2).fork(t), options_of(w));
  }, ctx.threads);
  out << "# " << w.name << ": step-engine statistics of the stabilization step\n"
      << "# count and elected leader id (electbench --record " << w.name << ").\n";
  out.precision(17);
  out << "trials " << stats.trials << "\nsteps_mean " << stats.steps_mean
      << "\nsteps_sd " << stats.steps_sd << "\nleader_mean " << stats.leader_mean
      << "\nleader_sd " << stats.leader_sd << "\n";
  out.precision(3);
  out << "# pool blocks under the workload's scheduler, sigmas (steps, leader):\n";
  for (int b = 0; b < w.blocks; ++b) {
    const auto first = pooled.begin() + b * w.trials;
    const stats_verdict v = check_stats({first, first + w.trials}, stats);
    out << "#   block " << b << ": " << v.steps_sigmas << ' ' << v.leader_sigmas
        << (v.pass() ? "" : "  FAIL") << '\n';
  }
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: electbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "                  [--reference DIR] [--workdir DIR] --popsim PATH\n"
               "       electbench --record NAME [--reference DIR]\n"
               "workloads:");
  for (const workload& w : all_workloads()) std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  args a;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (flag == "--workload") a.workload = value;
      else if (flag == "--record") a.record = value;
      else if (flag == "--seed") a.seed = std::stoull(value);
      else if (flag == "--seconds") a.seconds = std::stod(value);
      else if (flag == "--trace") a.trace = value == "1";
      else if (flag == "--reference") a.reference = value;
      else if (flag == "--workdir") a.workdir = value;
      else if (flag == "--popsim") a.popsim = value;
      else return usage();
    }
    if (!a.record.empty()) return record(a);
    if (a.workload.empty()) return usage();
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "electbench: %s\n", e.what());
    return 1;
  }
}
