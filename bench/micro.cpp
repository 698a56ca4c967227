// E11 — engineering micro-benchmarks (google-benchmark).
//
// Throughput of the hot paths: the scheduler, raw protocol transitions, the
// naive versus event-driven epidemic simulator, and Beauquier on the naive
// simulator versus the silent scheduler.  These do not reproduce a paper
// claim; they document why the event-driven simulators exist (orders of
// magnitude on sparse graphs) and what step rates the experiment binaries
// sustain.
#include <benchmark/benchmark.h>

#include "core/beauquier.h"
#include "core/fast_election.h"
#include "core/id_election.h"
#include "core/simulator.h"
#include "dynamics/epidemic.h"
#include "engine/engine.h"
#include "graph/generators.h"
#include "sched/scheduler.h"

namespace pp {
namespace {

void bm_scheduler_next(benchmark::State& state) {
  const graph g = make_clique(static_cast<node_id>(state.range(0)));
  edge_scheduler sched(g, rng(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched.next());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_scheduler_next)->Arg(64)->Arg(1024);

void bm_bq_interact(benchmark::State& state) {
  bq_state a{true, bq_token::black};
  bq_state b{false, bq_token::white};
  for (auto _ : state) {
    bq_interact(a, b);
    benchmark::DoNotOptimize(a);
    a.candidate = true;
    a.token = bq_token::black;
    b.token = bq_token::white;
    b.candidate = false;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_bq_interact);

void bm_fast_interact(benchmark::State& state) {
  fast_params p;
  p.h = 6;
  p.level_threshold = 14;
  p.max_level = 56;
  const fast_protocol proto(p);
  auto a = proto.initial_state(0);
  auto b = proto.initial_state(1);
  for (auto _ : state) {
    proto.interact(a, b);
    benchmark::DoNotOptimize(a);
    if (a.in_backup) {
      a = proto.initial_state(0);
      b = proto.initial_state(1);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_fast_interact);

void bm_id_interact(benchmark::State& state) {
  const id_protocol proto(24);
  auto a = proto.initial_state(0);
  auto b = proto.initial_state(1);
  for (auto _ : state) {
    proto.interact(a, b);
    benchmark::DoNotOptimize(a);
    if (a.id >= proto.id_threshold() && b.id >= proto.id_threshold()) {
      a = proto.initial_state(0);
      b = proto.initial_state(1);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_id_interact);

void bm_broadcast_naive(benchmark::State& state) {
  const graph g = make_cycle(static_cast<node_id>(state.range(0)));
  std::uint64_t trial = 0;
  rng seed(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        simulate_broadcast_naive(g, 0, seed.fork(trial++)).completion_step);
  }
}
BENCHMARK(bm_broadcast_naive)->Arg(128)->Unit(benchmark::kMicrosecond);

void bm_broadcast_event_driven(benchmark::State& state) {
  const graph g = make_cycle(static_cast<node_id>(state.range(0)));
  std::uint64_t trial = 0;
  rng seed(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        simulate_broadcast(g, 0, seed.fork(trial++)).completion_step);
  }
}
BENCHMARK(bm_broadcast_event_driven)->Arg(128)->Arg(4096)->Unit(benchmark::kMicrosecond);

void bm_beauquier_naive(benchmark::State& state) {
  const graph g = make_cycle(static_cast<node_id>(state.range(0)));
  const beauquier_protocol proto(g.num_nodes());
  std::uint64_t trial = 0;
  rng seed(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_until_stable(proto, g, seed.fork(trial++)).steps);
  }
}
BENCHMARK(bm_beauquier_naive)->Arg(32)->Unit(benchmark::kMicrosecond);

void bm_beauquier_silent(benchmark::State& state) {
  const graph g = make_cycle(static_cast<node_id>(state.range(0)));
  const beauquier_protocol proto(g.num_nodes());
  const tuned_runner<beauquier_protocol> runner(proto, g);
  const sim_options silent{.scheduler = scheduler_kind::silent};
  std::uint64_t trial = 0;
  rng seed(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.run(seed.fork(trial++), silent).steps);
  }
}
BENCHMARK(bm_beauquier_silent)->Arg(32)->Arg(256)->Unit(benchmark::kMicrosecond);

void bm_make_random_regular(benchmark::State& state) {
  rng gen(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        make_random_regular(static_cast<node_id>(state.range(0)), 8, gen).num_edges());
  }
}
BENCHMARK(bm_make_random_regular)->Arg(1024)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace pp

BENCHMARK_MAIN();
