#include "dynamics/epidemic.h"

#include <algorithm>

#include "graph/metrics.h"
#include "sched/scheduler.h"
#include "support/expects.h"

namespace pp {

namespace {

// Set of edge ids supporting O(1) insert, erase and uniform sampling.
class edge_id_pool {
 public:
  explicit edge_id_pool(std::size_t universe)
      : position_(universe, npos) {}

  bool contains(std::int64_t id) const {
    return position_[static_cast<std::size_t>(id)] != npos;
  }

  void insert(std::int64_t id) {
    if (contains(id)) return;
    position_[static_cast<std::size_t>(id)] = members_.size();
    members_.push_back(id);
  }

  void erase(std::int64_t id) {
    const std::size_t pos = position_[static_cast<std::size_t>(id)];
    if (pos == npos) return;
    const std::int64_t last = members_.back();
    members_[pos] = last;
    position_[static_cast<std::size_t>(last)] = pos;
    members_.pop_back();
    position_[static_cast<std::size_t>(id)] = npos;
  }

  std::size_t size() const { return members_.size(); }

  std::int64_t sample(rng& gen) const {
    return members_[static_cast<std::size_t>(gen.uniform_below(members_.size()))];
  }

 private:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::vector<std::size_t> position_;
  std::vector<std::int64_t> members_;
};

// Per-estimate storage of the broadcast kernel, allocated once and reused
// across broadcasts: the boundary pool over all m edge ids and one informed
// byte per node.  A completed broadcast leaves the pool empty (every edge
// ends with both endpoints informed), so only the flags are reset.
struct broadcast_scratch {
  explicit broadcast_scratch(const graph& g)
      : boundary(static_cast<std::size_t>(g.num_edges())),
        informed(static_cast<std::size_t>(g.num_nodes()), 0) {}

  edge_id_pool boundary;
  std::vector<std::uint8_t> informed;
};

// Event-driven broadcast from `source`; returns its completion step.  When
// `infection_step` is non-null, it receives the step at which each node
// became informed (n entries, already zeroed by the caller).
std::uint64_t run_broadcast(const graph& g, node_id source, rng& gen,
                            broadcast_scratch& scratch,
                            std::uint64_t* infection_step) {
  expects(source >= 0 && source < g.num_nodes(),
          "simulate_broadcast: source out of range");
  expects(g.num_edges() >= 1, "simulate_broadcast: graph must have edges");

  const node_id n = g.num_nodes();
  const double m = static_cast<double>(g.num_edges());

  auto& informed = scratch.informed;
  std::fill(informed.begin(), informed.end(), std::uint8_t{0});
  informed[static_cast<std::size_t>(source)] = 1;

  edge_id_pool& boundary = scratch.boundary;
  for (const std::int64_t id : g.incident_edge_ids(source)) boundary.insert(id);

  std::uint64_t step = 0;
  node_id remaining = n - 1;
  while (remaining > 0) {
    expects(boundary.size() > 0, "simulate_broadcast: graph must be connected");
    // Wait for the scheduler to hit a boundary edge: Geometric(|∂S|/m).
    step += gen.geometric(static_cast<double>(boundary.size()) / m);
    const std::int64_t hit = boundary.sample(gen);
    const edge& e = g.edges()[static_cast<std::size_t>(hit)];
    const node_id fresh = informed[static_cast<std::size_t>(e.u)] ? e.v : e.u;

    informed[static_cast<std::size_t>(fresh)] = 1;
    if (infection_step != nullptr) {
      infection_step[static_cast<std::size_t>(fresh)] = step;
    }
    --remaining;
    // Edges from `fresh` to informed nodes leave the boundary, the rest join.
    const auto nbrs = g.neighbors(fresh);
    const auto ids = g.incident_edge_ids(fresh);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (informed[static_cast<std::size_t>(nbrs[i])]) {
        boundary.erase(ids[i]);
      } else {
        boundary.insert(ids[i]);
      }
    }
  }
  return step;
}

// Mean completion step of `trials` broadcasts from `source`, trial t drawing
// from gen.fork(t).
double mean_broadcast_time(const graph& g, node_id source, int trials,
                           const rng& gen, broadcast_scratch& scratch) {
  double total = 0.0;
  for (int t = 0; t < trials; ++t) {
    rng trial_gen = gen.fork(static_cast<std::uint64_t>(t));
    total += static_cast<double>(
        run_broadcast(g, source, trial_gen, scratch, nullptr));
  }
  return total / trials;
}

}  // namespace

broadcast_result simulate_broadcast(const graph& g, node_id source, rng gen) {
  broadcast_scratch scratch(g);
  broadcast_result result;
  result.infection_step.assign(static_cast<std::size_t>(g.num_nodes()), 0);
  result.completion_step =
      run_broadcast(g, source, gen, scratch, result.infection_step.data());
  return result;
}

broadcast_result simulate_broadcast_naive(const graph& g, node_id source, rng gen) {
  expects(source >= 0 && source < g.num_nodes(),
          "simulate_broadcast_naive: source out of range");

  const node_id n = g.num_nodes();
  broadcast_result result;
  result.infection_step.assign(static_cast<std::size_t>(n), 0);
  std::vector<bool> informed(static_cast<std::size_t>(n), false);
  informed[static_cast<std::size_t>(source)] = true;
  node_id remaining = n - 1;

  edge_scheduler sched(g, gen);
  while (remaining > 0) {
    const interaction it = sched.next();
    const bool a = informed[static_cast<std::size_t>(it.initiator)];
    const bool b = informed[static_cast<std::size_t>(it.responder)];
    if (a == b) continue;
    const node_id fresh = a ? it.responder : it.initiator;
    informed[static_cast<std::size_t>(fresh)] = true;
    result.infection_step[static_cast<std::size_t>(fresh)] = sched.steps();
    --remaining;
  }
  result.completion_step = sched.steps();
  return result;
}

double estimate_broadcast_time(const graph& g, node_id source, int trials, rng gen) {
  expects(trials >= 1, "estimate_broadcast_time: need trials >= 1");
  broadcast_scratch scratch(g);
  return mean_broadcast_time(g, source, trials, gen, scratch);
}

broadcast_time_estimate estimate_worst_case_broadcast_time(
    const graph& g, int trials_per_source, int max_sources, rng gen) {
  expects(trials_per_source >= 1 && max_sources >= 1,
          "estimate_worst_case_broadcast_time: need positive budgets");

  const node_id n = g.num_nodes();
  std::vector<node_id> sources;
  if (n <= max_sources) {
    for (node_id v = 0; v < n; ++v) sources.push_back(v);
  } else {
    // The worst (and best) sources on all our families are extremal in degree
    // or eccentricity; evaluate those plus random probes.
    node_id lo = 0;
    node_id hi = 0;
    for (node_id v = 0; v < n; ++v) {
      if (g.degree(v) < g.degree(lo)) lo = v;
      if (g.degree(v) > g.degree(hi)) hi = v;
    }
    sources.push_back(lo);
    sources.push_back(hi);
    while (static_cast<int>(sources.size()) < max_sources) {
      sources.push_back(static_cast<node_id>(
          gen.uniform_below(static_cast<std::uint64_t>(n))));
    }
    std::sort(sources.begin(), sources.end());
    sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
  }

  broadcast_time_estimate est;
  est.min_value = -1.0;
  broadcast_scratch scratch(g);
  std::uint64_t stream = 0;
  for (const node_id v : sources) {
    const double mean = mean_broadcast_time(g, v, trials_per_source,
                                            gen.fork(stream++), scratch);
    if (mean > est.value) {
      est.value = mean;
      est.argmax = v;
    }
    if (est.min_value < 0.0 || mean < est.min_value) est.min_value = mean;
  }
  return est;
}

std::uint64_t distance_k_propagation_step(const broadcast_result& r,
                                          const std::vector<std::int32_t>& distances,
                                          std::int32_t k) {
  expects(r.infection_step.size() == distances.size(),
          "distance_k_propagation_step: size mismatch");
  std::uint64_t best = static_cast<std::uint64_t>(-1);
  for (std::size_t v = 0; v < distances.size(); ++v) {
    if (distances[v] == k) best = std::min(best, r.infection_step[v]);
  }
  return best;
}

}  // namespace pp
