// One-way epidemics: the information-propagation process of §3.
//
// Every node starts with a unique message; when two nodes interact they
// exchange everything they know.  Followed from a single source v this is the
// infection process whose completion time is the broadcast time T(v); its
// worst-case expectation over sources is B(G), the quantity parameterising
// the paper's upper bounds (Theorems 21 and 24).
//
// Two simulators are provided:
//  * `simulate_broadcast_naive` draws every scheduler step (reference
//    implementation, used in differential tests);
//  * `simulate_broadcast` is event-driven: the set of informed nodes only
//    changes when the scheduler hits a boundary edge, so the wait is
//    Geometric(|∂S|/m) and we skip it in O(1).  The sampled trajectory has
//    exactly the naive distribution.
//
// One event-driven kernel (epidemic.cpp) serves every broadcast here.  It
// runs on caller-owned scratch — the boundary edge-id pool over all m edges
// and one informed byte per node — and records per-node infection steps only
// when asked.  `simulate_broadcast` wraps it with fresh scratch and recording
// on; the estimators below allocate one scratch per estimate, reuse it across
// all their broadcasts and record nothing per node, drawing exactly what a
// loop of `simulate_broadcast` calls would, so their results are unchanged.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "support/rng.h"

namespace pp {

// Outcome of one broadcast trial from a single source.
struct broadcast_result {
  // infection_step[v] = scheduler step at which v became informed (0 for the
  // source itself).
  std::vector<std::uint64_t> infection_step;
  // Step at which the last node became informed, i.e. one sample of T(source).
  std::uint64_t completion_step = 0;
};

// Event-driven broadcast from `source`.  Requires a connected graph.
broadcast_result simulate_broadcast(const graph& g, node_id source, rng gen);

// Step-by-step reference broadcast (identical distribution, much slower).
broadcast_result simulate_broadcast_naive(const graph& g, node_id source, rng gen);

// Monte-Carlo estimate of E[T(source)] from `trials` independent runs.
double estimate_broadcast_time(const graph& g, node_id source, int trials, rng gen);

// Estimate of the worst-case expected broadcast time B(G) = max_v E[T(v)].
// Evaluates E[T(v)] for up to `max_sources` sources (all of them if
// n <= max_sources, otherwise the extremal-degree nodes plus random ones —
// on every family in this repo the maximiser is extremal in degree).
struct broadcast_time_estimate {
  double value = 0.0;     // max over evaluated sources of the mean T(v)
  node_id argmax = 0;     // source attaining the max
  double min_value = 0.0; // min over evaluated sources (best-case source)
};
broadcast_time_estimate estimate_worst_case_broadcast_time(
    const graph& g, int trials_per_source, int max_sources, rng gen);

// Distance-k propagation time T_k(source) extracted from one trial: the
// earliest infection step among nodes at BFS distance exactly k, or
// UINT64_MAX if no node is at that distance (§3.2).
std::uint64_t distance_k_propagation_step(const broadcast_result& r,
                                          const std::vector<std::int32_t>& distances,
                                          std::int32_t k);

}  // namespace pp
