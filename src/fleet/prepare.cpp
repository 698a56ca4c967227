// prepare_sweep (fleet/artifact.h), the one artifact rebuild.  It lives in
// a translation unit of its own: its engine instantiations would exhaust
// artifact.cpp's inline-unit-growth budget and slow the serializer.
#include <utility>

#include "core/star_protocol.h"
#include "fleet/artifact.h"

namespace pp::fleet {

prepared_sweep prepare_sweep(const sweep_artifact& artifact) {
  const protocol_desc& desc = artifact.protocol;
  if (artifact.engine == artifact_engine::tuned) {
    expects(artifact.graph.has_value(),
            "artifact: tuned artifact without a graph section");
    graph g = rebuild_graph(*artifact.graph);
    const engine_tuning tuning = tuning_of(artifact);
    if (desc.kind == protocol_kind::star) {
      expect_star_desc(desc);
      return prepare_tuned(star_protocol{}, std::move(g), tuning,
                           artifact.family, desc, &artifact);
    }
    expects(desc.kind == protocol_kind::fast,
            "artifact: tuned artifacts carry the fast or star protocol");
    return prepare_tuned(fast_protocol(fast_params_of(desc)), std::move(g),
                         tuning, artifact.family, desc, &artifact);
  }
  expects(artifact.engine == artifact_engine::wellmixed &&
              artifact.wellmixed.has_value(),
          "artifact: well-mixed artifact without a multiset section");
  const std::uint64_t n = artifact.wellmixed->population;
  if (desc.kind == protocol_kind::fast) {
    return prepare_wellmixed(fast_protocol(fast_params_of(desc)), n,
                             artifact.family, desc, &artifact);
  }
  expects(desc.kind == protocol_kind::six,
          "artifact: well-mixed artifacts carry the fast or six protocol");
  return prepare_wellmixed(beauquier_protocol(six_population_of(desc)), n,
                           artifact.family, desc, &artifact);
}

}  // namespace pp::fleet
