// The well-mixed prepare_wellmixed instantiations (see fleet/artifact.h for
// why they live in a translation unit of their own).
#include "fleet/artifact.h"

namespace pp::fleet {

template prepared_sweep prepare_wellmixed<fast_protocol>(
    fast_protocol, std::uint64_t, std::string, protocol_desc,
    const sweep_artifact*);
template prepared_sweep prepare_wellmixed<beauquier_protocol>(
    beauquier_protocol, std::uint64_t, std::string, protocol_desc,
    const sweep_artifact*);

}  // namespace pp::fleet
