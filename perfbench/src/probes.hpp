// Layer probes (`*.probe.*` metrics). Each probe times one public function
// of its module on a private Simulator, registry or buffer, with inputs
// shaped like its workload's (path length, body size, candidate paths,
// instrument names). Every probe runs its loop once untimed to warm up,
// then reports the median of several timed batches.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct ProbeShape {
  /// Hop fields on the workload's SCION path.
  std::size_t path_hops = 0;
  /// Candidate paths the selector filters per request.
  std::size_t candidate_paths = 0;
  /// Typical response body on the workload.
  std::size_t body_bytes = 0;
};

/// Runs every probe and adds its metric to `out`. `counter_names` are the
/// names in the workload's proxy registry (the obs lookups use them).
void run_probes(const ProbeShape& shape, const std::vector<std::string>& counter_names,
                MetricMap& out);

}  // namespace perfbench
