// The three benchmark workloads. Each runs as one *pass*: set-up (world
// build, site population, warm-up), a timed phase of a fixed number of ops,
// then post-run output checks. A pass is either untraced (end-to-end
// numbers, deterministic work counts) or traced (the obs collector, router
// forward-latency histograms, a Network tracer and the benchmark's own
// spans attached, for the per-layer numbers).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"
#include "probes.hpp"

namespace perfbench {

struct PassConfig {
  std::uint64_t seed = 1;
  /// Run length in nominal seconds; each workload turns it into a fixed op
  /// count, so the ops (and every sim-time result) depend only on the seed
  /// and this value, never on host speed.
  double seconds = 10;
  bool traced = false;
  /// Set-ups performed; all but the last are torn down at once. Their
  /// median is setup_s.
  int setups = 1;
};

struct PassResult {
  std::vector<double> setup_s;  // one per set-up performed
  double world_s = 0;           // last set-up's phases
  double sites_s = 0;
  double warmup_s = 0;

  OpLog log{0};
  SliceClock quarters{0, 0};
  double timed_s = 0;           // host seconds in the timed phase
  double sim_s = 0;             // simulated seconds the timed phase covered
  std::uint64_t events = 0;     // sim events executed in the timed phase
  AllocTotals allocs;           // allocations in the timed phase

  /// Per-layer numbers read from the system's own counters (and, in a
  /// traced pass, from the attached instruments).
  MetricMap layer;
  /// Counter names in the workload's proxy registry (shapes the obs probe).
  std::vector<std::string> counter_names;
  /// Traced pass only: the benchmark's spans and the obs collector's
  /// retained request traces, both Chrome trace JSON.
  std::string spans_json;
  std::string collector_json;
};

using WorkloadFn = PassResult (*)(const PassConfig&);

struct WorkloadInfo {
  const char* name;
  WorkloadFn run;
  /// Input shapes for the layer probes.
  ProbeShape probes;
};

/// The registered workloads (remote_cold, fleet_stream, bulk_lossy).
[[nodiscard]] const std::vector<WorkloadInfo>& workloads();

}  // namespace perfbench
