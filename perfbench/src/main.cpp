// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <remote_cold|fleet_stream|bulk_lossy> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// --trace 0 runs the workload untraced and reports the end-to-end metrics.
// --trace 1 runs it traced (per-layer counters and spans; in a forked
// child), then untraced (deterministic work counts, host time), then the
// layer probes, and reports the per-layer metrics. Detail lines (run
// length, behaviour digest, per-quarter cost) go first; the last stdout
// line is the JSON result.
// Single-threaded; one workload per process (--trace 1 forks one child for
// the traced pass and waits for it before going on).
#include <sys/wait.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "harness.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, &end);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
      if (!args.trace && std::strcmp(value, "0") != 0) return false;
    } else if (key == "--trace-dir") {
      args.trace_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return have_workload && args.seconds > 0 && argc % 2 == 1;
}

void print_run_detail(const char* label, const Args& args, const PassResult& pass) {
  const std::uint64_t ops = pass.log.ops();
  std::printf("# %s: workload=%s seed=%" PRIu64 " ops=%" PRIu64 " failed=%" PRIu64
              " sim_s=%.3f host_s=%.3f events=%" PRIu64 " digest=%016" PRIx64
              " checks=%" PRIu64 "\n",
              label, args.workload.c_str(), args.seed, ops, pass.log.failed(), pass.sim_s,
              pass.timed_s, pass.events, pass.log.digest(), pass.log.checks_run());
  // p99 is reported only with its sample count: the samples above it.
  const auto beyond_p99 = static_cast<std::uint64_t>(static_cast<double>(ops) * 0.01);
  std::printf("# %s: latency samples=%" PRIu64 " beyond_p99=%" PRIu64
              " p50_ms=%.4f p99_ms=%.4f\n",
              label, ops, beyond_p99, pass.log.latency_percentile_ms(50),
              pass.log.latency_percentile_ms(99));
  std::printf("# %s: quarters (of %" PRIu64 " ops) host_us_per_op=%.2f,%.2f,%.2f,%.2f"
              " rss_mb=%.1f,%.1f,%.1f,%.1f cost_growth=%.4f\n",
              label, ops, pass.quarters.us_per_op(0), pass.quarters.us_per_op(1),
              pass.quarters.us_per_op(2), pass.quarters.us_per_op(3), pass.quarters.rss_mb(0),
              pass.quarters.rss_mb(1), pass.quarters.rss_mb(2), pass.quarters.rss_mb(3),
              pass.quarters.growth());
  std::printf("# %s: ops_per_s whole_run=%.3f median_of_%d_slices=%.3f\n", label,
              static_cast<double>(ops) / pass.timed_s, SliceClock::kSlices,
              pass.quarters.median_rate());
  std::printf("# %s: slice_ops_per_s=", label);
  const std::vector<double> rates = pass.quarters.rates();
  for (std::size_t i = 0; i < rates.size(); ++i) {
    std::printf("%s%.1f", i == 0 ? "" : ",", rates[i]);
  }
  std::printf("\n");
  std::printf("# %s: setup_s=", label);
  for (std::size_t i = 0; i < pass.setup_s.size(); ++i) {
    std::printf("%s%.4f", i == 0 ? "" : ",", pass.setup_s[i]);
  }
  std::printf(" (world %.4f, sites %.4f, warmup %.4f)\n", pass.world_s, pass.sites_s,
              pass.warmup_s);
  for (const std::string& broken : pass.log.broken_checks()) {
    std::printf("# %s: BROKEN CHECK: %s\n", label, broken.c_str());
  }
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const MetricMap& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + json_number(metric.value) + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

/// What the parent needs from the traced pass.
struct TracedSummary {
  std::uint64_t digest = 0;
  double timed_s = 0;
  bool correct = false;
  MetricMap layer;
  std::vector<std::string> counter_names;
};

/// Child side: runs the traced pass, prints its detail lines, writes the
/// trace files and sends a TracedSummary down `fd` as text lines.
void traced_child(const WorkloadInfo& info, const PassConfig& config, const Args& args,
                  int fd) {
  const PassResult traced = info.run(config);
  print_run_detail("traced", args, traced);
  if (!args.trace_dir.empty()) {
    const std::string stem =
        args.trace_dir + "/" + args.workload + "-seed" + std::to_string(args.seed);
    if (!write_file(stem + ".spans.json", traced.spans_json) ||
        !write_file(stem + ".requests.json", traced.collector_json)) {
      std::fprintf(stderr, "perfbench: cannot write traces under %s\n", args.trace_dir.c_str());
    } else {
      std::printf("# traces: %s.spans.json %s.requests.json\n", stem.c_str(), stem.c_str());
    }
  }
  std::fflush(stdout);
  std::FILE* out = fdopen(fd, "w");
  if (out == nullptr) return;
  std::fprintf(out, "digest %" PRIu64 "\ntimed_s %.17g\ncorrect %d\n", traced.log.digest(),
               traced.timed_s, traced.log.broken_checks().empty() ? 1 : 0);
  for (const auto& [name, metric] : traced.layer) {
    std::fprintf(out, "metric %s %s %.17g\n", name.c_str(), metric.unit.c_str(), metric.value);
  }
  for (const std::string& name : traced.counter_names) {
    std::fprintf(out, "counter %s\n", name.c_str());
  }
  std::fclose(out);
}

/// Forks, runs the traced pass in the child and waits for it. nullopt when
/// the child failed.
std::optional<TracedSummary> run_traced_in_child(const WorkloadInfo& info,
                                                 const PassConfig& config, const Args& args) {
  int fds[2];
  if (pipe(fds) != 0) return std::nullopt;
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    close(fds[0]);
    traced_child(info, config, args, fds[1]);
    std::fflush(stdout);
    _exit(0);
  }
  close(fds[1]);
  TracedSummary summary;
  std::FILE* in = fdopen(fds[0], "r");
  char line[4096];
  while (in != nullptr && std::fgets(line, sizeof line, in) != nullptr) {
    std::string text(line);
    if (!text.empty() && text.back() == '\n') text.pop_back();
    const std::size_t space = text.find(' ');
    const std::string key = text.substr(0, space);
    const std::string rest = space == std::string::npos ? "" : text.substr(space + 1);
    if (key == "digest") {
      summary.digest = std::strtoull(rest.c_str(), nullptr, 10);
    } else if (key == "timed_s") {
      summary.timed_s = std::strtod(rest.c_str(), nullptr);
    } else if (key == "correct") {
      summary.correct = rest == "1";
    } else if (key == "counter") {
      summary.counter_names.push_back(rest);
    } else if (key == "metric") {
      char name[256];
      char unit[64];
      double value = 0;
      if (std::sscanf(rest.c_str(), "%255s %63s %lg", name, unit, &value) == 3) {
        summary.layer[name] = {value, unit};
      }
    }
  }
  if (in != nullptr) std::fclose(in);
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return std::nullopt;
  }
  return summary;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
                 " [--trace-dir <dir>]\n");
    return 2;
  }
  const WorkloadInfo* info = nullptr;
  for (const WorkloadInfo& w : workloads()) {
    if (args.workload == w.name) info = &w;
  }
  if (info == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  PassConfig config;
  config.seed = args.seed;
  config.seconds = args.seconds;
  MetricMap metrics;

  if (!args.trace) {
    // End-to-end: untraced, with many set-ups so setup_s is a steady median
    // (the first few in a process run cold).
    config.setups = 41;
    const PassResult pass = info->run(config);
    print_run_detail("untraced", args, pass);
    const std::uint64_t ops = pass.log.ops();
    metrics["setup_s"] = {median(pass.setup_s), "s"};
    metrics["latency_p50_ms"] = {pass.log.latency_percentile_ms(50), "ms"};
    metrics["latency_p99_ms"] = {pass.log.latency_percentile_ms(99), "ms"};
    metrics["success_ratio"] = {
        1.0 - static_cast<double>(pass.log.failed()) / static_cast<double>(ops), "ratio"};
    metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    print_result(pass.log.broken_checks().empty(), ops, pass.log.failed(), metrics);
    return 0;
  }

  // Per-layer: the untraced pass gives host time and the deterministic
  // counts; the traced pass gives the layer counters and spans. The traced
  // pass runs first, in a forked child, so both passes start from the same
  // process state: the system keeps process-wide sequence numbers
  // (connection ids, trace-id and retry-jitter salts) that a second pass in
  // one process would inherit, changing its simulated behaviour.
  config.traced = true;
  const std::optional<TracedSummary> traced = run_traced_in_child(*info, config, args);
  if (!traced) {
    std::fprintf(stderr, "perfbench: traced pass failed\n");
    return 1;
  }
  config.traced = false;
  const PassResult plain = info->run(config);
  print_run_detail("untraced", args, plain);

  const bool same_behaviour = plain.log.digest() == traced->digest;
  if (!same_behaviour) {
    std::printf("# BROKEN CHECK: traced run's behaviour digest differs from the untraced run's\n");
  }

  const std::uint64_t ops = plain.log.ops();
  const auto per_op = [ops](double v) { return v / static_cast<double>(ops); };
  metrics = traced->layer;
  metrics["sim.pending_after_drain"] = plain.layer.at("sim.pending_after_drain");
  metrics["ops_per_s"] = {plain.quarters.median_rate(), "1/s"};
  metrics["sim.events_per_op"] = {per_op(static_cast<double>(plain.events)), "count"};
  metrics["sim.host_ns_per_event"] = {
      plain.events > 0 ? plain.timed_s * 1e9 / static_cast<double>(plain.events) : 0, "ns"};
  metrics["obs.trace_overhead_pct"] = {(traced->timed_s / plain.timed_s - 1.0) * 100.0, "%"};
  metrics["core.allocs_per_op"] = {per_op(static_cast<double>(plain.allocs.count)), "count"};
  metrics["core.alloc_bytes_per_op"] = {per_op(static_cast<double>(plain.allocs.bytes)),
                                        "bytes"};
  metrics["core.cost_growth"] = {plain.quarters.growth(), "ratio"};
  metrics["setup.world_s"] = {plain.world_s, "s"};
  metrics["setup.sites_s"] = {plain.sites_s, "s"};
  metrics["setup.warmup_s"] = {plain.warmup_s, "s"};
  run_probes(info->probes, traced->counter_names, metrics);

  const bool correct = plain.log.broken_checks().empty() && traced->correct && same_behaviour;
  print_result(correct, ops, plain.log.failed(), metrics);
  return 0;
}
