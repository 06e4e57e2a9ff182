// Measurement plumbing shared by the workloads and probes: the host clock,
// the benchmark's own span recorder (Chrome trace JSON), the counting
// allocator's totals, process memory readings, the per-op log that yields
// sim-time percentiles, the behaviour digest and per-quarter host cost, and
// the flat metric map printed at the end.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// ------------------------------------------------------------ host clock --

using HostClock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t host_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             HostClock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------ allocation counts --

/// Totals kept by the counting `operator new` linked into the benchmark
/// binary (alloc_count.cpp). Monotonic; take differences around a phase.
struct AllocTotals {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};
[[nodiscard]] AllocTotals alloc_totals();

// ---------------------------------------------------------------- memory --

/// Peak resident set size of this process so far, in MB (getrusage).
[[nodiscard]] double peak_rss_mb();
/// Current resident set size, in MB (/proc/self/statm).
[[nodiscard]] double current_rss_mb();

// ----------------------------------------------------------------- spans --

/// Host-time spans recorded around the benchmark's own calls into the
/// system. Kept in memory; written as Chrome trace_event JSON at the end.
/// Disabled recorders cost one branch per span.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// Opens a span; returns its index (or -1 when disabled). Spans nest by
  /// time: a span opened while another is open is its child.
  std::int64_t begin(const char* name, std::uint64_t op);
  void end(std::int64_t index);

  /// Median duration of spans named `name`, in microseconds (0 when none).
  [[nodiscard]] double median_us(const std::string& name) const;
  [[nodiscard]] std::string chrome_trace_json() const;

 private:
  struct Span {
    const char* name = "";
    std::uint64_t op = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;
  };
  bool enabled_;
  std::int64_t origin_ns_ = host_now_ns();
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

/// RAII span over one call.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name, std::uint64_t op = 0)
      : recorder_(recorder), index_(recorder.begin(name, op)) {}
  ~ScopedSpan() { recorder_.end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  std::int64_t index_;
};

// ---------------------------------------------------------------- op log --

/// What one op (a page load, or one fleet fetch) did in simulated terms.
/// Every field feeds the behaviour digest.
struct OpOutcome {
  int status = 0;
  std::int64_t sim_latency_ns = 0;
  std::uint64_t body_bytes = 0;
  int transport = 0;
  bool failed = false;
};

/// Accumulates op outcomes in op order: sim-time latencies (failures are
/// charged at least the workload's latency limit, so they miss every
/// limit), the FNV-1a behaviour digest, failure counts, and the output
/// checks that broke.
class OpLog {
 public:
  explicit OpLog(std::int64_t failure_floor_ns) : failure_floor_ns_(failure_floor_ns) {}

  void record(const OpOutcome& outcome);
  /// Mixes an extra deterministic value (e.g. one resource of a page) into
  /// the digest without counting an op.
  void mix(std::uint64_t value);
  void check(bool ok, const std::string& what);

  [[nodiscard]] std::uint64_t ops() const { return latencies_ms_.size(); }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] std::uint64_t ok_body_bytes() const { return ok_body_bytes_; }
  [[nodiscard]] std::uint64_t digest() const { return digest_; }
  [[nodiscard]] double latency_percentile_ms(double pct) const;
  [[nodiscard]] const std::vector<std::string>& broken_checks() const { return broken_; }
  [[nodiscard]] std::uint64_t checks_run() const { return checks_; }

 private:
  std::int64_t failure_floor_ns_;
  std::vector<double> latencies_ms_;
  std::uint64_t failed_ = 0;
  std::uint64_t ok_body_bytes_ = 0;
  std::uint64_t digest_ = 0xcbf29ce484222325ULL;
  std::uint64_t checks_ = 0;
  std::vector<std::string> broken_;
};

[[nodiscard]] double median(std::vector<double> values);

/// Splits the timed phase into kSlices equal runs of ops and samples host
/// time and RSS at each boundary. Quarters (run-length health) are groups
/// of slices; the median slice rate is a throughput estimate that shrugs
/// off short bursts of interference from other tenants of the machine.
class SliceClock {
 public:
  static constexpr int kSlices = 40;

  SliceClock(std::uint64_t total_ops, std::int64_t start_ns);
  /// Call after op `done` (1-based count) finished or launched.
  void tick(std::uint64_t done);
  /// Host microseconds per op within quarter q (0..3).
  [[nodiscard]] double us_per_op(int q) const;
  [[nodiscard]] double rss_mb(int q) const;
  /// Last quarter's µs/op ÷ the first quarter's.
  [[nodiscard]] double growth() const;
  /// Ops per host second in each completed slice, in run order.
  [[nodiscard]] std::vector<double> rates() const;
  /// Median over slices of ops per host second.
  [[nodiscard]] double median_rate() const { return median(rates()); }

 private:
  static constexpr std::size_t kPoints = kSlices + 1;
  std::array<std::uint64_t, kPoints> ops_{};
  std::array<std::int64_t, kPoints> wall_ns_{};
  std::array<double, kPoints> rss_mb_{};
  std::size_t next_ = 1;
};

// --------------------------------------------------------------- metrics --

/// Named metric values with units, in insertion-independent (sorted) order.
struct Metric {
  double value = 0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

[[nodiscard]] std::string json_number(double value);

/// Writes `body` to `path`, creating parent directories. Returns false on
/// failure (reported by the caller; a missing trace file is not fatal).
bool write_file(const std::string& path, const std::string& body);

}  // namespace perfbench
