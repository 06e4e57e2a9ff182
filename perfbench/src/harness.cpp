#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "util/stats.hpp"

namespace perfbench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double current_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0;
  unsigned long resident = 0;
  const int read = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (read != 2) return 0;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

// ----------------------------------------------------------------- spans --

std::int64_t SpanRecorder::begin(const char* name, std::uint64_t op) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.op = op;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = host_now_ns();
  spans_.push_back(span);
  const auto index = static_cast<std::int64_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanRecorder::end(std::int64_t index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = host_now_ns();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

double SpanRecorder::median_us(const std::string& name) const {
  std::vector<double> us;
  for (const Span& s : spans_) {
    if (name == s.name) us.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  }
  return median(std::move(us));
}

std::string SpanRecorder::chrome_trace_json() const {
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,\"id\":%zu,\"parent\":%lld}}",
                  i == 0 ? "" : ",\n", s.name,
                  static_cast<double>(s.start_ns - origin_ns_) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.op), i, static_cast<long long>(s.parent));
    out += buf;
  }
  out += "],\"displayTimeUnit\":\"ns\"}\n";
  return out;
}

// ---------------------------------------------------------------- op log --

namespace {
std::uint64_t fnv_mix(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xff;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}
}  // namespace

void OpLog::record(const OpOutcome& outcome) {
  std::int64_t latency_ns = outcome.sim_latency_ns;
  if (outcome.failed) {
    ++failed_;
    latency_ns = std::max(latency_ns, failure_floor_ns_);
  } else {
    ok_body_bytes_ += outcome.body_bytes;
  }
  latencies_ms_.push_back(static_cast<double>(latency_ns) / 1e6);
  digest_ = fnv_mix(digest_, static_cast<std::uint64_t>(outcome.status));
  digest_ = fnv_mix(digest_, static_cast<std::uint64_t>(outcome.sim_latency_ns));
  digest_ = fnv_mix(digest_, outcome.body_bytes);
  digest_ = fnv_mix(digest_, static_cast<std::uint64_t>(outcome.transport));
}

void OpLog::mix(std::uint64_t value) { digest_ = fnv_mix(digest_, value); }

void OpLog::check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok && broken_.size() < 20) broken_.push_back(what);
  if (!ok && broken_.size() == 20) broken_.push_back("(further broken checks omitted)");
}

double OpLog::latency_percentile_ms(double pct) const {
  return pan::percentile(latencies_ms_, pct);
}

SliceClock::SliceClock(std::uint64_t total_ops, std::int64_t start_ns) {
  for (std::size_t i = 0; i < kPoints; ++i) ops_[i] = total_ops * i / kSlices;
  wall_ns_[0] = start_ns;
  rss_mb_[0] = current_rss_mb();
}

void SliceClock::tick(std::uint64_t done) {
  while (next_ < kPoints && done >= ops_[next_]) {
    wall_ns_[next_] = host_now_ns();
    rss_mb_[next_] = current_rss_mb();
    ++next_;
  }
}

double SliceClock::us_per_op(int q) const {
  const std::size_t a = static_cast<std::size_t>(q) * kSlices / 4;
  const std::size_t b = a + kSlices / 4;
  if (b >= next_ || ops_[b] == ops_[a]) return 0;
  return static_cast<double>(wall_ns_[b] - wall_ns_[a]) / 1e3 /
         static_cast<double>(ops_[b] - ops_[a]);
}

double SliceClock::rss_mb(int q) const {
  const std::size_t b = static_cast<std::size_t>(q + 1) * kSlices / 4;
  return b < next_ ? rss_mb_[b] : 0;
}

double SliceClock::growth() const {
  const double first = us_per_op(0);
  return first > 0 ? us_per_op(3) / first : 0;
}

std::vector<double> SliceClock::rates() const {
  std::vector<double> rates;
  for (std::size_t i = 1; i < next_; ++i) {
    if (wall_ns_[i] > wall_ns_[i - 1] && ops_[i] > ops_[i - 1]) {
      rates.push_back(static_cast<double>(ops_[i] - ops_[i - 1]) * 1e9 /
                      static_cast<double>(wall_ns_[i] - wall_ns_[i - 1]));
    }
  }
  return rates;
}

// --------------------------------------------------------------- metrics --

double median(std::vector<double> values) { return pan::percentile(std::move(values), 50); }

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

bool write_file(const std::string& path, const std::string& body) {
  std::error_code ec;
  std::filesystem::create_directories(std::filesystem::path(path).parent_path(), ec);
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << body;
  return static_cast<bool>(out);
}

}  // namespace perfbench
