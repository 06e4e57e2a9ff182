// Per-origin circuit breaker for the SKIP proxy's routing layer.
//
// Classic three-state machine, keyed by origin ("host:port"):
//
//   closed ──(N consecutive SCION failures)──▶ open
//   open ──(open_ttl elapsed)──▶ half-open (the next allow() is the probe)
//   half-open ──probe succeeds──▶ closed
//   half-open ──probe fails──▶ open (timer restarts)
//
// While an origin is open, allow() is false and the proxy skips the SCION
// attempt entirely: opportunistic requests short-circuit to legacy, strict
// requests fast-fail with 503 + Retry-After. Exactly one in-flight probe is
// admitted in half-open so a recovering origin is not stampeded.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace pan::proxy {

struct CircuitBreakerConfig {
  /// Consecutive failures that trip the breaker; 0 disables it entirely.
  std::size_t failure_threshold = 4;
  /// How long an open breaker rejects before admitting a half-open probe.
  Duration open_ttl = seconds(5);
};

class CircuitBreaker {
 public:
  CircuitBreaker(sim::Simulator& sim, CircuitBreakerConfig config,
                 obs::MetricsRegistry& metrics);

  /// True when a SCION attempt may proceed for this origin. In half-open
  /// state the first caller becomes the probe; subsequent callers are
  /// rejected until the probe reports back.
  [[nodiscard]] bool allow(const std::string& key);
  void record_success(const std::string& key);
  void record_failure(const std::string& key);

  [[nodiscard]] bool is_open(const std::string& key) const;
  [[nodiscard]] std::size_t open_count() const;
  /// {"host:443": {"state": "open", "consecutive_failures": 5, ...}, ...}
  [[nodiscard]] std::string snapshot_json() const;

  /// Warm-handoff snapshot: per-origin state, portable across breaker
  /// instances that share a sim clock. `state` is the wire form of State
  /// (0 closed, 1 open, 2 half-open).
  struct ExportedEntry {
    std::string key;
    std::uint8_t state = 0;
    std::size_t consecutive_failures = 0;
    TimePoint opened_at;
  };
  [[nodiscard]] std::vector<ExportedEntry> export_entries() const;
  /// Restores a snapshot (replacing any existing entry per key). Imported
  /// half-open entries drop the probe-in-flight claim: the old instance's
  /// probe died with it, so the next allow() becomes the probe here.
  void import_entries(const std::vector<ExportedEntry>& entries);

 private:
  enum class State : std::uint8_t { kClosed, kOpen, kHalfOpen };

  struct Entry {
    State state = State::kClosed;
    std::size_t consecutive_failures = 0;
    TimePoint opened_at;
    bool probe_in_flight = false;
  };

  [[nodiscard]] static std::string_view state_name(State state);

  sim::Simulator& sim_;
  CircuitBreakerConfig config_;
  obs::MetricsRegistry& metrics_;
  obs::Counter& probes_ = metrics_.counter("breaker.probes");
  obs::Counter& closes_ = metrics_.counter("breaker.closes");
  obs::Counter& trips_ = metrics_.counter("breaker.trips");
  // Ordered so snapshot_json() is deterministic.
  std::map<std::string, Entry> entries_;
};

}  // namespace pan::proxy
