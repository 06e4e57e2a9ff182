// Overload-resilience subsystem shared by the SKIP proxy and the reverse
// proxy: the pieces that keep a proxy responsive when offered load exceeds
// capacity (PR 3 covered faults; this covers pressure).
//
//   - RequestPriority: the per-request intent signal (Socket-Intents-style),
//     carried in the X-Skip-Priority header. Main documents and
//     Strict-SCION-pinned requests outrank sub-resources, which outrank
//     probes/background load — at admission and in pool queue ordering.
//   - OverloadController: ingress admission control. A per-client token
//     bucket (429) plus a global in-flight cap with a priority ladder
//     (probes rejected first, then sub-resources, documents last; 503),
//     both answered with Retry-After *before* any work is queued. It also
//     tracks a load-pressure EWMA and trips a brownout past a sustained
//     threshold: optional work (opportunistic SCION upgrades) is disabled
//     and requests ride the legacy path until pressure clears.
//   - AimdController: adaptive per-origin concurrency implementing
//     http::ConcurrencyLimiter. Additive-increase on on-target completions,
//     multiplicative-decrease when attempt latency inflates past the target
//     (or the attempt fails) — replacing the pool's static max_conns as the
//     effective cap, and reopening on recovery.
//
// Everything reports into the shared metrics registry under `overload.*`
// and surfaces in /skip/health.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "http/message.hpp"
#include "http/origin_pool.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace pan::proxy {

/// Lower value = more important = admitted and dispatched first.
enum class RequestPriority : std::uint8_t {
  kDocument = 0,     // main document / Strict-SCION-pinned
  kSubresource = 1,  // page sub-resources (the default)
  kProbe = 2,        // detector probes, background/synthetic load
};

/// Request header carrying the priority class ("document" / "subresource" /
/// "probe"), tagged by the browser and upgraded by the extension for pinned
/// hosts. Unknown or absent values default to kSubresource.
inline constexpr std::string_view kPriorityHeader = "X-Skip-Priority";
/// Request header identifying the client for per-client rate limiting;
/// absent requests share the "local" bucket.
inline constexpr std::string_view kClientHeader = "X-Skip-Client";
/// Request header carrying the remaining deadline budget (whole ms) across
/// proxy hops, so the reverse proxy sheds against the *end-to-end* deadline
/// rather than its own local default.
inline constexpr std::string_view kDeadlineHeader = "X-Skip-Deadline-Ms";

[[nodiscard]] const char* to_string(RequestPriority priority);
[[nodiscard]] RequestPriority parse_priority(std::string_view text);
/// Priority class of `request` per its X-Skip-Priority header.
[[nodiscard]] RequestPriority priority_of(const http::HttpRequest& request);
/// Rate-limit bucket key of `request` per its X-Skip-Client header.
[[nodiscard]] std::string client_of(const http::HttpRequest& request);

struct AimdConfig {
  std::size_t min_limit = 1;
  /// Upper bound and initial value.
  std::size_t max_limit = 6;
  /// Completions slower than this (or failed) shrink the window.
  Duration latency_target = milliseconds(750);
};

/// AIMD concurrency controller, one window per origin key.
class AimdController final : public http::ConcurrencyLimiter {
 public:
  /// `name` scopes the metrics: `overload.<name>.{narrowed,widened}`
  /// counters and the `overload.<name>.limit_min` gauge (the tightest
  /// window across origins — the interesting one under pressure).
  AimdController(std::string name, AimdConfig config, obs::MetricsRegistry& metrics);

  [[nodiscard]] std::size_t limit(const std::string& key) override;
  void record(const std::string& key, Duration latency, bool ok) override;

  /// Clock for flight-recorder timestamps (the ConcurrencyLimiter interface
  /// has no time parameter). Unset: floor-hit events are not recorded.
  void set_simulator(sim::Simulator* sim) { sim_ = sim; }

  /// {"<origin>":{"limit":N,"narrowed":N},...} in key order.
  [[nodiscard]] std::string snapshot_json() const;
  [[nodiscard]] const AimdConfig& config() const { return config_; }

 private:
  struct Window {
    double limit = 0.0;
    std::uint64_t narrowed = 0;  // decrease events on this origin
  };
  Window& window(const std::string& key);
  void set_min_gauge();

  std::string name_;
  AimdConfig config_;
  obs::MetricsRegistry& metrics_;
  sim::Simulator* sim_ = nullptr;
  std::map<std::string, Window> windows_;  // ordered: deterministic JSON
  obs::Counter& narrowed_;
  obs::Counter& widened_;
  obs::Gauge& limit_min_;
};

struct OverloadConfig {
  /// Master switch: when false the controller admits everything (it still
  /// tracks in-flight for observability) and brownout never trips.
  bool enabled = true;
  /// Per-client token bucket: sustained requests/second (0 disables rate
  /// limiting); the bucket holds max(1, client_rate) tokens.
  double client_rate = 0.0;
  /// Global cap on admitted in-flight requests (0 disables the cap).
  std::size_t max_in_flight = 0;
  /// Brownout: load-pressure EWMA (in-flight / cap) must sit at or above
  /// the enter threshold for `brownout_hold` to trip; clears at or below
  /// the exit threshold (hysteresis so it does not flap).
  Duration brownout_hold = milliseconds(250);
};

/// Ingress admission control + brownout for one proxy.
class OverloadController {
 public:
  enum class Verdict : std::uint8_t {
    kAdmit,
    kRejectRate,      // per-client token bucket empty -> 429
    kRejectCapacity,  // in-flight cap (per priority ladder) -> 503
  };
  struct Admission {
    Verdict verdict = Verdict::kAdmit;
    Duration retry_after = Duration::zero();
  };
  /// Retry-After advertised on 429/503 rejections (also by the proxies for
  /// sheds at their pools).
  static constexpr Duration kRetryAfter = seconds(1);

  /// `prefix` scopes the metrics (`<prefix>.admitted`, ...): "overload" for
  /// the SKIP proxy, "revproxy.overload" for the reverse proxy, so a shared
  /// registry keeps the two controllers apart.
  OverloadController(sim::Simulator& sim, obs::MetricsRegistry& metrics,
                     OverloadConfig config, std::string prefix = "overload");

  /// Admission decision for one request. On kAdmit the request counts
  /// in-flight until the matching release().
  [[nodiscard]] Admission admit(const std::string& client, RequestPriority priority);
  void release();

  /// Whether brownout is in force (updates pressure decay first).
  [[nodiscard]] bool brownout();
  [[nodiscard]] std::size_t in_flight() const { return in_flight_; }
  [[nodiscard]] double pressure() const { return pressure_; }
  [[nodiscard]] const OverloadConfig& config() const { return config_; }

  /// {"enabled":..,"in_flight":..,"max_in_flight":..,"pressure":..,
  ///  "brownout":..,"admitted":..,"rejected_rate":..,"rejected_capacity":..}
  [[nodiscard]] std::string snapshot_json() const;

 private:
  struct Bucket {
    double tokens = 0.0;
    TimePoint updated;
  };
  /// Refills `client`'s bucket to now and returns it.
  Bucket& refill(const std::string& client);
  /// In-flight count at which `priority` is rejected (the ladder).
  [[nodiscard]] std::size_t admit_threshold(RequestPriority priority) const;
  /// Advances the pressure EWMA to now and runs the brownout hysteresis.
  void update_pressure();

  sim::Simulator& sim_;
  OverloadConfig config_;
  obs::MetricsRegistry& metrics_;
  std::string prefix_;
  std::size_t in_flight_ = 0;
  std::map<std::string, Bucket> buckets_;
  double pressure_ = 0.0;
  TimePoint pressure_updated_;
  /// Brownout hysteresis: when pressure first crossed the enter threshold
  /// (tracked only while continuously above it).
  std::optional<TimePoint> above_enter_since_;
  bool brownout_ = false;
  obs::Counter& admitted_;
  obs::Counter& rejected_rate_;
  obs::Counter& rejected_capacity_;
  obs::Counter& brownout_entered_;
  obs::Counter& brownout_exited_;
  obs::Gauge& in_flight_gauge_;
  obs::Gauge& pressure_gauge_;
  obs::Gauge& brownout_gauge_;
};

}  // namespace pan::proxy
