// Policy-driven path selection with per-path usage statistics.
//
// The selector asks the local daemon for candidate paths, applies the user's
// policy set (PPL policies + compiled geofence), and reports both the best
// compliant path and the best unrestricted path — the split the proxy needs
// to implement opportunistic vs. strict semantics (Section 4.2): in
// opportunistic mode a non-compliant path still loads the page (flagged in
// the UI); strict mode requires compliance.
//
// Per-path usage feedback ("statistics on path usage and performance of
// particular paths") is kept as registry-backed instruments: the counters
// live in an obs::MetricsRegistry (the proxy's, when attached, so they show
// up in /skip/metrics) and usage() renders a point-in-time snapshot.
#pragma once

#include <functional>
#include <optional>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "ppl/geofence.hpp"
#include "scion/daemon.hpp"

namespace pan::proxy {

struct PathChoice {
  std::optional<scion::Path> compliant;  // best policy-compliant path
  std::optional<scion::Path> any;        // best path ignoring the policy
  std::size_t candidates = 0;            // daemon candidates considered
  /// The corresponding pick came from the caller's exclusion set (identity
  /// broker fallback: every non-excluded candidate was filtered away, so the
  /// selection knowingly reuses a path live for another identity).
  bool compliant_excluded = false;
  bool any_excluded = false;

  [[nodiscard]] bool reachable() const { return any.has_value(); }
};

/// Point-in-time view of one path's usage feedback. Counter values are read
/// from the backing metrics registry at snapshot time.
struct PathUsage {
  std::string description;
  std::uint64_t requests = 0;
  std::uint64_t bytes = 0;
  Duration total_latency_estimate = Duration::zero();
  /// Transport-observed smoothed RTT, exponentially averaged over requests
  /// (zero until the first measurement) — the "performance of particular
  /// paths" feedback channel.
  Duration observed_rtt = Duration::zero();
  TimePoint last_used;
};

class PathSelector {
 public:
  /// Usage accounting is registry-backed: the proxy passes its own registry
  /// so path counters appear in the /skip/metrics dump.
  PathSelector(scion::Daemon& daemon, obs::MetricsRegistry& metrics);

  void set_policies(ppl::PolicySet policies) { policies_ = std::move(policies); }
  [[nodiscard]] const ppl::PolicySet& policies() const { return policies_; }
  void set_geofence(std::optional<ppl::Geofence> geofence);
  [[nodiscard]] const std::optional<ppl::Geofence>& geofence() const { return geofence_; }

  /// Soft exclusion predicate evaluated at filter time (the identity
  /// broker's disjointness constraint). Excluded candidates are demoted
  /// below quarantined ones: they are only used when nothing else survives,
  /// and the PathChoice flags the fallback so the caller can count it.
  using ExcludeFn = std::function<bool(const scion::Path&)>;

  /// Registers the daemon serving an additional access attachment (multi-
  /// access host). choose() with that access name queries this daemon —
  /// paths are rooted at the access's own first-hop AS.
  void add_access_daemon(const std::string& access, scion::Daemon& daemon);

  void choose(scion::IsdAsn dst, std::function<void(PathChoice)> callback);
  /// As choose(), with a negotiated server preference applied as a
  /// tie-breaking ordering after the user's policies, an optional
  /// per-destination policy set overriding the selector's default (the
  /// proxy's PolicyRouter resolves it per request), an optional
  /// exclusion predicate (identity disjointness), and an optional access
  /// name routing the query to that access's daemon ("" = primary).
  void choose(scion::IsdAsn dst, std::vector<ppl::OrderKey> server_preference,
              std::function<void(PathChoice)> callback,
              std::optional<ppl::PolicySet> override_policies = std::nullopt,
              ExcludeFn exclude = nullptr, const std::string& access = {});

  /// Records a request carried over `path`. A non-empty `identity` scopes
  /// the per-path counters to that identity
  /// (`selector.path.requests{identity=...,path=...}`), so usage accounting
  /// breaks down by (identity, path) instead of path alone.
  void record_use(const scion::Path& path, std::uint64_t bytes,
                  TimePoint now = TimePoint::origin(), std::string_view identity = {});
  /// Folds a transport RTT measurement into the path's feedback stats.
  void record_rtt(const scion::Path& path, Duration rtt);

  /// SCMP-driven revocation: paths crossing `iface` of `ia` are excluded
  /// from selection until the revocation expires. Expired entries are pruned
  /// on insert and on lookup so the table stays bounded.
  void revoke(scion::IsdAsn ia, scion::IfaceId iface, Duration ttl);
  [[nodiscard]] bool is_revoked(const scion::Path& path);
  [[nodiscard]] std::size_t active_revocations() const;
  /// Entries physically stored in the revocation table (== active after any
  /// prune; the regression target for the unbounded-growth bug).
  [[nodiscard]] std::size_t revocation_entries() const { return revocations_.size(); }

  /// Failure feedback from the resilience layer: a path that just failed a
  /// fetch is *soft*-excluded for `ttl` — preferred candidates come from the
  /// non-quarantined set, and quarantined paths are used only when nothing
  /// else survives filtering (unlike a revocation, which is authoritative).
  void quarantine(const scion::Path& path, Duration ttl);
  [[nodiscard]] bool is_quarantined(const std::string& fingerprint);
  [[nodiscard]] std::size_t active_quarantines() const;
  /// Fingerprint -> expiry for the /skip/health dump (deterministic order).
  [[nodiscard]] std::vector<std::pair<std::string, TimePoint>> quarantine_snapshot() const;
  /// Warm-handoff restore of a quarantine_snapshot() entry: re-installs the
  /// exclusion at its original absolute expiry (already-expired entries are
  /// ignored, and a longer-lived local entry is never shortened).
  void restore_quarantine(const std::string& fingerprint, TimePoint expires);

  /// Usage snapshot built from the registry, keyed by path fingerprint for
  /// default-identity use and by "<identity>|<fingerprint>" for
  /// identity-scoped use.
  [[nodiscard]] std::unordered_map<std::string, PathUsage> usage() const;

  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }

 private:
  struct Revocation {
    scion::IsdAsn ia;
    scion::IfaceId iface = scion::kNoIface;
    TimePoint expires;
  };
  /// Per-path instruments: counters live in the registry; the smoothed RTT
  /// and last-use mark are scalar state mirrored into gauges.
  struct PathInstruments {
    std::string description;
    obs::Counter* requests = nullptr;
    obs::Counter* bytes = nullptr;
    Duration total_latency_estimate = Duration::zero();
    Duration observed_rtt = Duration::zero();
    TimePoint last_used;
  };

  [[nodiscard]] bool permits(const scion::Path& path) const;
  PathInstruments& instruments_for(const scion::Path& path, std::string_view identity = {});
  void prune_expired_revocations(TimePoint now);
  void prune_expired_quarantines(TimePoint now);

  scion::Daemon& daemon_;
  std::unordered_map<std::string, scion::Daemon*> access_daemons_;
  obs::MetricsRegistry& metrics_;
  obs::Counter& choices_ = metrics_.counter("selector.choices");
  obs::Counter& access_choices_ = metrics_.counter("selector.access_choices");
  obs::Counter& quarantine_avoided_ = metrics_.counter("selector.quarantine_avoided");
  obs::Counter& exclusion_avoided_ = metrics_.counter("selector.exclusion_avoided");
  obs::Counter& exclusion_fallbacks_ = metrics_.counter("selector.exclusion_fallbacks");
  obs::Counter& no_path_ = metrics_.counter("selector.no_path");
  obs::Counter& no_compliant_path_ = metrics_.counter("selector.no_compliant_path");
  obs::Counter& requests_ = metrics_.counter("selector.requests");
  obs::Counter& bytes_ = metrics_.counter("selector.bytes");
  obs::Histogram& observed_rtt_ = metrics_.histogram("selector.observed_rtt");
  obs::Counter& revocations_total_ = metrics_.counter("selector.revocations");
  obs::Gauge& revocations_active_ = metrics_.gauge("selector.revocations_active");
  obs::Counter& quarantines_total_ = metrics_.counter("selector.quarantines");
  obs::Gauge& quarantines_active_ = metrics_.gauge("selector.quarantines_active");
  ppl::PolicySet policies_;
  std::optional<ppl::Geofence> geofence_;
  std::unordered_map<std::string, PathInstruments> paths_;
  std::vector<Revocation> revocations_;
  std::unordered_map<std::string, TimePoint> quarantined_;  // fingerprint -> expiry
  sim::Scope scope_;  // pending daemon lookups die with the selector
};

}  // namespace pan::proxy
