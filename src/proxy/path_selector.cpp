#include "proxy/path_selector.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace pan::proxy {

namespace {
// Instrument names. Per-path counters are labeled with the fingerprint (and
// the identity, for identity-scoped accounting) so the /skip/metrics dump
// carries the per-path breakdown.
std::string path_counter_name(std::string_view fingerprint, std::string_view what,
                              std::string_view identity) {
  std::string name = "selector.path." + std::string(what) + "{";
  if (!identity.empty()) name += "identity=" + std::string(identity) + ",";
  name += "path=" + std::string(fingerprint) + "}";
  return name;
}
}  // namespace

PathSelector::PathSelector(scion::Daemon& daemon, obs::MetricsRegistry& metrics)
    : daemon_(daemon), metrics_(metrics), scope_(daemon.simulator()) {}

void PathSelector::set_geofence(std::optional<ppl::Geofence> geofence) {
  geofence_ = std::move(geofence);
}

bool PathSelector::permits(const scion::Path& path) const {
  if (geofence_.has_value() && !geofence_->permits(path)) return false;
  return policies_.permits(path);
}

void PathSelector::prune_expired_revocations(TimePoint now) {
  std::erase_if(revocations_, [now](const Revocation& rev) { return rev.expires <= now; });
  revocations_active_.set(static_cast<double>(revocations_.size()));
}

void PathSelector::revoke(scion::IsdAsn ia, scion::IfaceId iface, Duration ttl) {
  const TimePoint now = daemon_.simulator().now();
  prune_expired_revocations(now);
  revocations_total_.inc();
  const TimePoint expires = now + ttl;
  // Refresh an existing revocation of the same interface if present.
  for (Revocation& rev : revocations_) {
    if (rev.ia == ia && rev.iface == iface) {
      if (expires > rev.expires) rev.expires = expires;
      return;
    }
  }
  revocations_.push_back(Revocation{ia, iface, expires});
  revocations_active_.set(static_cast<double>(revocations_.size()));
}

bool PathSelector::is_revoked(const scion::Path& path) {
  const TimePoint now = daemon_.simulator().now();
  prune_expired_revocations(now);
  for (const Revocation& rev : revocations_) {
    if (path.uses_interface(rev.ia, rev.iface)) return true;
  }
  return false;
}

void PathSelector::prune_expired_quarantines(TimePoint now) {
  std::erase_if(quarantined_,
                [now](const auto& entry) { return entry.second <= now; });
  quarantines_active_.set(static_cast<double>(quarantined_.size()));
}

void PathSelector::quarantine(const scion::Path& path, Duration ttl) {
  if (ttl <= Duration::zero()) return;
  const TimePoint now = daemon_.simulator().now();
  prune_expired_quarantines(now);
  quarantines_total_.inc();
  metrics_.events().record(now, "selector", "quarantine",
                           strings::format("%s ttl=%.0fms", path.fingerprint().c_str(),
                                           ttl.millis()));
  TimePoint& expires = quarantined_[path.fingerprint()];
  expires = std::max(expires, now + ttl);
  quarantines_active_.set(static_cast<double>(quarantined_.size()));
}

bool PathSelector::is_quarantined(const std::string& fingerprint) {
  prune_expired_quarantines(daemon_.simulator().now());
  return quarantined_.contains(fingerprint);
}

std::size_t PathSelector::active_quarantines() const {
  const TimePoint now = daemon_.simulator().now();
  std::size_t count = 0;
  for (const auto& [fingerprint, expires] : quarantined_) {
    if (expires > now) ++count;
  }
  return count;
}

std::vector<std::pair<std::string, TimePoint>> PathSelector::quarantine_snapshot() const {
  const TimePoint now = daemon_.simulator().now();
  std::vector<std::pair<std::string, TimePoint>> out;
  for (const auto& [fingerprint, expires] : quarantined_) {
    if (expires > now) out.emplace_back(fingerprint, expires);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void PathSelector::restore_quarantine(const std::string& fingerprint, TimePoint expires) {
  const TimePoint now = daemon_.simulator().now();
  if (expires <= now) return;
  prune_expired_quarantines(now);
  TimePoint& slot = quarantined_[fingerprint];
  if (slot < expires) slot = expires;
  quarantines_active_.set(static_cast<double>(quarantined_.size()));
}

std::size_t PathSelector::active_revocations() const {
  const TimePoint now = daemon_.simulator().now();
  std::size_t count = 0;
  for (const Revocation& rev : revocations_) {
    if (rev.expires > now) ++count;
  }
  return count;
}

void PathSelector::add_access_daemon(const std::string& access, scion::Daemon& daemon) {
  access_daemons_[access] = &daemon;
}

void PathSelector::choose(scion::IsdAsn dst, std::function<void(PathChoice)> callback) {
  choose(dst, {}, std::move(callback), std::nullopt, nullptr, {});
}

void PathSelector::choose(scion::IsdAsn dst, std::vector<ppl::OrderKey> server_preference,
                          std::function<void(PathChoice)> callback,
                          std::optional<ppl::PolicySet> override_policies,
                          ExcludeFn exclude, const std::string& access) {
  choices_.inc();
  scion::Daemon* daemon = &daemon_;
  if (!access.empty()) {
    if (const auto it = access_daemons_.find(access); it != access_daemons_.end()) {
      daemon = it->second;
      access_choices_.inc();
    }
  }
  daemon->query(dst, scope_, [this, pref = std::move(server_preference),
                              override = std::move(override_policies),
                              exclude = std::move(exclude),
                              cb = std::move(callback)](std::vector<scion::Path> paths) {
    const ppl::PolicySet& policies = override.has_value() ? *override : policies_;
    PathChoice choice;
    choice.candidates = paths.size();
    // Known-broken paths (SCMP revocations) are unusable at any compliance
    // level.
    std::erase_if(paths, [&](const scion::Path& p) { return is_revoked(p); });
    // Quarantined paths (recent fetch failures reported by the resilience
    // layer) are demoted to last resort: selection runs over the fresh set
    // and only falls back to quarantined candidates when it comes up empty.
    // The caller's exclusion set (identity disjointness) demotes further
    // still: an excluded path is used only when every admissible candidate —
    // fresh or quarantined — is gone, and the choice flags the fallback.
    std::vector<scion::Path> fresh;
    std::vector<scion::Path> suspect;
    std::vector<scion::Path> excluded_fresh;
    std::vector<scion::Path> excluded_suspect;
    fresh.reserve(paths.size());
    for (scion::Path& p : paths) {
      const bool is_excluded = exclude != nullptr && exclude(p);
      const bool is_suspect = is_quarantined(p.fingerprint());
      auto& pool = is_excluded ? (is_suspect ? excluded_suspect : excluded_fresh)
                               : (is_suspect ? suspect : fresh);
      pool.push_back(std::move(p));
    }
    if (!suspect.empty() && !fresh.empty()) {
      quarantine_avoided_.inc();
    }
    const bool had_excluded = !excluded_fresh.empty() || !excluded_suspect.empty();
    const auto pick = [&](std::vector<scion::Path> pool, PathChoice& out,
                          bool from_excluded) {
      if (pool.empty()) return;
      // `any` falls back to the daemon's latency-first order.
      if (!out.any.has_value()) {
        out.any = pool.front();
        out.any_excluded = from_excluded;
      }
      std::vector<scion::Path> filtered;
      filtered.reserve(pool.size());
      for (scion::Path& p : pool) {
        if (geofence_.has_value() && !geofence_->permits(p)) continue;
        if (!policies.permits(p)) continue;
        filtered.push_back(std::move(p));
      }
      // Ordering precedence: user policies first, then the negotiated
      // server preference as a tie-breaker.
      std::vector<ppl::OrderKey> ordering = policies.combined_ordering();
      ordering.insert(ordering.end(), pref.begin(), pref.end());
      ppl::order_paths(filtered, ordering);
      if (!out.compliant.has_value() && !filtered.empty()) {
        out.compliant = filtered.front();
        out.compliant_excluded = from_excluded;
      }
    };
    pick(std::move(fresh), choice, false);
    if (!choice.any.has_value() || !choice.compliant.has_value()) {
      pick(std::move(suspect), choice, false);
    }
    if (!choice.any.has_value() || !choice.compliant.has_value()) {
      pick(std::move(excluded_fresh), choice, true);
    }
    if (!choice.any.has_value() || !choice.compliant.has_value()) {
      pick(std::move(excluded_suspect), choice, true);
    }
    if (had_excluded && !choice.any_excluded && !choice.compliant_excluded) {
      exclusion_avoided_.inc();
    }
    if (choice.any_excluded || choice.compliant_excluded) {
      exclusion_fallbacks_.inc();
    }
    if (!choice.reachable()) no_path_.inc();
    if (!choice.compliant.has_value()) no_compliant_path_.inc();
    cb(std::move(choice));
  });
}

PathSelector::PathInstruments& PathSelector::instruments_for(const scion::Path& path,
                                                             std::string_view identity) {
  const std::string fingerprint = path.fingerprint();
  const std::string key =
      identity.empty() ? fingerprint : std::string(identity) + "|" + fingerprint;
  PathInstruments& inst = paths_[key];
  if (inst.requests == nullptr) {
    inst.description = path.to_string();
    inst.requests = &metrics_.counter(path_counter_name(fingerprint, "requests", identity));
    inst.bytes = &metrics_.counter(path_counter_name(fingerprint, "bytes", identity));
  }
  return inst;
}

void PathSelector::record_rtt(const scion::Path& path, Duration rtt) {
  if (rtt <= Duration::zero()) return;
  PathInstruments& inst = instruments_for(path);
  if (inst.observed_rtt == Duration::zero()) {
    inst.observed_rtt = rtt;
  } else {
    inst.observed_rtt = Duration{(7 * inst.observed_rtt.nanos() + rtt.nanos()) / 8};
  }
  observed_rtt_.record(rtt);
}

void PathSelector::record_use(const scion::Path& path, std::uint64_t bytes, TimePoint now,
                              std::string_view identity) {
  PathInstruments& inst = instruments_for(path, identity);
  inst.requests->inc();
  inst.bytes->inc(bytes);
  inst.total_latency_estimate += path.meta().latency;
  if (now > inst.last_used) inst.last_used = now;
  requests_.inc();
  bytes_.inc(bytes);
}

std::unordered_map<std::string, PathUsage> PathSelector::usage() const {
  std::unordered_map<std::string, PathUsage> out;
  out.reserve(paths_.size());
  for (const auto& [fingerprint, inst] : paths_) {
    PathUsage u;
    u.description = inst.description;
    u.requests = inst.requests->value();
    u.bytes = inst.bytes->value();
    u.total_latency_estimate = inst.total_latency_estimate;
    u.observed_rtt = inst.observed_rtt;
    u.last_used = inst.last_used;
    out.emplace(fingerprint, std::move(u));
  }
  return out;
}

}  // namespace pan::proxy
