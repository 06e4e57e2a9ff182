#include "proxy/identity.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace pan::proxy {

namespace {
constexpr std::size_t kMaxIdentityLength = 64;
/// Bounded per-identity audit-trail length.
constexpr std::size_t kAuditCap = 64;

bool identity_char_ok(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
         c == '.' || c == '_' || c == '-';
}
}  // namespace

std::string sanitize_identity(std::string_view raw) {
  if (raw.empty()) return std::string(kDefaultIdentity);
  std::string out;
  out.reserve(std::min(raw.size(), kMaxIdentityLength));
  for (const char c : raw.substr(0, kMaxIdentityLength)) {
    out.push_back(identity_char_ok(c) ? c : '-');
  }
  return out;
}

std::string identity_of(const http::HttpRequest& request) {
  const auto header = request.headers.get(std::string(kIdentityHeader));
  if (!header.has_value()) return std::string(kDefaultIdentity);
  return sanitize_identity(*header);
}

std::string identity_key(std::string_view identity, const std::string& origin) {
  if (identity.empty() || identity == kDefaultIdentity) return origin;
  return std::string(identity) + "|" + origin;
}

std::string identity_of_key(const std::string& key) {
  const auto sep = key.find('|');
  if (sep == std::string::npos) return std::string(kDefaultIdentity);
  return key.substr(0, sep);
}

NetworkIdentity::NetworkIdentity(std::string id, TimePoint created_at)
    : id_(std::move(id)), created_at_(created_at) {}

bool NetworkIdentity::is_quarantined(const std::string& fingerprint, TimePoint now) const {
  const auto it = quarantined_.find(fingerprint);
  return it != quarantined_.end() && it->second > now;
}

std::size_t NetworkIdentity::quarantined_count(TimePoint now) const {
  std::size_t count = 0;
  for (const auto& [fingerprint, expires] : quarantined_) {
    if (expires > now) ++count;
  }
  return count;
}

void NetworkIdentity::record(TimePoint at, std::string event, std::string origin,
                             std::string detail) {
  audit_.push_back(
      IdentityAuditEvent{at, std::move(event), std::move(origin), std::move(detail)});
  while (audit_.size() > kAuditCap) audit_.pop_front();
}

IdentityPathBroker::IdentityPathBroker(sim::Simulator& sim, obs::MetricsRegistry& metrics)
    : sim_(sim), metrics_(metrics) {}

NetworkIdentity& IdentityPathBroker::identity(const std::string& id) {
  const auto it = identities_.find(id);
  if (it != identities_.end()) return it->second;
  auto [inserted, ok] =
      identities_.emplace(id, NetworkIdentity(id, sim_.now()));
  (void)ok;
  metrics_.counter("identity.created").inc();
  inserted->second.record(sim_.now(), "created", "", "");
  return inserted->second;
}

const NetworkIdentity* IdentityPathBroker::find(const std::string& id) const {
  const auto it = identities_.find(id);
  return it == identities_.end() ? nullptr : &it->second;
}

std::optional<ppl::PolicySet> IdentityPathBroker::policies_for(const std::string& id) const {
  const NetworkIdentity* ident = find(id);
  if (ident == nullptr) return std::nullopt;
  return ident->policies();
}

std::function<bool(const scion::Path&)> IdentityPathBroker::exclusion(
    const std::string& id, const std::string& origin) {
  return [this, id, origin](const scion::Path& path) {
    const std::string fingerprint = path.fingerprint();
    if (fingerprint.empty()) return false;
    if (const auto o = live_.find(origin); o != live_.end()) {
      const auto holder = o->second.find(fingerprint);
      if (holder != o->second.end() && holder->second != id) return true;
    }
    const auto ident = identities_.find(id);
    return ident != identities_.end() &&
           ident->second.is_quarantined(fingerprint, sim_.now());
  };
}

bool IdentityPathBroker::commit(const std::string& id, const std::string& origin,
                                const std::string& fingerprint, bool excluded_fallback) {
  if (fingerprint.empty()) return false;  // intra-AS trivial path: nothing to broker
  NetworkIdentity& ident = identity(id);
  auto& owners = live_[origin];
  const auto prev = ident.assignments_.find(origin);
  const bool changed = prev == ident.assignments_.end() || prev->second != fingerprint;
  if (prev != ident.assignments_.end() && prev->second != fingerprint) {
    // Release the old claim if this identity still holds it.
    if (const auto old = owners.find(prev->second);
        old != owners.end() && old->second == id) {
      owners.erase(old);
    }
  }
  const auto holder = owners.find(fingerprint);
  const bool collided =
      excluded_fallback || (holder != owners.end() && holder->second != id);
  // A collision does not steal the other identity's claim — both are now on
  // the path (path set too small); ownership stays with the first claimant.
  if (holder == owners.end()) owners.emplace(fingerprint, id);
  ident.assignments_[origin] = fingerprint;
  const TimePoint now = sim_.now();
  if (changed) ident.record(now, "assign", origin, fingerprint);
  if (collided) {
    ++ident.stats_.path_collisions;
    metrics_.counter("identity.path_collisions").inc();
    metrics_.events().record(now, "identity", "collision",
                             id + " -> " + origin + " on " + fingerprint);
    ident.record(now, "collision", origin, fingerprint);
  }
  return collided;
}

std::vector<std::pair<std::string, std::string>> IdentityPathBroker::rotate(
    const std::string& id, Duration quarantine_ttl) {
  NetworkIdentity& ident = identity(id);
  const TimePoint now = sim_.now();
  std::vector<std::pair<std::string, std::string>> released(ident.assignments_.begin(),
                                                            ident.assignments_.end());
  for (const auto& [origin, fingerprint] : released) {
    if (const auto o = live_.find(origin); o != live_.end()) {
      if (const auto holder = o->second.find(fingerprint);
          holder != o->second.end() && holder->second == id) {
        o->second.erase(holder);
      }
      if (o->second.empty()) live_.erase(origin);
    }
    if (quarantine_ttl > Duration::zero()) {
      TimePoint& expires = ident.quarantined_[fingerprint];
      expires = std::max(expires, now + quarantine_ttl);
    }
  }
  // Drop expired quarantine entries so the per-identity set stays bounded by
  // live rotations, not by lifetime history.
  std::erase_if(ident.quarantined_,
                [now](const auto& entry) { return entry.second <= now; });
  ident.assignments_.clear();
  ++ident.stats_.rotations;
  metrics_.counter("identity.rotations").inc();
  ident.record(now, "rotate", "",
               std::to_string(released.size()) + " assignments quarantined");
  return released;
}

void IdentityPathBroker::record_result(const std::string& id, bool over_scion,
                                       std::uint64_t bytes) {
  NetworkIdentity& ident = identity(id);
  ++ident.stats_.requests;
  ident.stats_.bytes += bytes;
  if (over_scion) {
    ++ident.stats_.over_scion;
  } else {
    ++ident.stats_.over_ip;
  }
}

std::string IdentityPathBroker::snapshot_json() const {
  const TimePoint now = sim_.now();
  std::string out = "{\"identities\":[";
  bool first = true;
  for (const auto& [id, ident] : identities_) {
    if (!first) out += ",";
    first = false;
    const IdentityStats& stats = ident.stats();
    out += "{\"id\":" + strings::json_quote(id);
    out += strings::format(
        ",\"created_at_ms\":%.3f,\"requests\":%llu,\"bytes\":%llu,\"over_scion\":%llu,"
        "\"over_ip\":%llu,\"path_collisions\":%llu,\"rotations\":%llu",
        ident.created_at().millis(), static_cast<unsigned long long>(stats.requests),
        static_cast<unsigned long long>(stats.bytes),
        static_cast<unsigned long long>(stats.over_scion),
        static_cast<unsigned long long>(stats.over_ip),
        static_cast<unsigned long long>(stats.path_collisions),
        static_cast<unsigned long long>(stats.rotations));
    out += ",\"quarantined\":" + std::to_string(ident.quarantined_count(now));
    out += ",\"assignments\":{";
    bool first_assignment = true;
    for (const auto& [origin, fingerprint] : ident.assignments()) {
      if (!first_assignment) out += ",";
      first_assignment = false;
      out += strings::json_quote(origin) + ":" + strings::json_quote(fingerprint);
    }
    out += "},\"audit\":[";
    bool first_event = true;
    for (const IdentityAuditEvent& event : ident.audit()) {
      if (!first_event) out += ",";
      first_event = false;
      out += strings::format("{\"at_ms\":%.3f,\"event\":", event.at.millis());
      out += strings::json_quote(event.event);
      out += ",\"origin\":" + strings::json_quote(event.origin);
      out += ",\"detail\":" + strings::json_quote(event.detail) + "}";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

}  // namespace pan::proxy
