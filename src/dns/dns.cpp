#include "dns/dns.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace pan::dns {

void Zone::add_a(const std::string& domain, net::IpAddr addr) {
  records_[domain].a.push_back(addr);
}

void Zone::add_txt(const std::string& domain, std::string txt) {
  records_[domain].txt.push_back(std::move(txt));
}

void Zone::add_scion_txt(const std::string& domain, const scion::ScionAddr& addr) {
  add_txt(domain, "scion=" + addr.to_string());
}

void Zone::remove(const std::string& domain) { records_.erase(domain); }

const RecordSet* Zone::lookup(const std::string& domain) const {
  const auto it = records_.find(domain);
  return it == records_.end() ? nullptr : &it->second;
}

Resolver::Resolver(sim::Simulator& sim, const Zone& zone, ResolverConfig config)
    : scope_(sim), zone_(zone), config_(config) {}

void Resolver::resolve(const std::string& domain,
                       std::function<void(Result<RecordSet>)> callback) {
  const auto it = cache_.find(domain);
  if (it != cache_.end()) {
    const Duration age = scope_.now() - it->second.fetched_at;
    const Duration ttl =
        it->second.records.has_value() ? config_.cache_ttl : config_.negative_ttl;
    if (age < ttl) {
      ++hits_;
      if (it->second.records.has_value()) {
        callback(Result<RecordSet>(*it->second.records));
      } else {
        callback(Err("NXDOMAIN: " + domain));
      }
      return;
    }
  }
  ++misses_;
  if (fault_hook_) {
    if (const auto fault = fault_hook_(domain); fault.has_value()) {
      // A brownout is a transient upstream failure, not an answer: nothing
      // is cached, so the very next lookup after the fault lifts succeeds.
      const Duration wait = fault->servfail
                                ? std::max(config_.lookup_latency, fault->delay)
                                : std::max(config_.query_timeout, fault->delay);
      const bool servfail = fault->servfail;
      scope_.schedule_after(wait, [this, domain, servfail, cb = std::move(callback)] {
        ++fault_errors_;
        cb(Err((servfail ? "SERVFAIL: " : "DNS timeout: ") + domain));
      });
      return;
    }
  }
  scope_.schedule_after(config_.lookup_latency, [this, domain, cb = std::move(callback)] {
    const RecordSet* records = zone_.lookup(domain);
    CacheEntry entry;
    entry.fetched_at = scope_.now();
    if (records != nullptr) {
      entry.records = *records;
      cache_[domain] = entry;
      cb(Result<RecordSet>(*records));
    } else {
      cache_[domain] = entry;
      cb(Err("NXDOMAIN: " + domain));
    }
  });
}

Result<RecordSet> Resolver::resolve_now(const std::string& domain) const {
  const RecordSet* records = zone_.lookup(domain);
  if (records == nullptr) return Err("NXDOMAIN: " + domain);
  return *records;
}

void Resolver::flush_cache() { cache_.clear(); }

std::optional<scion::ScionAddr> scion_addr_from_txt(const RecordSet& records) {
  for (const std::string& txt : records.txt) {
    if (!strings::starts_with(txt, "scion=")) continue;
    const auto parsed = scion::ScionAddr::parse(std::string_view(txt).substr(6));
    if (parsed.ok()) return parsed.value();
  }
  return std::nullopt;
}

}  // namespace pan::dns
