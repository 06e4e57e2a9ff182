// Minimal DNS: a global zone store plus per-client resolvers with lookup
// latency and caching.
//
// SCION availability is advertised exactly as in the paper's Section 4.3:
// a TXT record of the form "scion=<isd>-<as>,<ip>" on the domain. The
// resolver exposes a helper that extracts it.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/addr.hpp"
#include "scion/addr.hpp"
#include "sim/simulator.hpp"
#include "util/result.hpp"

namespace pan::dns {

struct RecordSet {
  std::vector<net::IpAddr> a;
  std::vector<std::string> txt;

  [[nodiscard]] bool empty() const { return a.empty() && txt.empty(); }
};

/// The authoritative store for all simulated domains.
class Zone {
 public:
  void add_a(const std::string& domain, net::IpAddr addr);
  void add_txt(const std::string& domain, std::string txt);
  /// Convenience: adds the paper's SCION TXT record for `domain`.
  void add_scion_txt(const std::string& domain, const scion::ScionAddr& addr);
  void remove(const std::string& domain);

  [[nodiscard]] const RecordSet* lookup(const std::string& domain) const;
  [[nodiscard]] std::size_t size() const { return records_.size(); }

 private:
  std::unordered_map<std::string, RecordSet> records_;
};

struct ResolverConfig {
  /// Round trip to the (recursive) resolver on a cache miss.
  Duration lookup_latency = milliseconds(5);
  Duration cache_ttl = seconds(300);
  /// Cache negative answers too (NXDOMAIN), for this long.
  Duration negative_ttl = seconds(30);
  /// Upper bound on a lookup before it surfaces as "DNS timeout" (used when
  /// a brownout fault swallows the query instead of answering SERVFAIL).
  Duration query_timeout = seconds(5);
};

/// An injected resolver failure (brownout): the lookup either times out or
/// answers SERVFAIL after `delay`. Brownout errors are transient server
/// failures, NOT negative answers — they are never cached, so recovery is
/// immediate once the fault lifts.
struct ResolverFault {
  bool servfail = false;  // false = the query times out instead
  Duration delay = Duration::zero();
};

class Resolver {
 public:
  Resolver(sim::Simulator& sim, const Zone& zone, ResolverConfig config = {});

  /// Asynchronous lookup; an NXDOMAIN surfaces as an error Result.
  void resolve(const std::string& domain,
               std::function<void(Result<RecordSet>)> callback);
  [[nodiscard]] Result<RecordSet> resolve_now(const std::string& domain) const;

  /// Fault injection: consulted on every cache miss; a returned fault fails
  /// the lookup (fresh cache entries keep being served). nullptr detaches.
  using FaultHook = std::function<std::optional<ResolverFault>(const std::string& domain)>;
  void set_fault_hook(FaultHook hook) { fault_hook_ = std::move(hook); }
  /// Lookups failed by an injected fault.
  [[nodiscard]] std::uint64_t fault_errors() const { return fault_errors_; }

  [[nodiscard]] std::uint64_t cache_hits() const { return hits_; }
  [[nodiscard]] std::uint64_t cache_misses() const { return misses_; }
  void flush_cache();

 private:
  struct CacheEntry {
    std::optional<RecordSet> records;  // nullopt = negative entry
    TimePoint fetched_at;
  };

  sim::Scope scope_;  // pending lookups die with the resolver
  const Zone& zone_;
  ResolverConfig config_;
  FaultHook fault_hook_;
  std::unordered_map<std::string, CacheEntry> cache_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t fault_errors_ = 0;
};

/// Extracts the SCION address advertised in TXT records ("scion=..."), if any.
[[nodiscard]] std::optional<scion::ScionAddr> scion_addr_from_txt(const RecordSet& records);

}  // namespace pan::dns
