// The SCION daemon ("sciond"): the per-AS path service client that end-host
// applications query for candidate paths to a destination AS.
//
// It combines up / core / down segments from the path-server infrastructure
// into end-to-end paths, deduplicates, sorts (latency, then hop count), and
// caches results. Queries are asynchronous: a cache miss costs a configurable
// lookup latency (the local path-service round trip), a hit completes in the
// same event — the behaviour that matters for page-load timing.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "scion/path.hpp"
#include "scion/path_server.hpp"
#include "sim/simulator.hpp"

namespace pan::scion {

class Daemon {
 public:
  /// Round trip to the local path service on a cache miss.
  static constexpr Duration kLookupLatency = milliseconds(1);

  Daemon(sim::Simulator& sim, const PathServerInfra& infra, IsdAsn local_as);

  [[nodiscard]] IsdAsn local_as() const { return local_as_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

  /// Asynchronous query; callback fires after the simulated lookup latency
  /// (immediately within the current event when cached). The lookup event
  /// runs in the caller's scope, so it dies with the caller.
  void query(IsdAsn dst, sim::Scope& caller, std::function<void(std::vector<Path>)> callback);

  /// Synchronous combination without latency modeling (tests, setup code).
  [[nodiscard]] std::vector<Path> query_now(IsdAsn dst);

  [[nodiscard]] std::uint64_t cache_hits() const { return cache_hits_; }
  [[nodiscard]] std::uint64_t cache_misses() const { return cache_misses_; }

  /// Fault injection: a frozen daemon models path-server staleness — cached
  /// entries are served even past their TTL (stale answers), and cache
  /// misses come back empty after the lookup latency instead of consulting
  /// the path-server infrastructure.
  void set_frozen(bool frozen) { frozen_ = frozen; }
  [[nodiscard]] bool frozen() const { return frozen_; }
  /// Expired cache entries served while frozen.
  [[nodiscard]] std::uint64_t stale_serves() const { return stale_serves_; }
  /// Cache misses that failed (empty path set) while frozen.
  [[nodiscard]] std::uint64_t frozen_failures() const { return frozen_failures_; }

  /// Drops all cached entries (e.g. topology change in tests).
  void flush_cache();

 private:
  [[nodiscard]] std::vector<Path> combine(IsdAsn dst) const;

  struct CacheEntry {
    std::vector<Path> paths;
    TimePoint fetched_at;
  };

  sim::Simulator& sim_;
  const PathServerInfra& infra_;
  IsdAsn local_as_;
  std::unordered_map<IsdAsn, CacheEntry> cache_;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  bool frozen_ = false;
  std::uint64_t stale_serves_ = 0;
  std::uint64_t frozen_failures_ = 0;
};

}  // namespace pan::scion
