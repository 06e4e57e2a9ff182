#include "scion/daemon.hpp"

#include <algorithm>
#include <unordered_set>

#include "util/log.hpp"

namespace pan::scion {

namespace {
constexpr std::string_view kLog = "sciond";
/// Maximum candidate paths returned per destination.
constexpr std::size_t kMaxPaths = 40;
/// Cache entries expire after this long (re-query after).
constexpr Duration kCacheTtl = seconds(300);
}  // namespace

Daemon::Daemon(sim::Simulator& sim, const PathServerInfra& infra, IsdAsn local_as)
    : sim_(sim), infra_(infra), local_as_(local_as) {}

void Daemon::query(IsdAsn dst, sim::Scope& caller,
                   std::function<void(std::vector<Path>)> callback) {
  const auto it = cache_.find(dst);
  if (it != cache_.end() && sim_.now() - it->second.fetched_at < kCacheTtl) {
    ++cache_hits_;
    callback(it->second.paths);
    return;
  }
  if (frozen_) {
    // Path-server staleness: whatever is cached keeps being served (TTL
    // ignored), and anything else cannot be fetched.
    if (it != cache_.end()) {
      ++stale_serves_;
      callback(it->second.paths);
      return;
    }
    ++frozen_failures_;
    caller.schedule_after(kLookupLatency, [cb = std::move(callback)] { cb({}); });
    return;
  }
  ++cache_misses_;
  caller.schedule_after(kLookupLatency, [this, dst, cb = std::move(callback)] {
    std::vector<Path> paths = combine(dst);
    cache_[dst] = CacheEntry{paths, sim_.now()};
    cb(std::move(paths));
  });
}

std::vector<Path> Daemon::query_now(IsdAsn dst) { return combine(dst); }

void Daemon::flush_cache() { cache_.clear(); }

std::vector<Path> Daemon::combine(IsdAsn dst) const {
  std::vector<Path> out;
  if (dst == local_as_) {
    out.push_back(Path::local(local_as_));
    return out;
  }

  const bool src_is_core = infra_.is_core(local_as_);
  const bool dst_is_core = infra_.is_core(dst);

  // Candidate (up segment, source-side core) pairs. A null segment means the
  // traversal starts at the core itself.
  std::vector<std::pair<const PathSegment*, IsdAsn>> ups;
  if (src_is_core) {
    ups.emplace_back(nullptr, local_as_);
  } else {
    for (const PathSegment& seg : infra_.down_segments(local_as_)) {
      ups.emplace_back(&seg, seg.origin);
    }
  }

  std::vector<std::pair<const PathSegment*, IsdAsn>> downs;
  if (dst_is_core) {
    downs.emplace_back(nullptr, dst);
  } else {
    for (const PathSegment& seg : infra_.down_segments(dst)) {
      downs.emplace_back(&seg, seg.origin);
    }
  }

  std::unordered_set<std::string> fingerprints;
  const auto add_result = [&](Result<Path> result) {
    if (!result.ok()) {
      PAN_TRACE(kLog) << "combine rejected: " << result.error();
      return;
    }
    Path path = std::move(result).take();
    if (fingerprints.insert(path.fingerprint()).second) {
      out.push_back(std::move(path));
    }
  };
  const auto try_add = [&](const PathSegment* up, const PathSegment* core,
                           const PathSegment* down) {
    add_result(assemble_path(up, core, down, local_as_, dst));
  };

  for (const auto& [up_seg, src_core] : ups) {
    for (const auto& [down_seg, dst_core] : downs) {
      if (src_core == dst_core) {
        try_add(up_seg, nullptr, down_seg);
        continue;
      }
      // Core segments are traversed reversed, so we need beacons originated
      // at the destination-side core that reached the source-side core.
      for (const PathSegment* core_seg : infra_.core_segments(dst_core, src_core)) {
        try_add(up_seg, core_seg, down_seg);
      }
    }
  }

  // Peering shortcuts: join an up and a down segment across a peering link
  // advertised (with matching interfaces) in both segments' AS entries.
  if (!src_is_core && !dst_is_core) {
    for (const auto& [up_seg, src_core] : ups) {
      for (const auto& [down_seg, dst_core] : downs) {
        for (std::size_t i = 0; i < up_seg->entries.size(); ++i) {
          const AsEntry& x_entry = up_seg->entries[i];
          for (std::size_t pi = 0; pi < x_entry.peers.size(); ++pi) {
            const PeerEntry& x_peer = x_entry.peers[pi];
            for (std::size_t j = 0; j < down_seg->entries.size(); ++j) {
              const AsEntry& y_entry = down_seg->entries[j];
              if (y_entry.hop.isd_as != x_peer.peer_as) continue;
              for (std::size_t pj = 0; pj < y_entry.peers.size(); ++pj) {
                const PeerEntry& y_peer = y_entry.peers[pj];
                if (y_peer.peer_as != x_entry.hop.isd_as) continue;
                if (y_peer.peer_if != x_peer.hop.in_if ||
                    x_peer.peer_if != y_peer.hop.in_if) {
                  continue;
                }
                add_result(assemble_peering_path(*up_seg, i, pi, *down_seg, j, pj,
                                                 local_as_, dst));
              }
            }
          }
        }
      }
    }
  }

  std::sort(out.begin(), out.end(), [](const Path& a, const Path& b) {
    if (a.meta().latency != b.meta().latency) return a.meta().latency < b.meta().latency;
    if (a.link_count() != b.link_count()) return a.link_count() < b.link_count();
    return a.fingerprint() < b.fingerprint();
  });
  if (out.size() > kMaxPaths) out.resize(kMaxPaths);
  return out;
}

}  // namespace pan::scion
