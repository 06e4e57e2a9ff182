// Colibri-lite: cooperative inter-domain bandwidth reservations.
//
// The paper's QoS property row rests on reservation systems like Colibri
// (Giuliari et al., CoNEXT'21), which it cites. This is a lean but
// functional equivalent:
//   - admission control: a reservation for B bps along a path is granted
//     only if, on every directed inter-AS link it crosses, the sum of
//     admitted reservations stays below a configured fraction of the link
//     capacity;
//   - data-plane enforcement: packets carry the reservation id in the SCION
//     header; every on-path border router validates it and polices the rate
//     with a per-(reservation, AS) token bucket. Conforming packets are
//     marked priority (exempt from best-effort queue drops), over-rate or
//     unknown ids are dropped;
//   - lifetime: reservations expire and must be renewed.
//
// The manager is a logical control-plane service (like PathServerInfra):
// one instance per topology, shared by the admission API and the routers.
#pragma once

#include <unordered_map>

#include "scion/path.hpp"
#include "util/result.hpp"

namespace pan::scion {

using ReservationId = std::uint32_t;

enum class PoliceResult : std::uint8_t {
  kAllow,
  kUnknownReservation,
  kExpired,
  kOverRate,
  kWrongAs,  // reservation does not cover this AS
};

class ReservationManager {
 public:
  /// Registers a directed link's capacity (topology calls this for every
  /// (AS, egress interface) at finalize time).
  void register_link(IsdAsn as, IfaceId egress, double capacity_bps);

  /// Admission: grants a reservation of `bandwidth_bps` along `path` for
  /// `lifetime` (60 s when zero), or explains the refusal.
  [[nodiscard]] Result<ReservationId> reserve(const Path& path, double bandwidth_bps,
                                              TimePoint now,
                                              Duration lifetime = Duration::zero());

  /// Releases an active reservation (expired ones release lazily).
  void release(ReservationId id, TimePoint now);

  /// Extends an active reservation's expiry.
  [[nodiscard]] Status renew(ReservationId id, TimePoint now, Duration lifetime);

  /// Data-plane check at AS `as`: validates the id, checks coverage, and
  /// charges `bytes` against the per-(reservation, AS) token bucket.
  [[nodiscard]] PoliceResult police(ReservationId id, IsdAsn as, TimePoint now,
                                    std::size_t bytes);

  [[nodiscard]] std::size_t active_reservations(TimePoint now) const;
  /// Reserved bps currently admitted on a directed link.
  [[nodiscard]] double reserved_on(IsdAsn as, IfaceId egress, TimePoint now) const;

 private:
  struct LinkKey {
    std::uint64_t packed;
    bool operator==(const LinkKey&) const = default;
  };
  struct LinkKeyHash {
    std::size_t operator()(const LinkKey& k) const noexcept {
      return std::hash<std::uint64_t>{}(k.packed);
    }
  };
  static LinkKey key_of(IsdAsn as, IfaceId egress) {
    return LinkKey{(as.packed() << 16) ^ egress};
  }

  struct Reservation {
    double bandwidth_bps = 0;
    TimePoint expires;
    /// Directed links covered: (as, egress interface) pairs.
    std::vector<std::pair<IsdAsn, IfaceId>> links;
    /// ASes on the path (coverage check for policing).
    std::vector<IsdAsn> ases;
    /// Token buckets per AS: available bytes and last refill time.
    std::unordered_map<IsdAsn, std::pair<double, TimePoint>> buckets;
  };

  void expire_if_needed(ReservationId id, TimePoint now);
  [[nodiscard]] double capacity_of(const LinkKey& key) const;

  std::unordered_map<std::uint64_t, double> link_capacity_;  // key packed
  std::unordered_map<std::uint64_t, double> link_reserved_;
  std::unordered_map<ReservationId, Reservation> reservations_;
  ReservationId next_id_ = 1;
};

}  // namespace pan::scion
