#include "scion/colibri.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace pan::scion {

namespace {
/// Fraction of each link's capacity available to reservations.
constexpr double kMaxReservableFraction = 0.5;
/// Lifetime of a reservation requested without one.
constexpr Duration kDefaultLifetime = seconds(60);
/// Token-bucket burst allowance, as time at the reserved rate.
constexpr Duration kBurstWindow = milliseconds(50);
}  // namespace

void ReservationManager::register_link(IsdAsn as, IfaceId egress, double capacity_bps) {
  link_capacity_[key_of(as, egress).packed] = capacity_bps;
}

double ReservationManager::capacity_of(const LinkKey& key) const {
  const auto it = link_capacity_.find(key.packed);
  return it == link_capacity_.end() ? 0.0 : it->second;
}

Result<ReservationId> ReservationManager::reserve(const Path& path, double bandwidth_bps,
                                                  TimePoint now, Duration lifetime) {
  if (bandwidth_bps <= 0) return Err("reservation bandwidth must be positive");
  if (path.hops().empty()) return Err("cannot reserve on an intra-AS path");
  if (lifetime <= Duration::zero()) lifetime = kDefaultLifetime;

  // Collect the directed links: each hop's egress except the last.
  std::vector<std::pair<IsdAsn, IfaceId>> links;
  for (const PathHop& hop : path.hops()) {
    if (hop.egress == kNoIface) continue;
    links.emplace_back(hop.isd_as, hop.egress);
  }
  if (links.empty()) return Err("path has no inter-AS links");

  // Admission check against every link's reservable budget.
  for (const auto& [as, egress] : links) {
    const LinkKey key = key_of(as, egress);
    const double capacity = capacity_of(key);
    if (capacity <= 0) {
      return Err("unknown link capacity at " + as.to_string() + "#" +
                 std::to_string(egress));
    }
    const double budget = capacity * kMaxReservableFraction;
    const double in_use = reserved_on(as, egress, now);
    if (in_use + bandwidth_bps > budget) {
      return Err(strings::format("admission denied at %s#%u: %.0f of %.0f bps budget in use",
                                 as.to_string().c_str(), egress, in_use, budget));
    }
  }

  Reservation reservation;
  reservation.bandwidth_bps = bandwidth_bps;
  reservation.expires = now + lifetime;
  reservation.links = links;
  for (const PathHop& hop : path.hops()) {
    reservation.ases.push_back(hop.isd_as);
  }
  for (const auto& [as, egress] : links) {
    link_reserved_[key_of(as, egress).packed] += bandwidth_bps;
  }
  const ReservationId id = next_id_++;
  reservations_[id] = std::move(reservation);
  return id;
}

void ReservationManager::expire_if_needed(ReservationId id, TimePoint now) {
  const auto it = reservations_.find(id);
  if (it == reservations_.end() || it->second.expires > now) return;
  for (const auto& [as, egress] : it->second.links) {
    double& reserved = link_reserved_[key_of(as, egress).packed];
    reserved = std::max(0.0, reserved - it->second.bandwidth_bps);
  }
  reservations_.erase(it);
}

void ReservationManager::release(ReservationId id, TimePoint now) {
  const auto it = reservations_.find(id);
  if (it == reservations_.end()) return;
  it->second.expires = now;  // force immediate expiry
  expire_if_needed(id, now);
}

Status ReservationManager::renew(ReservationId id, TimePoint now, Duration lifetime) {
  expire_if_needed(id, now);
  const auto it = reservations_.find(id);
  if (it == reservations_.end()) return Err("unknown or expired reservation");
  it->second.expires = now + lifetime;
  return {};
}

PoliceResult ReservationManager::police(ReservationId id, IsdAsn as, TimePoint now,
                                        std::size_t bytes) {
  expire_if_needed(id, now);
  const auto it = reservations_.find(id);
  if (it == reservations_.end()) return PoliceResult::kUnknownReservation;
  Reservation& reservation = it->second;
  if (reservation.expires <= now) return PoliceResult::kExpired;
  if (std::find(reservation.ases.begin(), reservation.ases.end(), as) ==
      reservation.ases.end()) {
    return PoliceResult::kWrongAs;
  }

  auto [bucket_it, inserted] = reservation.buckets.try_emplace(
      as, std::make_pair(reservation.bandwidth_bps / 8.0 * kBurstWindow.seconds(),
                         now));
  auto& [tokens, last] = bucket_it->second;
  if (!inserted) {
    const double refill = reservation.bandwidth_bps / 8.0 * (now - last).seconds();
    const double burst = reservation.bandwidth_bps / 8.0 * kBurstWindow.seconds();
    tokens = std::min(burst, tokens + refill);
    last = now;
  }
  if (tokens < static_cast<double>(bytes)) return PoliceResult::kOverRate;
  tokens -= static_cast<double>(bytes);
  return PoliceResult::kAllow;
}

std::size_t ReservationManager::active_reservations(TimePoint now) const {
  std::size_t count = 0;
  for (const auto& [id, reservation] : reservations_) {
    if (reservation.expires > now) ++count;
  }
  return count;
}

double ReservationManager::reserved_on(IsdAsn as, IfaceId egress, TimePoint now) const {
  // Recompute from live reservations so lazily-expired ones do not count.
  double total = 0;
  for (const auto& [id, reservation] : reservations_) {
    if (reservation.expires <= now) continue;
    for (const auto& [link_as, link_egress] : reservation.links) {
      if (link_as == as && link_egress == egress) total += reservation.bandwidth_bps;
    }
  }
  return total;
}

}  // namespace pan::scion
