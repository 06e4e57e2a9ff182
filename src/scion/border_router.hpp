// SCION border router: the data plane.
//
// Installed as the SCION handler of an AS's legacy router node. For every
// packet it inspects the SCION header, checks the current hop field belongs
// to this AS, verifies the hop-field MAC against the AS forwarding key (path
// authorization), handles segment crossovers, and either forwards out the
// authorized egress interface or delivers to the destination host.
//
// The steady-state hop path is zero-copy and allocation-free: a lazy
// ScionHeaderView validates bounds once, decodes only the cursor and the
// current hop field, and the cursor advance patches two bytes in place
// (decide_hop below is that exact path, exposed for benches and tests). The
// eager full-reparse pipeline is kept behind BorderRouterConfig::
// legacy_reparse as the reference implementation for the forwarding
// equivalence tests and as the bench baseline.
//
// SCION interface ids are the router's link interface ids offset by one
// (SCION reserves 0 for "no interface").
#pragma once

#include "net/router.hpp"
#include "obs/metrics.hpp"
#include "scion/colibri.hpp"
#include "scion/header.hpp"
#include "scion/hopfield.hpp"
#include "scion/scmp.hpp"

namespace pan::scion {

struct BorderRouterConfig {
  /// When nonzero, hop fields whose expiry precedes this "current unix time"
  /// are rejected. (The simulator's beacon timestamps are synthetic, so the
  /// check is opt-in.)
  std::uint32_t current_unix_time = 0;
  /// Colibri reservation validation/policing (null = reservation ids are
  /// ignored and packets stay best-effort).
  ReservationManager* reservations = nullptr;
  /// Use the eager full-reparse pipeline (pre-zero-copy behaviour). Kept for
  /// the forwarding equivalence tests and as the bench baseline.
  bool legacy_reparse = false;
  /// Per-router forward-latency histogram (null = not recorded). Records
  /// now - packet.sent_at on every forward: the queueing + propagation +
  /// processing of the hop the packet just completed. The histogram is
  /// pre-registered by Topology::finalize, so recording stays allocation-free
  /// on the zero-copy hop path.
  obs::Histogram* forward_latency = nullptr;
};

struct BorderRouterStats {
  std::uint64_t forwarded = 0;
  std::uint64_t delivered = 0;
  std::uint64_t drop_parse = 0;
  std::uint64_t drop_mac = 0;
  std::uint64_t drop_wrong_as = 0;
  std::uint64_t drop_malformed_path = 0;
  std::uint64_t drop_no_host = 0;
  std::uint64_t drop_expired = 0;
  std::uint64_t drop_link_down = 0;
  /// Packets with an invalid/over-rate reservation id.
  std::uint64_t drop_reservation = 0;
  /// SCMP error reports originated by this router.
  std::uint64_t scmp_sent = 0;

  [[nodiscard]] std::uint64_t total_drops() const {
    return drop_parse + drop_mac + drop_wrong_as + drop_malformed_path + drop_no_host +
           drop_expired + drop_link_down + drop_reservation;
  }
};

/// The pure per-hop forwarding decision over raw packet bytes: everything
/// between "SCION bytes arrived" and "hand the packet back to the network",
/// minus router-state concerns (link liveness, reservation policing, SCMP
/// origination). Allocation-free; exercised directly by bench_micro and the
/// zero-allocation tests so they measure exactly what the router runs.
struct HopDecision {
  enum class Action : std::uint8_t {
    kForward,        // send out `egress`, cursor advanced to (next_seg, next_hop)
    kDeliver,        // destination AS reached; hand to `dst`
    kDropParse,
    kDropWrongAs,
    kDropMac,
    kDropExpired,    // hop authorization expired; originate SCMP expired-hop
    kDropMalformed,
  };
  Action action = Action::kDropParse;
  IfaceId egress = kNoIface;
  std::uint8_t next_seg = 0;
  std::uint8_t next_hop = 0;
  /// Destination address (kDeliver).
  ScionAddr dst;
  std::uint32_t reservation_id = 0;
};

[[nodiscard]] HopDecision decide_hop(std::span<const std::uint8_t> packet_bytes, IsdAsn local,
                                     const crypto::HmacKey& key, const BorderRouterConfig& config);

/// Convenience overload for tests: precomputes the HmacKey per call. The
/// router's steady state holds one HmacKey for the router's lifetime.
[[nodiscard]] HopDecision decide_hop(std::span<const std::uint8_t> packet_bytes, IsdAsn local,
                                     const ForwardingKey& key, const BorderRouterConfig& config);

class BorderRouter {
 public:
  BorderRouter(net::Router& router, IsdAsn local, ForwardingKey key,
               BorderRouterConfig config = {});

  BorderRouter(const BorderRouter&) = delete;
  BorderRouter& operator=(const BorderRouter&) = delete;

  [[nodiscard]] IsdAsn local_as() const { return local_; }
  [[nodiscard]] const BorderRouterStats& stats() const { return stats_; }

  /// Updates the "current unix time" used for hop-field expiry checks
  /// (0 disables the check).
  void set_current_time(std::uint32_t unix_time) { config_.current_unix_time = unix_time; }

  /// Converts SCION interface id <-> router link interface id.
  [[nodiscard]] static net::IfId to_net_if(IfaceId scion_if) {
    return static_cast<net::IfId>(scion_if - 1);
  }
  [[nodiscard]] static IfaceId to_scion_if(net::IfId net_if) {
    return static_cast<IfaceId>(net_if + 1);
  }

 private:
  enum class HopCheck : std::uint8_t { kOk, kWrongAs, kBadMac, kExpired };

  void handle(net::Packet&& packet, net::IfId in_if);
  void process(net::Packet&& packet);
  /// Zero-copy pipeline: decide_hop over the packet bytes, then act.
  void process_view(net::Packet&& packet);
  /// Eager full-reparse pipeline (config_.legacy_reparse).
  void process_legacy(net::Packet&& packet);
  [[nodiscard]] bool police_reservation(std::uint32_t reservation_id, net::Packet& packet);
  void deliver_local(const ScionAddr& dst, net::Packet&& packet);
  void send_out(IfaceId egress, std::uint8_t cur_seg, std::uint8_t cur_hop,
                net::Packet&& packet);
  [[nodiscard]] HopCheck check_hop(const DataplaneSegment& seg, std::size_t hop_index,
                                   bool is_scmp);
  /// Sends an SCMP failure report back toward the source over the reversed
  /// traversed prefix ending at (cur_seg, cur_hop). No-op for SCMP packets
  /// themselves (no error loops) and for unspecified sources.
  void send_scmp(const ScionHeader& original, std::size_t cur_seg, std::size_t cur_hop,
                 ScmpType type, IfaceId interface);
  /// Cold-path variant: materializes the header from the packet bytes.
  void send_scmp_from_bytes(std::span<const std::uint8_t> packet_bytes, ScmpType type,
                            IfaceId interface);

  net::Router& router_;
  IsdAsn local_;
  ForwardingKey key_;
  /// Precomputed HMAC midstates for key_: halves the per-packet MAC cost.
  crypto::HmacKey mac_key_;
  BorderRouterConfig config_;
  BorderRouterStats stats_;
};

}  // namespace pan::scion
