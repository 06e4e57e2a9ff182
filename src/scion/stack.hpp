// SCION host stack: UDP-over-SCION sockets ("snet" equivalent).
//
// The stack registers itself as the host's SCION handler, demultiplexes
// incoming SCION/UDP packets to bound sockets, and hands each receiver the
// ready-reversed dataplane path so servers can reply without a path lookup —
// the property that makes SCION servers deployable without a daemon, which
// the paper's reverse proxy relies on.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>

#include "net/host.hpp"
#include "scion/colibri.hpp"
#include "scion/header.hpp"
#include "scion/scmp.hpp"

namespace pan::scion {

class ScionSocket;

class ScionStack {
 public:
  ScionStack(net::Host& host, IsdAsn local_as);

  ScionStack(const ScionStack&) = delete;
  ScionStack& operator=(const ScionStack&) = delete;

  [[nodiscard]] IsdAsn local_as() const { return local_as_; }
  [[nodiscard]] ScionAddr local_addr() const { return ScionAddr{local_as_, host_.address()}; }
  [[nodiscard]] net::Host& host() { return host_; }

  /// from + reply_path identify the peer; reply_path is already reversed
  /// (empty for intra-AS traffic). The payload view shares the received
  /// packet's buffer (zero-copy); call to_bytes() to own a copy.
  using RecvFn = std::function<void(const ScionEndpoint& from, const DataplanePath& reply_path,
                                    net::PacketView payload)>;

  /// Binds a SCION/UDP socket; port 0 picks an ephemeral port. Returns null
  /// if the port is in use.
  [[nodiscard]] std::unique_ptr<ScionSocket> bind(std::uint16_t port, RecvFn on_receive);

  /// SCMP error reports addressed to this host. Subscribers are notified of
  /// every message; unsubscribe with the returned id.
  using ScmpFn = std::function<void(const ScmpMessage&)>;
  std::uint64_t subscribe_scmp(ScmpFn on_message);
  void unsubscribe_scmp(std::uint64_t id);

  [[nodiscard]] std::uint64_t packets_sent() const { return sent_; }
  [[nodiscard]] std::uint64_t packets_received() const { return received_; }
  [[nodiscard]] std::uint64_t parse_errors() const { return parse_errors_; }
  [[nodiscard]] std::uint64_t scmp_received() const { return scmp_received_; }
  [[nodiscard]] std::size_t bound_sockets() const { return sockets_.size(); }

 private:
  friend class ScionSocket;
  void handle(net::Packet&& packet, net::IfId in_if);
  void send(std::uint16_t src_port, const ScionEndpoint& dst, const DataplanePath& path,
            net::PacketView payload, ReservationId reservation);
  void unbind(std::uint16_t port);
  [[nodiscard]] std::uint16_t allocate_ephemeral_port();

  net::Host& host_;
  IsdAsn local_as_;
  std::unordered_map<std::uint16_t, ScionSocket*> sockets_;
  std::unordered_map<std::uint64_t, ScmpFn> scmp_subscribers_;
  std::uint64_t next_scmp_id_ = 1;
  std::uint16_t next_ephemeral_ = 45000;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t parse_errors_ = 0;
  std::uint64_t scmp_received_ = 0;
};

class ScionSocket {
 public:
  ScionSocket(ScionStack& stack, std::uint16_t port, ScionStack::RecvFn on_receive);
  ~ScionSocket();

  ScionSocket(const ScionSocket&) = delete;
  ScionSocket& operator=(const ScionSocket&) = delete;

  [[nodiscard]] std::uint16_t local_port() const { return port_; }
  [[nodiscard]] ScionEndpoint local_endpoint() const {
    return ScionEndpoint{stack_.local_addr(), port_};
  }
  [[nodiscard]] ScionStack& stack() { return stack_; }

  /// Sends a datagram along `path` (which must lead from the local AS to
  /// dst's AS; empty for intra-AS destinations). A nonzero reservation id
  /// claims Colibri priority bandwidth — routers validate and police it.
  /// If `payload` carries at least scion_header_size(path) bytes of headroom
  /// (see PacketView::with_headroom), the SCION header is prepended in place
  /// and the datagram is never copied; otherwise it is reserialized once.
  void send_to(const ScionEndpoint& dst, const DataplanePath& path, net::PacketView payload,
               ReservationId reservation = 0);

 private:
  friend class ScionStack;
  void deliver(const ScionEndpoint& from, const DataplanePath& reply_path,
               net::PacketView payload);

  ScionStack& stack_;
  std::uint16_t port_;
  ScionStack::RecvFn on_receive_;
};

}  // namespace pan::scion
