// A client and a server transport::Connection joined by an in-memory
// conduit (50 µs each way) on a private Simulator, established and ready
// for streams. Header-only; shared by transport_test and bench_micro.
//
// Datagrams either side sends can be recorded (parsed) before delivery, the
// client->server direction can be black-holed, and hand-made packets can be
// delivered straight to either side.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "transport/connection.hpp"

namespace pan::testsupport {

class LoopbackPair {
 public:
  static constexpr std::uint64_t kConnId = 7;

  LoopbackPair() {
    const transport::TransportConfig config;  // QUIC-lite
    client_ = std::make_unique<transport::Connection>(
        sim, conduit(&server_, /*from_client=*/true), transport::Connection::Role::kClient,
        kConnId, config);
    server_ = std::make_unique<transport::Connection>(
        sim, conduit(&client_, /*from_client=*/false), transport::Connection::Role::kServer,
        kConnId, config);
  }
  LoopbackPair(const LoopbackPair&) = delete;
  LoopbackPair& operator=(const LoopbackPair&) = delete;

  transport::Connection& client() { return *client_; }
  transport::Connection& server() { return *server_; }

  void establish() {
    client_->start();
    sim.run_until_condition(
        [this] { return client_->state() == transport::Connection::State::kEstablished; },
        sim.now() + seconds(1));
  }

  /// Opens a client stream, sends `request` with a FIN and runs until the
  /// response FIN arrives; returns the response bytes.
  std::string exchange(std::string_view request) {
    transport::Stream& stream = client_->open_stream();
    std::string response;
    bool done = false;
    stream.set_on_data([&](std::span<const std::uint8_t> data, bool fin) {
      response.append(reinterpret_cast<const char*>(data.data()), data.size());
      done = done || fin;
    });
    stream.write(std::span(reinterpret_cast<const std::uint8_t*>(request.data()), request.size()));
    stream.finish();
    sim.run_until_condition([&] { return done; }, sim.now() + seconds(5));
    return response;
  }

  /// Delivers a hand-made packet carrying `frames` straight to `target`.
  void inject(transport::Connection& target, std::vector<transport::Frame> frames) {
    transport::TransportPacket packet;
    packet.kind = transport::TransportKind::kQuicLite;
    packet.type = transport::PacketType::kData;
    packet.conn_id = kConnId;
    packet.packet_number = next_injected_pn_++;
    packet.frames = std::move(frames);
    target.on_datagram(transport::serialize_packet(packet));
  }

  sim::Simulator sim;
  bool drop_to_server = false;
  bool record = false;
  std::vector<transport::TransportPacket> client_sent;  // while `record`
  std::vector<transport::TransportPacket> server_sent;  // while `record`

 private:
  transport::Conduit conduit(std::unique_ptr<transport::Connection>* peer, bool from_client) {
    transport::Conduit c;
    c.send = [this, peer, from_client](net::PacketView packet) {
      if (record) {
        (from_client ? client_sent : server_sent)
            .push_back(transport::parse_packet(packet.span()).value());
      }
      if (from_client && drop_to_server) return;
      sim.schedule_after(microseconds(50),
                         [peer, packet] { (*peer)->on_datagram(packet.span()); });
    };
    return c;
  }

  std::uint64_t next_injected_pn_ = 1'000'000;
  std::unique_ptr<transport::Connection> client_;
  std::unique_ptr<transport::Connection> server_;
};

}  // namespace pan::testsupport
