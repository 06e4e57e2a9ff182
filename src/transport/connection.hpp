// The reliable transport engine shared by QUIC-lite and TCP-lite.
//
// One Connection speaks the frame format in frames.hpp over a datagram
// Conduit (plain UDP or UDP-over-SCION). It provides:
//   - a 1-RTT handshake (HELLO / HELLO_REPLY), with configurable extra
//     rounds to emulate e.g. TLS-over-TCP setup costs;
//   - ordered reliable byte streams with FIN semantics (Bytestream);
//   - ACK-based loss detection (packet-threshold reordering) plus a probe
//     timeout (PTO) with exponential backoff;
//   - NewReno congestion control (slow start, AIMD, collapse on PTO);
//   - delayed ACKs (every second ack-eliciting packet or max_ack_delay).
//
// TCP-lite is the same engine restricted to a single stream with its own
// wire magic: the paper maps HTTP/1 TCP bytestreams onto one bidirectional
// QUIC stream, so modeling both kinds over one engine mirrors the prototype
// while keeping the handshake/recovery dynamics that affect page load time.
//
// Flow control windows are not modeled (simulated endpoints have ample
// memory); congestion control alone limits data in flight. Documented in
// DESIGN.md.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>

#include "sim/timer.hpp"
#include "transport/bytestream.hpp"
#include "transport/frames.hpp"
#include "util/rtt_estimator.hpp"

namespace pan::transport {

/// Where datagrams go. `send` must deliver (or drop) asynchronously via the
/// simulator; `max_payload` bounds serialized packet size. `headroom` bytes
/// are reserved in front of every serialized datagram so the layer below
/// (the SCION stack) can prepend its header in place — the datagram is then
/// serialized exactly once on its whole way to the wire.
struct Conduit {
  std::function<void(net::PacketView)> send;
  std::size_t max_payload = 1200;
  std::size_t headroom = 0;
};

struct TransportConfig {
  TransportKind kind = TransportKind::kQuicLite;
  std::string alpn = "http/1.1";
  Duration idle_timeout = seconds(30);
  /// Additional handshake round trips before the connection is established
  /// (0 = QUIC-style 1-RTT; 1 emulates TLS-1.3-over-TCP's extra RTT).
  std::uint8_t extra_handshake_rtts = 0;
  /// Client-side 0-RTT (session resumption): the connection counts as
  /// established immediately at start(), so early data rides right behind
  /// the INITIAL packet and the response arrives one round trip sooner.
  /// Only valid with extra_handshake_rtts == 0 and when the application has
  /// a resumption ticket for the server (it has connected before).
  bool zero_rtt = false;
  /// When nonzero, the connection sends PING probes at this interval while
  /// any local stream awaits a response (request FIN sent, peer FIN not yet
  /// received). A pure receiver otherwise goes silent and would never learn
  /// that its path died (no ACKs to lose); the probes keep path failure
  /// detection (PTO, SCMP) alive. Probing stops once nothing is awaited.
  Duration keep_alive = Duration::zero();
};

class Connection;

/// One bidirectional stream. Its state is O(live): the connection erases
/// ("retires") a stream once both directions reached their RFC 9000 §3
/// terminal states — the peer's FIN was delivered to on_data, our FIN was
/// acknowledged, and nothing is queued or in flight. The upper layer must
/// not touch a stream after it called finish() and saw the peer's FIN; the
/// stream never calls on_data again after delivering that FIN.
class Stream final : public Bytestream {
 public:
  Stream(Connection& conn, std::uint32_t id, std::uint64_t seq);

  [[nodiscard]] std::uint32_t id() const { return id_; }

  void write(std::span<const std::uint8_t> data) override;
  void finish() override;
  void set_on_data(DataFn on_data) override;
  [[nodiscard]] bool remote_finished() const override { return fin_delivered_; }
  [[nodiscard]] bool broken() const override;

  /// Bytes received and delivered so far.
  [[nodiscard]] std::uint64_t bytes_received() const { return next_recv_offset_; }

 private:
  friend class Connection;

  struct Chunk {
    std::uint64_t offset = 0;
    Bytes data;
    bool fin = false;
  };

  void on_stream_frame(const StreamFrame& frame);
  void flush_reassembly();
  void mark_broken();
  /// Queues a chunk for (re)transmission and joins the send ring.
  void queue(Chunk chunk, bool front);
  [[nodiscard]] bool retirable() const {
    return fin_delivered_ && fin_queued_ && pending_.empty() && chunks_in_flight_ == 0 &&
           !broken_;
  }

  Connection& conn_;
  std::uint32_t id_;
  std::uint64_t seq_;  // creation order on the connection; the round-robin key

  // Send side.
  std::deque<Chunk> pending_;  // not yet (re)transmitted
  std::uint64_t next_send_offset_ = 0;
  bool fin_queued_ = false;
  bool in_send_ring_ = false;         // in Connection::send_ring_ (pending_ non-empty)
  std::size_t chunks_in_flight_ = 0;  // chunks held by Connection::in_flight_

  // Receive side.
  std::map<std::uint64_t, Bytes> reassembly_;
  std::uint64_t next_recv_offset_ = 0;
  std::uint64_t fin_offset_ = UINT64_MAX;
  bool fin_delivered_ = false;
  bool broken_ = false;
  DataFn on_data_;
};

class Connection {
 public:
  enum class Role { kClient, kServer };
  enum class State { kIdle, kConnecting, kEstablished, kClosed };

  struct Stats {
    std::uint64_t packets_sent = 0;
    std::uint64_t packets_received = 0;
    std::uint64_t packets_lost = 0;
    std::uint64_t packets_acked = 0;
    std::uint64_t pto_fired = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
  };

  Connection(sim::Simulator& sim, Conduit conduit, Role role, std::uint64_t conn_id,
             TransportConfig config);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] Role role() const { return role_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] std::uint64_t conn_id() const { return conn_id_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] Duration smoothed_rtt() const { return rtt_.srtt(); }
  /// When the client-side handshake started (start()) and completed
  /// (establish()); origin for connections that never reached the state.
  [[nodiscard]] TimePoint connect_started_at() const { return connect_started_at_; }
  [[nodiscard]] TimePoint established_at() const { return established_at_; }
  /// Client handshake wall time on the simulated clock (zero for 0-RTT
  /// resumption and for connections not yet established).
  [[nodiscard]] Duration handshake_time() const {
    return established_at_ < connect_started_at_ ? Duration::zero()
                                                 : established_at_ - connect_started_at_;
  }
  [[nodiscard]] std::size_t cwnd_bytes() const { return cwnd_; }
  [[nodiscard]] const TransportConfig& config() const { return config_; }

  /// Client: begins the handshake. Server connections establish on demand.
  void start();

  /// Feeds an incoming datagram (from the socket/demux layer).
  void on_datagram(std::span<const std::uint8_t> data);

  /// Opens a locally initiated bidirectional stream. TCP-lite connections
  /// allow exactly one. Streams are owned by the connection.
  Stream& open_stream();
  /// The live stream with this id; nullptr once it retired (or never was).
  [[nodiscard]] Stream* stream(std::uint32_t id);
  /// Streams currently held: opened and not yet retired.
  [[nodiscard]] std::size_t live_streams() const { return streams_.size(); }

  void set_on_established(std::function<void()> fn) { on_established_ = std::move(fn); }
  /// Fires when the peer opens a stream.
  void set_on_stream(std::function<void(Stream&)> fn) { on_stream_ = std::move(fn); }
  void set_on_closed(std::function<void(const std::string&)> fn) {
    on_closed_ = std::move(fn);
  }

  void close(const std::string& reason);

  /// Swaps the conduit (SCION path migration); in-flight data redelivers via
  /// normal loss recovery, jump-started by on_path_migrated().
  void set_conduit(Conduit conduit);

  /// Adjusts only the reserved header headroom (server-side reply-path
  /// migration: the route changed under the same conduit, so future
  /// datagrams need a different SCION header size in front).
  void set_conduit_headroom(std::size_t headroom) { conduit_.headroom = headroom; }

  /// Signals that the underlying path changed (client conduit swap, or a
  /// server observing a new reply path): resets the PTO backoff — which may
  /// have grown exponentially while the old path was black-holing — and
  /// retransmits outstanding data immediately on the new path.
  void on_path_migrated();

 private:
  friend class Stream;

  struct SentChunkRef {
    std::uint32_t stream_id = 0;
    std::uint64_t offset = 0;
    Bytes data;
    bool fin = false;
  };
  struct SentPacket {
    TimePoint sent_at;
    std::size_t size = 0;
    std::vector<SentChunkRef> chunks;
    bool hello = false;
    std::uint8_t hello_round = 0;
    bool ack_eliciting = false;
  };

  void pump();
  [[nodiscard]] Stream& next_in_send_ring();
  Stream& add_stream(std::uint32_t id);
  /// Whether an unknown peer-parity id names a stream the peer has not
  /// opened yet (as opposed to one that already retired here).
  bool admit_peer_stream(std::uint32_t id);
  /// Drops the in-flight hold of a sent chunk; returns its stream, if live.
  Stream* release_chunk(const SentChunkRef& ref);
  void retire_finished_streams();
  void send_hello(std::uint8_t round);
  void establish();
  void note_awaiting_response();
  [[nodiscard]] bool awaiting_response() const;
  void on_keep_alive();
  void process_frame(const Frame& frame, bool* ack_eliciting);
  void process_ack(const AckFrame& ack);
  void declare_lost(std::uint64_t pn, SentPacket&& packet);
  void on_pto();
  /// Go-back-n: re-queues every outstanding chunk and pumps.
  void retransmit_all_outstanding();
  void record_received(std::uint64_t pn, bool ack_eliciting);
  [[nodiscard]] AckFrame build_ack() const;
  void maybe_send_pure_ack();
  void send_packet(TransportPacket packet, SentPacket record);
  [[nodiscard]] Duration pto_interval() const;
  void arm_pto();
  [[nodiscard]] std::size_t bytes_in_flight() const { return bytes_in_flight_; }
  void on_loss_event(std::uint64_t pn);
  [[nodiscard]] std::size_t mss() const;

  sim::Simulator& sim_;
  Conduit conduit_;
  Role role_;
  std::uint64_t conn_id_;
  TransportConfig config_;
  State state_ = State::kIdle;

  // Streams. Only live ones are held; the send ring holds the subset with
  // queued data, ascending by creation sequence. rr_cursor_ is the sequence
  // the next round-robin pick starts from (== streams_created_ wraps to 0).
  std::unordered_map<std::uint32_t, std::unique_ptr<Stream>> streams_;
  std::vector<Stream*> send_ring_;
  std::uint64_t rr_cursor_ = 0;
  std::uint64_t streams_created_ = 0;
  std::uint32_t next_local_stream_;
  // Peer-initiated ids: every id >= peer_next_ is unopened, and below it
  // only the ids in peer_gaps_ ([first, last] runs of peer parity) are.
  std::uint64_t peer_next_;
  std::map<std::uint32_t, std::uint32_t> peer_gaps_;
  // Streams whose peer FIN was just delivered or whose last in-flight chunk
  // was just acked; on_datagram retires those that are done when it ends.
  std::vector<std::uint32_t> retire_candidates_;

  // Packet number spaces (single space for simplicity).
  std::uint64_t next_pn_ = 1;
  std::map<std::uint64_t, SentPacket> in_flight_;
  std::size_t bytes_in_flight_ = 0;

  // ACK state (receiving side).
  std::vector<AckRange> recv_ranges_;  // descending, merged
  bool ack_pending_ = false;
  std::uint32_t ack_eliciting_since_ack_ = 0;

  // RTT / congestion.
  RttEstimator rtt_;
  std::size_t cwnd_;
  std::size_t ssthresh_;
  std::uint64_t loss_recovery_end_pn_ = 0;
  std::uint32_t pto_count_ = 0;

  // Handshake.
  std::uint8_t hello_rounds_done_ = 0;
  TimePoint connect_started_at_ = TimePoint::origin();
  TimePoint established_at_ = TimePoint::origin();

  sim::Timer ack_timer_;
  sim::Timer pto_timer_;
  sim::Timer idle_timer_;
  sim::Timer keep_alive_timer_;

  std::function<void()> on_established_;
  std::function<void(Stream&)> on_stream_;
  std::function<void(const std::string&)> on_closed_;
  Stats stats_;
};

}  // namespace pan::transport
