#include "transport/connection.hpp"

#include <algorithm>
#include <cassert>

#include "util/log.hpp"

namespace pan::transport {

namespace {
constexpr std::string_view kLog = "transport";
/// Reserved bytes so an ACK frame can always piggyback on a data packet.
constexpr std::size_t kAckReserve = 2 + kMaxAckRanges * 16;
/// Congestion window at start (and after an idle or migration reset), and
/// its floor after a loss, in MSS-sized packets.
constexpr std::size_t kInitialCwndPackets = 10;
constexpr std::size_t kMinCwndPackets = 2;
/// RTT estimate before the first sample.
constexpr Duration kInitialRtt = milliseconds(100);
/// Longest an ack-eliciting packet waits for its delayed ACK.
constexpr Duration kMaxAckDelay = milliseconds(25);
/// Packet-number gap after which an unacked packet counts as lost.
constexpr std::uint64_t kReorderThreshold = 3;
}  // namespace

// ---------------------------------------------------------------- Stream --

Stream::Stream(Connection& conn, std::uint32_t id, std::uint64_t seq)
    : conn_(conn), id_(id), seq_(seq) {}

void Stream::write(std::span<const std::uint8_t> data) {
  if (broken_ || fin_queued_) return;
  Chunk chunk;
  chunk.offset = next_send_offset_;
  chunk.data.assign(data.begin(), data.end());
  next_send_offset_ += data.size();
  queue(std::move(chunk), /*front=*/false);
  conn_.pump();
}

void Stream::finish() {
  if (broken_ || fin_queued_) return;
  fin_queued_ = true;
  Chunk chunk;
  chunk.offset = next_send_offset_;
  chunk.fin = true;
  queue(std::move(chunk), /*front=*/false);
  conn_.pump();
  conn_.note_awaiting_response();
}

void Stream::queue(Chunk chunk, bool front) {
  if (front) {
    pending_.push_front(std::move(chunk));
  } else {
    pending_.push_back(std::move(chunk));
  }
  if (in_send_ring_) return;
  in_send_ring_ = true;
  auto& ring = conn_.send_ring_;
  ring.insert(std::upper_bound(ring.begin(), ring.end(), seq_,
                               [](std::uint64_t seq, const Stream* s) { return seq < s->seq_; }),
              this);
}

void Stream::set_on_data(DataFn on_data) {
  on_data_ = std::move(on_data);
  flush_reassembly();
}

bool Stream::broken() const { return broken_; }

void Stream::on_stream_frame(const StreamFrame& frame) {
  if (broken_ || fin_delivered_) return;
  if (frame.fin) {
    fin_offset_ = frame.offset + frame.data.size();
  }
  if (!frame.data.empty() && frame.offset + frame.data.size() > next_recv_offset_) {
    reassembly_[frame.offset] = frame.data;
  }
  flush_reassembly();
}

void Stream::flush_reassembly() {
  if (!on_data_ || broken_ || fin_delivered_) return;
  for (;;) {
    const auto it = reassembly_.begin();
    bool delivered = false;
    if (it != reassembly_.end() && it->first <= next_recv_offset_) {
      const std::uint64_t offset = it->first;
      Bytes data = std::move(it->second);
      reassembly_.erase(it);
      if (offset + data.size() > next_recv_offset_) {
        const std::size_t skip = static_cast<std::size_t>(next_recv_offset_ - offset);
        const std::span<const std::uint8_t> fresh(data.data() + skip, data.size() - skip);
        next_recv_offset_ += fresh.size();
        const bool fin_now = next_recv_offset_ == fin_offset_;
        if (fin_now) {
          fin_delivered_ = true;
          conn_.retire_candidates_.push_back(id_);
        }
        on_data_(fresh, fin_now);
        delivered = true;
      } else {
        delivered = true;  // fully duplicate chunk, consumed silently
      }
    }
    if (!delivered) break;
    if (fin_delivered_) return;
  }
  // Pure FIN (no trailing data).
  if (!fin_delivered_ && next_recv_offset_ == fin_offset_) {
    fin_delivered_ = true;
    conn_.retire_candidates_.push_back(id_);
    on_data_({}, true);
  }
}

void Stream::mark_broken() {
  if (broken_) return;
  broken_ = true;
  if (on_data_ && !fin_delivered_) {
    fin_delivered_ = true;
    on_data_({}, true);
  }
}

// ------------------------------------------------------------ Connection --

Connection::Connection(sim::Simulator& sim, Conduit conduit, Role role, std::uint64_t conn_id,
                       TransportConfig config)
    : sim_(sim),
      conduit_(std::move(conduit)),
      role_(role),
      conn_id_(conn_id),
      config_(std::move(config)),
      next_local_stream_(role == Role::kClient ? 0 : 1),
      peer_next_(role == Role::kClient ? 1 : 0),
      rtt_(kInitialRtt),
      cwnd_(kInitialCwndPackets * 1200),
      ssthresh_(SIZE_MAX),
      ack_timer_(sim, [this] { maybe_send_pure_ack(); }),
      pto_timer_(sim, [this] { on_pto(); }),
      idle_timer_(sim, [this] { close("idle timeout"); }),
      keep_alive_timer_(sim, [this] { on_keep_alive(); }) {
  if (role_ == Role::kServer) {
    state_ = State::kConnecting;
  }
}

Connection::~Connection() = default;

std::size_t Connection::mss() const { return conduit_.max_payload; }

void Connection::start() {
  assert(role_ == Role::kClient);
  if (state_ != State::kIdle) return;
  state_ = State::kConnecting;
  connect_started_at_ = sim_.now();
  idle_timer_.arm(config_.idle_timeout);
  send_hello(0);
  if (config_.zero_rtt && config_.extra_handshake_rtts == 0) {
    // Early data: the server accepts stream frames as soon as it sees the
    // INITIAL (same datagram ordering on FIFO links), so the client may
    // treat the connection as usable immediately.
    establish();
  }
}

void Connection::send_hello(std::uint8_t round) {
  TransportPacket packet;
  packet.kind = config_.kind;
  packet.type = role_ == Role::kClient ? PacketType::kInitial : PacketType::kHandshake;
  packet.conn_id = conn_id_;
  HelloFrame hello;
  hello.reply = role_ == Role::kServer;
  hello.round = round;
  hello.alpn = config_.alpn;
  packet.frames.emplace_back(hello);

  SentPacket record;
  record.hello = true;
  record.hello_round = round;
  record.ack_eliciting = true;
  send_packet(std::move(packet), std::move(record));
}

void Connection::establish() {
  if (state_ != State::kConnecting) return;
  state_ = State::kEstablished;
  established_at_ = sim_.now();
  PAN_DEBUG(kLog) << to_string(config_.kind) << " conn " << conn_id_ << " established ("
                  << (role_ == Role::kClient ? "client" : "server") << ")";
  if (on_established_) on_established_();
  pump();
}

Stream& Connection::open_stream() {
  if (config_.kind == TransportKind::kTcpLite) {
    assert(next_local_stream_ == 0 && role_ == Role::kClient &&
           "tcp-lite carries exactly one client-opened stream");
  }
  const std::uint32_t id = next_local_stream_;
  next_local_stream_ += 2;
  return add_stream(id);
}

Stream& Connection::add_stream(std::uint32_t id) {
  auto stream = std::make_unique<Stream>(*this, id, streams_created_++);
  Stream& ref = *stream;
  streams_[id] = std::move(stream);
  return ref;
}

bool Connection::admit_peer_stream(std::uint32_t id) {
  if ((id & 1u) == (next_local_stream_ & 1u)) return false;  // our parity
  if (id >= peer_next_) {
    if (id > peer_next_) peer_gaps_.emplace(static_cast<std::uint32_t>(peer_next_), id - 2);
    peer_next_ = std::uint64_t{id} + 2;
    return true;
  }
  auto gap = peer_gaps_.upper_bound(id);
  if (gap == peer_gaps_.begin()) return false;
  --gap;
  const auto [first, last] = *gap;
  if (id > last) return false;  // seen before: the stream already retired
  peer_gaps_.erase(gap);
  if (first < id) peer_gaps_.emplace(first, id - 2);
  if (id < last) peer_gaps_.emplace(id + 2, last);
  return true;
}

void Connection::retire_finished_streams() {
  // Indexed: destroying a stream's callbacks may queue further candidates.
  for (std::size_t i = 0; i < retire_candidates_.size(); ++i) {
    const auto it = streams_.find(retire_candidates_[i]);
    if (it == streams_.end() || !it->second->retirable()) continue;
    const std::unique_ptr<Stream> retired = std::move(it->second);
    streams_.erase(it);
  }
  retire_candidates_.clear();
}

Stream* Connection::stream(std::uint32_t id) {
  const auto it = streams_.find(id);
  return it == streams_.end() ? nullptr : it->second.get();
}

void Connection::close(const std::string& reason) {
  if (state_ == State::kClosed) return;
  if (state_ != State::kIdle && conduit_.send) {
    TransportPacket packet;
    packet.kind = config_.kind;
    packet.type = PacketType::kData;
    packet.conn_id = conn_id_;
    packet.packet_number = next_pn_++;
    packet.frames.emplace_back(CloseFrame{reason});
    ++stats_.packets_sent;
    conduit_.send(serialize_packet_view(packet, conduit_.headroom));
  }
  state_ = State::kClosed;
  ack_timer_.cancel();
  pto_timer_.cancel();
  idle_timer_.cancel();
  in_flight_.clear();
  bytes_in_flight_ = 0;
  for (auto& [id, stream] : streams_) stream->mark_broken();
  if (on_closed_) {
    // Move out so a re-entrant close cannot fire it twice.
    auto cb = std::move(on_closed_);
    on_closed_ = nullptr;
    cb(reason);
  }
}

void Connection::set_conduit(Conduit conduit) {
  conduit_ = std::move(conduit);
  on_path_migrated();
}

void Connection::on_path_migrated() {
  if (state_ != State::kEstablished) return;
  // RFC 9000 §9.4: on path migration, reset the congestion controller — the
  // old path's state (including an ssthresh crushed by blackhole PTOs) says
  // nothing about the new path.
  pto_count_ = 0;
  cwnd_ = kInitialCwndPackets * 1200;
  ssthresh_ = SIZE_MAX;
  rtt_.reset(kInitialRtt);
  loss_recovery_end_pn_ = next_pn_;
  retransmit_all_outstanding();
}

void Connection::on_datagram(std::span<const std::uint8_t> data) {
  if (state_ == State::kClosed) return;
  auto parsed = parse_packet(data);
  if (!parsed.ok()) {
    PAN_DEBUG(kLog) << "conn " << conn_id_ << ": " << parsed.error();
    return;
  }
  const TransportPacket& packet = parsed.value();
  if (packet.kind != config_.kind || packet.conn_id != conn_id_) return;

  ++stats_.packets_received;
  stats_.bytes_received += data.size();
  idle_timer_.arm(config_.idle_timeout);

  bool ack_eliciting = false;
  for (const Frame& frame : packet.frames) {
    process_frame(frame, &ack_eliciting);
    if (state_ == State::kClosed) return;
  }
  record_received(packet.packet_number, ack_eliciting);
  pump();
  retire_finished_streams();
}

void Connection::process_frame(const Frame& frame, bool* ack_eliciting) {
  if (const auto* hello = std::get_if<HelloFrame>(&frame)) {
    *ack_eliciting = true;
    if (role_ == Role::kServer && !hello->reply) {
      // Respond to this round; establish after the final round.
      send_hello(hello->round);
      if (hello->round >= config_.extra_handshake_rtts) establish();
    } else if (role_ == Role::kClient && hello->reply) {
      if (hello->round >= config_.extra_handshake_rtts) {
        establish();
      } else if (hello->round >= hello_rounds_done_) {
        hello_rounds_done_ = static_cast<std::uint8_t>(hello->round + 1);
        send_hello(hello_rounds_done_);
      }
    }
  } else if (const auto* stream_frame = std::get_if<StreamFrame>(&frame)) {
    *ack_eliciting = true;
    Stream* target = stream(stream_frame->stream_id);
    if (target == nullptr) {
      // A peer-initiated stream opens on its first frame. A late duplicate
      // for a stream that already retired is dropped, never re-created.
      if (!admit_peer_stream(stream_frame->stream_id)) return;
      target = &add_stream(stream_frame->stream_id);
      if (on_stream_) on_stream_(*target);
    }
    target->on_stream_frame(*stream_frame);
  } else if (const auto* ack = std::get_if<AckFrame>(&frame)) {
    process_ack(*ack);
  } else if (const auto* close_frame = std::get_if<CloseFrame>(&frame)) {
    const std::string reason = "peer closed: " + close_frame->reason;
    // Suppress our own CLOSE echo.
    conduit_.send = nullptr;
    close(reason);
  } else if (std::get_if<PingFrame>(&frame) != nullptr) {
    *ack_eliciting = true;
  }
}

void Connection::process_ack(const AckFrame& ack) {
  bool newly_acked_largest = false;
  TimePoint largest_sent_at;
  std::vector<std::uint64_t> lost;

  for (auto it = in_flight_.begin(); it != in_flight_.end();) {
    const std::uint64_t pn = it->first;
    if (ack.contains(pn)) {
      ++stats_.packets_acked;
      bytes_in_flight_ -= std::min(bytes_in_flight_, it->second.size);
      if (pn == ack.largest()) {
        newly_acked_largest = true;
        largest_sent_at = it->second.sent_at;
      }
      // Congestion control growth.
      if (cwnd_ < ssthresh_) {
        cwnd_ += it->second.size;  // slow start
      } else {
        cwnd_ += std::max<std::size_t>(1, mss() * it->second.size / cwnd_);
      }
      for (const SentChunkRef& ref : it->second.chunks) {
        const Stream* target = release_chunk(ref);
        if (target != nullptr && target->chunks_in_flight_ == 0) {
          retire_candidates_.push_back(ref.stream_id);
        }
      }
      it = in_flight_.erase(it);
    } else if (pn + kReorderThreshold <= ack.largest()) {
      lost.push_back(pn);
      ++it;
    } else {
      ++it;
    }
  }

  if (newly_acked_largest) {
    rtt_.on_sample(sim_.now() - largest_sent_at);
    pto_count_ = 0;
  }

  for (const std::uint64_t pn : lost) {
    auto it = in_flight_.find(pn);
    if (it == in_flight_.end()) continue;
    SentPacket packet = std::move(it->second);
    in_flight_.erase(it);
    declare_lost(pn, std::move(packet));
  }

  if (in_flight_.empty()) {
    pto_timer_.cancel();
  } else {
    arm_pto();
  }
}

void Connection::on_loss_event(std::uint64_t pn) {
  if (pn < loss_recovery_end_pn_) return;  // already reacted this window
  loss_recovery_end_pn_ = next_pn_;
  ssthresh_ = std::max(cwnd_ / 2, kMinCwndPackets * mss());
  cwnd_ = ssthresh_;
}

void Connection::declare_lost(std::uint64_t pn, SentPacket&& packet) {
  ++stats_.packets_lost;
  bytes_in_flight_ -= std::min(bytes_in_flight_, packet.size);
  on_loss_event(pn);
  if (packet.hello) {
    if (state_ == State::kConnecting) send_hello(packet.hello_round);
    return;
  }
  // Re-queue the chunks at the front of their streams.
  for (SentChunkRef& ref : packet.chunks) {
    Stream* target = release_chunk(ref);
    if (target == nullptr || target->broken_) continue;
    target->queue(Stream::Chunk{ref.offset, std::move(ref.data), ref.fin}, /*front=*/true);
  }
}

Stream* Connection::release_chunk(const SentChunkRef& ref) {
  // A stream with a chunk in flight cannot have retired.
  Stream* target = stream(ref.stream_id);
  if (target != nullptr) --target->chunks_in_flight_;
  return target;
}

void Connection::retransmit_all_outstanding() {
  // Everything outstanding is presumed lost. Re-queue all stream chunks
  // (walking in reverse pn order with push_front keeps offsets ascending
  // ahead of fresh data) and clear the in-flight accounting. Re-queueing
  // only part of it while the rest still counted against a collapsed cwnd
  // would deadlock the sender (nothing fits in the window).
  std::map<std::uint64_t, SentPacket> lost;
  lost.swap(in_flight_);
  bytes_in_flight_ = 0;
  stats_.packets_lost += lost.size();

  bool resend_hello = false;
  std::uint8_t hello_round = 0;
  for (auto it = lost.rbegin(); it != lost.rend(); ++it) {
    SentPacket& packet = it->second;
    if (packet.hello) {
      resend_hello = true;
      hello_round = packet.hello_round;
      continue;
    }
    for (auto ref = packet.chunks.rbegin(); ref != packet.chunks.rend(); ++ref) {
      Stream* target = release_chunk(*ref);
      if (target == nullptr || target->broken_) continue;
      target->queue(Stream::Chunk{ref->offset, std::move(ref->data), ref->fin},
                    /*front=*/true);
    }
  }
  if (resend_hello && state_ == State::kConnecting) send_hello(hello_round);
  pump();
  if (!in_flight_.empty()) arm_pto();
}

void Connection::on_pto() {
  if (state_ == State::kClosed || in_flight_.empty()) return;
  ++stats_.pto_fired;
  ++pto_count_;
  // RTO semantics: collapse the window, then go-back-n.
  ssthresh_ = std::max(cwnd_ / 2, kMinCwndPackets * mss());
  cwnd_ = kMinCwndPackets * mss();
  loss_recovery_end_pn_ = next_pn_;
  retransmit_all_outstanding();
}

bool Connection::awaiting_response() const {
  for (const auto& [id, stream] : streams_) {
    if (stream->fin_queued_ && stream->pending_.empty() && !stream->fin_delivered_ &&
        !stream->broken_) {
      return true;
    }
  }
  return false;
}

void Connection::note_awaiting_response() {
  if (config_.keep_alive > Duration::zero() && state_ != State::kClosed) {
    keep_alive_timer_.arm_if_idle(config_.keep_alive);
  }
}

void Connection::on_keep_alive() {
  if (state_ == State::kClosed || !awaiting_response()) return;  // stop probing
  if (state_ == State::kEstablished) {
    TransportPacket packet;
    packet.kind = config_.kind;
    packet.type = PacketType::kData;
    packet.conn_id = conn_id_;
    packet.frames.emplace_back(PingFrame{});
    if (ack_pending_) {
      packet.frames.emplace_back(build_ack());
      ack_pending_ = false;
      ack_eliciting_since_ack_ = 0;
      ack_timer_.cancel();
    }
    SentPacket record;
    record.ack_eliciting = true;
    send_packet(std::move(packet), std::move(record));
  }
  keep_alive_timer_.arm(config_.keep_alive);
}

Duration Connection::pto_interval() const {
  Duration base = rtt_.srtt() + Duration{4 * rtt_.rttvar().nanos()} + kMaxAckDelay;
  for (std::uint32_t i = 0; i < pto_count_ && i < 8; ++i) base = base * 2;
  return base;
}

void Connection::arm_pto() { pto_timer_.arm(pto_interval()); }

void Connection::record_received(std::uint64_t pn, bool ack_eliciting) {
  // Merge pn into the descending range list.
  bool merged = false;
  for (std::size_t i = 0; i < recv_ranges_.size(); ++i) {
    AckRange& range = recv_ranges_[i];
    if (pn >= range.first && pn <= range.last) {
      merged = true;  // duplicate
      break;
    }
    if (pn == range.last + 1) {
      range.last = pn;
      if (i > 0 && recv_ranges_[i - 1].first == range.last + 1) {
        recv_ranges_[i - 1].first = range.first;
        recv_ranges_.erase(recv_ranges_.begin() + static_cast<std::ptrdiff_t>(i));
      }
      merged = true;
      break;
    }
    if (pn + 1 == range.first) {
      range.first = pn;
      if (i + 1 < recv_ranges_.size() && recv_ranges_[i + 1].last + 1 == range.first) {
        range.first = recv_ranges_[i + 1].first;
        recv_ranges_.erase(recv_ranges_.begin() + static_cast<std::ptrdiff_t>(i + 1));
      }
      merged = true;
      break;
    }
    if (pn > range.last) {
      recv_ranges_.insert(recv_ranges_.begin() + static_cast<std::ptrdiff_t>(i),
                          AckRange{pn, pn});
      merged = true;
      break;
    }
  }
  if (!merged) recv_ranges_.push_back(AckRange{pn, pn});
  if (recv_ranges_.size() > kMaxAckRanges) recv_ranges_.resize(kMaxAckRanges);

  if (ack_eliciting) {
    ack_pending_ = true;
    ++ack_eliciting_since_ack_;
    if (ack_eliciting_since_ack_ >= 2) {
      maybe_send_pure_ack();
    } else {
      ack_timer_.arm_if_idle(kMaxAckDelay);
    }
  }
}

AckFrame Connection::build_ack() const {
  AckFrame ack;
  ack.ranges = recv_ranges_;
  return ack;
}

void Connection::maybe_send_pure_ack() {
  if (!ack_pending_ || state_ == State::kClosed) return;
  TransportPacket packet;
  packet.kind = config_.kind;
  packet.type = PacketType::kData;
  packet.conn_id = conn_id_;
  packet.packet_number = next_pn_++;
  packet.frames.emplace_back(build_ack());
  ack_pending_ = false;
  ack_eliciting_since_ack_ = 0;
  ack_timer_.cancel();
  ++stats_.packets_sent;
  net::PacketView wire = serialize_packet_view(packet, conduit_.headroom);
  stats_.bytes_sent += wire.size();
  if (conduit_.send) conduit_.send(std::move(wire));
}

void Connection::send_packet(TransportPacket packet, SentPacket record) {
  packet.packet_number = next_pn_++;
  net::PacketView wire = serialize_packet_view(packet, conduit_.headroom);
  record.sent_at = sim_.now();
  record.size = wire.size();
  ++stats_.packets_sent;
  stats_.bytes_sent += wire.size();
  if (record.ack_eliciting) {
    bytes_in_flight_ += record.size;
    in_flight_[packet.packet_number] = std::move(record);
    arm_pto();
  }
  if (conduit_.send) conduit_.send(std::move(wire));
}

Stream& Connection::next_in_send_ring() {
  // Round-robin in creation order: the first queued stream at or after the
  // cursor, wrapping to the oldest.
  const std::uint64_t from = rr_cursor_ == streams_created_ ? 0 : rr_cursor_;
  auto it = std::lower_bound(send_ring_.begin(), send_ring_.end(), from,
                             [](const Stream* s, std::uint64_t seq) { return s->seq_ < seq; });
  if (it == send_ring_.end()) it = send_ring_.begin();
  rr_cursor_ = (*it)->seq_ + 1;
  return **it;
}

void Connection::pump() {
  if (state_ != State::kEstablished) return;

  while (bytes_in_flight_ < cwnd_) {
    // Gather chunks round-robin across streams up to the datagram budget.
    std::size_t budget = mss();
    if (budget < packet_header_size() + kAckReserve + stream_frame_overhead() + 1) break;
    budget -= packet_header_size() + kAckReserve;
    if (send_ring_.empty()) {
      // Nothing queued. A cursor that never picked a stream moves past the
      // newest one, so a stream opened next goes first.
      if (rr_cursor_ == 0) rr_cursor_ = streams_created_;
      break;
    }

    TransportPacket packet;
    packet.kind = config_.kind;
    packet.type = PacketType::kData;
    packet.conn_id = conn_id_;
    SentPacket record;

    while (budget > stream_frame_overhead() && !send_ring_.empty()) {
      Stream& target = next_in_send_ring();
      Stream::Chunk& chunk = target.pending_.front();
      const std::size_t room = budget - stream_frame_overhead();
      StreamFrame frame;
      frame.stream_id = target.id_;
      frame.offset = chunk.offset;
      if (chunk.data.size() <= room) {
        frame.data = std::move(chunk.data);
        frame.fin = chunk.fin;
        target.pending_.pop_front();
      } else {
        frame.data.assign(chunk.data.begin(),
                          chunk.data.begin() + static_cast<std::ptrdiff_t>(room));
        chunk.data.erase(chunk.data.begin(), chunk.data.begin() + static_cast<std::ptrdiff_t>(room));
        chunk.offset += room;
      }
      if (target.pending_.empty()) {
        target.in_send_ring_ = false;
        send_ring_.erase(std::lower_bound(
            send_ring_.begin(), send_ring_.end(), target.seq_,
            [](const Stream* s, std::uint64_t seq) { return s->seq_ < seq; }));
      }
      ++target.chunks_in_flight_;
      budget -= stream_frame_overhead() + frame.data.size();
      record.chunks.push_back(
          SentChunkRef{frame.stream_id, frame.offset, frame.data, frame.fin});
      packet.frames.emplace_back(std::move(frame));
    }

    if (ack_pending_) {
      packet.frames.emplace_back(build_ack());
      ack_pending_ = false;
      ack_eliciting_since_ack_ = 0;
      ack_timer_.cancel();
    }
    record.ack_eliciting = true;
    send_packet(std::move(packet), std::move(record));
  }
}

}  // namespace pan::transport
