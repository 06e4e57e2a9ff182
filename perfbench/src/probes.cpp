#include "probes.hpp"

#include <functional>
#include <memory>

#include "core/layer_model.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "crypto/signature.hpp"
#include "http/message.hpp"
#include "http/parser.hpp"
#include "obs/metrics.hpp"
#include "ppl/parser.hpp"
#include "scion/border_router.hpp"
#include "scion/header.hpp"
#include "sim/simulator.hpp"
#include "transport/connection.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace pan;

/// Keeps a result observable so the timed work is not optimized away.
volatile std::uint64_t g_sink = 0;

/// Runs `batch` once untimed, then `batches` timed; returns the median host
/// ns of one batch divided by `per_batch`.
double timed_median(int batches, double per_batch, const std::function<void()>& batch) {
  batch();
  std::vector<double> ns;
  for (int i = 0; i < batches; ++i) {
    const std::int64_t t0 = host_now_ns();
    batch();
    ns.push_back(static_cast<double>(host_now_ns() - t0) / per_batch);
  }
  return median(ns);
}

// ------------------------------------------------------------------- sim --

double probe_event_ns() {
  constexpr int kEvents = 50'000;
  return timed_median(7, kEvents, [] {
    sim::Simulator sim;
    std::uint64_t fired = 0;
    for (int i = 0; i < kEvents; ++i) {
      sim.schedule_after(Duration{(i * 7919) % 100'000}, [&fired] { ++fired; });
    }
    sim.run();
    g_sink = g_sink + fired;
  });
}

double probe_cancel_ns() {
  constexpr int kEvents = 50'000;
  std::vector<double> ns;
  for (int round = 0; round < 8; ++round) {  // round 0 warms up
    sim::Simulator sim;
    std::vector<sim::EventId> ids;
    ids.reserve(kEvents);
    for (int i = 0; i < kEvents; ++i) {
      ids.push_back(sim.schedule_after(Duration{(i * 7919) % 100'000}, [] {}));
    }
    const std::int64_t t0 = host_now_ns();
    std::uint64_t cancelled = 0;
    for (const sim::EventId id : ids) cancelled += sim.cancel(id) ? 1 : 0;
    const std::int64_t t1 = host_now_ns();
    sim.run();
    g_sink = g_sink + cancelled;
    if (round > 0) ns.push_back(static_cast<double>(t1 - t0) / kEvents);
  }
  return median(ns);
}

// ------------------------------------------------------- scion / crypto --

/// A MAC-sealed transit packet on a one-segment path of `hops` hop fields,
/// cursor on the middle AS, 1200-byte payload.
struct ForwardFixture {
  static constexpr std::uint32_t kTs = 1'000'000;
  scion::ForwardingKey key = scion::ForwardingKey(16, 0x42);
  scion::IsdAsn local;
  scion::HopField middle;
  Bytes wire;

  explicit ForwardFixture(std::size_t hops) {
    scion::ScionHeader header;
    scion::DataplaneSegment seg;
    seg.origin_ts = kTs;
    for (std::size_t i = 0; i < hops; ++i) {
      scion::HopField hf;
      hf.isd_as = scion::IsdAsn{1, static_cast<scion::Asn>(0x100 + i)};
      hf.in_if = i == 0 ? scion::kNoIface : static_cast<scion::IfaceId>(i);
      hf.out_if = i + 1 == hops ? scion::kNoIface : static_cast<scion::IfaceId>(i + 1);
      hf.expiry_s = 24 * 3600;
      scion::seal_hop_field(hf, kTs, key);
      seg.hops.push_back(hf);
    }
    header.src = scion::ScionAddr{seg.hops.front().isd_as, net::IpAddr{1}};
    header.dst = scion::ScionAddr{seg.hops.back().isd_as, net::IpAddr{2}};
    middle = seg.hops[hops / 2];
    local = middle.isd_as;
    header.path.segments.push_back(std::move(seg));
    header.cur_seg = 0;
    header.cur_hop = static_cast<std::uint8_t>(hops / 2);
    wire = scion::serialize_scion_packet(header, Bytes(1200, 0x11));
  }
};

double probe_forward_ns(std::size_t hops) {
  constexpr int kForwards = 100'000;
  ForwardFixture fx(std::max<std::size_t>(hops, 2));
  const crypto::HmacKey mac_key(fx.key);
  const scion::BorderRouterConfig config;
  net::PacketView packet{Bytes(fx.wire)};
  (void)packet.mutable_span();  // unique storage: the cursor patch is in place
  const auto cur_hop = static_cast<std::uint8_t>(std::max<std::size_t>(hops, 2) / 2);
  return timed_median(7, kForwards, [&] {
    std::uint64_t ok = 0;
    for (int i = 0; i < kForwards; ++i) {
      const scion::HopDecision d = scion::decide_hop(packet.span(), fx.local, mac_key, config);
      ok += static_cast<std::uint64_t>(d.action);
      scion::patch_cursor(packet, 0, cur_hop);
    }
    g_sink = g_sink + ok;
  });
}

double probe_hop_mac_ns() {
  constexpr int kMacs = 100'000;
  ForwardFixture fx(4);
  const crypto::HmacKey mac_key(fx.key);
  return timed_median(7, kMacs, [&] {
    std::uint64_t ok = 0;
    for (int i = 0; i < kMacs; ++i) {
      ok += scion::verify_hop_field(fx.middle, ForwardFixture::kTs, mac_key) ? 1 : 0;
    }
    g_sink = g_sink + ok;
  });
}

double probe_sha256_block_ns() {
  const Bytes data(64 * 1024, 0xab);
  constexpr int kRounds = 16;
  return timed_median(7, kRounds * (data.size() / 64.0), [&] {
    for (int i = 0; i < kRounds; ++i) {
      crypto::Sha256 h;
      h.update(data);
      g_sink = g_sink + h.finalize()[0];
    }
  });
}

double probe_lamport_verify_us() {
  Rng rng(1);
  const crypto::KeyPair kp = crypto::generate_keypair(rng);
  const crypto::Signature sig = crypto::sign(kp.private_key, "beacon entry");
  constexpr int kVerifies = 50;
  return timed_median(7, kVerifies * 1e3, [&] {
    for (int i = 0; i < kVerifies; ++i) {
      g_sink = g_sink + (crypto::verify(kp.public_key, "beacon entry", sig) ? 1 : 0);
    }
  });
}

// ------------------------------------------------------------- transport --

/// Two established Connections joined by a 50 µs in-memory conduit on a
/// private Simulator. The server answers each stream's request (at its FIN)
/// with a body of the current response size and a FIN.
class LoopbackPair {
 public:
  explicit LoopbackPair(std::size_t response_bytes) {
    set_response_bytes(response_bytes);
    const auto conduit = [this](std::unique_ptr<transport::Connection>* peer) {
      transport::Conduit c;
      c.send = [this, peer](net::PacketView packet) {
        sim_.schedule_after(microseconds(50),
                            [peer, packet] { (*peer)->on_datagram(packet.span()); });
      };
      return c;
    };
    transport::TransportConfig config;
    client_ = std::make_unique<transport::Connection>(
        sim_, conduit(&server_), transport::Connection::Role::kClient, 1, config);
    server_ = std::make_unique<transport::Connection>(
        sim_, conduit(&client_), transport::Connection::Role::kServer, 1, config);
    server_->set_on_stream([this](transport::Stream& stream) {
      stream.set_on_data([this, &stream](std::span<const std::uint8_t>, bool fin) {
        if (!fin) return;
        stream.write(response_);
        stream.finish();
      });
    });
    client_->start();
    sim_.run_until_condition(
        [this] { return client_->state() == transport::Connection::State::kEstablished; },
        sim_.now() + seconds(5));
  }
  LoopbackPair(const LoopbackPair&) = delete;
  LoopbackPair& operator=(const LoopbackPair&) = delete;

  void set_response_bytes(std::size_t bytes) { response_.assign(bytes, 0x5a); }

  /// One request/response stream; returns the response bytes received.
  std::uint64_t exchange() {
    transport::Stream& stream = client_->open_stream();
    received_ = 0;
    done_ = false;
    stream.set_on_data([this](std::span<const std::uint8_t> data, bool fin) {
      received_ += data.size();
      done_ = done_ || fin;
    });
    static const Bytes kRequest(120, 0x47);
    stream.write(kRequest);
    stream.finish();
    sim_.run_until_condition([this] { return done_; }, sim_.now() + seconds(30));
    return received_;
  }

 private:
  sim::Simulator sim_;
  Bytes response_;
  std::uint64_t received_ = 0;  // of the current exchange
  bool done_ = false;
  std::unique_ptr<transport::Connection> client_;
  std::unique_ptr<transport::Connection> server_;
};

constexpr int kAgedStreams = 10'000;

/// Median host µs of the first stream on fresh (established) connections.
double probe_stream_us_fresh(std::size_t body_bytes) {
  std::vector<double> us;
  for (int i = 0; i < 41; ++i) {  // sample 0 warms up
    LoopbackPair pair(body_bytes);
    const std::int64_t t0 = host_now_ns();
    g_sink = g_sink + pair.exchange();
    if (i > 0) us.push_back(static_cast<double>(host_now_ns() - t0) / 1e3);
  }
  return median(us);
}

/// Median host µs of one stream on a connection that already carried
/// kAgedStreams streams. The aging streams carry small bodies (a stream's
/// count, not its size, is what stays behind on the connection).
double probe_stream_us_aged(std::size_t body_bytes) {
  LoopbackPair pair(200);
  for (int i = 0; i < kAgedStreams; ++i) g_sink = g_sink + pair.exchange();
  pair.set_response_bytes(body_bytes);
  g_sink = g_sink + pair.exchange();  // warm-up at the measured size
  std::vector<double> us;
  for (int i = 0; i < 41; ++i) {
    const std::int64_t t0 = host_now_ns();
    g_sink = g_sink + pair.exchange();
    us.push_back(static_cast<double>(host_now_ns() - t0) / 1e3);
  }
  return median(us);
}

double probe_bulk_ns_per_kb() {
  constexpr std::size_t kBytes = 1 << 20;
  std::vector<double> ns;
  for (int i = 0; i < 6; ++i) {  // sample 0 warms up
    LoopbackPair pair(kBytes);
    const std::int64_t t0 = host_now_ns();
    g_sink = g_sink + pair.exchange();
    if (i > 0) ns.push_back(static_cast<double>(host_now_ns() - t0) / (kBytes / 1024.0));
  }
  return median(ns);
}

// ------------------------------------------------------ http / ppl / obs --

double probe_parse_ns(std::size_t body_bytes) {
  http::HttpResponse response = http::make_response(200, Bytes(body_bytes, 0x61),
                                                    "application/octet-stream");
  const Bytes wire = response.serialize();
  constexpr std::size_t kChunk = 1200;  // one transport payload at a time
  const int responses = static_cast<int>(std::max<std::size_t>(1, (4u << 20) / wire.size()));
  return timed_median(7, responses, [&] {
    http::HttpParser parser(http::ParserMode::kResponse);
    std::uint64_t bytes = 0;
    parser.on_response = [&bytes](http::HttpResponse r) { bytes += r.body.size(); };
    for (int i = 0; i < responses; ++i) {
      for (std::size_t off = 0; off < wire.size(); off += kChunk) {
        parser.feed(std::span<const std::uint8_t>(wire).subspan(
            off, std::min(kChunk, wire.size() - off)));
      }
    }
    g_sink = g_sink + bytes;
  });
}

double probe_ppl_apply_ns(std::size_t candidates) {
  Rng rng(7);
  const auto paths = browser::sample_candidate_paths(rng, std::max<std::size_t>(candidates, 1));
  const auto policy = ppl::parse_policy(
      "policy { acl { deny 3-*; allow *; } require mtu >= 1280; order latency asc; }");
  if (!policy.ok()) return 0;
  constexpr int kApplies = 20'000;
  return timed_median(7, kApplies, [&] {
    std::uint64_t kept = 0;
    for (int i = 0; i < kApplies; ++i) kept += policy.value().apply(paths).size();
    g_sink = g_sink + kept;
  });
}

double probe_counter_lookup_ns(const std::vector<std::string>& names) {
  obs::MetricsRegistry registry;
  std::vector<std::string> lookups = names;
  if (lookups.empty()) lookups = {"proxy.requests", "proxy.over_scion", "pool.scion.hits"};
  for (const std::string& name : lookups) (void)registry.counter(name);
  constexpr int kLookups = 200'000;
  return timed_median(7, kLookups, [&] {
    for (int i = 0; i < kLookups; ++i) {
      registry.counter(lookups[static_cast<std::size_t>(i) % lookups.size()]).inc();
    }
  });
}

}  // namespace

void run_probes(const ProbeShape& shape, const std::vector<std::string>& counter_names,
                MetricMap& out) {
  out["sim.probe.event_ns"] = {probe_event_ns(), "ns"};
  out["sim.probe.cancel_ns"] = {probe_cancel_ns(), "ns"};
  out["scion.probe.forward_ns"] = {probe_forward_ns(shape.path_hops), "ns"};
  out["crypto.probe.hop_mac_ns"] = {probe_hop_mac_ns(), "ns"};
  out["crypto.probe.sha256_block_ns"] = {probe_sha256_block_ns(), "ns"};
  out["crypto.probe.lamport_verify_us"] = {probe_lamport_verify_us(), "us"};
  out["transport.probe.stream_us_fresh"] = {probe_stream_us_fresh(shape.body_bytes), "us"};
  out["transport.probe.stream_us_aged"] = {probe_stream_us_aged(shape.body_bytes), "us"};
  out["transport.probe.bulk_ns_per_kb"] = {probe_bulk_ns_per_kb(), "ns"};
  out["http.probe.parse_ns"] = {probe_parse_ns(shape.body_bytes), "ns"};
  out["ppl.probe.apply_ns"] = {probe_ppl_apply_ns(shape.candidate_paths), "ns"};
  out["obs.probe.counter_lookup_ns"] = {probe_counter_lookup_ns(counter_names), "ns"};
}

}  // namespace perfbench
