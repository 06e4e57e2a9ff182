// Tests for the SCION substrate: control plane (PKI, beaconing, segments,
// path combination) and data plane (headers, hop-field MACs, border-router
// forwarding, host sockets).
#include <gtest/gtest.h>

#include <unordered_set>

#include "scion/topology.hpp"

namespace pan::scion {
namespace {

/// Two-ISD topology used across the suite:
///
///   ISD 1: core c1 --- leaf a, leaf b (children of c1)
///   ISD 2: core c2a, c2b; leaf d (child of both cores)
///   core links: c1--c2a (80ms), c1--c2b (25ms), c2a--c2b (5ms)
struct Fixture {
  sim::Simulator sim;
  TopologyConfig config;
  std::unique_ptr<Topology> topo;
  HostId host_a;
  HostId host_a2;
  HostId host_d;

  explicit Fixture(bool sign = true) {
    config.seed = 7;
    config.sign_beacons = sign;
    config.verify_beacons = sign;
    topo = std::make_unique<Topology>(sim, config);

    const auto add = [&](const char* name, Isd isd, Asn asn, bool core) {
      AsSpec spec;
      spec.name = name;
      spec.ia = IsdAsn{isd, asn};
      spec.core = core;
      spec.meta.country = isd == 1 ? "CH" : "US";
      spec.meta.ethics_rating = 80;
      topo->add_as(spec);
    };
    add("c1", 1, 0x110, true);
    add("a", 1, 0x111, false);
    add("b", 1, 0x112, false);
    add("c2a", 2, 0x210, true);
    add("c2b", 2, 0x220, true);
    add("d", 2, 0x211, false);

    const auto link = [&](const char* x, const char* y, LinkType type, std::int64_t ms,
                          double co2) {
      AsLinkSpec spec;
      spec.a = x;
      spec.b = y;
      spec.type = type;
      spec.params.latency = milliseconds(ms);
      spec.params.bandwidth_bps = 1e9;
      spec.params.mtu = 1500;
      spec.co2_g_per_gb = co2;
      spec.cost_per_gb = 10;
      topo->add_link(spec);
    };
    link("c1", "c2a", LinkType::kCore, 80, 30);
    link("c1", "c2b", LinkType::kCore, 25, 10);
    link("c2a", "c2b", LinkType::kCore, 5, 5);
    link("c1", "a", LinkType::kParentChild, 2, 4);
    link("c1", "b", LinkType::kParentChild, 3, 4);
    link("c2a", "d", LinkType::kParentChild, 2, 4);
    link("c2b", "d", LinkType::kParentChild, 3, 4);

    host_a = topo->add_host("a", "host-a");
    host_a2 = topo->add_host("a", "host-a2");
    host_d = topo->add_host("d", "host-d");
    topo->finalize();
  }

  [[nodiscard]] IsdAsn ia(const char* name) const { return topo->as_by_name(name); }
};

// ------------------------------------------------------------ hopfield --

TEST(HopFieldTest, MacVerifies) {
  ForwardingKey key(16, 0x11);
  HopField hf;
  hf.isd_as = IsdAsn{1, 0x110};
  hf.in_if = 3;
  hf.out_if = 7;
  hf.expiry_s = 3600;
  seal_hop_field(hf, 1000, key);
  EXPECT_TRUE(verify_hop_field(hf, 1000, key));
}

TEST(HopFieldTest, MacIsDirectionNormalized) {
  // Reversing a segment swaps in/out; the MAC must stay valid.
  ForwardingKey key(16, 0x11);
  HopField hf;
  hf.isd_as = IsdAsn{1, 0x110};
  hf.in_if = 3;
  hf.out_if = 7;
  seal_hop_field(hf, 1000, key);
  HopField swapped = hf;
  std::swap(swapped.in_if, swapped.out_if);
  EXPECT_TRUE(verify_hop_field(swapped, 1000, key));
}

TEST(HopFieldTest, TamperingBreaksMac) {
  ForwardingKey key(16, 0x11);
  HopField hf;
  hf.isd_as = IsdAsn{1, 0x110};
  hf.in_if = 3;
  hf.out_if = 7;
  hf.expiry_s = 3600;
  seal_hop_field(hf, 1000, key);

  HopField wrong_as = hf;
  wrong_as.isd_as = IsdAsn{1, 0x999};
  EXPECT_FALSE(verify_hop_field(wrong_as, 1000, key));

  HopField wrong_if = hf;
  wrong_if.out_if = 9;
  EXPECT_FALSE(verify_hop_field(wrong_if, 1000, key));

  HopField wrong_expiry = hf;
  wrong_expiry.expiry_s = 7200;
  EXPECT_FALSE(verify_hop_field(wrong_expiry, 1000, key));

  EXPECT_FALSE(verify_hop_field(hf, 1001, key));  // wrong timestamp

  ForwardingKey other_key(16, 0x22);
  EXPECT_FALSE(verify_hop_field(hf, 1000, other_key));
}

TEST(HopFieldTest, SerializeRoundTrip) {
  ForwardingKey key(16, 0x33);
  HopField hf;
  hf.isd_as = IsdAsn{3, 0xff00'0000'0333ULL};
  hf.in_if = 12;
  hf.out_if = 0;
  hf.expiry_s = 999;
  seal_hop_field(hf, 5, key);
  ByteWriter w;
  serialize_hop_field(w, hf);
  ByteReader r(w.bytes());
  const HopField parsed = parse_hop_field(r);
  EXPECT_TRUE(r.complete());
  EXPECT_EQ(parsed, hf);
}

// ------------------------------------------------------------------ pki --

TEST(PkiTest, CertificateChainValidates) {
  Fixture fx;
  const TrustStore& trust = fx.topo->trust_store();
  for (const IsdAsn ia : fx.topo->all_ases()) {
    EXPECT_NE(trust.verified_key(ia), nullptr) << ia.to_string();
  }
}

TEST(PkiTest, ForeignIssuerRejected) {
  Rng rng(1);
  const auto subject_kp = crypto::generate_keypair(rng);
  const auto rogue_kp = crypto::generate_keypair(rng);
  TrustStore trust;
  Trc trc;
  trc.isd = 1;
  Rng rng2(2);
  const auto core_kp = crypto::generate_keypair(rng2);
  trc.core_keys[IsdAsn{1, 0x110}] = core_kp.public_key;
  trust.add_trc(trc);
  // Issued by a key that is not in the TRC.
  const AsCertificate bad = issue_certificate(IsdAsn{1, 0x111}, subject_kp.public_key,
                                              IsdAsn{1, 0x110}, rogue_kp.private_key);
  trust.add_certificate(bad);
  EXPECT_FALSE(trust.validate_certificate(bad));
  EXPECT_EQ(trust.verified_key(IsdAsn{1, 0x111}), nullptr);
}

TEST(PkiTest, MissingTrcRejected) {
  Rng rng(1);
  const auto kp = crypto::generate_keypair(rng);
  TrustStore trust;
  const AsCertificate cert =
      issue_certificate(IsdAsn{9, 1}, kp.public_key, IsdAsn{9, 1}, kp.private_key);
  EXPECT_FALSE(trust.validate_certificate(cert));
}

// ------------------------------------------------------------- beacons --

TEST(BeaconingTest, SegmentsRegistered) {
  Fixture fx;
  const PathServerInfra& infra = fx.topo->path_infra();
  EXPECT_GT(infra.core_segment_count(), 0u);
  EXPECT_GT(infra.down_segment_count(), 0u);
  // Leaf ASes have down segments from their cores.
  EXPECT_FALSE(infra.down_segments(fx.ia("a")).empty());
  EXPECT_FALSE(infra.down_segments(fx.ia("d")).empty());
  // d is dual-homed: segments from both ISD-2 cores.
  std::unordered_set<std::uint64_t> origins;
  for (const PathSegment& seg : infra.down_segments(fx.ia("d"))) {
    origins.insert(seg.origin.packed());
  }
  EXPECT_EQ(origins.size(), 2u);
}

TEST(BeaconingTest, SegmentsVerifyAgainstTrustStore) {
  Fixture fx;
  for (const PathSegment& seg : fx.topo->path_infra().down_segments(fx.ia("d"))) {
    EXPECT_TRUE(verify_segment(seg, fx.topo->trust_store()));
  }
}

TEST(BeaconingTest, TamperedSegmentFailsVerification) {
  Fixture fx;
  PathSegment seg = fx.topo->path_infra().down_segments(fx.ia("d")).front();
  seg.entries.back().ingress_link.co2_g_per_gb += 1;  // greenwashing attempt
  EXPECT_FALSE(verify_segment(seg, fx.topo->trust_store()));
}

TEST(BeaconingTest, ReorderedSegmentFailsVerification) {
  Fixture fx;
  PathSegment seg = fx.topo->path_infra().down_segments(fx.ia("d")).front();
  ASSERT_GE(seg.entries.size(), 2u);
  // An attacker reorders the AS entries: the chained signatures (and the
  // origin check) must catch it.
  std::reverse(seg.entries.begin(), seg.entries.end());
  EXPECT_FALSE(verify_segment(seg, fx.topo->trust_store()));
}

TEST(BeaconingTest, PrefixOfSegmentStillVerifiesButEndsElsewhere) {
  // Dropping the last entry leaves a validly signed (shorter) chain — the
  // chain itself cannot prevent truncation; consumers must check that the
  // segment ends where they need it to (the daemon's combiner does).
  Fixture fx;
  PathSegment seg = fx.topo->path_infra().down_segments(fx.ia("d")).front();
  ASSERT_GE(seg.entries.size(), 2u);
  const IsdAsn original_last = seg.last_as();
  seg.entries.pop_back();
  EXPECT_TRUE(verify_segment(seg, fx.topo->trust_store()));
  EXPECT_NE(seg.last_as(), original_last);
}

TEST(BeaconingTest, CoreSegmentsConnectCores) {
  Fixture fx;
  const auto segs = fx.topo->path_infra().core_segments(fx.ia("c2b"), fx.ia("c1"));
  EXPECT_FALSE(segs.empty());
  for (const PathSegment* seg : segs) {
    EXPECT_EQ(seg->origin, fx.ia("c2b"));
    EXPECT_EQ(seg->last_as(), fx.ia("c1"));
  }
}

// ---------------------------------------------------------------- paths --

TEST(DaemonTest, FindsInterIsdPaths) {
  Fixture fx;
  Daemon& daemon = fx.topo->daemon(fx.ia("a"));
  const std::vector<Path> paths = daemon.query_now(fx.ia("d"));
  ASSERT_FALSE(paths.empty());
  for (const Path& p : paths) {
    EXPECT_EQ(p.src(), fx.ia("a"));
    EXPECT_EQ(p.dst(), fx.ia("d"));
    EXPECT_EQ(p.hops().front().isd_as, fx.ia("a"));
    EXPECT_EQ(p.hops().back().isd_as, fx.ia("d"));
    // Loop-free.
    std::unordered_set<std::uint64_t> seen;
    for (const PathHop& hop : p.hops()) {
      EXPECT_TRUE(seen.insert(hop.isd_as.packed()).second);
    }
  }
}

TEST(DaemonTest, PathsSortedByLatency) {
  Fixture fx;
  const auto paths = fx.topo->daemon(fx.ia("a")).query_now(fx.ia("d"));
  ASSERT_GE(paths.size(), 2u);
  for (std::size_t i = 1; i < paths.size(); ++i) {
    EXPECT_LE(paths[i - 1].meta().latency, paths[i].meta().latency);
  }
  // Best path takes the 25ms detour core link: a->c1->c2b->d = 2+25+3.
  EXPECT_EQ(paths.front().meta().latency.nanos(), milliseconds(30).nanos());
}

TEST(DaemonTest, MetadataAggregation) {
  Fixture fx;
  const auto paths = fx.topo->daemon(fx.ia("a")).query_now(fx.ia("d"));
  const Path& best = paths.front();
  EXPECT_EQ(best.link_count(), 3u);
  EXPECT_DOUBLE_EQ(best.meta().co2_g_per_gb, 4 + 10 + 4);  // a-c1 + c1-c2b + c2b-d
  EXPECT_DOUBLE_EQ(best.meta().cost_per_gb, 30);
  EXPECT_EQ(best.meta().mtu, 1500u);
  EXPECT_DOUBLE_EQ(best.meta().bandwidth_bps, 1e9);
  const auto countries = best.countries();
  ASSERT_EQ(countries.size(), 2u);
  EXPECT_EQ(countries[0], "CH");
  EXPECT_EQ(countries[1], "US");
}

TEST(DaemonTest, IntraIsdPath) {
  Fixture fx;
  const auto paths = fx.topo->daemon(fx.ia("a")).query_now(fx.ia("b"));
  ASSERT_FALSE(paths.empty());
  // a -> c1 -> b: 2 links, same ISD, no core segment needed.
  EXPECT_EQ(paths.front().link_count(), 2u);
  EXPECT_EQ(paths.front().meta().latency.nanos(), milliseconds(5).nanos());
}

TEST(DaemonTest, LocalPathForOwnAs) {
  Fixture fx;
  const auto paths = fx.topo->daemon(fx.ia("a")).query_now(fx.ia("a"));
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_TRUE(paths.front().is_local());
}

TEST(DaemonTest, AsyncQueryCachesAndCostsLatency) {
  Fixture fx;
  Daemon& daemon = fx.topo->daemon(fx.ia("a"));
  sim::Scope scope(fx.sim);
  bool first_done = false;
  const TimePoint t0 = fx.sim.now();
  daemon.query(fx.ia("d"), scope, [&](std::vector<Path> paths) {
    EXPECT_FALSE(paths.empty());
    first_done = true;
    EXPECT_EQ((fx.sim.now() - t0).nanos(), Daemon::kLookupLatency.nanos());
  });
  fx.sim.run();
  EXPECT_TRUE(first_done);
  EXPECT_EQ(daemon.cache_misses(), 1u);

  bool second_done = false;
  const TimePoint t1 = fx.sim.now();
  daemon.query(fx.ia("d"), scope, [&](std::vector<Path>) {
    second_done = true;
    EXPECT_EQ(fx.sim.now(), t1);  // cache hit: same event
  });
  EXPECT_TRUE(second_done);
  EXPECT_EQ(daemon.cache_hits(), 1u);
}

TEST(PathTest, ReversalFlipsSegmentsAndDirections) {
  Fixture fx;
  const auto paths = fx.topo->daemon(fx.ia("a")).query_now(fx.ia("d"));
  const DataplanePath& forward = paths.front().dataplane();
  const DataplanePath reversed = forward.reversed();
  ASSERT_EQ(reversed.segments.size(), forward.segments.size());
  EXPECT_EQ(reversed.total_hops(), forward.total_hops());
  for (std::size_t i = 0; i < forward.segments.size(); ++i) {
    const auto& f = forward.segments[i];
    const auto& r = reversed.segments[reversed.segments.size() - 1 - i];
    EXPECT_NE(f.reversed, r.reversed);
    EXPECT_EQ(f.hops.size(), r.hops.size());
  }
  // Double reversal is the identity on traversal semantics.
  const DataplanePath twice = reversed.reversed();
  for (std::size_t i = 0; i < forward.segments.size(); ++i) {
    EXPECT_EQ(twice.segments[i].reversed, forward.segments[i].reversed);
  }
}

TEST(PathTest, FingerprintDistinguishesPaths) {
  Fixture fx;
  const auto paths = fx.topo->daemon(fx.ia("a")).query_now(fx.ia("d"));
  std::unordered_set<std::string> fingerprints;
  for (const Path& p : paths) {
    EXPECT_TRUE(fingerprints.insert(p.fingerprint()).second) << p.to_string();
  }
}

TEST(PathTest, ContainsQueries) {
  Fixture fx;
  const auto paths = fx.topo->daemon(fx.ia("a")).query_now(fx.ia("d"));
  const Path& best = paths.front();
  EXPECT_TRUE(best.contains_as(fx.ia("c1")));
  EXPECT_TRUE(best.contains_isd(2));
  EXPECT_FALSE(best.contains_as(fx.ia("b")));
}

// --------------------------------------------------------------- header --

TEST(HeaderTest, SerializeParseRoundTrip) {
  Fixture fx;
  const auto paths = fx.topo->daemon(fx.ia("a")).query_now(fx.ia("d"));
  ScionHeader header;
  header.src = ScionAddr{fx.ia("a"), net::IpAddr{0x01020304}};
  header.dst = ScionAddr{fx.ia("d"), net::IpAddr{0x05060708}};
  header.src_port = 1234;
  header.dst_port = 80;
  header.path = paths.front().dataplane();
  header.cur_seg = 0;
  header.cur_hop = 0;
  const Bytes payload = from_string("hello scion");
  const Bytes wire = serialize_scion_packet(header, payload);
  EXPECT_EQ(wire.size(), scion_header_size(header.path) + payload.size());

  const auto parsed = parse_scion_packet(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().header.src.ia, header.src.ia);
  EXPECT_EQ(parsed.value().header.dst.host, header.dst.host);
  EXPECT_EQ(parsed.value().header.src_port, 1234);
  EXPECT_EQ(parsed.value().header.dst_port, 80);
  EXPECT_EQ(parsed.value().header.path.segments.size(), header.path.segments.size());
  EXPECT_EQ(parsed.value().payload_bytes(), payload);
}

TEST(HeaderTest, CursorPatch) {
  ScionHeader header;
  header.path.segments.push_back(DataplaneSegment{false, 1, {HopField{}}});
  Bytes wire = serialize_scion_packet(header, {});
  patch_cursor(wire, 1, 2);
  const auto parsed = parse_scion_packet(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().header.cur_seg, 1);
  EXPECT_EQ(parsed.value().header.cur_hop, 2);
}

TEST(HeaderTest, RejectsBadMagicAndTruncation) {
  EXPECT_FALSE(parse_scion_packet(Bytes{0x00, 0x01}).ok());
  ScionHeader header;
  const Bytes wire = serialize_scion_packet(header, {});
  Bytes truncated(wire.begin(), wire.begin() + 10);
  EXPECT_FALSE(parse_scion_packet(truncated).ok());
}

// ------------------------------------------------------------ dataplane --

struct PingPong {
  Fixture fx;
  std::unique_ptr<ScionSocket> server;
  std::unique_ptr<ScionSocket> client;
  std::string server_got;
  std::string client_got;

  PingPong() {
    ScionStack& server_stack = fx.topo->scion_stack(fx.host_d);
    server = server_stack.bind(
        9000, [this](const ScionEndpoint& from, const DataplanePath& reply, net::PacketView payload) {
          server_got = to_string_view_copy(payload.span());
          server->send_to(from, reply, from_string("pong"));
        });
    ScionStack& client_stack = fx.topo->scion_stack(fx.host_a);
    client = client_stack.bind(
        0, [this](const ScionEndpoint&, const DataplanePath&, net::PacketView payload) {
          client_got = to_string_view_copy(payload.span());
        });
  }
};

TEST(DataplaneTest, EndToEndPingPong) {
  PingPong world;
  const auto paths = world.fx.topo->daemon(world.fx.ia("a")).query_now(world.fx.ia("d"));
  world.client->send_to(ScionEndpoint{world.fx.topo->scion_addr(world.fx.host_d), 9000},
                        paths.front().dataplane(), from_string("ping"));
  world.fx.sim.run();
  EXPECT_EQ(world.server_got, "ping");
  EXPECT_EQ(world.client_got, "pong");
  // Round trip over the 30ms path plus processing: ~60ms.
  EXPECT_GT(world.fx.sim.now().nanos(), milliseconds(59).nanos());
  EXPECT_LT(world.fx.sim.now().nanos(), milliseconds(70).nanos());
}

TEST(DataplaneTest, EveryCandidatePathWorks) {
  Fixture fx;
  const auto paths = fx.topo->daemon(fx.ia("a")).query_now(fx.ia("d"));
  for (const Path& path : paths) {
    PingPong world;  // fresh world per path to keep counters clean
    const auto fresh =
        world.fx.topo->daemon(world.fx.ia("a")).query_now(world.fx.ia("d"));
    // Match by fingerprint in the fresh world.
    const Path* chosen = nullptr;
    for (const Path& candidate : fresh) {
      if (candidate.fingerprint() == path.fingerprint()) chosen = &candidate;
    }
    ASSERT_NE(chosen, nullptr);
    world.client->send_to(ScionEndpoint{world.fx.topo->scion_addr(world.fx.host_d), 9000},
                          chosen->dataplane(), from_string("ping"));
    world.fx.sim.run();
    EXPECT_EQ(world.client_got, "pong") << chosen->to_string();
  }
}

TEST(DataplaneTest, IntraAsDelivery) {
  Fixture fx;
  ScionStack& stack_a = fx.topo->scion_stack(fx.host_a);
  ScionStack& stack_a2 = fx.topo->scion_stack(fx.host_a2);
  std::string got;
  auto server = stack_a2.bind(9001, [&](const ScionEndpoint&, const DataplanePath& reply,
                                        net::PacketView payload) {
    got = to_string_view_copy(payload.span());
    EXPECT_TRUE(reply.empty());
  });
  auto client = stack_a.bind(0, nullptr);
  client->send_to(ScionEndpoint{fx.topo->scion_addr(fx.host_a2), 9001}, DataplanePath{},
                  from_string("local"));
  fx.sim.run();
  EXPECT_EQ(got, "local");
}

TEST(DataplaneTest, ForgedHopFieldDropped) {
  PingPong world;
  auto paths = world.fx.topo->daemon(world.fx.ia("a")).query_now(world.fx.ia("d"));
  DataplanePath forged = paths.front().dataplane();
  // A host tries to reroute by rewriting an interface without the AS key.
  forged.segments.back().hops.back().in_if ^= 0x3;
  world.client->send_to(ScionEndpoint{world.fx.topo->scion_addr(world.fx.host_d), 9000},
                        forged, from_string("evil"));
  world.fx.sim.run();
  EXPECT_EQ(world.server_got, "");
  std::uint64_t mac_drops = 0;
  for (const IsdAsn ia : world.fx.topo->all_ases()) {
    mac_drops += world.fx.topo->border_router_stats(ia).drop_mac;
  }
  EXPECT_GE(mac_drops, 1u);
}

TEST(DataplaneTest, SpoofedPathWithoutKeysDropped) {
  PingPong world;
  // Craft a plausible-looking one-segment path with zero MACs.
  DataplaneSegment seg;
  seg.origin_ts = 1'000'000;
  for (const char* name : {"a", "c1", "c2b", "d"}) {
    HopField hf;
    hf.isd_as = world.fx.ia(name);
    hf.in_if = 1;
    hf.out_if = 2;
    hf.expiry_s = 24 * 3600;
    seg.hops.push_back(hf);
  }
  seg.hops.front().in_if = 0;
  seg.hops.back().out_if = 0;
  DataplanePath forged;
  forged.segments.push_back(seg);
  world.client->send_to(ScionEndpoint{world.fx.topo->scion_addr(world.fx.host_d), 9000},
                        forged, from_string("evil"));
  world.fx.sim.run();
  EXPECT_EQ(world.server_got, "");
}

TEST(DataplaneTest, UnsignedTopologyStillForwards) {
  // sign_beacons=false: control plane skips signatures (fast setup mode);
  // the data plane MACs still work.
  Fixture fx(/*sign=*/false);
  ScionStack& stack_a = fx.topo->scion_stack(fx.host_a);
  ScionStack& stack_d = fx.topo->scion_stack(fx.host_d);
  std::string got;
  auto server = stack_d.bind(9000, [&](const ScionEndpoint&, const DataplanePath&,
                                       net::PacketView payload) { got = to_string_view_copy(payload.span()); });
  auto client = stack_a.bind(0, nullptr);
  const auto paths = fx.topo->daemon(fx.ia("a")).query_now(fx.ia("d"));
  ASSERT_FALSE(paths.empty());
  client->send_to(ScionEndpoint{fx.topo->scion_addr(fx.host_d), 9000},
                  paths.front().dataplane(), from_string("x"));
  fx.sim.run();
  EXPECT_EQ(got, "x");
}

TEST(TopologyTest, ValidationErrors) {
  sim::Simulator sim;
  Topology topo(sim);
  AsSpec spec;
  spec.name = "x";
  spec.ia = IsdAsn{1, 1};
  spec.core = true;
  topo.add_as(spec);
  EXPECT_THROW(topo.add_as(spec), std::invalid_argument);  // duplicate
  AsLinkSpec link;
  link.a = "x";
  link.b = "nope";
  EXPECT_THROW(topo.add_link(link), std::invalid_argument);
  link.b = "x";
  EXPECT_THROW(topo.add_link(link), std::invalid_argument);  // self link

  AsSpec leaf;
  leaf.name = "leaf";
  leaf.ia = IsdAsn{2, 2};
  leaf.core = false;
  topo.add_as(leaf);
  AsLinkSpec cross;
  cross.a = "x";
  cross.b = "leaf";
  cross.type = LinkType::kParentChild;
  EXPECT_THROW(topo.add_link(cross), std::invalid_argument);  // cross-ISD parent-child
  AsLinkSpec core_to_leaf;
  core_to_leaf.a = "x";
  core_to_leaf.b = "leaf";
  core_to_leaf.type = LinkType::kCore;
  EXPECT_THROW(topo.add_link(core_to_leaf), std::invalid_argument);  // leaf on core link
}

TEST(TopologyTest, LegacyRoutingFollowsFewestAsHops) {
  Fixture fx;
  // Legacy ping from a-host to d-host: BGP-like route goes via c2a (3 AS
  // hops, 84ms one-way) even though the SCION detour is faster.
  net::Host& src = fx.topo->host(fx.host_a);
  net::Host& dst = fx.topo->host(fx.host_d);
  TimePoint received_at;
  auto server = dst.udp_bind(7000, [&](const net::Endpoint&, net::PacketView) {
    received_at = fx.sim.now();
  });
  auto client = src.udp_bind(0, nullptr);
  client->send_to(net::Endpoint{dst.address(), 7000}, from_string("x"));
  fx.sim.run();
  // 2 + 80 + 2 ms inter-AS plus access links.
  EXPECT_GT(received_at.nanos(), milliseconds(84).nanos());
  EXPECT_LT(received_at.nanos(), milliseconds(86).nanos());
}

}  // namespace
}  // namespace pan::scion
