// Tests for the unified http::OriginPool: connection reuse, capacity +
// FIFO queueing, idle eviction, queue-wait timeouts, failure backoff, SCION
// path migration, and the pool's integration points (reverse-proxy
// least-outstanding pipelining, the /skip/pool endpoint, and the browser's
// LRU-bounded cache that rides in the same subsystem PR).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/scenarios.hpp"

namespace pan {
namespace {

using browser::make_local_world;
using browser::make_remote_world;
using browser::World;

struct PoolFixture {
  std::unique_ptr<World> world = make_local_world();
  obs::MetricsRegistry metrics;

  scion::Topology& topo() { return world->topology(); }
  net::Host& client_host() { return topo().host(world->client); }

  /// Factory dialing the legacy file-server host at `port`.
  http::OriginPool::ConnFactory legacy_factory(
      std::uint16_t port = 80,
      transport::TransportConfig tcp = http::default_tcp_config()) {
    return [this, port, tcp]() {
      const net::Endpoint server{topo().ip(topo().host_by_name("tcpip-fs")), port};
      return std::make_unique<http::LegacyPooledConnection>(client_host(), server, tcp);
    };
  }

  static http::HttpRequest request(const std::string& path,
                                   const std::string& host = "tcpip-fs.local") {
    http::HttpRequest req;
    req.method = "GET";
    req.target = path;
    req.headers.set("Host", host);
    return req;
  }

  /// A separate slow site on the legacy host: responses arrive only after
  /// `think`, keeping connections busy so requests overlap.
  void add_slow_site(Duration think, std::uint16_t port = 8088) {
    browser::SiteOptions slow;
    slow.legacy = true;
    slow.native_scion = false;
    slow.port = port;
    slow.think_time = think;
    world->add_site(topo().host_by_name("tcpip-fs"), "slow.local", slow);
    world->site("slow.local")->add_text("/x", "slow body");
  }
};

TEST(OriginPoolTest, ReusesIdleConnectionAcrossSequentialRequests) {
  PoolFixture fx;
  fx.world->site("tcpip-fs.local")->add_text("/a", "A");
  fx.world->site("tcpip-fs.local")->add_text("/b", "B");
  http::OriginPoolConfig cfg;
  cfg.name = "t";
  http::OriginPool pool(fx.world->sim(), fx.metrics, cfg);

  std::string first, second;
  pool.submit("tcpip-fs.local", fx.request("/a"),
              [&](Result<http::HttpResponse> r) {
                ASSERT_TRUE(r.ok()) << r.error();
                first = to_string_view_copy(r.value().body);
              },
              fx.legacy_factory());
  fx.world->sim().run_until_condition([&] { return !first.empty(); },
                                      fx.world->sim().now() + seconds(10));
  pool.submit("tcpip-fs.local", fx.request("/b"),
              [&](Result<http::HttpResponse> r) {
                ASSERT_TRUE(r.ok()) << r.error();
                second = to_string_view_copy(r.value().body);
              },
              fx.legacy_factory());
  fx.world->sim().run_until_condition([&] { return !second.empty(); },
                                      fx.world->sim().now() + seconds(10));

  EXPECT_EQ(first, "A");
  EXPECT_EQ(second, "B");
  // One dial (miss), one reuse (hit), a single pooled connection.
  EXPECT_EQ(fx.metrics.counter("pool.t.misses").value(), 1u);
  EXPECT_EQ(fx.metrics.counter("pool.t.hits").value(), 1u);
  const auto snaps = pool.snapshot();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].conns, 1u);
  EXPECT_EQ(snaps[0].outstanding, 0u);
}

TEST(OriginPoolTest, CapParksWaitersAndDispatchesFifo) {
  PoolFixture fx;
  fx.add_slow_site(milliseconds(500));
  http::OriginPoolConfig cfg;
  cfg.name = "t";
  cfg.max_conns_per_origin = 2;
  cfg.max_outstanding_per_conn = 1;  // browser-style, so waiters must park
  http::OriginPool pool(fx.world->sim(), fx.metrics, cfg);

  std::vector<int> completion_order;
  for (int i = 0; i < 4; ++i) {
    pool.submit("slow.local", fx.request("/x", "slow.local"),
                [&, i](Result<http::HttpResponse> r) {
                  ASSERT_TRUE(r.ok()) << r.error();
                  completion_order.push_back(i);
                },
                fx.legacy_factory(8088));
  }
  // Mid-flight: two dispatched, two parked.
  fx.world->sim().run_until(fx.world->sim().now() + milliseconds(100));
  {
    const auto snaps = pool.snapshot();
    ASSERT_EQ(snaps.size(), 1u);
    EXPECT_EQ(snaps[0].conns, 2u);
    EXPECT_EQ(snaps[0].queued, 2u);
    EXPECT_EQ(fx.metrics.gauge("pool.t.queue_depth").value(), 2.0);
  }
  fx.world->sim().run_until_condition([&] { return completion_order.size() == 4; },
                                      fx.world->sim().now() + seconds(30));
  ASSERT_EQ(completion_order.size(), 4u);
  // FIFO: the third submission dispatches (and completes) before the fourth.
  const auto pos = [&](int i) {
    return std::find(completion_order.begin(), completion_order.end(), i) -
           completion_order.begin();
  };
  EXPECT_LT(pos(2), pos(3));
  EXPECT_LT(pos(0), pos(2));
  EXPECT_LT(pos(1), pos(2));
  // Parked waiters recorded their queue wait in the shared histogram.
  EXPECT_GE(fx.metrics.histogram("pool.queue_wait").count(), 4u);
  EXPECT_GT(fx.metrics.histogram("pool.queue_wait").snapshot().max,
            milliseconds(400));
}

TEST(OriginPoolTest, UnlimitedOutstandingBalancesLeastLoaded) {
  PoolFixture fx;
  fx.add_slow_site(milliseconds(500));
  http::OriginPoolConfig cfg;
  cfg.name = "t";
  cfg.max_conns_per_origin = 2;
  cfg.max_outstanding_per_conn = 0;  // full pool pipelines instead of parking
  http::OriginPool pool(fx.world->sim(), fx.metrics, cfg);

  int done = 0;
  for (int i = 0; i < 5; ++i) {
    pool.submit("slow.local", fx.request("/x", "slow.local"),
                [&](Result<http::HttpResponse> r) {
                  ASSERT_TRUE(r.ok()) << r.error();
                  ++done;
                },
                fx.legacy_factory(8088));
  }
  fx.world->sim().run_until(fx.world->sim().now() + milliseconds(100));
  const auto snaps = pool.snapshot();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].conns, 2u);
  EXPECT_EQ(snaps[0].queued, 0u);
  EXPECT_EQ(snaps[0].outstanding, 5u);
  // Least-outstanding dispatch: 5 requests over 2 connections split 3/2,
  // never 4/1 (the old first-live-connection bias).
  ASSERT_EQ(snaps[0].per_conn_outstanding.size(), 2u);
  const auto [lo, hi] = std::minmax(snaps[0].per_conn_outstanding[0],
                                    snaps[0].per_conn_outstanding[1]);
  EXPECT_EQ(lo, 2u);
  EXPECT_EQ(hi, 3u);
  fx.world->sim().run_until_condition([&] { return done == 5; },
                                      fx.world->sim().now() + seconds(30));
  EXPECT_EQ(done, 5);
}

TEST(OriginPoolTest, IdleConnectionsEvictAfterTtl) {
  PoolFixture fx;
  fx.world->site("tcpip-fs.local")->add_text("/a", "A");
  http::OriginPoolConfig cfg;
  cfg.name = "t";
  cfg.idle_ttl = seconds(2);
  http::OriginPool pool(fx.world->sim(), fx.metrics, cfg);

  bool done = false;
  pool.submit("tcpip-fs.local", fx.request("/a"),
              [&](Result<http::HttpResponse> r) {
                ASSERT_TRUE(r.ok()) << r.error();
                done = true;
              },
              fx.legacy_factory());
  fx.world->sim().run_until_condition([&] { return done; },
                                      fx.world->sim().now() + seconds(10));
  ASSERT_EQ(pool.snapshot().size(), 1u);
  EXPECT_EQ(pool.snapshot()[0].conns, 1u);

  fx.world->sim().run_until(fx.world->sim().now() + seconds(3));
  EXPECT_EQ(pool.snapshot()[0].conns, 0u);
  EXPECT_EQ(pool.snapshot()[0].evictions, 1u);
  EXPECT_EQ(fx.metrics.counter("pool.t.evictions").value(), 1u);
  EXPECT_EQ(fx.metrics.gauge("pool.t.conns").value(), 0.0);
}

TEST(OriginPoolTest, ParkedWaiterFailsAfterQueueTimeout) {
  PoolFixture fx;
  fx.add_slow_site(seconds(2));
  http::OriginPoolConfig cfg;
  cfg.name = "t";
  cfg.max_conns_per_origin = 1;
  cfg.max_outstanding_per_conn = 1;
  cfg.queue_timeout = milliseconds(200);
  http::OriginPool pool(fx.world->sim(), fx.metrics, cfg);

  bool first_ok = false;
  std::string second_error;
  pool.submit("slow.local", fx.request("/x", "slow.local"),
              [&](Result<http::HttpResponse> r) {
                ASSERT_TRUE(r.ok()) << r.error();
                first_ok = true;
              },
              fx.legacy_factory(8088));
  pool.submit("slow.local", fx.request("/x", "slow.local"),
              [&](Result<http::HttpResponse> r) {
                ASSERT_FALSE(r.ok());
                second_error = r.error();
              },
              fx.legacy_factory(8088));
  fx.world->sim().run_until_condition([&] { return first_ok && !second_error.empty(); },
                                      fx.world->sim().now() + seconds(30));
  EXPECT_TRUE(first_ok);
  EXPECT_TRUE(http::OriginPool::is_queue_timeout(second_error)) << second_error;
  EXPECT_EQ(fx.metrics.counter("pool.t.queue_timeouts").value(), 1u);
  EXPECT_EQ(fx.metrics.gauge("pool.t.queue_depth").value(), 0.0);
}

TEST(OriginPoolTest, BackoffFastFailsAndRecovers) {
  PoolFixture fx;
  fx.world->site("tcpip-fs.local")->add_text("/a", "A");
  http::OriginPoolConfig cfg;
  cfg.name = "t";
  cfg.backoff_threshold = 2;
  cfg.backoff_cooldown = seconds(5);
  http::OriginPool pool(fx.world->sim(), fx.metrics, cfg);

  // Nothing listens on port 9999: dials idle out and the fetch fails.
  transport::TransportConfig dead_tcp = http::default_tcp_config();
  dead_tcp.idle_timeout = milliseconds(200);
  const auto fail_once = [&] {
    std::string error;
    pool.submit("origin", fx.request("/a"),
                [&](Result<http::HttpResponse> r) {
                  ASSERT_FALSE(r.ok());
                  error = r.error();
                },
                fx.legacy_factory(9999, dead_tcp));
    fx.world->sim().run_until_condition([&] { return !error.empty(); },
                                        fx.world->sim().now() + seconds(10));
    return error;
  };
  EXPECT_FALSE(http::OriginPool::is_fast_fail(fail_once()));
  EXPECT_FALSE(http::OriginPool::is_fast_fail(fail_once()));
  EXPECT_EQ(fx.metrics.counter("pool.t.cooldowns").value(), 1u);
  ASSERT_EQ(pool.snapshot().size(), 1u);
  EXPECT_TRUE(pool.snapshot()[0].cooling_down);

  // While cooling down, submissions fast-fail without dialing.
  std::string error;
  pool.submit("origin", fx.request("/a"),
              [&](Result<http::HttpResponse> r) { error = r.error(); },
              fx.legacy_factory(9999, dead_tcp));
  EXPECT_TRUE(http::OriginPool::is_fast_fail(error)) << error;
  EXPECT_EQ(fx.metrics.counter("pool.t.fastfails").value(), 1u);

  // After the cool-down expires the origin is probed again; a success
  // resets the failure streak.
  fx.world->sim().run_until(fx.world->sim().now() + seconds(6));
  bool ok = false;
  pool.submit("origin", fx.request("/a"),
              [&](Result<http::HttpResponse> r) {
                ASSERT_TRUE(r.ok()) << r.error();
                ok = true;
              },
              fx.legacy_factory(80));
  fx.world->sim().run_until_condition([&] { return ok; },
                                      fx.world->sim().now() + seconds(10));
  EXPECT_TRUE(ok);
  EXPECT_EQ(pool.snapshot()[0].consecutive_failures, 0u);
  EXPECT_FALSE(pool.snapshot()[0].cooling_down);
}

TEST(OriginPoolTest, MigrateMovesLiveScionConnectionOntoNewPath) {
  auto world = make_remote_world();
  auto& topo = world->topology();
  world->site("www.far.example")->add_text("/x", "hi");
  // www.far.example is fronted by a QUIC/SCION reverse proxy on far-rp1.
  const auto rp = topo.host_by_name("far-rp1");
  const auto paths = topo.daemon_for(world->client).query_now(topo.as_of(rp));
  ASSERT_GE(paths.size(), 2u);

  obs::MetricsRegistry metrics;
  http::OriginPoolConfig cfg;
  cfg.name = "scion";
  cfg.max_conns_per_origin = 1;
  cfg.max_outstanding_per_conn = 0;  // one multiplexed connection
  http::OriginPool pool(world->sim(), metrics, cfg);
  const std::string key = "www.far.example";
  http::HttpRequest req;
  req.method = "GET";
  req.target = "/x";
  req.headers.set("Host", "www.far.example");

  bool done = false;
  pool.submit(key, req,
              [&](Result<http::HttpResponse> r) {
                ASSERT_TRUE(r.ok()) << r.error();
                done = true;
              },
              [&]() {
                return std::make_unique<http::ScionPooledConnection>(
                    topo.scion_stack(world->client),
                    scion::ScionEndpoint{topo.scion_addr(rp), 80}, paths[0],
                    "www.far.example", 80);
              });
  world->sim().run_until_condition([&] { return done; }, world->sim().now() + seconds(60));
  ASSERT_TRUE(done);

  auto* conn = pool.primary_as<http::ScionPooledConnection>(key);
  ASSERT_NE(conn, nullptr);
  EXPECT_EQ(conn->path().fingerprint(), paths[0].fingerprint());
  EXPECT_EQ(conn->host(), "www.far.example");
  EXPECT_EQ(conn->port(), 80);

  const scion::Path* other = nullptr;
  for (const scion::Path& p : paths) {
    if (p.fingerprint() != paths[0].fingerprint()) {
      other = &p;
      break;
    }
  }
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(pool.migrate(key, *other), 1u);
  EXPECT_EQ(conn->path().fingerprint(), other->fingerprint());
  // Fingerprint-identical migrations are no-ops.
  EXPECT_EQ(pool.migrate(key, *other), 0u);

  // The migrated connection still serves requests (reuse, not a redial).
  done = false;
  pool.submit(key, req,
              [&](Result<http::HttpResponse> r) {
                ASSERT_TRUE(r.ok()) << r.error();
                done = true;
              },
              [&]() -> std::unique_ptr<http::OriginPool::PooledConnection> {
                ADD_FAILURE() << "migration must not force a new dial";
                return nullptr;
              });
  world->sim().run_until_condition([&] { return done; }, world->sim().now() + seconds(60));
  EXPECT_TRUE(done);
  EXPECT_EQ(metrics.counter("pool.scion.hits").value(), 1u);
}

TEST(OriginPoolTest, ReverseProxyPipelinesOnLeastOutstandingBackendConn) {
  auto world = make_local_world();
  auto& topo = world->topology();
  browser::SiteOptions slow;
  slow.legacy = true;
  slow.native_scion = false;
  slow.port = 8088;
  slow.think_time = milliseconds(500);
  world->add_site(topo.host_by_name("tcpip-fs"), "slow.local", slow);
  world->site("slow.local")->add_text("/x", "ok");

  proxy::ReverseProxyConfig config;
  config.max_backend_conns = 2;
  proxy::ReverseProxy rp(topo.scion_stack(topo.host_by_name("scion-fs")), 9090,
                         net::Endpoint{topo.ip(topo.host_by_name("tcpip-fs")), 8088},
                         config);

  http::ScionHttpConnection conn(
      topo.scion_stack(world->client),
      scion::ScionEndpoint{topo.scion_addr(topo.host_by_name("scion-fs")), 9090},
      scion::DataplanePath{});
  int done = 0;
  for (int i = 0; i < 5; ++i) {
    http::HttpRequest req;
    req.method = "GET";
    req.target = "/x";
    req.headers.set("Host", "slow.local");
    conn.fetch(req, [&](Result<http::HttpResponse> r) {
      ASSERT_TRUE(r.ok()) << r.error();
      ++done;
    });
  }
  // Mid think-time: all five relayed requests are outstanding on the
  // backend pool, split across both connections instead of convoying on
  // the first (the pre-pool pipelining bias).
  world->sim().run_until(world->sim().now() + milliseconds(250));
  const auto snaps = rp.backend_pool().snapshot();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].conns, 2u);
  EXPECT_EQ(snaps[0].outstanding, 5u);
  ASSERT_EQ(snaps[0].per_conn_outstanding.size(), 2u);
  const auto [lo, hi] = std::minmax(snaps[0].per_conn_outstanding[0],
                                    snaps[0].per_conn_outstanding[1]);
  EXPECT_EQ(lo, 2u);
  EXPECT_EQ(hi, 3u);

  world->sim().run_until_condition([&] { return done == 5; },
                                   world->sim().now() + seconds(30));
  EXPECT_EQ(done, 5);
  EXPECT_EQ(rp.requests_relayed(), 5u);
  EXPECT_EQ(rp.backend_errors(), 0u);
}

TEST(OriginPoolTest, SkipPoolEndpointReportsPerOriginState) {
  auto world = make_local_world();
  auto& topo = world->topology();
  world->site("tcpip-fs.local")->add_text("/x", "legacy");
  world->site("scion-fs.local")->add_text("/y", "scion");
  dns::Resolver resolver(world->sim(), world->zone(), {});
  proxy::SkipProxy proxy(world->sim(), topo.host(world->client),
                         topo.scion_stack(world->client),
                         topo.daemon_for(world->client), resolver, {});
  const auto fetch = [&](const char* target) {
    http::HttpRequest request;
    request.target = target;
    proxy::ProxyResult out;
    bool done = false;
    proxy.fetch(request, {}, [&](proxy::ProxyResult r) {
      out = std::move(r);
      done = true;
    });
    world->sim().run_until_condition([&] { return done; },
                                     world->sim().now() + seconds(60));
    EXPECT_TRUE(done);
    return out;
  };

  EXPECT_EQ(fetch("http://tcpip-fs.local/x").transport, proxy::TransportUsed::kIp);
  EXPECT_EQ(fetch("http://scion-fs.local/y").transport, proxy::TransportUsed::kScion);

  const proxy::ProxyResult result = fetch("/skip/pool");
  EXPECT_EQ(result.transport, proxy::TransportUsed::kInternal);
  EXPECT_EQ(result.response.status, 200);
  EXPECT_EQ(result.response.headers.get("Content-Type"), "application/json");
  const std::string body = to_string_view_copy(result.response.body);
  EXPECT_NE(body.find("\"legacy\":["), std::string::npos) << body;
  EXPECT_NE(body.find("\"scion\":["), std::string::npos) << body;
  EXPECT_NE(body.find("\"origin\":\"tcpip-fs.local\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"origin\":\"scion-fs.local\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"scion_paths\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"conns\":1"), std::string::npos) << body;
}

TEST(OriginPoolTest, BrowserCacheIsLruBounded) {
  auto world = make_local_world();
  auto& fs = *world->site("tcpip-fs.local");
  fs.add_text("/r0", "zero!");
  fs.add_text("/r1", "one!!");
  fs.add_text("/r2", "two!!");
  fs.add_text("/", browser::render_document({"/r0", "/r1", "/r2"}));

  browser::BrowserConfig config;
  config.enable_cache = true;
  config.cache_max_entries = 2;
  browser::DirectSession session(*world, config);
  const browser::PageLoadResult result = session.load("http://tcpip-fs.local/");
  ASSERT_TRUE(result.ok);
  ASSERT_EQ(result.resources.size(), 4u);

  // Four cacheable responses through a two-entry cache: two LRU evictions.
  EXPECT_EQ(session.browser().cache_size(), 2u);
  EXPECT_EQ(session.browser().metrics().counter("browser.cache.evictions").value(), 2u);
}

TEST(OriginPoolTest, PriorityClassesOutrankFifoInQueue) {
  PoolFixture fx;
  fx.add_slow_site(milliseconds(200));
  http::OriginPoolConfig cfg;
  cfg.name = "t";
  cfg.max_conns_per_origin = 1;
  cfg.max_outstanding_per_conn = 1;
  http::OriginPool pool(fx.world->sim(), fx.metrics, cfg);

  // One request occupies the single connection; three more park with mixed
  // priorities. Dispatch must take the document first, then the earlier
  // subresource (FIFO within a class), then the probe.
  std::vector<std::string> completion_order;
  const auto submit = [&](const std::string& tag, std::uint8_t priority) {
    http::SubmitOptions options;
    options.priority = priority;
    pool.submit("slow.local", fx.request("/x", "slow.local"), options,
                [&, tag](Result<http::HttpResponse> r) {
                  ASSERT_TRUE(r.ok()) << r.error();
                  completion_order.push_back(tag);
                },
                fx.legacy_factory(8088));
  };
  submit("warmup", 1);
  submit("probe", 2);
  submit("sub", 1);
  submit("doc", 0);
  fx.world->sim().run_until_condition([&] { return completion_order.size() == 4; },
                                      fx.world->sim().now() + seconds(30));
  ASSERT_EQ(completion_order.size(), 4u);
  EXPECT_EQ(completion_order[0], "warmup");
  EXPECT_EQ(completion_order[1], "doc");
  EXPECT_EQ(completion_order[2], "sub");
  EXPECT_EQ(completion_order[3], "probe");
}

TEST(OriginPoolTest, ExpiredWaiterFailsAtDispatchInsteadOfRunning) {
  PoolFixture fx;
  fx.add_slow_site(milliseconds(500));
  http::OriginPoolConfig cfg;
  cfg.name = "t";
  cfg.max_conns_per_origin = 1;
  cfg.max_outstanding_per_conn = 1;
  http::OriginPool pool(fx.world->sim(), fx.metrics, cfg);

  bool first_ok = false;
  std::string expired_error;
  pool.submit("slow.local", fx.request("/x", "slow.local"),
              [&](Result<http::HttpResponse> r) {
                ASSERT_TRUE(r.ok()) << r.error();
                first_ok = true;
              },
              fx.legacy_factory(8088));
  // Parked behind a 500 ms occupant with a 300 ms deadline: by the time the
  // connection frees up the deadline is gone. The old FIFO would have
  // dispatched it anyway; now it fails immediately at dispatch time.
  http::SubmitOptions options;
  options.deadline = fx.world->sim().now() + milliseconds(300);
  pool.submit("slow.local", fx.request("/x", "slow.local"), options,
              [&](Result<http::HttpResponse> r) {
                ASSERT_FALSE(r.ok());
                expired_error = r.error();
              },
              fx.legacy_factory(8088));
  fx.world->sim().run_until_condition([&] { return first_ok && !expired_error.empty(); },
                                      fx.world->sim().now() + seconds(30));
  EXPECT_TRUE(http::OriginPool::is_expired(expired_error)) << expired_error;
  EXPECT_TRUE(http::OriginPool::is_pool_synthesized(expired_error));
  EXPECT_EQ(fx.metrics.counter("pool.t.expired_dispatches").value(), 1u);
  EXPECT_EQ(fx.metrics.gauge("pool.t.queue_depth").value(), 0.0);
}

TEST(OriginPoolTest, CoDelShedsWaitersWhoseDeadlineCannotCoverQueueWait) {
  PoolFixture fx;
  fx.add_slow_site(milliseconds(400));
  http::OriginPoolConfig cfg;
  cfg.name = "t";
  cfg.max_conns_per_origin = 1;
  cfg.max_outstanding_per_conn = 1;
  http::OriginPool pool(fx.world->sim(), fx.metrics, cfg);

  // Build up >= 8 queue-wait samples with long observed waits so the p90
  // estimate is several hundred milliseconds.
  std::size_t completed = 0;
  for (int i = 0; i < 9; ++i) {
    pool.submit("slow.local", fx.request("/x", "slow.local"),
                [&](Result<http::HttpResponse> r) {
                  ASSERT_TRUE(r.ok()) << r.error();
                  ++completed;
                },
                fx.legacy_factory(8088));
  }
  fx.world->sim().run_until_condition([&] { return completed == 9; },
                                      fx.world->sim().now() + seconds(30));
  ASSERT_GE(fx.metrics.histogram("pool.queue_wait").count(), 8u);

  // Occupy the connection again, then park a waiter whose remaining budget
  // is far below the observed queue-wait p90: it is shed immediately with a
  // synthesized fast failure instead of hanging toward a timeout.
  bool occupant_done = false;
  pool.submit("slow.local", fx.request("/x", "slow.local"),
              [&](Result<http::HttpResponse> r) {
                ASSERT_TRUE(r.ok()) << r.error();
                occupant_done = true;
              },
              fx.legacy_factory(8088));
  std::string shed_error;
  http::SubmitOptions tight;
  tight.deadline = fx.world->sim().now() + milliseconds(50);
  pool.submit("slow.local", fx.request("/x", "slow.local"), tight,
              [&](Result<http::HttpResponse> r) {
                ASSERT_FALSE(r.ok());
                shed_error = r.error();
              },
              fx.legacy_factory(8088));
  const TimePoint shed_by = fx.world->sim().now() + milliseconds(10);
  fx.world->sim().run_until_condition([&] { return !shed_error.empty(); }, shed_by);
  EXPECT_TRUE(http::OriginPool::is_shed(shed_error)) << shed_error;
  EXPECT_TRUE(http::OriginPool::is_pool_synthesized(shed_error));
  EXPECT_EQ(fx.metrics.counter("pool.t.sheds").value(), 1u);
  // The shed must beat the deadline — that is the whole point.
  EXPECT_LE(fx.world->sim().now(), shed_by);
  fx.world->sim().run_until_condition([&] { return occupant_done; },
                                      fx.world->sim().now() + seconds(30));
}

TEST(OriginPoolTest, AdaptiveLimiterNarrowsEffectiveCapUnderSlowness) {
  PoolFixture fx;
  fx.add_slow_site(milliseconds(100));
  proxy::AimdConfig aimd;
  aimd.min_limit = 1;
  aimd.max_limit = 4;
  aimd.latency_target = milliseconds(1);  // every completion is "too slow"
  proxy::AimdController limiter("t", aimd, fx.metrics);
  http::OriginPoolConfig cfg;
  cfg.name = "t";
  cfg.max_conns_per_origin = 4;
  cfg.max_outstanding_per_conn = 1;
  cfg.limiter = &limiter;
  http::OriginPool pool(fx.world->sim(), fx.metrics, cfg);

  std::size_t completed = 0;
  const auto submit_n = [&](int n) {
    for (int i = 0; i < n; ++i) {
      pool.submit("slow.local", fx.request("/x", "slow.local"),
                  [&](Result<http::HttpResponse> r) {
                    ASSERT_TRUE(r.ok()) << r.error();
                    ++completed;
                  },
                  fx.legacy_factory(8088));
    }
  };
  // Four over-target completions: 4 -> 2.8 -> 1.96 -> 1.37 -> 1 (floored).
  submit_n(4);
  fx.world->sim().run_until_condition([&] { return completed == 4; },
                                      fx.world->sim().now() + seconds(30));
  EXPECT_EQ(limiter.limit("slow.local"), 1u);
  EXPECT_GE(fx.metrics.counter("overload.t.narrowed").value(), 3u);

  // The narrowed window now caps dispatch below the static max_conns.
  submit_n(3);
  fx.world->sim().run_until(fx.world->sim().now() + milliseconds(20));
  {
    const auto snaps = pool.snapshot();
    ASSERT_EQ(snaps.size(), 1u);
    EXPECT_EQ(snaps[0].outstanding, 1u);
    EXPECT_EQ(snaps[0].queued, 2u);
    EXPECT_EQ(snaps[0].effective_limit, 1u);
  }
  fx.world->sim().run_until_condition([&] { return completed == 7; },
                                      fx.world->sim().now() + seconds(30));
}

/// A pooled connection that wedges: the transport stays open, usable() is
/// false, and any dispatched fetch is swallowed (its response never fires),
/// so the entry sits in the pool busy-but-dead.
class WedgedLegacyConnection final : public http::OriginPool::PooledConnection {
 public:
  WedgedLegacyConnection(net::Host& host, net::Endpoint server) : inner_(host, server) {}

  void fetch(const http::HttpRequest&, http::HttpClientStream::ResponseFn) override {
    ++swallowed_;
  }
  [[nodiscard]] transport::Connection& transport() override { return inner_.transport(); }
  [[nodiscard]] bool usable() override { return false; }
  void shutdown() override { inner_.shutdown(); }
  [[nodiscard]] int swallowed() const { return swallowed_; }

 private:
  http::LegacyPooledConnection inner_;
  int swallowed_ = 0;
};

// Regression: dispatch() used to count every pooled entry — including
// wedged-but-busy connections that can never serve again — against
// max_conns_per_origin, so an origin whose only connection wedged mid-flight
// blocked every new dial until queue timeout. Only usable connections may
// occupy a capacity slot.
TEST(OriginPoolTest, WedgedBusyConnectionDoesNotBlockFreshDials) {
  PoolFixture fx;
  fx.world->site("tcpip-fs.local")->add_text("/a", "A");
  http::OriginPoolConfig cfg;
  cfg.name = "t";
  cfg.max_conns_per_origin = 1;  // the wedged conn holds the only slot
  cfg.max_outstanding_per_conn = 0;
  http::OriginPool pool(fx.world->sim(), fx.metrics, cfg);
  const net::Endpoint server{fx.topo().ip(fx.topo().host_by_name("tcpip-fs")), 80};

  // First request lands on a connection that wedges with the request still
  // outstanding: transport open, usable() false, response never delivered.
  bool first_answered = false;
  pool.submit("tcpip-fs.local", fx.request("/a"),
              [&](Result<http::HttpResponse>) { first_answered = true; },
              [&]() { return std::make_unique<WedgedLegacyConnection>(fx.client_host(), server); });
  fx.world->sim().run_until(fx.world->sim().now() + milliseconds(50));
  ASSERT_FALSE(first_answered);
  {
    const auto snaps = pool.snapshot();
    ASSERT_EQ(snaps.size(), 1u);
    EXPECT_EQ(snaps[0].conns, 1u);
    EXPECT_EQ(snaps[0].outstanding, 1u);
  }

  // The second request must dial fresh instead of parking behind the wedged
  // slot forever (pre-fix: conns.size() == cap, no dial, waiter starves).
  std::string second;
  pool.submit("tcpip-fs.local", fx.request("/a"),
              [&](Result<http::HttpResponse> r) {
                ASSERT_TRUE(r.ok()) << r.error();
                second = to_string_view_copy(r.value().body);
              },
              fx.legacy_factory());
  fx.world->sim().run_until_condition([&] { return !second.empty(); },
                                      fx.world->sim().now() + seconds(10));
  EXPECT_EQ(second, "A");
  EXPECT_EQ(fx.metrics.counter("pool.t.misses").value(), 2u);  // both dialed
  const auto snaps = pool.snapshot();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].queued, 0u);
}

/// A SCION pool connection that wedges (usable() false, fetches swallowed)
/// while its transport stays open — what migrate() must skip.
class WedgedScionConnection final : public http::ScionPooledConnection {
 public:
  using http::ScionPooledConnection::ScionPooledConnection;

  void fetch(const http::HttpRequest&, http::HttpClientStream::ResponseFn) override {}
  [[nodiscard]] bool usable() override { return false; }
};

// Regression: migrate() used to skip only transport-closed connections, so a
// wedged-open connection (dead stream, transport up, waiting to be pruned)
// was migrated onto the fresh path — burning the replacement path's first
// impression on a connection that can never carry a request. It must be
// skipped, and real migrations must count in pool.<name>.migrations.
TEST(OriginPoolTest, MigrateSkipsWedgedConnectionAndCountsMigrations) {
  auto world = make_remote_world();
  auto& topo = world->topology();
  world->site("www.far.example")->add_text("/x", "hi");
  const auto rp = topo.host_by_name("far-rp1");
  const auto paths = topo.daemon_for(world->client).query_now(topo.as_of(rp));
  ASSERT_GE(paths.size(), 2u);

  obs::MetricsRegistry metrics;
  http::OriginPoolConfig cfg;
  cfg.name = "scion";
  cfg.max_conns_per_origin = 2;
  cfg.max_outstanding_per_conn = 0;
  http::OriginPool pool(world->sim(), metrics, cfg);
  const std::string key = "www.far.example";
  http::HttpRequest req;
  req.method = "GET";
  req.target = "/x";
  req.headers.set("Host", "www.far.example");

  const auto factory_on = [&](const scion::Path& p,
                              bool wedged) -> http::OriginPool::ConnFactory {
    return [&, p, wedged]() -> std::unique_ptr<http::OriginPool::PooledConnection> {
      const auto endpoint = scion::ScionEndpoint{topo.scion_addr(rp), 80};
      auto& stack = topo.scion_stack(world->client);
      if (wedged) {
        return std::make_unique<WedgedScionConnection>(stack, endpoint, p,
                                                       "www.far.example", 80);
      }
      return std::make_unique<http::ScionPooledConnection>(stack, endpoint, p,
                                                           "www.far.example", 80);
    };
  };

  // First submission wedges in flight: outstanding stays 1, so the entry is
  // pool-resident (not prunable) when migrate() runs.
  pool.submit(key, req, [&](Result<http::HttpResponse>) { FAIL() << "wedged"; },
              factory_on(paths[0], /*wedged=*/true));
  // Second submission dials a healthy connection next to it.
  bool done = false;
  pool.submit(key, req,
              [&](Result<http::HttpResponse> r) {
                ASSERT_TRUE(r.ok()) << r.error();
                done = true;
              },
              factory_on(paths[0], /*wedged=*/false));
  world->sim().run_until_condition([&] { return done; }, world->sim().now() + seconds(60));
  ASSERT_TRUE(done);
  {
    const auto snaps = pool.snapshot();
    ASSERT_EQ(snaps.size(), 1u);
    ASSERT_EQ(snaps[0].conns, 2u);
    EXPECT_EQ(snaps[0].outstanding, 1u);  // the wedged fetch, forever in flight
  }

  const scion::Path* other = nullptr;
  for (const scion::Path& p : paths) {
    if (p.fingerprint() != paths[0].fingerprint()) {
      other = &p;
      break;
    }
  }
  ASSERT_NE(other, nullptr);

  // Only the healthy connection migrates; the wedged one keeps its old path.
  EXPECT_EQ(pool.migrate(key, *other), 1u);
  EXPECT_EQ(metrics.counter("pool.scion.migrations").value(), 1u);
  std::size_t on_old = 0;
  std::size_t on_new = 0;
  pool.for_each_connection([&](const std::string&, http::OriginPool::PooledConnection& c) {
    auto& scion_conn = dynamic_cast<http::ScionPooledConnection&>(c);
    if (scion_conn.path().fingerprint() == paths[0].fingerprint()) ++on_old;
    if (scion_conn.path().fingerprint() == other->fingerprint()) ++on_new;
  });
  EXPECT_EQ(on_old, 1u);  // the wedged conn, untouched
  EXPECT_EQ(on_new, 1u);
  // Fingerprint-identical re-migration is a no-op and does not count.
  EXPECT_EQ(pool.migrate(key, *other), 0u);
  EXPECT_EQ(metrics.counter("pool.scion.migrations").value(), 1u);
}

// retire() force-closes everything pooled for a key (identity rotation):
// idle entries prune immediately and the next submission dials fresh.
TEST(OriginPoolTest, RetireClosesPooledConnectionsAndRedials) {
  PoolFixture fx;
  fx.world->site("tcpip-fs.local")->add_text("/a", "A");
  http::OriginPoolConfig cfg;
  cfg.name = "t";
  http::OriginPool pool(fx.world->sim(), fx.metrics, cfg);

  std::string first;
  pool.submit("tcpip-fs.local", fx.request("/a"),
              [&](Result<http::HttpResponse> r) {
                ASSERT_TRUE(r.ok()) << r.error();
                first = to_string_view_copy(r.value().body);
              },
              fx.legacy_factory());
  fx.world->sim().run_until_condition([&] { return !first.empty(); },
                                      fx.world->sim().now() + seconds(10));
  EXPECT_EQ(pool.retire("tcpip-fs.local"), 1u);
  EXPECT_EQ(pool.retire("tcpip-fs.local"), 0u);  // idempotent: already closed

  std::string second;
  pool.submit("tcpip-fs.local", fx.request("/a"),
              [&](Result<http::HttpResponse> r) {
                ASSERT_TRUE(r.ok()) << r.error();
                second = to_string_view_copy(r.value().body);
              },
              fx.legacy_factory());
  fx.world->sim().run_until_condition([&] { return !second.empty(); },
                                      fx.world->sim().now() + seconds(10));
  EXPECT_EQ(second, "A");
  EXPECT_EQ(fx.metrics.counter("pool.t.misses").value(), 2u);  // fresh dial
}

TEST(OriginPoolTest, IdleChecksDoNotPileUpAcrossReuse) {
  // Every completed fetch re-arms the idle check; the previous one is
  // cancelled, so one connection carries at most one pending check.
  PoolFixture fx;
  fx.world->site("tcpip-fs.local")->add_text("/a", "A");
  http::OriginPoolConfig cfg;
  cfg.name = "t";
  cfg.idle_ttl = seconds(60);
  http::OriginPool pool(fx.world->sim(), fx.metrics, cfg);
  const auto fetch_once = [&] {
    bool done = false;
    pool.submit("tcpip-fs.local", fx.request("/a"),
                [&](Result<http::HttpResponse> r) {
                  EXPECT_TRUE(r.ok());
                  done = true;
                },
                fx.legacy_factory());
    fx.world->sim().run_until_condition([&] { return done; },
                                        fx.world->sim().now() + seconds(10));
    fx.world->sim().run_for(milliseconds(50));
  };
  fetch_once();
  const std::size_t settled = fx.world->sim().pending_events();
  for (int i = 0; i < 20; ++i) fetch_once();
  EXPECT_EQ(fx.world->sim().pending_events(), settled);
  EXPECT_EQ(fx.metrics.counter("pool.t.hits").value(), 20u);
}

TEST(OriginPoolTest, TeardownMidFlightCancelsPoolEvents) {
  // Destroy the pool with an idle check armed, one fetch in flight and two
  // waiters parked on queue timeouts, then keep the simulator running: no
  // event or callback may reach the dead pool.
  PoolFixture fx;
  fx.add_slow_site(milliseconds(500));
  fx.world->site("tcpip-fs.local")->add_text("/a", "A");
  http::OriginPoolConfig cfg;
  cfg.name = "t";
  cfg.max_conns_per_origin = 1;
  cfg.idle_ttl = seconds(60);
  cfg.queue_timeout = seconds(5);
  auto pool = std::make_unique<http::OriginPool>(fx.world->sim(), fx.metrics, cfg);
  int answered = 0;
  pool->submit("tcpip-fs.local", fx.request("/a"),
               [&](Result<http::HttpResponse>) { ++answered; }, fx.legacy_factory());
  fx.world->sim().run_until_condition([&] { return answered == 1; },
                                      fx.world->sim().now() + seconds(10));
  for (int i = 0; i < 3; ++i) {
    pool->submit("slow.local", fx.request("/x", "slow.local"),
                 [&](Result<http::HttpResponse>) { ++answered; }, fx.legacy_factory(8088));
  }
  fx.world->sim().run_for(milliseconds(100));
  ASSERT_EQ(pool->snapshot().size(), 2u);
  pool.reset();
  fx.world->sim().run_for(seconds(120));
  EXPECT_EQ(answered, 1);
}

}  // namespace
}  // namespace pan
