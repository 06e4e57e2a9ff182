// Keyed per-origin HTTP connection pool — the one connection manager every
// layer dispatches through (Socket-Intents-style centralization: reuse,
// failover and measurement live behind one policy-aware API instead of being
// re-implemented per caller).
//
// Users of the pool:
//   - Browser direct mode ("BGP/IP-Only"): per-origin LegacyHttpConnection
//     fan-out with browser-like no-pipelining dispatch;
//   - SkipProxy legacy pool: same shape, per ProxyConfig caps;
//   - SkipProxy SCION pool: one multiplexed ScionHttpConnection per origin
//     (max_conns_per_origin = 1, unlimited outstanding), with live path
//     migration (`migrate`) driven by SCMP;
//   - ReverseProxy backend pool: capped fan-out that, once full, pipelines
//     onto the *least-outstanding* live connection.
//
// The pool owns: the per-origin connection cap, the FIFO waiter queue,
// closed-connection pruning, least-outstanding dispatch, idle-connection
// eviction on a configurable TTL, a queue-wait timeout for parked waiters,
// and per-origin failure backoff (consecutive errors trip a cool-down during
// which submissions fast-fail instead of dialing a dead origin).
//
// Observability: every pool reports into an obs::MetricsRegistry —
// `pool.<name>.{hits,misses,evictions,pruned,queue_timeouts,fastfails,
// cooldowns}` counters, `pool.<name>.{conns,queue_depth}` gauges, and the
// registry-wide `pool.queue_wait` latency histogram (time a request spends
// parked before dispatch; surfaces in the fig3/fig5 bench phase tables).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "http/endpoints.hpp"
#include "obs/metrics.hpp"
#include "scion/path.hpp"
#include "sim/simulator.hpp"

namespace pan::http {

/// Adaptive per-origin concurrency governor (implemented by the proxy layer:
/// proxy::AimdController). The pool consults `limit` before every dispatch —
/// the origin's total outstanding requests never exceed it — and feeds back
/// every attempt's dispatch-to-completion latency through `record`, which is
/// what lets the controller narrow the window when latency inflates and
/// reopen it on recovery.
class ConcurrencyLimiter {
 public:
  virtual ~ConcurrencyLimiter() = default;
  /// Current cap on total outstanding requests for `key` (>= 1).
  [[nodiscard]] virtual std::size_t limit(const std::string& key) = 0;
  virtual void record(const std::string& key, Duration latency, bool ok) = 0;
};

struct OriginPoolConfig {
  /// Metric namespace: instruments register as `pool.<name>.*`.
  std::string name = "pool";
  std::size_t max_conns_per_origin = 6;
  /// Requests a single connection may carry at once. 1 = browser-style "no
  /// pipelining"; 0 = unlimited (QUIC-style multiplexing, or HTTP/1
  /// pipelining as the reverse proxy's overload valve).
  std::size_t max_outstanding_per_conn = 1;
  /// Evict a connection idle for this long (zero = keep forever).
  Duration idle_ttl = Duration::zero();
  /// Fail a waiter still parked in the queue after this long with
  /// `kQueueTimeoutError` (zero = wait indefinitely).
  Duration queue_timeout = Duration::zero();
  /// Consecutive fetch failures against one origin that trip its cool-down
  /// (zero = backoff disabled).
  std::size_t backoff_threshold = 0;
  /// While cooling down, submissions fast-fail with `kFastFailError`.
  Duration backoff_cooldown = seconds(5);
  /// Adaptive concurrency governor (non-owning; must outlive the pool).
  /// When set, an origin's total outstanding requests are additionally
  /// capped at `limiter->limit(key)` and every completion feeds back its
  /// latency. Null keeps the static caps only.
  ConcurrencyLimiter* limiter = nullptr;
  /// CoDel-style deadline shedding: when the origin is at capacity, queued
  /// waiters whose remaining deadline budget cannot cover the observed
  /// `pool.queue_wait` p90 are failed fast with `kShedError` instead of
  /// being left to ripen into a 504.
  bool deadline_shed = true;
};

/// Per-request options for OriginPool::submit.
struct SubmitOptions {
  /// Queue ordering class: lower dispatches first (0 = document/pinned,
  /// 1 = sub-resource, 2 = probe/background). Ties dispatch FIFO.
  std::uint8_t priority = 1;
  /// Absolute deadline for the request. Drives dispatch-time expiry (the
  /// waiter fails with `kExpiredError` instead of wasting a slot) and
  /// deadline shedding. Absent: the waiter never expires or sheds.
  std::optional<TimePoint> deadline;
};

class OriginPool {
 public:
  /// The erased connection kind the pool manages. Adapters below wrap the
  /// concrete LegacyHttpConnection / ScionHttpConnection endpoints.
  class PooledConnection {
   public:
    virtual ~PooledConnection() = default;
    virtual void fetch(const HttpRequest& request,
                       HttpClientStream::ResponseFn on_response) = 0;
    [[nodiscard]] virtual transport::Connection& transport() = 0;
    /// Whether the pool may still dispatch onto this connection. Default:
    /// the transport is not closed. HTTP/1 adapters also report unusable
    /// when their single stream died (parse error, truncated response)
    /// while the transport stayed open — otherwise the pool would keep
    /// dispatching onto a permanently wedged connection.
    [[nodiscard]] virtual bool usable() {
      return transport().state() != transport::Connection::State::kClosed;
    }
    /// Closes the underlying transport (idle eviction, pool teardown).
    virtual void shutdown() = 0;
  };
  /// Called when the pool decides a new connection is needed for the waiter
  /// being dispatched (the waiter carries its own factory: endpoint details
  /// are per-request knowledge of the caller).
  using ConnFactory = std::function<std::unique_ptr<PooledConnection>()>;

  /// Error strings surfaced through waiter callbacks. Callers map them to
  /// protocol responses (the SKIP proxy answers 504 / 503).
  static constexpr std::string_view kQueueTimeoutError = "pool queue-wait timeout";
  static constexpr std::string_view kFastFailError = "pool origin cooling down";
  static constexpr std::string_view kShedError = "pool shed on deadline pressure";
  static constexpr std::string_view kExpiredError = "pool deadline expired in queue";
  [[nodiscard]] static bool is_queue_timeout(const std::string& error);
  [[nodiscard]] static bool is_fast_fail(const std::string& error);
  [[nodiscard]] static bool is_shed(const std::string& error);
  [[nodiscard]] static bool is_expired(const std::string& error);
  /// Any error string the pool synthesizes itself (the request never reached
  /// the origin): callers use this to skip path-blame on such failures.
  [[nodiscard]] static bool is_pool_synthesized(const std::string& error);

  OriginPool(sim::Simulator& sim, obs::MetricsRegistry& metrics, OriginPoolConfig config);

  OriginPool(const OriginPool&) = delete;
  OriginPool& operator=(const OriginPool&) = delete;

  /// Queues `request` for `key` and dispatches as capacity allows. The
  /// response callback fires exactly once: with the origin's response, a
  /// transport error, `kQueueTimeoutError`, `kFastFailError`, `kShedError`,
  /// or `kExpiredError`.
  void submit(const std::string& key, HttpRequest request,
              HttpClientStream::ResponseFn on_response, ConnFactory factory);
  /// As above, with a queue priority and an absolute deadline (dispatch-time
  /// expiry + deadline shedding).
  void submit(const std::string& key, HttpRequest request, SubmitOptions options,
              HttpClientStream::ResponseFn on_response, ConnFactory factory);

  /// Moves every usable SCION connection for `key` onto `path` (no-op for
  /// fingerprint-identical paths, non-SCION entries, and wedged or closed
  /// connections). Returns the number of connections actually migrated
  /// (counted in `pool.<name>.migrations`). In-flight data redelivers over
  /// the new path via normal loss recovery.
  std::size_t migrate(const std::string& key, const scion::Path& path);

  /// Force-closes every connection pooled for `key` (identity rotation: the
  /// old path assignments must not survive into the next brokering). Idle
  /// connections are pruned immediately; in-flight fetches fail through
  /// normal transport-error handling and parked waiters re-dispatch onto
  /// fresh dials. Returns the number of connections shut down.
  std::size_t retire(const std::string& key);

  /// First live connection pooled for `key` (nullptr when none). The caller
  /// knows what it pooled; downcast via `primary_as<T>`.
  [[nodiscard]] PooledConnection* primary(const std::string& key);
  template <typename T>
  [[nodiscard]] T* primary_as(const std::string& key) {
    return dynamic_cast<T*>(primary(key));
  }

  void for_each_connection(
      const std::function<void(const std::string& key, PooledConnection& conn)>& fn);

  struct OriginSnapshot {
    std::string key;
    std::size_t conns = 0;
    std::size_t outstanding = 0;  // sum over connections
    std::size_t queued = 0;
    /// Adaptive concurrency cap currently in force (0 = no limiter).
    std::size_t effective_limit = 0;
    std::uint64_t evictions = 0;  // idle-TTL evictions on this origin
    std::size_t consecutive_failures = 0;
    bool cooling_down = false;
    /// Per-connection outstanding counts (dispatch-balance introspection).
    std::vector<std::size_t> per_conn_outstanding;
  };
  [[nodiscard]] std::vector<OriginSnapshot> snapshot() const;
  /// Snapshot rendered as a JSON array (served by `GET /skip/pool`).
  [[nodiscard]] std::string snapshot_json() const;

  [[nodiscard]] std::size_t origin_count() const { return origins_.size(); }
  [[nodiscard]] const OriginPoolConfig& config() const { return config_; }

 private:
  struct Entry {
    std::unique_ptr<PooledConnection> conn;
    std::size_t outstanding = 0;
    sim::EventId idle_check = sim::kInvalidEventId;  ///< cancelled on dispatch/re-arm/prune
  };
  struct Waiter {
    std::uint64_t id = 0;
    std::uint8_t priority = 1;
    HttpRequest request;
    HttpClientStream::ResponseFn on_response;
    ConnFactory factory;
    TimePoint enqueued_at;
    std::optional<TimePoint> deadline;
    sim::EventId timeout_event = sim::kInvalidEventId;
  };
  struct Origin {
    std::vector<Entry> conns;
    std::deque<Waiter> waiting;
    std::size_t consecutive_failures = 0;
    TimePoint cooldown_until = TimePoint::origin();
    std::uint64_t evictions = 0;
  };

  void dispatch(const std::string& key);
  void fail_waiter(Waiter waiter, std::string_view error);
  [[nodiscard]] bool cooling_down(const Origin& origin) const;
  /// Best queued waiter by (priority, arrival): lowest class first, FIFO
  /// inside a class. Index into `waiting`, or kNone when empty.
  [[nodiscard]] static std::size_t best_waiter(const Origin& origin);
  /// Removes `waiting[index]` with queue bookkeeping (gauge + timer).
  Waiter take_waiter(Origin& origin, std::size_t index);
  /// Adaptive cap in force for this origin (SIZE_MAX without a limiter).
  [[nodiscard]] std::size_t effective_limit(const std::string& key) const;
  void on_fetch_done(const std::string& key, PooledConnection* conn, bool ok);
  void arm_idle_eviction(const std::string& key, Entry& entry);
  void prune_closed(Origin& origin);
  /// Destroys `conn` from the event loop, never synchronously: a completion
  /// callback on it may still be on the call stack.
  void release_deferred(std::unique_ptr<PooledConnection> conn);
  void set_conn_gauge();

  /// Queue timeouts, idle eviction and deferred releases die with the pool.
  /// Fetch callbacks need no guard: the connections holding them are ours.
  sim::Scope scope_;
  obs::MetricsRegistry& metrics_;
  OriginPoolConfig config_;
  std::unordered_map<std::string, Origin> origins_;
  std::uint64_t next_waiter_id_ = 1;
  std::size_t total_conns_ = 0;
  std::size_t total_queued_ = 0;
  // Cached instruments (registry references are stable).
  obs::Counter& hits_;
  obs::Counter& misses_;
  obs::Counter& evictions_;
  obs::Counter& pruned_;
  obs::Counter& queue_timeouts_;
  obs::Counter& fastfails_;
  obs::Counter& cooldowns_;
  obs::Counter& sheds_;
  obs::Counter& expired_dispatches_;
  obs::Counter& migrations_;
  obs::Gauge& conns_gauge_;
  obs::Gauge& queue_depth_;
  obs::Histogram& queue_wait_;
};

/// LegacyHttpConnection (HTTP over TCP-lite/IP) pool adapter.
class LegacyPooledConnection final : public OriginPool::PooledConnection {
 public:
  LegacyPooledConnection(net::Host& host, net::Endpoint server,
                         transport::TransportConfig config = default_tcp_config())
      : conn_(host, server, std::move(config)) {}

  void fetch(const HttpRequest& request, HttpClientStream::ResponseFn on_response) override {
    conn_.fetch(request, std::move(on_response));
  }
  [[nodiscard]] transport::Connection& transport() override { return conn_.transport(); }
  [[nodiscard]] bool usable() override {
    return PooledConnection::usable() && conn_.usable();
  }
  void shutdown() override { conn_.close(); }

 private:
  LegacyHttpConnection conn_;
};

/// ScionHttpConnection (HTTP over QUIC-lite/SCION) pool adapter. Carries the
/// origin metadata the proxy needs back out of the pool: the path the
/// connection currently uses and the host/port as parsed at insert time (the
/// SCMP reroute path and the policy router consume these instead of
/// re-splitting the pool key, which breaks for hosts containing a colon).
class ScionPooledConnection : public OriginPool::PooledConnection {
 public:
  ScionPooledConnection(scion::ScionStack& stack, scion::ScionEndpoint server,
                        scion::Path path, std::string host, std::uint16_t port,
                        transport::TransportConfig config = default_quic_config())
      : conn_(stack, server, path.dataplane(), std::move(config)),
        path_(std::move(path)),
        addr_(server.addr),
        host_(std::move(host)),
        port_(port) {}

  void fetch(const HttpRequest& request, HttpClientStream::ResponseFn on_response) override {
    conn_.fetch(request, std::move(on_response));
  }
  [[nodiscard]] transport::Connection& transport() override { return conn_.transport(); }
  void shutdown() override { conn_.close(); }

  /// Migrates the connection onto `path` (unconditionally; OriginPool::migrate
  /// performs the fingerprint comparison).
  void set_path(scion::Path path) {
    conn_.set_path(path.dataplane());
    path_ = std::move(path);
  }
  [[nodiscard]] const scion::Path& path() const { return path_; }
  [[nodiscard]] const scion::ScionAddr& addr() const { return addr_; }
  [[nodiscard]] const std::string& host() const { return host_; }
  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  ScionHttpConnection conn_;
  scion::Path path_;
  scion::ScionAddr addr_;
  std::string host_;
  std::uint16_t port_;
};

}  // namespace pan::http
