// ProxyCluster: a sharded SKIP proxy fleet (ROADMAP item 1).
//
// N SkipProxy replicas behind a consistent-hash-by-origin front. The paper's
// deployment model — one local proxy per browser — caps at a single user;
// this front scales the same pipeline horizontally while keeping the SKIP
// layer's degradation story intact:
//
//   * Routing: each origin hashes onto a vnode ring (vnodes_per_replica
//     points per replica), so adding or losing a replica remaps only the
//     origins it owned. Requests for /skip/* control endpoints go to the
//     first live replica; GET /skip/fleet is answered by the cluster itself.
//
//   * Health: a per-replica state machine (healthy -> degraded -> draining
//     -> down) driven by active /skip/ping probes (probe_interval apart,
//     probe_timeout budget) plus a passive error/timeout EWMA over the
//     replica's answers. Crashes (the replica-crash fault verb) drop a
//     replica straight to down.
//
//   * Failover: an in-flight request unanswered after its origin's hedge
//     delay is hedged onto the next live replica on the ring, within the
//     request's original deadline budget — never past it. The hedge delay is
//     measured, not configured: an RFC 9002-style smoothed answer latency
//     per origin (srtt + max(4*rttvar, 1ms)), capped at kFailoverTimeout,
//     which is also the delay before an origin's first answer. A replica
//     whose attempt timed out is overdue: it takes no new requests while a
//     live peer does, until it answers anything (a late answer, another
//     request, a probe). When the budget (or the replica set) is exhausted
//     the request sheds with 503 + Retry-After. Strict-mode origins fail
//     closed exactly like the single-proxy pipeline: the cluster never
//     downgrades a Strict-SCION pin to IP.
//
//   * Shared detection cache: every replica's ScionDetector learn() is
//     broadcast (hook-free apply_learned) to its peers, withdrawals
//     included, so one replica learning a Strict-SCION origin teaches the
//     fleet — and a successor replica inherits learned origins instead of
//     re-probing them.
//
//   * Warm handoff: the prober snapshots each replica's warm state (learned
//     detector cache, circuit-breaker entries, path quarantines) on every
//     successful probe. replica-restart revives a replica from the freshest
//     of a live peer's cache and that snapshot (warm_handoff=true), or
//     completely cold (false) for ablation.
//
//   * Draining: drain_replica() stops routing *new* origins to a replica;
//     origins it already owns keep flowing for kDrainGrace, then ownership
//     is handed off and its pooled SCION connections are retired.
//
// Every transition lands in the fleet registry's FlightRecorder ring and
// the fleet.* counters; GET /skip/fleet dumps replica health, ring and
// ownership state, and the counters as JSON.
//
// The cluster deliberately does not depend on src/fault: scenario worlds
// translate the replica-crash / replica-hang / replica-restart fault verbs
// into the crash/hang/restart calls below (see browser::FleetSession).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dns/dns.hpp"
#include "proxy/fleet_metrics.hpp"
#include "proxy/skip_proxy.hpp"
#include "util/rtt_estimator.hpp"

namespace pan::proxy {

enum class ReplicaHealth : std::uint8_t { kHealthy, kDegraded, kDraining, kDown };

[[nodiscard]] const char* to_string(ReplicaHealth health);

struct ClusterConfig {
  std::size_t replicas = 4;
  /// Replica names are "<prefix><index>" ("rep-0", ...). Tests inject
  /// hostile prefixes to exercise /skip/fleet JSON quoting.
  std::string replica_name_prefix = "rep-";

  /// Active health probe period (zero disables the probe loop).
  Duration probe_interval = milliseconds(250);

  // --- warm handoff ---
  /// Restore learned/breaker/quarantine state on replica-restart; false =
  /// cold restart (the ablation arm of bench_fleet_scale).
  bool warm_handoff = true;

  /// Per-replica SkipProxy configuration (metrics/collector semantics as in
  /// ProxyConfig: null = each replica owns a private registry).
  ProxyConfig proxy;
  /// Per-replica resolver configuration. Each replica owns its resolver —
  /// a restarted replica loses its DNS cache like a real process would.
  dns::ResolverConfig resolver;
  /// Called for every resolver the cluster creates (construction and every
  /// replica revival). Scenario worlds hook the fault injector's DNS
  /// brownout table in here without the proxy layer depending on src/fault.
  std::function<void(dns::Resolver&)> on_resolver_created;
};

/// Fleet counters, read back from the registry for ergonomic assertions.
struct FleetStats {
  std::uint64_t requests = 0;
  std::uint64_t internal = 0;
  std::uint64_t failovers = 0;
  std::uint64_t handoffs = 0;
  std::uint64_t shed = 0;
  std::uint64_t no_replica = 0;
  std::uint64_t crashes = 0;
  std::uint64_t restarts_warm = 0;
  std::uint64_t restarts_cold = 0;
  std::uint64_t probes = 0;
  std::uint64_t probe_misses = 0;
  std::uint64_t cache_broadcasts = 0;
  std::uint64_t cache_invalidations = 0;
  std::uint64_t drains = 0;
};

class ProxyCluster {
 public:
  /// Hedged re-dispatches per request after the first attempt.
  static constexpr std::size_t kMaxFailovers = 2;
  /// Cap on the measured hedge delay, and the delay itself until an origin
  /// has its first successful answer: how long an attempt may go unanswered
  /// before hedging to the next replica (clamped so the last check still
  /// beats the deadline).
  static constexpr Duration kFailoverTimeout = milliseconds(400);
  /// How long a draining replica keeps serving the origins it owns before
  /// ownership is handed off and its pooled connections are retired.
  static constexpr Duration kDrainGrace = milliseconds(500);
  /// Budget of one active health probe: a probe unanswered after this long
  /// is a miss.
  static constexpr Duration kProbeTimeout = milliseconds(200);

  ProxyCluster(sim::Simulator& sim, net::Host& host, scion::ScionStack& stack,
               scion::Daemon& daemon, const dns::Zone& zone, ClusterConfig config = {});

  ProxyCluster(const ProxyCluster&) = delete;
  ProxyCluster& operator=(const ProxyCluster&) = delete;

  /// Same shape as SkipProxy::fetch so browsers / load generators can drive
  /// either. Routes by origin, fails over, and never outlives the deadline.
  void fetch(http::HttpRequest request, ProxyRequestOptions options,
             SkipProxy::FetchFn on_result);

  // --- chaos surface (wired to the replica-* fault verbs by the world) ---
  /// Kills the replica process, destroying its proxy and resolver (never
  /// call it from their callbacks): in-flight requests fail over at once
  /// and the ring routes around it.
  void crash_replica(const std::string& name);
  /// Revives a crashed replica (the revert of replica-crash): a fresh
  /// process, warm or cold per ClusterConfig::warm_handoff.
  void revive_replica(const std::string& name);
  /// Wedges (true) / unwedges (false) a replica: it keeps accepting work
  /// but none of its answers ever arrive. Probes miss; failover rescues.
  void set_replica_hung(const std::string& name, bool hung);
  /// One-shot bounce: crash + revive at once (the replica-restart verb).
  void restart_replica(const std::string& name);
  /// Starts draining: no new origins; owned origins hand off after
  /// kDrainGrace and pooled SCION connections are retired.
  void drain_replica(const std::string& name);
  /// Returns a draining (not crashed) replica to service.
  void undrain_replica(const std::string& name);

  // --- introspection ---
  [[nodiscard]] std::size_t replica_count() const { return replicas_.size(); }
  [[nodiscard]] std::vector<std::string> replica_names() const;
  [[nodiscard]] ReplicaHealth replica_health(const std::string& name) const;
  /// The live SkipProxy behind `name` (nullptr when crashed or unknown).
  [[nodiscard]] SkipProxy* replica(const std::string& name);
  /// The replica `origin_key` ("host" or "host:port") currently routes to
  /// (empty when no replica accepts it). Does not change ownership.
  [[nodiscard]] std::string owner_of(const std::string& origin_key);
  /// How long a new attempt for `origin_key` may go unanswered before it is
  /// hedged: the measured answer latency's timeout, capped at (and, before
  /// the first answer, equal to) kFailoverTimeout.
  [[nodiscard]] Duration hedge_delay(const std::string& origin_key) const;
  /// The GET /skip/fleet payload.
  [[nodiscard]] std::string fleet_json();
  [[nodiscard]] FleetStats stats() const;
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const ClusterConfig& config() const { return config_; }
  /// The merged fleet metrics plane. Snapshots ship on the probe channel;
  /// refresh_fleet_metrics() additionally pulls every live replica now
  /// (what a GET /skip/fleet/metrics scrape does before answering).
  [[nodiscard]] FleetMetricsAggregator& fleet_metrics() { return aggregator_; }
  void refresh_fleet_metrics();
  /// Time-series store over the fleet registry's counters.
  [[nodiscard]] obs::TimeSeriesStore& timeseries() { return fleet_series_; }

 private:
  struct WarmState {
    std::vector<ScionDetector::ExportedEntry> learned;
    std::vector<CircuitBreaker::ExportedEntry> breakers;
    std::vector<std::pair<std::string, TimePoint>> quarantines;
    bool taken = false;
    TimePoint taken_at;
  };

  struct Replica {
    std::string name;
    std::unique_ptr<dns::Resolver> resolver;
    std::unique_ptr<SkipProxy> proxy;  ///< destroyed on crash, rebuilt on revive
    ReplicaHealth health = ReplicaHealth::kHealthy;
    bool hung = false;
    bool draining = false;
    /// An attempt on it timed out; cleared by any answer from it. Routing
    /// passes an overdue replica over while another one accepts the work.
    bool overdue = false;
    /// Bumped on crash and restart; cluster timers armed for an older
    /// generation (probe timeouts, drain completion) stand down.
    std::uint64_t generation = 0;
    std::size_t probe_misses = 0;
    double error_ewma = 0.0;
    /// Last warm snapshot the prober shipped off-box.
    WarmState snapshot;
    std::uint64_t dispatched = 0;
    std::uint64_t answered = 0;

    [[nodiscard]] bool crashed() const { return proxy == nullptr; }
  };

  struct PendingRequest {
    std::uint64_t id = 0;
    http::HttpRequest request;  ///< original, re-submitted on failover
    ProxyRequestOptions options;
    SkipProxy::FetchFn on_result;
    TimePoint deadline;
    std::string origin_key;
    std::size_t replica_index = 0;
    std::size_t failovers = 0;
    std::vector<std::size_t> tried;
    /// The one pending failover (or final-check) timer; every re-arm and
    /// deliver() cancels it.
    sim::EventId failover_timer = sim::kInvalidEventId;
    bool done = false;
  };
  using PendingPtr = std::shared_ptr<PendingRequest>;

  /// True when `rep` may take a *new* request for `origin_key`.
  [[nodiscard]] bool accepts(const Replica& rep, const std::string& origin_key) const;
  /// Ring walk from hash(origin_key); skips `tried` indices and prefers
  /// replicas that are not overdue. -1 = nobody.
  [[nodiscard]] int route(const std::string& origin_key,
                          const std::vector<std::size_t>& tried) const;
  [[nodiscard]] std::string origin_key_of(const http::HttpRequest& request) const;

  void dispatch(const PendingPtr& pending, std::size_t replica_index);
  void arm_failover_timer(const PendingPtr& pending);
  /// A failover check fired (or a crash forced one): hedge or shed.
  void on_unanswered(const PendingPtr& pending, const char* reason);
  void shed(const PendingPtr& pending, const std::string& why);
  void deliver(const PendingPtr& pending, ProxyResult result);

  void serve_fleet(const http::HttpRequest& request, ProxyRequestOptions options,
                   const SkipProxy::FetchFn& on_result);
  /// Forwards a non-fleet /skip/* control request to the first live replica.
  void forward_internal(http::HttpRequest request, ProxyRequestOptions options,
                        SkipProxy::FetchFn on_result);

  void build_replica(std::size_t index);
  void broadcast_learn(std::size_t from, const std::string& domain,
                       const scion::ScionAddr& addr, Duration max_age,
                       const std::string& identity);
  void restore_warm(Replica& rep);
  void complete_drain(std::size_t index, std::uint64_t generation);

  void probe_all();
  void probe(std::size_t index);
  void record_answer(std::size_t index, bool error);
  void set_health(Replica& rep, ReplicaHealth health, const std::string& why);
  void update_health_gauges();
  void count(const std::string& name);
  void event(std::string_view kind, std::string detail);

  [[nodiscard]] Replica* find(const std::string& name);

  /// Prober, failover and drain timers. Callbacks handed to a replica's
  /// proxy need no guard: the cluster owns the proxy.
  sim::Scope scope_;
  net::Host& host_;
  scion::ScionStack& stack_;
  scion::Daemon& daemon_;
  const dns::Zone& zone_;
  ClusterConfig config_;
  /// Fleet-level registry: fleet.* counters, health gauges, and the
  /// FlightRecorder ring.
  obs::MetricsRegistry metrics_;
  FleetMetricsAggregator aggregator_;
  obs::TimeSeriesStore fleet_series_;  // over metrics_; must follow it

  std::vector<Replica> replicas_;

  /// (hash, replica index), sorted by hash.
  std::vector<std::pair<std::uint64_t, std::size_t>> ring_;
  /// origin_key -> replica index of the last dispatch (handoff accounting
  /// and drain stickiness). std::map for deterministic /skip/fleet dumps.
  std::map<std::string, std::size_t> owners_;
  /// origin_key -> smoothed latency of its successful answers, each timed
  /// from its own attempt's dispatch. Drives the hedge delay.
  std::map<std::string, RttEstimator> answer_rtt_;

  std::map<std::uint64_t, PendingPtr> pending_;
  std::uint64_t next_request_id_ = 1;
};

}  // namespace pan::proxy
