// Experiment worlds: the paper's local setup (Figure 2) and distributed
// setup (Figure 4), plus a ClientSession helper bundling a per-trial browser
// + extension + SKIP proxy on the client host.
//
// Local world (Figure 2): everything in one AS — the browser host, a
// SCION-enabled file server, and a TCP/IP-only file server, connected
// through the AS router with sub-millisecond access links.
//
// Remote world (Figure 4): two ISDs. The client's ISD 1 contains core-1 and
// the client leaf AS (plus a "near" leaf AS used by Figure 6). ISD 2
// contains two core ASes and the server leaf AS. The direct core-1<->core-2a
// link is short in AS hops but long in latency; the detour over core-2b has
// more hops but far lower latency. BGP (shortest AS path) therefore routes
// via the slow direct link while SCION path selection finds the fast detour
// — reproducing Figure 5's "SCION wins on distant single-origin pages".
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/browser.hpp"
#include "fault/injector.hpp"
#include "http/file_server.hpp"
#include "proxy/cluster.hpp"
#include "proxy/reverse_proxy.hpp"
#include "scion/topology.hpp"

namespace pan::browser {

struct WorldConfig {
  std::uint64_t seed = 42;
  /// Latency jitter fraction on inter-AS links (gives PLT distributions).
  double link_jitter = 0.05;
  Duration dns_latency = milliseconds(4);
  /// Core-link bandwidth (lowered by the multipath bench to create a
  /// bandwidth-bound regime where path aggregation pays off) and
  /// parent-child link bandwidth (the shared access segment).
  double core_bandwidth_bps = 10e9;
  double child_bandwidth_bps = 10e9;
  /// Random loss rate on every inter-AS link (loss-recovery stress).
  double inter_as_loss = 0.0;
  /// Configuration for every reverse proxy the world builders stand up
  /// (overload/admission knobs included) — the surge benches toggle
  /// shedding on the shared server-side infrastructure through this.
  proxy::ReverseProxyConfig reverse_proxy;
  /// Multi-access client (remote world only): adds a second browser host
  /// ("browser-lte") in near-as so the client has two upstream links into
  /// different first-hop ASes. ClientSession then registers it as the "lte"
  /// access on its SkipProxy. The second access is asymmetric — slower and
  /// narrower than the wired primary — so intent-aware scheduling has
  /// something to choose between.
  bool multi_access = false;
  /// When set, every border router records its per-hop forward latency into
  /// a pre-registered `router.<ia>.forward_latency` histogram here. Must
  /// outlive the World.
  obs::MetricsRegistry* router_metrics = nullptr;
};

struct SiteOptions {
  bool legacy = true;             // serve over TCP-lite/IP (A record)
  bool native_scion = false;      // serve over QUIC-lite/SCION directly
  /// Publish the "scion=..." DNS TXT record for a native_scion site. false
  /// models an origin reachable over SCION but *detectable only via the
  /// learned Strict-SCION cache* (curated lists aside) — the fleet bench
  /// uses this to make cold-restart recovery genuinely expensive.
  bool advertise_scion_txt = true;
  bool strict_scion_header = false;
  Duration strict_scion_max_age = seconds(3600);
  Duration think_time = Duration::zero();
  std::uint16_t port = 80;
};

/// Owns the entire simulated world. Construct, add sites, then create
/// ClientSessions for trials.
class World {
 public:
  explicit World(WorldConfig config = {});
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] scion::Topology& topology() { return *topo_; }
  [[nodiscard]] dns::Zone& zone() { return zone_; }
  [[nodiscard]] dns::Resolver& resolver() { return *resolver_; }
  [[nodiscard]] const WorldConfig& config() const { return config_; }

  /// The designated client (browser) host; set by the builders below.
  scion::HostId client;
  /// Second access host ("browser-lte" in near-as) when
  /// WorldConfig::multi_access is set; empty otherwise.
  std::optional<scion::HostId> client_lte;

  /// Hosts a site on `host` under `domain` per the options. Returns the file
  /// server so callers can add pages/blobs.
  http::FileServer& add_site(scion::HostId host, const std::string& domain,
                             const SiteOptions& options = {});

  /// Adds a SCION reverse proxy on `proxy_host` fronting `backend_domain`'s
  /// legacy server on `backend_host`; updates DNS so SCION detection finds
  /// the proxy (the paper's deployment for legacy servers).
  proxy::ReverseProxy& add_reverse_proxy(scion::HostId proxy_host,
                                         const std::string& backend_domain,
                                         scion::HostId backend_host,
                                         const proxy::ReverseProxyConfig& config = {});

  [[nodiscard]] http::FileServer* site(const std::string& domain);

  /// The world's chaos controller. Topology is attached at construction;
  /// origins are attached lazily by schedule_chaos; session resolvers attach
  /// themselves (ClientSession does this automatically).
  [[nodiscard]] fault::FaultInjector& injector() { return *injector_; }

  /// Parses a fault-plan script (see fault/fault.hpp for the line format),
  /// attaches every known site as a fault target, and schedules the plan on
  /// the sim clock. Returns an error on a malformed plan.
  Status schedule_chaos(const std::string& plan_text);

 private:
  WorldConfig config_;
  sim::Simulator sim_;
  // Declared before (so destroyed after) everything the injector's pull
  // hooks may still reference through scheduled events.
  std::unique_ptr<fault::FaultInjector> injector_;
  dns::Zone zone_;
  std::unique_ptr<scion::Topology> topo_;
  std::unique_ptr<dns::Resolver> resolver_;
  std::vector<std::unique_ptr<http::FileServer>> file_servers_;
  std::unordered_map<std::string, http::FileServer*> sites_;
  std::vector<std::unique_ptr<http::LegacyHttpServer>> legacy_servers_;
  std::vector<std::unique_ptr<http::ScionHttpServer>> scion_servers_;
  std::vector<std::unique_ptr<proxy::ReverseProxy>> reverse_proxies_;
};

/// Figure 2's world. Hosts: "browser" (client), "scion-fs", "tcpip-fs".
/// Domains: scion-fs.local (SCION-only), tcpip-fs.local (IP-only).
/// (Returned by pointer: the World owns the simulator its members reference,
/// so it must never move.)
[[nodiscard]] std::unique_ptr<World> make_local_world(const WorldConfig& config = {});

/// Figure 4's world. Client in 1-ff00:0:111. Far site www.far.example in
/// 2-ff00:0:211 (legacy + SCION reverse proxy nearby), plus
/// static.far.example on a second host there. Near site www.near.example in
/// 1-ff00:0:112. BGP takes the slow direct core link; SCION can detour.
[[nodiscard]] std::unique_ptr<World> make_remote_world(const WorldConfig& config = {});

/// A per-trial client bundle: SKIP proxy + extension + browser on the
/// world's client host. Fresh per trial so connection setup counts toward
/// PLT, exactly like a cold browser visit.
class ClientSession {
 public:
  explicit ClientSession(World& world, proxy::ProxyConfig proxy_config = {},
                         BrowserConfig browser_config = {});

  [[nodiscard]] proxy::SkipProxy& proxy() { return *proxy_; }
  [[nodiscard]] BrowserExtension& extension() { return *extension_; }
  [[nodiscard]] Browser& browser() { return *browser_; }

  /// Loads a page and runs the simulator until it settles.
  PageLoadResult load(const std::string& url);

 private:
  World& world_;
  std::unique_ptr<dns::Resolver> resolver_;  // per-session resolver (cold cache)
  std::unique_ptr<proxy::SkipProxy> proxy_;
  std::unique_ptr<BrowserExtension> extension_;
  std::unique_ptr<Browser> browser_;
};

/// A proxy *fleet* on the world's client host: a proxy::ProxyCluster wired
/// into the world's chaos plumbing. The session translates the
/// replica-crash / replica-hang / replica-restart fault verbs into cluster
/// calls (it registers as the injector's replica hook) and attaches the
/// injector's DNS brownout table to every per-replica resolver the cluster
/// creates — including the fresh resolver a revived replica gets.
class FleetSession {
 public:
  explicit FleetSession(World& world, proxy::ClusterConfig config = {});
  ~FleetSession();

  FleetSession(const FleetSession&) = delete;
  FleetSession& operator=(const FleetSession&) = delete;

  [[nodiscard]] proxy::ProxyCluster& cluster() { return *cluster_; }

  /// Fetches `url` through the cluster and runs the sim until it settles.
  proxy::ProxyResult fetch(const std::string& url, bool strict = false);

 private:
  World& world_;
  std::unique_ptr<proxy::ProxyCluster> cluster_;
};

/// Deterministic load generator behind the `surge` fault verb: while a surge
/// event is active it launches `GET http://<domain><path>` requests through
/// a SKIP proxy (or a whole ProxyCluster) at the event's rate, capped at the
/// event's concurrency, tagged as probe-class traffic from the "surge"
/// client so admission control can recognize (and shed) it. One SurgeLoad
/// drives one world's surges; it registers itself as the injector's surge
/// hook.
class SurgeLoad {
 public:
  SurgeLoad(World& world, proxy::SkipProxy& proxy);
  /// Fleet variant: requests route through the cluster front (consistent
  /// hashing + failover) instead of a single proxy.
  SurgeLoad(World& world, proxy::ProxyCluster& cluster);
  ~SurgeLoad();

  SurgeLoad(const SurgeLoad&) = delete;
  SurgeLoad& operator=(const SurgeLoad&) = delete;

  /// Path requested on the surged domain (default "/").
  void set_target_path(std::string path) { path_ = std::move(path); }
  /// Per-request deadline budget (default 2s).
  void set_request_deadline(Duration deadline) { request_deadline_ = deadline; }

  struct Stats {
    std::uint64_t launched = 0;
    std::uint64_t completed = 0;  // 2xx
    std::uint64_t rejected = 0;   // 429 / 503 (admission or shed)
    std::uint64_t timed_out = 0;  // 504 (hung to deadline — the bad outcome)
    std::uint64_t failed = 0;     // everything else
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t in_flight() const { return in_flight_; }

 private:
  void on_event(const fault::FaultEvent& event, bool active);
  void tick();

  /// Erased fetch target: SkipProxy::fetch or ProxyCluster::fetch.
  using FetchTarget =
      std::function<void(http::HttpRequest, proxy::ProxyRequestOptions, proxy::SkipProxy::FetchFn)>;
  SurgeLoad(World& world, FetchTarget fetch);

  World& world_;
  FetchTarget fetch_;
  Stats stats_;
  std::string domain_;
  std::string path_ = "/";
  Duration request_deadline_ = seconds(2);
  double rate_ = 0.0;
  std::size_t concurrency_ = 0;
  std::size_t in_flight_ = 0;
  bool active_ = false;
  /// Fetch callbacks stay with a proxy we do not own, so they check this.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  sim::Scope scope_;  // the tick loop dies with the generator
};

/// The extension-disabled baseline browser ("BGP/IP-Only").
class DirectSession {
 public:
  explicit DirectSession(World& world, BrowserConfig browser_config = {});

  [[nodiscard]] Browser& browser() { return *browser_; }
  PageLoadResult load(const std::string& url);

 private:
  World& world_;
  std::unique_ptr<dns::Resolver> resolver_;
  std::unique_ptr<Browser> browser_;
};

}  // namespace pan::browser
