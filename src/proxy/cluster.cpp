#include "proxy/cluster.hpp"

#include <algorithm>

#include "http/url.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace pan::proxy {

namespace {
constexpr std::string_view kLog = "fleet";
/// Consistent-hash ring points per replica (more = smoother spread).
constexpr std::size_t kVnodesPerReplica = 16;
/// Consecutive probe misses that mark a replica degraded / down.
constexpr std::size_t kProbeMissDegraded = 1;
constexpr std::size_t kProbeMissDown = 3;
/// EWMA weight of each answer (1 = error/timeout, 0 = success).
constexpr double kErrorEwmaAlpha = 0.2;
/// EWMA above this marks a healthy replica degraded; recovery at half.
constexpr double kDegradedErrorRate = 0.5;
/// Slack kept before the request deadline: the terminal 503 must win the
/// race against the replica's own 504 deadline timer.
constexpr Duration kFailoverMargin = milliseconds(50);
/// Retry-After advertised on a terminal fleet shed (503).
constexpr Duration kShedRetryAfter = seconds(1);

/// FNV-1a over the key, finished with a splitmix round so nearby keys
/// ("rep-0#1" / "rep-0#2") land far apart on the ring.
std::uint64_t ring_hash(std::string_view key) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

http::HttpResponse fleet_error(int status, const std::string& message) {
  http::HttpResponse response = http::make_text_response(status, message);
  response.headers.set("X-Skip-Error", message);
  return response;
}

}  // namespace

const char* to_string(ReplicaHealth health) {
  switch (health) {
    case ReplicaHealth::kHealthy: return "healthy";
    case ReplicaHealth::kDegraded: return "degraded";
    case ReplicaHealth::kDraining: return "draining";
    case ReplicaHealth::kDown: return "down";
  }
  return "?";
}

ProxyCluster::ProxyCluster(sim::Simulator& sim, net::Host& host, scion::ScionStack& stack,
                           scion::Daemon& daemon, const dns::Zone& zone, ClusterConfig config)
    : scope_(sim),
      host_(host),
      stack_(stack),
      daemon_(daemon),
      zone_(zone),
      config_(std::move(config)),
      fleet_series_(metrics_, obs::TimeSeriesConfig{}, sim.now()) {
  config_.replicas = std::max<std::size_t>(1, config_.replicas);
  replicas_.resize(config_.replicas);
  for (std::size_t i = 0; i < config_.replicas; ++i) {
    replicas_[i].name = config_.replica_name_prefix + std::to_string(i);
    build_replica(i);
    for (std::size_t v = 0; v < kVnodesPerReplica; ++v) {
      ring_.emplace_back(ring_hash(replicas_[i].name + "#" + std::to_string(v)), i);
    }
  }
  std::sort(ring_.begin(), ring_.end());
  update_health_gauges();
  // The prober heartbeat; runs for the cluster's whole life.
  if (config_.probe_interval > Duration::zero()) {
    scope_.schedule_after(config_.probe_interval, [this] { probe_all(); });
  }
}

void ProxyCluster::build_replica(std::size_t index) {
  Replica& rep = replicas_[index];
  rep.resolver = std::make_unique<dns::Resolver>(scope_.simulator(), zone_, config_.resolver);
  if (config_.on_resolver_created) config_.on_resolver_created(*rep.resolver);
  ProxyConfig proxy_config = config_.proxy;
  // Each replica's .prom exposition carries its own instance label so a
  // fleet scrape can tell the series apart.
  proxy_config.prom_instance = rep.name;
  rep.proxy = std::make_unique<SkipProxy>(scope_.simulator(), host_, stack_, daemon_,
                                          *rep.resolver, proxy_config);
  rep.hung = false;
  rep.overdue = false;
  rep.probe_misses = 0;
  rep.error_ewma = 0.0;
  rep.proxy->detector().set_learn_hook(
      [this, index](const std::string& domain, const scion::ScionAddr& addr,
                    Duration max_age, const std::string& identity) {
        broadcast_learn(index, domain, addr, max_age, identity);
      });
}

void ProxyCluster::broadcast_learn(std::size_t from, const std::string& domain,
                                   const scion::ScionAddr& addr, Duration max_age,
                                   const std::string& identity) {
  // Fan the learn (or withdrawal) out to every live peer through the
  // hook-free import path — a broadcast must never echo.
  bool any = false;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (i == from || replicas_[i].crashed()) continue;
    replicas_[i].proxy->detector().apply_learned(domain, addr, max_age, identity);
    any = true;
  }
  if (!any) return;
  if (max_age <= Duration::zero()) {
    count("fleet.cache_invalidations");
    event("cache-invalidate", replicas_[from].name + " withdrew " + domain);
  } else {
    count("fleet.cache_broadcasts");
  }
}

// --- routing ---------------------------------------------------------------

bool ProxyCluster::accepts(const Replica& rep, const std::string& origin_key) const {
  if (rep.crashed()) return false;
  if (rep.health == ReplicaHealth::kDown) return false;
  if (rep.draining) {
    // Draining replicas finish the origins they own; nothing new.
    const auto it = owners_.find(origin_key);
    return it != owners_.end() && replicas_[it->second].name == rep.name;
  }
  return true;
}

int ProxyCluster::route(const std::string& origin_key,
                        const std::vector<std::size_t>& tried) const {
  if (ring_.empty()) return -1;
  const std::uint64_t h = ring_hash(origin_key);
  auto it = std::lower_bound(ring_.begin(), ring_.end(),
                             std::make_pair(h, std::size_t{0}));
  // An overdue replica gets new work only when no punctual one accepts it:
  // with every candidate overdue, routing falls back to plain ring order.
  int fallback = -1;
  for (std::size_t step = 0; step < ring_.size(); ++step, ++it) {
    if (it == ring_.end()) it = ring_.begin();
    const std::size_t index = it->second;
    if (std::find(tried.begin(), tried.end(), index) != tried.end()) continue;
    if (!accepts(replicas_[index], origin_key)) continue;
    if (!replicas_[index].overdue) return static_cast<int>(index);
    if (fallback < 0) fallback = static_cast<int>(index);
  }
  return fallback;
}

std::string ProxyCluster::origin_key_of(const http::HttpRequest& request) const {
  if (const auto url = http::parse_url(request.target); url.ok()) {
    return url.value().authority();
  }
  if (const std::string host = request.host(); !host.empty()) return host;
  return request.target;
}

std::string ProxyCluster::owner_of(const std::string& origin_key) {
  const int index = route(origin_key, {});
  return index < 0 ? std::string{} : replicas_[static_cast<std::size_t>(index)].name;
}

Duration ProxyCluster::hedge_delay(const std::string& origin_key) const {
  const auto it = answer_rtt_.find(origin_key);
  return it == answer_rtt_.end() ? kFailoverTimeout
                                 : it->second.timeout(kFailoverTimeout);
}

// --- the request path ------------------------------------------------------

void ProxyCluster::fetch(http::HttpRequest request, ProxyRequestOptions options,
                         SkipProxy::FetchFn on_result) {
  if (strings::starts_with(request.target, "/skip/")) {
    if (strings::starts_with(request.target, "/skip/fleet")) {
      serve_fleet(request, std::move(options), on_result);
      return;
    }
    forward_internal(std::move(request), std::move(options), std::move(on_result));
    return;
  }

  count("fleet.requests");
  auto pending = std::make_shared<PendingRequest>();
  pending->id = next_request_id_++;
  pending->origin_key = origin_key_of(request);
  pending->request = std::move(request);
  pending->options = std::move(options);
  pending->on_result = std::move(on_result);
  pending->deadline = pending->options.deadline.value_or(
      scope_.now() + config_.proxy.request_timeout);
  pending->options.deadline = pending->deadline;

  const int index = route(pending->origin_key, pending->tried);
  if (index < 0) {
    count("fleet.no_replica");
    shed(pending, "no live replica for " + pending->origin_key);
    return;
  }
  pending_[pending->id] = pending;
  dispatch(pending, static_cast<std::size_t>(index));
}

void ProxyCluster::dispatch(const PendingPtr& pending, std::size_t replica_index) {
  Replica& rep = replicas_[replica_index];
  ProxyRequestOptions options = pending->options;
  if (!pending->tried.empty()) {
    // A hedged retry must not re-enter the original request's trace: the
    // replica mints a fresh one.
    options.trace = nullptr;
  }
  pending->replica_index = replica_index;
  pending->tried.push_back(replica_index);
  ++rep.dispatched;

  // Ownership accounting: the first dispatch of an origin to a different
  // replica than last time is a handoff (rebalance or failover rehash).
  const auto owner = owners_.find(pending->origin_key);
  if (owner == owners_.end()) {
    owners_[pending->origin_key] = replica_index;
  } else if (owner->second != replica_index) {
    count("fleet.handoffs");
    event("handoff", pending->origin_key + ": " + replicas_[owner->second].name + " -> " +
                         rep.name);
    owner->second = replica_index;
  }

  rep.proxy->fetch(
      pending->request, std::move(options),
      [this, pending, replica_index, sent_at = scope_.now()](ProxyResult result) {
        Replica& from = replicas_[replica_index];
        // A crashed replica's answers died with its proxy; a wedged
        // replica's never make it out of the box.
        if (from.hung) return;
        ++from.answered;
        from.overdue = false;  // it answers again, late or not
        const bool error = result.transport == TransportUsed::kError ||
                           result.response.status >= 500;
        // Late answers count too (that is how a slow origin raises its own
        // hedge delay); errors do not, as a fast failure says nothing about
        // how long a good answer takes.
        if (!error) answer_rtt_[pending->origin_key].on_sample(scope_.now() - sent_at);
        record_answer(replica_index, error);
        if (pending->done) return;  // a hedge already answered (first wins)
        deliver(pending, std::move(result));
      });
  arm_failover_timer(pending);
}

void ProxyCluster::arm_failover_timer(const PendingPtr& pending) {
  const TimePoint final_check = pending->deadline - kFailoverMargin;
  TimePoint when = std::min(final_check, scope_.now() + hedge_delay(pending->origin_key));
  if (when < scope_.now()) when = scope_.now();
  scope_.cancel(pending->failover_timer);
  pending->failover_timer = scope_.schedule_at(when, [this, pending] {
    replicas_[pending->replica_index].overdue = true;
    on_unanswered(pending, "timeout");
  });
}

void ProxyCluster::on_unanswered(const PendingPtr& pending, const char* reason) {
  if (pending->done) return;
  // An unanswered attempt is a passive health strike against its replica.
  record_answer(pending->replica_index, /*error=*/true);

  const TimePoint final_check = pending->deadline - kFailoverMargin;
  const bool budget_left = scope_.now() < final_check;
  const int next =
      budget_left && pending->failovers < kMaxFailovers
          ? route(pending->origin_key, pending->tried)
          : -1;
  if (next >= 0) {
    ++pending->failovers;
    count("fleet.failovers");
    event("failover", pending->origin_key + ": " + replicas_[pending->replica_index].name +
                          " (" + reason + ") -> " +
                          replicas_[static_cast<std::size_t>(next)].name);
    dispatch(pending, static_cast<std::size_t>(next));
    return;
  }
  if (budget_left) {
    // Out of replicas (or failovers) but not out of time: the in-flight
    // attempt may still answer. Re-arm a last check at the final instant.
    scope_.cancel(pending->failover_timer);
    pending->failover_timer = scope_.schedule_at(final_check, [this, pending] {
      shed(pending, "deadline exhausted at " + replicas_[pending->replica_index].name);
    });
    return;
  }
  shed(pending, std::string("deadline exhausted (") + reason + ")");
}

void ProxyCluster::shed(const PendingPtr& pending, const std::string& why) {
  if (pending->done) return;
  count("fleet.shed");
  event("shed", pending->origin_key + ": " + why);
  // Fail closed: strict or not, the fleet never answers with a downgraded
  // transport — the terminal answer is an honest 503 + Retry-After, inside
  // the deadline.
  ProxyResult result;
  result.transport = TransportUsed::kError;
  result.outcome = "fleet-shed";
  result.response =
      http::make_retry_after_response(503, kShedRetryAfter, "fleet: " + why);
  deliver(pending, std::move(result));
}

void ProxyCluster::deliver(const PendingPtr& pending, ProxyResult result) {
  if (pending->done) return;
  pending->done = true;
  scope_.cancel(pending->failover_timer);
  pending_.erase(pending->id);
  if (pending->on_result) pending->on_result(std::move(result));
}

// --- /skip/* control space -------------------------------------------------

void ProxyCluster::refresh_fleet_metrics() {
  // Scrape-time pull: live replicas contribute their current registry
  // directly; crashed ones keep whatever the probe channel last shipped.
  for (Replica& rep : replicas_) {
    if (rep.crashed()) continue;
    aggregator_.ingest(rep.name, rep.generation, rep.proxy->metrics(), scope_.now());
  }
  fleet_series_.observe(scope_.now());
}

void ProxyCluster::serve_fleet(const http::HttpRequest& request, ProxyRequestOptions options,
                               const SkipProxy::FetchFn& on_result) {
  (void)options;
  count("fleet.internal");
  fleet_series_.observe(scope_.now());
  ProxyResult result;
  result.transport = TransportUsed::kInternal;
  const auto [path_view, query] = http::split_target(request.target);
  const std::string path(path_view);
  if (request.method != "GET") {
    result.response = fleet_error(405, "method not allowed: " + request.method);
    result.response.headers.set("Allow", "GET");
  } else if (path == "/skip/fleet") {
    result.response =
        http::make_response(200, from_string(fleet_json()), "application/json");
  } else if (path == "/skip/fleet/metrics") {
    const std::string_view prefix = http::query_param(query, "prefix");
    const std::string_view window = http::query_param(query, "window");
    refresh_fleet_metrics();
    if (!window.empty()) {
      const auto window_ms = strings::parse_u64(window);
      if (!window_ms.ok()) {
        result.response = fleet_error(400, "bad window (want milliseconds): " +
                                               std::string(window));
      } else {
        result.response = http::make_response(
            200,
            from_string(fleet_series_.query_json(
                prefix, milliseconds(static_cast<std::int64_t>(window_ms.value())))),
            "application/json");
      }
    } else {
      result.response = http::make_response(200, from_string(aggregator_.fleet_json(prefix)),
                                            "application/json");
    }
  } else if (path == "/skip/fleet/metrics.prom") {
    refresh_fleet_metrics();
    const std::string_view prefix = http::query_param(query, "prefix");
    result.response = http::make_response(200, from_string(aggregator_.fleet_prom(prefix)),
                                          "text/plain; version=0.0.4");
  } else {
    result.response = fleet_error(404, "unknown fleet endpoint: " + path);
  }
  if (on_result) on_result(std::move(result));
}

void ProxyCluster::forward_internal(http::HttpRequest request, ProxyRequestOptions options,
                                    SkipProxy::FetchFn on_result) {
  count("fleet.internal");
  // Control requests go to the first replica that can answer at all
  // (draining replicas still serve their control surface).
  for (Replica& rep : replicas_) {
    if (rep.crashed() || rep.hung) continue;
    if (rep.health == ReplicaHealth::kDown) continue;
    rep.proxy->fetch(std::move(request), std::move(options), std::move(on_result));
    return;
  }
  ProxyResult result;
  result.transport = TransportUsed::kError;
  result.outcome = "fleet-shed";
  result.response = http::make_retry_after_response(503, kShedRetryAfter,
                                                    "fleet: no live replica");
  if (on_result) on_result(std::move(result));
}

// --- chaos surface ---------------------------------------------------------

ProxyCluster::Replica* ProxyCluster::find(const std::string& name) {
  for (Replica& rep : replicas_) {
    if (rep.name == name) return &rep;
  }
  return nullptr;
}

void ProxyCluster::crash_replica(const std::string& name) {
  Replica* rep = find(name);
  if (rep == nullptr || rep->crashed()) return;
  count("fleet.crashes");
  event("crash", name);
  PAN_TRACE(kLog) << "crash: " << name;
  rep->hung = false;
  ++rep->generation;
  // The process dies with everything it had scheduled (their scopes cancel
  // it); the proxy goes first, as it holds the resolver.
  rep->proxy.reset();
  rep->resolver.reset();
  set_health(*rep, ReplicaHealth::kDown, "crash");

  // In-flight requests on this replica will never answer; fail them over
  // now instead of waiting for their timers.
  const std::size_t index = static_cast<std::size_t>(rep - replicas_.data());
  std::vector<PendingPtr> orphans;
  for (const auto& [id, pending] : pending_) {
    if (!pending->done && pending->replica_index == index) orphans.push_back(pending);
  }
  for (const PendingPtr& pending : orphans) on_unanswered(pending, "crash");
}

void ProxyCluster::revive_replica(const std::string& name) {
  Replica* rep = find(name);
  if (rep == nullptr || !rep->crashed()) return;
  ++rep->generation;
  build_replica(static_cast<std::size_t>(rep - replicas_.data()));
  rep->draining = false;
  if (config_.warm_handoff) {
    restore_warm(*rep);
    count("fleet.restarts_warm");
  } else {
    count("fleet.restarts_cold");
  }
  set_health(*rep, ReplicaHealth::kHealthy,
             config_.warm_handoff ? "revive-warm" : "revive-cold");
  event("restart", name + (config_.warm_handoff ? " (warm)" : " (cold)"));
  PAN_TRACE(kLog) << "revive: " << name;
}

void ProxyCluster::restart_replica(const std::string& name) {
  crash_replica(name);
  revive_replica(name);
}

void ProxyCluster::set_replica_hung(const std::string& name, bool hung) {
  Replica* rep = find(name);
  if (rep == nullptr || rep->crashed() || rep->hung == hung) return;
  rep->hung = hung;
  event(hung ? "hang" : "unhang", name);
  if (hung) {
    count("fleet.hangs");
  } else {
    // The wedge cleared with no state loss; probes will restore health.
    rep->probe_misses = 0;
  }
}

void ProxyCluster::drain_replica(const std::string& name) {
  Replica* rep = find(name);
  if (rep == nullptr || rep->crashed() || rep->draining) return;
  count("fleet.drains");
  rep->draining = true;
  set_health(*rep, ReplicaHealth::kDraining, "drain");
  event("drain", name);
  // Snapshot now: a drained replica's warm state is the handoff payload.
  const std::size_t index = static_cast<std::size_t>(rep - replicas_.data());
  rep->snapshot.learned = rep->proxy->detector().export_learned();
  rep->snapshot.breakers = rep->proxy->breaker().export_entries();
  rep->snapshot.quarantines = rep->proxy->selector().quarantine_snapshot();
  rep->snapshot.taken = true;
  rep->snapshot.taken_at = scope_.now();
  const std::uint64_t generation = rep->generation;
  scope_.schedule_after(kDrainGrace,
                        [this, index, generation] { complete_drain(index, generation); });
}

void ProxyCluster::complete_drain(std::size_t index, std::uint64_t generation) {
  Replica& rep = replicas_[index];
  if (!rep.draining || rep.crashed() || rep.generation != generation) return;
  // Hand the owned origins off: erasing ownership lets the next request
  // re-route (and count the handoff); retiring the pooled SCION connections
  // force-closes what the grace period didn't finish.
  std::size_t handed_off = 0;
  for (auto it = owners_.begin(); it != owners_.end();) {
    if (it->second == index) {
      it = owners_.erase(it);
      ++handed_off;
    } else {
      ++it;
    }
  }
  for (const SkipProxy::PooledScionOrigin& origin : rep.proxy->scion_pool_snapshot()) {
    rep.proxy->scion_pool().retire(origin.key);
  }
  event("drain-complete", rep.name + ": " + std::to_string(handed_off) + " origin(s) handed off");
}

void ProxyCluster::undrain_replica(const std::string& name) {
  Replica* rep = find(name);
  if (rep == nullptr || rep->crashed() || !rep->draining) return;
  rep->draining = false;
  set_health(*rep, ReplicaHealth::kHealthy, "undrain");
  event("undrain", name);
}

void ProxyCluster::restore_warm(Replica& rep) {
  // Learned Strict-SCION availability: prefer a live peer's cache (the
  // shared-cache path — strictly fresher than any snapshot), fall back to
  // the replica's own last probe snapshot.
  bool imported = false;
  for (const Replica& peer : replicas_) {
    if (peer.name == rep.name || peer.crashed()) continue;
    rep.proxy->detector().import_learned(peer.proxy->detector().export_learned());
    imported = true;
    break;
  }
  if (!imported && rep.snapshot.taken) {
    rep.proxy->detector().import_learned(rep.snapshot.learned);
  }
  // Breaker and quarantine state is replica-local; the snapshot is the only
  // source. Restoring it keeps a revived replica from re-probing origins
  // and paths the fleet already knows are sick.
  if (rep.snapshot.taken) {
    rep.proxy->breaker().import_entries(rep.snapshot.breakers);
    for (const auto& [fingerprint, expires] : rep.snapshot.quarantines) {
      rep.proxy->selector().restore_quarantine(fingerprint, expires);
    }
  }
}

// --- health ----------------------------------------------------------------

void ProxyCluster::probe_all() {
  for (std::size_t i = 0; i < replicas_.size(); ++i) probe(i);
  fleet_series_.observe(scope_.now());
  scope_.schedule_after(config_.probe_interval, [this] { probe_all(); });
}

void ProxyCluster::probe(std::size_t index) {
  Replica& rep = replicas_[index];
  if (rep.crashed()) return;  // already down
  count("fleet.probes");
  auto answered = std::make_shared<bool>(false);
  const std::uint64_t generation = rep.generation;

  http::HttpRequest ping;
  ping.method = "GET";
  ping.target = "/skip/ping";
  ProxyRequestOptions options;
  options.deadline = scope_.now() + kProbeTimeout;
  rep.proxy->fetch(std::move(ping), std::move(options),
                   [this, index, answered](ProxyResult result) {
                     Replica& pinged = replicas_[index];
                     if (pinged.hung) return;
                     *answered = result.response.status == 200;
                     // A good probe is an answer: an overdue replica rejoins.
                     if (*answered) pinged.overdue = false;
                   });

  scope_.schedule_after(kProbeTimeout, [this, index, generation, answered] {
    Replica& rep = replicas_[index];
    if (rep.crashed() || rep.generation != generation) return;
    if (*answered) {
      rep.probe_misses = 0;
      // A live, answering replica: ship its warm state off-box. This is the
      // snapshot a later replica-restart revives from.
      rep.snapshot.learned = rep.proxy->detector().export_learned();
      rep.snapshot.breakers = rep.proxy->breaker().export_entries();
      rep.snapshot.quarantines = rep.proxy->selector().quarantine_snapshot();
      rep.snapshot.taken = true;
      rep.snapshot.taken_at = scope_.now();
      // Ship the replica's metrics registry on the same probe channel, so
      // the fleet view keeps the last-known state of replicas that later
      // crash without answering a scrape.
      aggregator_.ingest(rep.name, rep.generation, rep.proxy->metrics(), scope_.now());
      // A successful probe is a success sample: without this, a replica
      // whose EWMA was driven up by a since-cleared wedge would never earn
      // its way back (nobody routes to it, so no answers decay the EWMA).
      rep.error_ewma *= 1.0 - kErrorEwmaAlpha;
      if (!rep.draining &&
          (rep.health == ReplicaHealth::kDegraded || rep.health == ReplicaHealth::kDown) &&
          rep.error_ewma <= kDegradedErrorRate) {
        set_health(rep, ReplicaHealth::kHealthy, "probe-ok");
      }
      return;
    }
    ++rep.probe_misses;
    count("fleet.probe_misses");
    if (rep.probe_misses >= kProbeMissDown) {
      if (rep.health != ReplicaHealth::kDown) {
        set_health(rep, ReplicaHealth::kDown,
                   "probe-miss x" + std::to_string(rep.probe_misses));
      }
    } else if (rep.probe_misses >= kProbeMissDegraded && !rep.draining &&
               rep.health == ReplicaHealth::kHealthy) {
      set_health(rep, ReplicaHealth::kDegraded,
                 "probe-miss x" + std::to_string(rep.probe_misses));
    }
  });
}

void ProxyCluster::record_answer(std::size_t index, bool error) {
  Replica& rep = replicas_[index];
  rep.error_ewma = (1.0 - kErrorEwmaAlpha) * rep.error_ewma +
                   kErrorEwmaAlpha * (error ? 1.0 : 0.0);
  if (rep.crashed() || rep.draining) return;
  if (rep.health == ReplicaHealth::kHealthy &&
      rep.error_ewma > kDegradedErrorRate) {
    set_health(rep, ReplicaHealth::kDegraded,
               "error-ewma " + strings::format("%.2f", rep.error_ewma));
  } else if (rep.health == ReplicaHealth::kDegraded && rep.probe_misses == 0 &&
             rep.error_ewma < kDegradedErrorRate / 2.0) {
    set_health(rep, ReplicaHealth::kHealthy,
               "error-ewma " + strings::format("%.2f", rep.error_ewma));
  }
}

void ProxyCluster::set_health(Replica& rep, ReplicaHealth health, const std::string& why) {
  if (rep.health == health) return;
  event("health", rep.name + ": " + to_string(rep.health) + " -> " + to_string(health) +
                      " (" + why + ")");
  PAN_TRACE(kLog) << rep.name << ": " << to_string(rep.health) << " -> "
                  << to_string(health) << " (" << why << ")";
  rep.health = health;
  update_health_gauges();
}

void ProxyCluster::update_health_gauges() {
  std::size_t counts[4] = {0, 0, 0, 0};
  for (const Replica& rep : replicas_) {
    ++counts[static_cast<std::size_t>(rep.health)];
  }
  metrics_.gauge("fleet.replicas_healthy").set(static_cast<double>(counts[0]));
  metrics_.gauge("fleet.replicas_degraded").set(static_cast<double>(counts[1]));
  metrics_.gauge("fleet.replicas_draining").set(static_cast<double>(counts[2]));
  metrics_.gauge("fleet.replicas_down").set(static_cast<double>(counts[3]));
}

// --- introspection ---------------------------------------------------------

std::vector<std::string> ProxyCluster::replica_names() const {
  std::vector<std::string> names;
  names.reserve(replicas_.size());
  for (const Replica& rep : replicas_) names.push_back(rep.name);
  return names;
}

ReplicaHealth ProxyCluster::replica_health(const std::string& name) const {
  for (const Replica& rep : replicas_) {
    if (rep.name == name) return rep.health;
  }
  return ReplicaHealth::kDown;
}

SkipProxy* ProxyCluster::replica(const std::string& name) {
  Replica* rep = find(name);
  return rep == nullptr ? nullptr : rep->proxy.get();
}

std::string ProxyCluster::fleet_json() {
  std::string body = "{\"replicas\":{";
  bool first = true;
  for (const Replica& rep : replicas_) {
    if (!first) body += ",";
    first = false;
    body += strings::json_quote(rep.name) + ":{\"health\":\"" +
            std::string(to_string(rep.health)) + "\"" +
            ",\"generation\":" + std::to_string(rep.generation) +
            ",\"draining\":" + (rep.draining ? "true" : "false") +
            ",\"hung\":" + (rep.hung ? "true" : "false") +
            ",\"overdue\":" + (rep.overdue ? "true" : "false") +
            ",\"probe_misses\":" + std::to_string(rep.probe_misses) +
            ",\"error_ewma\":" + strings::format("%.4f", rep.error_ewma) +
            ",\"dispatched\":" + std::to_string(rep.dispatched) +
            ",\"answered\":" + std::to_string(rep.answered) +
            ",\"warm_snapshot\":" + (rep.snapshot.taken ? "true" : "false") + "}";
  }
  body += "},\"ring\":{\"vnodes\":" + std::to_string(ring_.size()) +
          ",\"replicas\":" + std::to_string(replicas_.size()) + "},\"owners\":{";
  first = true;
  for (const auto& [origin, index] : owners_) {
    if (!first) body += ",";
    first = false;
    body += strings::json_quote(origin) + ":" + strings::json_quote(replicas_[index].name);
  }
  const FleetStats stats = this->stats();
  body += "},\"stats\":{\"requests\":" + std::to_string(stats.requests) +
          ",\"failovers\":" + std::to_string(stats.failovers) +
          ",\"handoffs\":" + std::to_string(stats.handoffs) +
          ",\"shed\":" + std::to_string(stats.shed) +
          ",\"no_replica\":" + std::to_string(stats.no_replica) +
          ",\"crashes\":" + std::to_string(stats.crashes) +
          ",\"restarts_warm\":" + std::to_string(stats.restarts_warm) +
          ",\"restarts_cold\":" + std::to_string(stats.restarts_cold) +
          ",\"probes\":" + std::to_string(stats.probes) +
          ",\"probe_misses\":" + std::to_string(stats.probe_misses) +
          ",\"cache_broadcasts\":" + std::to_string(stats.cache_broadcasts) +
          ",\"cache_invalidations\":" + std::to_string(stats.cache_invalidations) +
          ",\"drains\":" + std::to_string(stats.drains) +
          ",\"in_flight\":" + std::to_string(pending_.size()) + "}}";
  return body;
}

FleetStats ProxyCluster::stats() const {
  FleetStats stats;
  stats.requests = metrics_.counter_value("fleet.requests");
  stats.internal = metrics_.counter_value("fleet.internal");
  stats.failovers = metrics_.counter_value("fleet.failovers");
  stats.handoffs = metrics_.counter_value("fleet.handoffs");
  stats.shed = metrics_.counter_value("fleet.shed");
  stats.no_replica = metrics_.counter_value("fleet.no_replica");
  stats.crashes = metrics_.counter_value("fleet.crashes");
  stats.restarts_warm = metrics_.counter_value("fleet.restarts_warm");
  stats.restarts_cold = metrics_.counter_value("fleet.restarts_cold");
  stats.probes = metrics_.counter_value("fleet.probes");
  stats.probe_misses = metrics_.counter_value("fleet.probe_misses");
  stats.cache_broadcasts = metrics_.counter_value("fleet.cache_broadcasts");
  stats.cache_invalidations = metrics_.counter_value("fleet.cache_invalidations");
  stats.drains = metrics_.counter_value("fleet.drains");
  return stats;
}

void ProxyCluster::count(const std::string& name) { metrics_.counter(name).inc(); }

void ProxyCluster::event(std::string_view kind, std::string detail) {
  metrics_.events().record(scope_.now(), "fleet", kind, std::move(detail));
}

}  // namespace pan::proxy
