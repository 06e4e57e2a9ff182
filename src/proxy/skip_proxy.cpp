#include "proxy/skip_proxy.hpp"

#include <algorithm>

#include "http/strict_scion.hpp"
#include "proxy/negotiation.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace pan::proxy {

namespace {
constexpr std::string_view kLog = "skip";
constexpr std::string_view kInternalPrefix = "/skip/";
/// Name the ctor's host/stack take in the access bundle once add_access()
/// turns multi-access on.
constexpr std::string_view kPrimaryAccess = "primary";
/// Idle pooled connections (legacy and SCION) are evicted after this long.
constexpr Duration kPoolIdleTtl = seconds(60);
/// Consecutive fetch failures against one origin before its pool trips a
/// cool-down during which requests fast-fail.
constexpr std::size_t kPoolBackoffThreshold = 3;
constexpr Duration kPoolBackoffCooldown = seconds(5);
/// Exponential backoff between SCION attempts: base * factor^(attempt-1),
/// with deterministic +/- jitter so retries across requests decorrelate.
constexpr Duration kRetryBackoffBase = milliseconds(40);
constexpr double kRetryBackoffFactor = 2.0;
constexpr double kRetryJitterFrac = 0.2;
constexpr std::uint64_t kRetryJitterSeed = 0x5eed;
/// Deadline budget reserved for the legacy fallback: opportunistic
/// requests with a legacy address stop retrying SCION early enough to
/// still complete over IP within the deadline.
constexpr Duration kFallbackMargin = seconds(2);
/// Retry-After advertised when strict mode exhausts its retries (503).
constexpr Duration kStrictRetryAfter = seconds(1);
/// After rotate_identity(), the released fingerprints stay off-limits to
/// the rotating identity for this long so re-brokering lands on fresh
/// paths instead of trivially re-claiming the old ones.
constexpr Duration kIdentityQuarantineTtl = seconds(30);
/// Adaptive per-origin concurrency for the legacy pool (AIMD).
constexpr AimdConfig kLegacyAimd{};
/// Same for the multiplexed SCION pool, whose outstanding requests were
/// previously unbounded.
constexpr AimdConfig kScionAimd{.min_limit = 2, .max_limit = 64};

http::HttpResponse synthetic_error(int status, const std::string& message) {
  http::HttpResponse response = http::make_text_response(status, message);
  response.headers.set("X-Skip-Error", message);
  return response;
}

/// Every replica of a fleet starts from kRetryJitterSeed, and
/// identically-seeded Rngs would make every replica compute the *same*
/// backoff jitter — after a shared fault the whole fleet retries in
/// synchronized waves, defeating the jitter. Salt the seed with a
/// process-wide instance number (same device as make_trace()'s trace-id
/// salt; the sim is single-threaded, so this stays deterministic).
std::uint64_t salted_jitter_seed() {
  static std::uint64_t instance_seq = 0;
  return kRetryJitterSeed ^ (0x9e3779b97f4a7c15ULL * ++instance_seq);
}

/// The /skip/ control space is GET-only: exact endpoints plus the two
/// parameterized prefixes. Used to answer 405 (not 404) on known paths.
bool is_known_internal_endpoint(std::string_view target) {
  static constexpr std::string_view kExact[] = {
      "/skip/metrics", "/skip/pool",     "/skip/health", "/skip/traces",
      "/skip/identity", "/skip/debug",   "/skip/ping",   "/skip/access",
      "/skip/metrics.prom",
  };
  static constexpr std::string_view kPrefixes[] = {"/skip/trace/", "/skip/identity/rotate/"};
  for (const std::string_view endpoint : kExact) {
    if (target == endpoint) return true;
  }
  for (const std::string_view prefix : kPrefixes) {
    if (strings::starts_with(target, prefix)) return true;
  }
  return false;
}

}  // namespace

const char* to_string(TransportUsed t) {
  switch (t) {
    case TransportUsed::kScion: return "scion";
    case TransportUsed::kIp: return "ip";
    case TransportUsed::kBlocked: return "blocked";
    case TransportUsed::kError: return "error";
    case TransportUsed::kInternal: return "internal";
  }
  return "?";
}

Duration ProxyResult::phase_total(std::string_view phase) const {
  Duration sum = Duration::zero();
  for (const obs::SpanRecord& span : spans) {
    if (span.name == phase) sum += span.duration;
  }
  return sum;
}

http::OriginPoolConfig SkipProxy::legacy_pool_config(const ProxyConfig& config,
                                                     http::ConcurrencyLimiter* limiter) {
  http::OriginPoolConfig pool;
  pool.name = "legacy";
  pool.max_conns_per_origin = config.max_legacy_conns_per_origin;
  pool.max_outstanding_per_conn = 1;  // browser-like: no pipelining
  pool.idle_ttl = kPoolIdleTtl;
  pool.queue_timeout = config.request_timeout;
  pool.backoff_threshold = kPoolBackoffThreshold;
  pool.backoff_cooldown = kPoolBackoffCooldown;
  pool.limiter = limiter;
  pool.deadline_shed = config.overload.enabled;
  return pool;
}

http::OriginPoolConfig SkipProxy::scion_pool_config(const ProxyConfig& config,
                                                    http::ConcurrencyLimiter* limiter) {
  http::OriginPoolConfig pool;
  pool.name = "scion";
  pool.max_conns_per_origin = 1;     // one QUIC connection per origin...
  pool.max_outstanding_per_conn = 0;  // ...multiplexing all requests
  pool.idle_ttl = kPoolIdleTtl;
  pool.queue_timeout = config.request_timeout;
  pool.backoff_threshold = kPoolBackoffThreshold;
  pool.backoff_cooldown = kPoolBackoffCooldown;
  pool.limiter = limiter;
  pool.deadline_shed = config.overload.enabled;
  return pool;
}

http::SubmitOptions SkipProxy::submit_options(const RequestState& req) const {
  http::SubmitOptions options;
  // With the overload layer ablated, queue ordering degrades to plain FIFO
  // (all one class); the deadline still rides along for the always-on
  // expired-dispatch check.
  if (config_.overload.enabled) {
    options.priority = static_cast<std::uint8_t>(req.priority);
  }
  options.deadline = req.deadline;
  return options;
}

SkipProxy::SkipProxy(sim::Simulator& sim, net::Host& host, scion::ScionStack& stack,
                     scion::Daemon& daemon, dns::Resolver& resolver, ProxyConfig config)
    : scope_(sim),
      host_(host),
      stack_(stack),
      resolver_(resolver),
      config_(config),
      owned_metrics_(config.metrics == nullptr ? std::make_unique<obs::MetricsRegistry>()
                                               : nullptr),
      metrics_(config.metrics != nullptr ? config.metrics : owned_metrics_.get()),
      owned_collector_(config.collector == nullptr
                           ? std::make_unique<obs::TraceCollector>(config.collector_config)
                           : nullptr),
      collector_(config.collector != nullptr ? config.collector : owned_collector_.get()),
      slo_(*metrics_),
      timeseries_(*metrics_, obs::TimeSeriesConfig{}, sim.now()),
      detector_(sim, resolver),
      selector_(daemon, metrics_),
      breaker_(sim,
               CircuitBreakerConfig{.failure_threshold = config_.breaker_threshold,
                                    .open_ttl = config_.breaker_open_ttl},
               metrics_),
      identities_(sim, *metrics_),
      retry_rng_(salted_jitter_seed()),
      overload_(sim, *metrics_, config_.overload),
      legacy_limiter_("legacy", kLegacyAimd, *metrics_),
      scion_limiter_("scion", kScionAimd, *metrics_),
      legacy_pool_(sim, *metrics_,
                   legacy_pool_config(config_,
                                      config_.overload.enabled ? &legacy_limiter_ : nullptr)),
      scion_pool_(sim, *metrics_,
                  scion_pool_config(config_,
                                    config_.overload.enabled ? &scion_limiter_ : nullptr)) {
  legacy_limiter_.set_simulator(&scope_.simulator());
  scion_limiter_.set_simulator(&scope_.simulator());
  scmp_subscription_ = stack_.subscribe_scmp(
      [this](const scion::ScmpMessage& message) { on_scmp(message); });
  for (obs::SloObjective& objective : obs::SloMonitor::default_proxy_objectives()) {
    slo_.add(std::move(objective));
  }
}

SkipProxy::~SkipProxy() {
  stack_.unsubscribe_scmp(scmp_subscription_);
  for (const auto& [stack, subscription] : access_scmp_subscriptions_) {
    stack->unsubscribe_scmp(subscription);
  }
}

void SkipProxy::add_access(const std::string& name, net::Host& host,
                           scion::ScionStack& stack, scion::Daemon& daemon) {
  if (multi_access_ == nullptr) {
    multi_access_ = std::make_unique<net::MultiAccessHost>(scope_.simulator(), config_.access);
    // The constructor attachment is the primary access; it keeps winning
    // deterministic ties until the probes measure otherwise.
    multi_access_->add_access(std::string(kPrimaryAccess), host_);
    access_stacks_[std::string(kPrimaryAccess)] = &stack_;
    access_health_subscription_ = multi_access_->subscribe(
        [this](const std::string& access, net::AccessHealth previous,
               net::AccessHealth current) { on_access_health(access, previous, current); });
  }
  if (multi_access_->has_access(name)) return;
  multi_access_->add_access(name, host);
  access_stacks_[name] = &stack;
  selector_.add_access_daemon(name, daemon);
  // SCMP arriving over the new access feeds the same revocation/migration
  // handler as the primary stack's.
  access_scmp_subscriptions_.emplace_back(
      &stack,
      stack.subscribe_scmp([this](const scion::ScmpMessage& message) { on_scmp(message); }));
  multi_access_->start_probes();
}

std::string SkipProxy::pick_access(const RequestState& req) {
  const net::FetchIntent effective =
      config_.intent_aware ? req.intent : net::FetchIntent::kBulk;
  if (const auto pin = config_.pin_intent_access.find(to_string(effective));
      pin != config_.pin_intent_access.end()) {
    if (multi_access_->has_access(pin->second) &&
        multi_access_->health(pin->second) != net::AccessHealth::kDown) {
      return pin->second;
    }
  }
  // Soft-avoid the access the previous attempt rode: a retry should try the
  // other first-hop AS when one is usable.
  return multi_access_->pick(effective, req.access);
}

scion::ScionStack& SkipProxy::stack_for(const std::string& access) {
  if (const auto it = access_stacks_.find(access); it != access_stacks_.end()) {
    return *it->second;
  }
  return stack_;
}

net::Host& SkipProxy::host_for(const std::string& access) {
  if (multi_access_ != nullptr) {
    if (net::Host* host = multi_access_->host(access); host != nullptr) return *host;
  }
  return host_;
}

std::string SkipProxy::access_authority(const std::string& authority,
                                        const std::string& access) {
  return access.empty() ? authority : authority + "#" + access;
}

void SkipProxy::fail_no_access(const RequestPtr& req, const std::string& host) {
  metrics_->counter("proxy.no_access").inc();
  if (req->strict) {
    fail_strict_unavailable(req, host, "all access links down");
    return;
  }
  req->trace->set_outcome("fault");
  ProxyResult result;
  result.response = http::make_retry_after_response(
      503, kStrictRetryAfter, "all access links down for " + host);
  finish(req, std::move(result));
}

void SkipProxy::on_access_health(const std::string& name, net::AccessHealth /*previous*/,
                                 net::AccessHealth current) {
  metrics_->gauge("access." + name + ".health")
      .set(current == net::AccessHealth::kHealthy    ? 2.0
           : current == net::AccessHealth::kDegraded ? 1.0
                                                     : 0.0);
  metrics_->events().record(scope_.now(), "access", std::string(to_string(current)), name);
  if (current != net::AccessHealth::kDown) return;
  metrics_->counter("proxy.access_down_events").inc();
  // Retire pooled connections riding the dead access: their conduits are
  // gone, and parked waiters must re-dispatch onto fresh dials elsewhere.
  const std::string suffix = "#" + name;
  std::vector<std::string> dead_keys;
  scion_pool_.for_each_connection(
      [&](const std::string& key, http::OriginPool::PooledConnection&) {
        if (strings::ends_with(key, suffix)) dead_keys.push_back(key);
      });
  for (const std::string& key : dead_keys) {
    scion_pool_.retire(key);
    resumption_tickets_.erase(key);
  }
  dead_keys.clear();
  legacy_pool_.for_each_connection(
      [&](const std::string& key, http::OriginPool::PooledConnection&) {
        if (strings::ends_with(key, suffix)) dead_keys.push_back(key);
      });
  for (const std::string& key : dead_keys) legacy_pool_.retire(key);
  // Mid-flight failover: every in-flight SCION attempt on the dead access is
  // abandoned (epoch bump invalidates its callbacks and attempt timer) and
  // re-run immediately — the fresh attempt picks a surviving access and must
  // still land inside the request's original deadline budget.
  std::vector<std::pair<ScionContextPtr, RequestPtr>> to_failover;
  for (const auto& [ptr, entry] : inflight_scion_) {
    if (!entry.second->done && entry.second->access == name) to_failover.push_back(entry);
  }
  for (auto& [ctx, req] : to_failover) {
    ++req->epoch;
    req->trace->end("fetch");
    req->trace->cancel("handshake");
    req->trace->set_attribute("access_failover", name);
    metrics_->counter("proxy.access_failovers").inc();
    PAN_DEBUG(kLog) << ctx->url.host << ": access " << name
                    << " down, failing over mid-flight";
    start_scion_attempt(ctx, req);
  }
}

obs::TracePtr SkipProxy::make_trace() {
  // Trace ids must stay unique when several proxy instances share one
  // TraceCollector (the figure benches build a fresh session per trial):
  // salt the per-proxy sequence with a process-wide instance number. The
  // sim is single-threaded, so this stays deterministic run to run.
  static std::uint64_t instance_seq = 0;
  if (trace_id_base_ == 0) trace_id_base_ = ++instance_seq << 32;
  return std::make_shared<obs::RequestTrace>(scope_.simulator(), trace_id_base_ | next_trace_id_++);
}

ProxyStats SkipProxy::stats() const {
  ProxyStats stats;
  stats.requests = metrics_->counter_value("proxy.requests");
  stats.over_scion = metrics_->counter_value("proxy.over_scion");
  stats.over_ip = metrics_->counter_value("proxy.over_ip");
  stats.blocked = metrics_->counter_value("proxy.blocked");
  stats.errors = metrics_->counter_value("proxy.errors");
  stats.internal = metrics_->counter_value("proxy.internal");
  stats.fallbacks = metrics_->counter_value("proxy.fallbacks");
  stats.timeouts = metrics_->counter_value("proxy.timeouts");
  stats.bytes_scion = metrics_->counter_value("proxy.bytes_scion");
  stats.bytes_ip = metrics_->counter_value("proxy.bytes_ip");
  stats.scmp_reports = metrics_->counter_value("proxy.scmp_reports");
  stats.scmp_reroutes = metrics_->counter_value("proxy.scmp_reroutes");
  stats.scion_failures = metrics_->counter_value("proxy.scion_failures");
  stats.gateway_errors = metrics_->counter_value("proxy.gateway_errors");
  stats.retries = metrics_->counter_value("proxy.retries");
  stats.attempt_timeouts = metrics_->counter_value("proxy.attempt_timeouts");
  stats.breaker_short_circuits = metrics_->counter_value("proxy.breaker_short_circuits");
  stats.strict_unavailable = metrics_->counter_value("proxy.strict_unavailable");
  stats.admitted = metrics_->counter_value("overload.admitted");
  stats.rejected_rate = metrics_->counter_value("overload.rejected_rate");
  stats.rejected_capacity = metrics_->counter_value("overload.rejected_capacity");
  stats.shed = metrics_->counter_value("overload.shed_requests");
  stats.brownout_bypasses = metrics_->counter_value("overload.brownout_bypass");
  stats.access_down_events = metrics_->counter_value("proxy.access_down_events");
  stats.access_failovers = metrics_->counter_value("proxy.access_failovers");
  return stats;
}

std::vector<SkipProxy::PooledScionOrigin> SkipProxy::scion_pool_snapshot() {
  std::vector<PooledScionOrigin> out;
  scion_pool_.for_each_connection(
      [&out](const std::string& key, http::OriginPool::PooledConnection& conn) {
        auto* scion_conn = dynamic_cast<http::ScionPooledConnection*>(&conn);
        if (scion_conn == nullptr) return;
        out.push_back(PooledScionOrigin{key, scion_conn->host(), scion_conn->port(),
                                        scion_conn->path().fingerprint()});
      });
  return out;
}

void SkipProxy::on_scmp(const scion::ScmpMessage& message) {
  metrics_->counter("proxy.scmp_reports").inc();
  selector_.revoke(message.origin_as, message.interface, config_.revocation_ttl);
  PAN_DEBUG(kLog) << "revoking after " << message.to_string();
  // Migrate every pooled connection whose current path crosses the broken
  // interface: re-select and switch the QUIC connection's conduit via the
  // pool; loss recovery redelivers in-flight data over the new path.
  struct Affected {
    std::string key;
    scion::IsdAsn ia;
    std::string host;
    std::string authority;
    std::string identity;
    std::string access;
  };
  std::vector<Affected> affected;
  scion_pool_.for_each_connection(
      [&](const std::string& key, http::OriginPool::PooledConnection& conn) {
        auto* scion_conn = dynamic_cast<http::ScionPooledConnection*>(&conn);
        if (scion_conn == nullptr ||
            scion_conn->transport().state() == transport::Connection::State::kClosed) {
          return;
        }
        if (!scion_conn->path().uses_interface(message.origin_as, message.interface)) return;
        // The host was parsed once at pool-insert time; splitting the key at
        // its first ':' would mis-handle any host containing a colon. The
        // identity, in contrast, is unambiguous: sanitized ids cannot
        // contain the '|' scope separator.
        std::string authority = scion_conn->host();
        if (scion_conn->port() != 80) {
          authority += ":" + std::to_string(scion_conn->port());
        }
        // Multi-access keys suffix the authority with "#<access>"; a URL
        // authority cannot contain '#', so the split is unambiguous. The
        // replacement path must come from that access's daemon.
        std::string access;
        if (const auto hash = key.rfind('#'); hash != std::string::npos) {
          access = key.substr(hash + 1);
        }
        affected.push_back(Affected{key, scion_conn->addr().ia, scion_conn->host(),
                                    std::move(authority), identity_of_key(key),
                                    std::move(access)});
      });
  for (const Affected& origin : affected) {
    std::optional<ppl::PolicySet> per_site_policies;
    if (policy_router_.rule_count() > 0) {
      per_site_policies = policy_router_.match(origin.host);
    }
    if (!per_site_policies.has_value()) {
      per_site_policies = identities_.policies_for(origin.identity);
    }
    // Re-selection honors the identity broker: the replacement path must
    // stay disjoint from other identities' paths to this origin, and the
    // migration re-commits the assignment (collision-counted on fallback).
    selector_.choose(origin.ia, {},
                     [this, key = origin.key, identity = origin.identity,
                      authority = origin.authority](PathChoice choice) {
      const scion::Path* replacement = nullptr;
      bool excluded = false;
      if (choice.compliant.has_value()) {
        replacement = &*choice.compliant;
        excluded = choice.compliant_excluded;
      } else if (choice.any.has_value()) {
        replacement = &*choice.any;
        excluded = choice.any_excluded;
      }
      if (replacement == nullptr) return;  // nothing better available
      const std::size_t migrated = scion_pool_.migrate(key, *replacement);
      if (migrated == 0) return;  // already on (or equal to) this path
      identities_.commit(identity, authority, replacement->fingerprint(), excluded);
      metrics_->counter("proxy.scmp_reroutes").inc(migrated);
      PAN_DEBUG(kLog) << key << ": migrating to " << replacement->to_string();
    },
                     std::move(per_site_policies),
                     identities_.exclusion(origin.identity, origin.authority),
                     origin.access);
  }
}

void SkipProxy::rotate_identity(const std::string& id) {
  const std::string identity = sanitize_identity(id);
  const auto released = identities_.rotate(identity, kIdentityQuarantineTtl);
  for (const auto& [origin, fingerprint] : released) {
    // No connection carrying a pre-rotation path may survive: retire the
    // identity's pooled SCION connections (in-flight fetches fail over to
    // fresh dials) and forget its 0-RTT tickets, which would otherwise link
    // the rotated identity to its earlier sessions.
    const std::string key = identity_key(identity, origin);
    scion_pool_.retire(key);
    resumption_tickets_.erase(key);
    // Multi-access pools scope the authority per access; retire those too.
    if (multi_access_ != nullptr) {
      for (const std::string& access : multi_access_->access_names()) {
        const std::string access_key = identity_key(identity, origin + "#" + access);
        scion_pool_.retire(access_key);
        resumption_tickets_.erase(access_key);
      }
    }
  }
  PAN_DEBUG(kLog) << "rotated identity " << identity << " (" << released.size()
                  << " assignments released)";
}

http::HttpRequest SkipProxy::to_origin_form(const http::Url& url, http::HttpRequest request) {
  request.target = url.path;
  request.headers.set("Host", url.authority());
  return request;
}

void SkipProxy::fetch(http::HttpRequest request, ProxyRequestOptions options,
                      FetchFn on_result) {
  metrics_->counter("proxy.requests").inc();
  auto req = std::make_shared<RequestState>();
  req->on_result = std::move(on_result);
  req->trace = options.trace != nullptr ? options.trace : make_trace();
  req->strict = options.strict;
  req->deadline = options.deadline.value_or(scope_.now() + config_.request_timeout);
  // Strict-pinned requests outrank their header class: the user pinned the
  // host, so its requests ride in the document band.
  req->priority = options.strict ? RequestPriority::kDocument : priority_of(request);
  req->identity = identity_of(request);
  // Socket intent: derived from the priority class the page model already
  // tags, overridable via X-Skip-Intent; strict pins ride the fast access.
  switch (req->priority) {
    case RequestPriority::kDocument: req->intent = net::FetchIntent::kLatencyCritical; break;
    case RequestPriority::kSubresource: req->intent = net::FetchIntent::kBulk; break;
    case RequestPriority::kProbe: req->intent = net::FetchIntent::kBackground; break;
  }
  if (const auto intent_header = request.headers.get(std::string(net::kIntentHeader))) {
    if (const auto parsed = net::parse_fetch_intent(*intent_header)) req->intent = *parsed;
  }
  if (options.strict) req->intent = net::FetchIntent::kLatencyCritical;

  // Cross-hop trace context: a request arriving with an X-Skip-Trace header
  // but no in-process trace object joins the caller's trace (id, parent
  // span, sampled bit). Fresh traces get a head-sampling verdict by
  // priority class; errors/sheds/fallbacks force retention at finalize
  // regardless.
  bool adopted = false;
  if (options.trace == nullptr) {
    if (const auto header = request.headers.get(std::string(obs::kTraceHeader))) {
      if (const auto ctx = obs::parse_trace_context(*header)) {
        req->trace->adopt(*ctx);
        adopted = true;
      }
    }
  }
  if (!adopted) {
    req->trace->set_sampled(collector_->head_sample(static_cast<unsigned>(req->priority)));
  }
  if (req->identity != kDefaultIdentity) {
    req->trace->set_attribute("identity", req->identity);
  }

  // Admission control runs before any work (timer, IPC defer) is queued:
  // rejected requests cost one synthesized response and nothing else. The
  // proxy's own control endpoints are never load-shed — they are how
  // operators observe the overload state.
  if (!strings::starts_with(request.target, kInternalPrefix)) {
    const OverloadController::Admission admission =
        overload_.admit(client_of(request), req->priority);
    if (admission.verdict != OverloadController::Verdict::kAdmit) {
      const bool rate = admission.verdict == OverloadController::Verdict::kRejectRate;
      ProxyResult result;
      result.transport = TransportUsed::kError;
      result.response = http::make_retry_after_response(
          rate ? 429 : 503,
          admission.retry_after,
          rate ? "admission: per-client rate limit exceeded"
               : std::string("admission: proxy over capacity (") +
                     to_string(req->priority) + " band full)");
      req->trace->set_outcome("shed");
      req->trace->begin("ipc");
      finish(req, std::move(result));
      return;
    }
    req->admitted = true;
  }
  req->trace->begin("ipc");

  // Per-request deadline: whatever state the pipeline is in, the request
  // resolves by then.
  req->deadline_event = scope_.schedule_at(req->deadline, [this, req] {
    metrics_->counter("proxy.timeouts").inc();
    req->trace->set_outcome("timeout");
    ProxyResult result;
    result.transport = TransportUsed::kError;
    result.response = synthetic_error(504, "proxy request deadline exceeded");
    finish(req, std::move(result));
  });

  // Browser -> proxy IPC crossing plus proxy processing.
  scope_.schedule_after(config_.ipc_overhead + config_.processing_overhead,
                        [this, request = std::move(request), options, req]() mutable {
                          req->trace->end("ipc");
                          process(std::move(request), options, req);
                        });
}

void SkipProxy::finish(const RequestPtr& req, ProxyResult result) {
  if (req->done) return;
  req->done = true;
  scope_.cancel(req->deadline_event);
  scope_.cancel(req->attempt_timer);
  scope_.cancel(req->retry_event);
  inflight_scion_.erase(req.get());
  if (req->admitted) {
    overload_.release();
    req->admitted = false;
  }
  result.scion_attempts = req->attempts;
  result.identity = req->identity;
  result.access = req->access;
  if (!req->access.empty() &&
      (result.transport == TransportUsed::kScion || result.transport == TransportUsed::kIp)) {
    result.response.headers.set("X-Skip-Access", req->access);
  }
  // Per-identity stats count requests actually carried to an origin.
  if (result.transport == TransportUsed::kScion || result.transport == TransportUsed::kIp) {
    identities_.record_result(req->identity, result.transport == TransportUsed::kScion,
                              result.response.body.size());
  }
  switch (result.transport) {
    case TransportUsed::kScion: metrics_->counter("proxy.over_scion").inc(); break;
    case TransportUsed::kIp: metrics_->counter("proxy.over_ip").inc(); break;
    case TransportUsed::kBlocked: metrics_->counter("proxy.blocked").inc(); break;
    case TransportUsed::kError: metrics_->counter("proxy.errors").inc(); break;
    case TransportUsed::kInternal: metrics_->counter("proxy.internal").inc(); break;
  }
  // Truncate phases still open (timeout / early error), then time the
  // response-side crossing as one more ipc span.
  req->trace->end_all();
  req->trace->begin("ipc");
  // Proxy -> browser IPC crossing.
  scope_.schedule_after(config_.ipc_overhead, [this, req,
                                               result = std::move(result)]() mutable {
    req->trace->end("ipc");
    // Terminal outcome: the site that decided the request's fate set it
    // (timeout / shed / breaker-open / ...); derive from the response for
    // the paths that end without one.
    if (req->trace->outcome().empty()) {
      const int status = result.response.status;
      if (result.transport == TransportUsed::kBlocked) {
        req->trace->set_outcome("blocked");
      } else if (status == 504) {
        req->trace->set_outcome("timeout");
      } else if (status >= 500) {
        req->trace->set_outcome("fault");
      } else if (status >= 400) {
        req->trace->set_outcome("error");
      } else {
        req->trace->set_outcome("ok");
      }
    }
    // Decide *before* flushing whether the collector keeps this trace: only
    // kept trace ids ride into histogram exemplars, so every exemplar that
    // surfaces in /skip/metrics resolves at /skip/trace/<id>.
    const bool internal = result.transport == TransportUsed::kInternal;
    const bool keep = !internal && (req->trace->sampled() ||
                                    result.response.status >= 400 || result.fell_back);
    const std::uint64_t exemplar_id = keep ? req->trace->id() : 0;
    req->trace->flush_to(*metrics_, "proxy.phase.", exemplar_id);
    metrics_->histogram("proxy.request_total")
        .record(scope_.now() - req->trace->created_at(), exemplar_id,
                req->trace->created_at());
    timeseries_.observe(scope_.now());
    result.outcome = std::string(req->trace->outcome());
    result.trace_id = req->trace->id();
    result.spans = req->trace->spans();
    // Export the span tree. The proxy's own control endpoints are not
    // traced — /skip/trace reading the collector must not grow it.
    if (!internal) {
      if (result.fell_back) req->trace->set_attribute("fell_back", "true");
      req->trace->report_to(*collector_, "skip-proxy", scope_.now());
      const int status = result.response.status;
      collector_->finalize(req->trace->id(), req->trace->outcome(), keep);
      if (status >= 500) {
        // 5xx auto-dump: the flight recorder's recent history rides with the
        // trace, so a failed chaos scenario carries its own context.
        metrics_->events().record(
            scope_.now(), "proxy", "5xx",
            strings::format("status=%d trace=%llu outcome=%s", status,
                            static_cast<unsigned long long>(req->trace->id()),
                            result.outcome.c_str()));
        collector_->attach_events(req->trace->id(), metrics_->events().last(32));
      }
    }
    req->on_result(std::move(result));
  });
}

void SkipProxy::serve_internal(const http::HttpRequest& request, const RequestPtr& req) {
  // Endpoints take query parameters (?prefix=, ?window=); dispatch on the
  // path component only so "/skip/metrics?prefix=slo." still routes.
  const auto [path_view, query] = http::split_target(request.target);
  const std::string path(path_view);
  timeseries_.observe(scope_.now());
  ProxyResult result;
  result.transport = TransportUsed::kInternal;
  // Method gate first: a non-GET on a *known* endpoint is 405 + Allow, not
  // 404 — fleet front-ends and load balancers probe with HEAD/POST and must
  // be able to tell "wrong verb" from "no such endpoint".
  if (request.method != "GET" && is_known_internal_endpoint(path)) {
    result.response = synthetic_error(405, "method not allowed: " + request.method);
    result.response.headers.set("Allow", "GET");
    finish(req, std::move(result));
    return;
  }
  if (path == "/skip/ping") {
    // Liveness probe (the fleet's health prober hits this): cheap, constant,
    // and served even when every origin-facing subsystem is on fire.
    result.response =
        http::make_response(200, from_string("{\"ok\":true}"), "application/json");
  } else if (path == "/skip/metrics") {
    metrics_->gauge("proxy.scion_pool_size")
        .set(static_cast<double>(scion_pool_.origin_count()));
    metrics_->gauge("proxy.legacy_pool_size")
        .set(static_cast<double>(legacy_pool_.origin_count()));
    const std::string prefix(http::query_param(query, "prefix"));
    const std::string_view window_text = http::query_param(query, "window");
    if (!window_text.empty()) {
      // ?window=<ms>: rate/delta over the trailing window from the
      // time-series store instead of the lifetime-cumulative dump.
      const auto window_ms = strings::parse_u64(window_text);
      if (!window_ms.ok()) {
        result.response = synthetic_error(400, "bad window (want milliseconds): " +
                                                   std::string(window_text));
      } else {
        result.response = http::make_response(
            200,
            from_string(timeseries_.query_json(
                prefix, milliseconds(static_cast<std::int64_t>(window_ms.value())))),
            "application/json");
      }
    } else {
      result.response = http::make_response(200, from_string(metrics_->to_json(prefix)),
                                            "application/json");
    }
  } else if (path == "/skip/metrics.prom") {
    std::vector<std::pair<std::string, std::string>> labels;
    if (!config_.prom_instance.empty()) labels.emplace_back("instance", config_.prom_instance);
    const std::string prefix(http::query_param(query, "prefix"));
    result.response = http::make_response(200, from_string(metrics_->to_prom(prefix, labels)),
                                          "text/plain; version=0.0.4");
  } else if (path == "/skip/pool") {
    // Per-origin pool state; the scion side additionally reports the path
    // each pooled connection currently rides.
    std::string body = "{\"legacy\":" + legacy_pool_.snapshot_json() + ",\"scion\":" +
                       scion_pool_.snapshot_json() + ",\"scion_paths\":{";
    bool first = true;
    for (const PooledScionOrigin& origin : scion_pool_snapshot()) {
      if (!first) body += ",";
      first = false;
      body += strings::json_quote(origin.key) + ":" +
              strings::json_quote(origin.path_fingerprint);
    }
    body += "}}";
    result.response = http::make_response(200, from_string(body), "application/json");
  } else if (path == "/skip/health") {
    // Resilience-state dump: circuit breakers, quarantined paths, active
    // revocations, and every fault.* counter the injector shares with us.
    std::string body = "{\"breaker\":" + breaker_.snapshot_json() +
                       ",\"breaker_open\":" + std::to_string(breaker_.open_count()) +
                       ",\"quarantines\":{";
    bool first = true;
    for (const auto& [fingerprint, expires] : selector_.quarantine_snapshot()) {
      if (!first) body += ",";
      first = false;
      body += strings::json_quote(fingerprint) + ":" +
              strings::format("%.3f", expires.millis());
    }
    body += "},\"revocations_active\":" + std::to_string(selector_.active_revocations());
    body += ",\"overload\":" + overload_.snapshot_json();
    body += ",\"adaptive\":{\"legacy\":" + legacy_limiter_.snapshot_json() +
            ",\"scion\":" + scion_limiter_.snapshot_json() + "}";
    slo_.evaluate(scope_.now());
    body += ",\"slo\":" + slo_.snapshot_json();
    body += ",\"faults\":{";
    first = true;
    for (const auto& [name, counter] : metrics_->counters()) {
      if (!strings::starts_with(name, "fault.")) continue;
      if (!first) body += ",";
      first = false;
      body += strings::json_quote(name) + ":" + std::to_string(counter.value());
    }
    body += "}}";
    result.response = http::make_response(200, from_string(body), "application/json");
  } else if (path == "/skip/traces") {
    result.response = http::make_response(200, from_string(collector_->spans_jsonl()),
                                          "application/x-ndjson");
  } else if (strings::starts_with(path, "/skip/trace/")) {
    const auto id = strings::parse_u64(
        std::string_view(path).substr(std::string_view("/skip/trace/").size()));
    const obs::TraceRecord* record = id.ok() ? collector_->find(id.value()) : nullptr;
    if (record == nullptr) {
      result.response = synthetic_error(404, "no such trace: " + request.target);
    } else {
      result.response = http::make_response(
          200, from_string(obs::TraceCollector::chrome_trace_json(*record)),
          "application/json");
    }
  } else if (path == "/skip/access") {
    // Multi-access state: per-access health, probe EWMA, striping weights.
    result.response = http::make_response(
        200,
        from_string(multi_access_ != nullptr ? multi_access_->snapshot_json()
                                             : std::string("{\"accesses\":[]}")),
        "application/json");
  } else if (path == "/skip/identity") {
    // Per-identity isolation state: stats, live path assignments, audit.
    result.response = http::make_response(200, from_string(identities_.snapshot_json()),
                                          "application/json");
  } else if (strings::starts_with(path, "/skip/identity/rotate/")) {
    const std::string id = sanitize_identity(std::string_view(path)
                                                 .substr(std::string_view(
                                                             "/skip/identity/rotate/")
                                                             .size()));
    rotate_identity(id);
    result.response = http::make_response(
        200, from_string("{\"rotated\":" + strings::json_quote(id) + "}"),
        "application/json");
  } else if (path == "/skip/debug") {
    // The flight-recorder snapshot plus collector and SLO state — the first
    // stop when a scenario goes sideways.
    slo_.evaluate(scope_.now());
    std::string body = "{\"events\":" + metrics_->events().snapshot_json();
    body += ",\"collector\":" + collector_->stats_json();
    body += ",\"slo\":" + slo_.snapshot_json() + "}";
    result.response = http::make_response(200, from_string(body), "application/json");
  } else {
    result.response = synthetic_error(404, "unknown proxy endpoint: " + request.target);
  }
  finish(req, std::move(result));
}

void SkipProxy::process(http::HttpRequest request, ProxyRequestOptions options,
                        RequestPtr req) {
  // Proxy-internal control endpoints (origin-form, reserved /skip/ space).
  if (strings::starts_with(request.target, kInternalPrefix)) {
    serve_internal(request, req);
    return;
  }

  // Determine the URL: absolute-form target (proxy convention) or Host
  // header. Parse the scheme properly — an absolute-form target with any
  // scheme other than http (e.g. https) is rejected with a 400 rather than
  // being glued onto the Host header and mangled.
  std::string url_text = request.target;
  const auto scheme_end = url_text.find("://");
  if (scheme_end != std::string::npos) {
    const std::string scheme = url_text.substr(0, scheme_end);
    if (scheme != "http") {
      metrics_->counter("proxy.bad_requests").inc();
      ProxyResult result;
      result.response =
          synthetic_error(400, "unsupported scheme in proxy request: '" + scheme + "'");
      finish(req, std::move(result));
      return;
    }
  } else {
    url_text = "http://" + request.host() + request.target;
  }
  const auto url = http::parse_url(url_text);
  if (!url.ok()) {
    metrics_->counter("proxy.bad_requests").inc();
    ProxyResult result;
    result.response = synthetic_error(400, "bad proxy request URL: " + url.error());
    finish(req, std::move(result));
    return;
  }

  req->trace->begin("detect");
  detector_.resolve(url.value().host, req->identity, [this, url = url.value(),
                                                     request = std::move(request), options,
                                                     req](ResolvedHost host) mutable {
    if (req->done) return;
    req->trace->end("detect");
    const bool scion_possible = host.scion.has_value();
    if (!scion_possible) {
      if (options.strict) {
        ProxyResult result;
        result.transport = TransportUsed::kBlocked;
        result.response =
            synthetic_error(502, "strict mode: " + url.host + " is not reachable over SCION");
        finish(req, std::move(result));
        return;
      }
      if (!host.ip.has_value()) {
        ProxyResult result;
        result.response = synthetic_error(502, "cannot resolve " + url.host);
        finish(req, std::move(result));
        return;
      }
      fetch_over_ip(url, std::move(request), *host.ip, /*fell_back=*/false, req);
      return;
    }

    // Brownout: under sustained pressure the opportunistic SCION upgrade is
    // optional work — skip selection/handshake entirely and ride the legacy
    // path until pressure clears. Strict requests keep their guarantee.
    if (!options.strict && host.ip.has_value() && overload_.brownout()) {
      metrics_->counter("overload.brownout_bypass").inc();
      req->trace->set_attribute("brownout", "bypass");
      fetch_over_ip(url, std::move(request), *host.ip, /*fell_back=*/false, req);
      return;
    }

    auto ctx = std::make_shared<ScionContext>();
    ctx->url = url;
    ctx->request = std::move(request);
    ctx->addr = *host.scion;
    // Strict mode never falls back to legacy.
    ctx->fallback_ip = options.strict ? std::nullopt : host.ip;

    // Routing-layer circuit breaker: while this origin's breaker is open,
    // skip the SCION attempt entirely.
    if (!breaker_.allow(ctx->url.authority())) {
      metrics_->counter("proxy.breaker_short_circuits").inc();
      req->trace->set_attribute("breaker", "open");
      if (req->strict) {
        req->trace->set_outcome("breaker-open");
        fail_strict_unavailable(req, ctx->url.host, "circuit breaker open");
        return;
      }
      if (ctx->fallback_ip.has_value()) {
        metrics_->counter("proxy.fallbacks").inc();
        req->trace->set_attribute("fallback_reason", "breaker-open");
        req->trace->begin("fallback");
        fetch_over_ip(ctx->url, std::move(ctx->request), *ctx->fallback_ip,
                      /*fell_back=*/true, req);
        return;
      }
      req->trace->set_outcome("breaker-open");
      ProxyResult result;
      result.response = http::make_retry_after_response(
          503, config_.breaker_open_ttl,
          "circuit breaker open for " + ctx->url.host + ", no legacy address");
      finish(req, std::move(result));
      return;
    }

    start_scion_attempt(ctx, req);
  });
}

void SkipProxy::start_scion_attempt(const ScionContextPtr& ctx, const RequestPtr& req) {
  ++req->attempts;
  ++req->epoch;
  if (multi_access_ != nullptr) {
    const std::string access = pick_access(*req);
    if (access.empty()) {
      fail_no_access(req, ctx->url.host);
      return;
    }
    if (!req->access.empty() && req->access != access) {
      req->trace->set_attribute("access_switched", access);
    }
    req->access = access;
    req->trace->set_attribute("access", access);
  }
  scion::ScionStack& stack = stack_for(req->access);
  if (stack.local_as() == ctx->addr.ia) {
    // Intra-AS destination: the empty path is trivially compliant.
    fetch_over_scion(ctx, scion::Path::local(stack.local_as()), /*compliant=*/true,
                     /*excluded=*/false, req);
    return;
  }
  // Apply any negotiated server preference for this origin (user policies
  // still rank first inside the selector). Recomputed per attempt — a
  // response between attempts may have updated the negotiation state.
  std::vector<ppl::OrderKey> server_pref;
  if (const auto pref = origin_preferences_.find(ctx->url.authority());
      pref != origin_preferences_.end()) {
    server_pref = pref->second;
  }
  std::optional<ppl::PolicySet> per_site_policies;
  if (policy_router_.rule_count() > 0) {
    per_site_policies = policy_router_.match(ctx->url.host);
  }
  // Per-identity policies apply when no per-site rule claimed the host: a
  // site-specific rule is more specific than the identity's blanket policy.
  if (!per_site_policies.has_value()) {
    per_site_policies = identities_.policies_for(req->identity);
  }
  req->trace->begin("select");
  selector_.choose(ctx->addr.ia, std::move(server_pref), [this, ctx,
                                                          req](PathChoice choice) {
    if (req->done) return;
    req->trace->end("select");
    if (req->strict) {
      if (!choice.compliant.has_value()) {
        // Transient until proven otherwise: revocations expire, quarantines
        // lift, beacons refresh — retry within budget, then degrade.
        if (schedule_scion_retry(ctx, req)) return;
        fail_strict_unavailable(req, ctx->url.host,
                                "no policy-compliant SCION path");
        return;
      }
      fetch_over_scion(ctx, *choice.compliant, /*compliant=*/true,
                       choice.compliant_excluded, req);
      return;
    }
    // Opportunistic: compliant if possible, else any path (flagged), else IP.
    if (choice.compliant.has_value()) {
      fetch_over_scion(ctx, *choice.compliant, /*compliant=*/true,
                       choice.compliant_excluded, req);
    } else if (choice.any.has_value()) {
      PAN_DEBUG(kLog) << ctx->url.host
                      << ": no policy-compliant path, using non-compliant";
      fetch_over_scion(ctx, *choice.any, /*compliant=*/false, choice.any_excluded, req);
    } else if (ctx->fallback_ip.has_value()) {
      metrics_->counter("proxy.fallbacks").inc();
      req->trace->begin("fallback");
      fetch_over_ip(ctx->url, ctx->request, *ctx->fallback_ip, /*fell_back=*/true, req);
    } else if (schedule_scion_retry(ctx, req)) {
      // No path and no legacy address: a later attempt is the only hope.
    } else {
      ProxyResult result;
      result.response = synthetic_error(
          502, "no SCION path and no legacy address for " + ctx->url.host);
      finish(req, std::move(result));
    }
  },
                   std::move(per_site_policies),
                   identities_.exclusion(req->identity, ctx->url.authority()), req->access);
}

Duration SkipProxy::deadline_margin(const ScionContext& ctx, const RequestState& req) const {
  // Opportunistic requests with a legacy address keep enough budget to
  // complete the fallback fetch; otherwise just enough slack that the
  // terminal 502/503 beats the 504 deadline timer.
  if (!req.strict && ctx.fallback_ip.has_value()) return kFallbackMargin;
  return milliseconds(1);
}

Duration SkipProxy::retry_backoff(std::uint32_t attempt) {
  Duration backoff = kRetryBackoffBase;
  for (std::uint32_t i = 1; i < attempt; ++i) {
    backoff = backoff.scaled(kRetryBackoffFactor);
  }
  return retry_rng_.jittered(backoff, kRetryJitterFrac);
}

bool SkipProxy::schedule_scion_retry(const ScionContextPtr& ctx, const RequestPtr& req) {
  if (req->attempts > config_.max_scion_retries) return false;
  const Duration backoff = retry_backoff(req->attempts);
  if (scope_.now() + backoff + deadline_margin(*ctx, *req) >= req->deadline) {
    return false;  // not enough deadline budget for another attempt
  }
  metrics_->counter("proxy.retries").inc();
  req->trace->begin("backoff");
  const std::uint64_t epoch = req->epoch;
  scope_.cancel(req->retry_event);
  req->retry_event = scope_.schedule_after(backoff, [this, ctx, req, epoch] {
    if (req->done || req->epoch != epoch) return;
    req->trace->end("backoff");
    start_scion_attempt(ctx, req);
  });
  return true;
}

void SkipProxy::fail_strict_unavailable(const RequestPtr& req, const std::string& host,
                                        const std::string& why) {
  metrics_->counter("proxy.strict_unavailable").inc();
  req->trace->set_attribute("strict_unavailable", why);
  req->trace->set_outcome("fault");
  ProxyResult result;
  result.transport = TransportUsed::kBlocked;
  result.response = http::make_retry_after_response(
      503, kStrictRetryAfter,
      "strict mode: SCION temporarily unavailable for " + host + " (" + why + ")");
  finish(req, std::move(result));
}

void SkipProxy::handle_scion_failure(const ScionContextPtr& ctx, const RequestPtr& req,
                                     const scion::Path& path, const std::string& error) {
  metrics_->counter("proxy.scion_failures").inc();
  // Passive access feedback: transport-level failures push the access that
  // carried the attempt toward degraded (our own load state does not).
  if (multi_access_ != nullptr && !req->access.empty() &&
      !http::OriginPool::is_pool_synthesized(error)) {
    multi_access_->record_result(req->access, /*ok=*/false, Duration::zero());
  }
  // Pool-synthesized failures (queue timeout, shed, cooldown fast-fail,
  // expired-in-queue) describe our own load state, not path health — a
  // perfectly good path must not be quarantined for them.
  if (!path.fingerprint().empty() && !http::OriginPool::is_pool_synthesized(error)) {
    selector_.quarantine(path, config_.quarantine_ttl);
  }
  breaker_.record_failure(ctx->url.authority());
  PAN_DEBUG(kLog) << ctx->url.host << ": SCION attempt " << req->attempts
                  << " failed (" << error << ")";
  if (schedule_scion_retry(ctx, req)) return;
  if (!req->strict && ctx->fallback_ip.has_value()) {
    metrics_->counter("proxy.fallbacks").inc();
    req->trace->set_attribute("fallback_reason", error);
    req->trace->begin("fallback");
    fetch_over_ip(ctx->url, ctx->request, *ctx->fallback_ip, /*fell_back=*/true, req);
    return;
  }
  if (req->strict) {
    fail_strict_unavailable(req, ctx->url.host, error);
    return;
  }
  req->trace->set_outcome("fault");
  ProxyResult out;
  out.response = synthetic_error(502, "SCION fetch failed: " + error);
  finish(req, std::move(out));
}

void SkipProxy::fetch_over_scion(const ScionContextPtr& ctx, const scion::Path& path,
                                 bool compliant, bool excluded, const RequestPtr& req) {
  const std::uint64_t my_epoch = req->epoch;
  const http::Url& url = ctx->url;
  const scion::ScionAddr addr = ctx->addr;
  const TimePoint attempt_started = scope_.now();
  // Pool submissions are keyed by (identity, origin): two identities fetching
  // the same origin never share a pooled connection. On a multi-access host
  // the origin is additionally scoped by access — the conduit is physically
  // bound to one access link, so accesses never share one either.
  const std::string key =
      identity_key(req->identity, access_authority(url.authority(), req->access));
  // A live pooled connection follows the freshly selected path (the pool
  // no-ops when the fingerprint is unchanged).
  scion_pool_.migrate(key, path);
  // Claim the path in the identity ledger. `excluded` means the selector had
  // to fall back into another identity's live set (path space exhausted) —
  // recorded as a collision, never silently.
  identities_.commit(req->identity, url.authority(), path.fingerprint(), excluded);

  http::HttpRequest origin_request = to_origin_form(url, ctx->request);
  // Propagate the remaining deadline budget so a reverse proxy downstream
  // sheds against the end-to-end deadline rather than its own local default.
  const Duration remaining_budget = req->deadline - scope_.now();
  if (remaining_budget > Duration::zero()) {
    origin_request.headers.set(
        std::string(kDeadlineHeader),
        std::to_string(static_cast<std::int64_t>(remaining_budget.millis())));
  }
  req->trace->begin("fetch");
  // Propagate the trace context so the reverse proxy's spans parent under
  // this hop's fetch span; annotate the trace with the path actually chosen.
  origin_request.headers.set(
      std::string(obs::kTraceHeader),
      req->trace->context(req->trace->open_span_id("fetch")).to_header());
  req->trace->set_attribute("path", path.fingerprint());
  std::string isd_seq;
  for (const scion::PathHop& hop : path.hops()) {
    if (!isd_seq.empty()) isd_seq += '>';
    isd_seq += std::to_string(hop.isd_as.isd());
  }
  req->trace->set_attribute("isd_seq", isd_seq);
  req->trace->set_attribute("compliant", compliant ? "yes" : "no");
  auto factory = [this, key, url, addr, path, req]() {
    // 0-RTT resumption: origins we have spoken SCION to before accept early
    // data, saving a handshake round trip on reconnects.
    transport::TransportConfig quic = config_.quic;
    quic.zero_rtt = resumption_tickets_.contains(key);
    req->trace->begin("handshake");
    auto pooled = std::make_unique<http::ScionPooledConnection>(
        stack_for(req->access), scion::ScionEndpoint{addr, url.port}, path, url.host,
        url.port, quic);
    transport::Connection& conn = pooled->transport();
    if (conn.state() == transport::Connection::State::kEstablished) {
      // 0-RTT: established synchronously inside start().
      req->trace->end("handshake");
      metrics_->histogram("transport.handshake").record(conn.handshake_time());
    } else {
      conn.set_on_established([this, trace = req->trace, &conn] {
        trace->end("handshake");
        metrics_->histogram("transport.handshake").record(conn.handshake_time());
      });
    }
    return pooled;
  };
  auto on_response = [this, ctx, url, addr, path, compliant, req, my_epoch,
                      attempt_started](Result<http::HttpResponse> result) {
    if (req->done || req->epoch != my_epoch) return;  // superseded by a retry
    req->trace->end("fetch");
    if (!result.ok()) {
      // Discard any half-open handshake span — a failed attempt's dial time
      // must not pollute the handshake histogram via flush.
      req->trace->cancel("handshake");
      handle_scion_failure(ctx, req, path, result.error());
      return;
    }
    http::HttpResponse response = std::move(result).take();
    // Gateway errors are a sick upstream (e.g. the reverse proxy's backend
    // died mid-response), not a sick path: retry the idempotent fetch — on
    // another attempt or the legacy fallback — before surfacing them. The
    // path is not quarantined (it delivered the response fine) but the
    // origin does feed its circuit breaker.
    if (response.status == 502 || response.status == 503 || response.status == 504) {
      metrics_->counter("proxy.scion_failures").inc();
      metrics_->counter("proxy.gateway_errors").inc();
      breaker_.record_failure(url.authority());
      if (schedule_scion_retry(ctx, req)) return;
      if (!req->strict && ctx->fallback_ip.has_value()) {
        metrics_->counter("proxy.fallbacks").inc();
        req->trace->set_attribute("fallback_reason",
                                  strings::format("gateway-%d", response.status));
        req->trace->begin("fallback");
        fetch_over_ip(ctx->url, ctx->request, *ctx->fallback_ip, /*fell_back=*/true, req);
        return;
      }
      // Out of options: the upstream's own error is the most truthful
      // answer — deliver it instead of synthesizing one.
      ProxyResult out;
      out.transport = TransportUsed::kScion;
      out.policy_compliant = compliant;
      out.path_fingerprint = path.fingerprint();
      out.response = std::move(response);
      finish(req, std::move(out));
      return;
    }
    breaker_.record_success(url.authority());
    // Passive access feedback: the fetch latency the access just delivered.
    if (multi_access_ != nullptr && !req->access.empty()) {
      multi_access_->record_result(req->access, /*ok=*/true, scope_.now() - attempt_started);
    }
    // Learn availability advertised via Strict-SCION, scoped to the identity
    // that observed it (a per-identity cache, like the browser's HSTS
    // partitioning, keeps one identity's browsing from priming another's).
    if (const auto directive = http::strict_scion_of(response)) {
      detector_.learn(url.host, addr, directive->max_age, req->identity);
    }
    // Path negotiation: remember the server's advertised preference.
    if (const auto pref_header = response.headers.get(std::string(kPathPreferenceHeader))) {
      if (auto parsed_pref = parse_path_preference(*pref_header); parsed_pref.ok()) {
        origin_preferences_[url.authority()] = std::move(parsed_pref).take();
      } else {
        PAN_DEBUG(kLog) << url.host << ": ignoring bad Path-Preference: "
                        << parsed_pref.error();
      }
    }
    // Report the path the connection *ended up on* — an SCMP-driven
    // migration may have moved it off the path chosen at selection time.
    const scion::Path* final_path = &path;
    const std::string key =
        identity_key(req->identity, access_authority(url.authority(), req->access));
    if (auto* pooled = scion_pool_.primary_as<http::ScionPooledConnection>(key)) {
      if (!pooled->path().fingerprint().empty()) {
        final_path = &pooled->path();
      }
      selector_.record_rtt(*final_path, pooled->transport().smoothed_rtt());
    }
    selector_.record_use(*final_path, response.body.size(), scope_.now(),
                         req->identity == kDefaultIdentity
                             ? std::string_view{}
                             : std::string_view(req->identity));
    resumption_tickets_.insert(key);
    metrics_->counter("proxy.bytes_scion").inc(response.body.size());
    // An SCMP-driven migration may have moved the connection off the path
    // chosen at selection time; the trace reports the one actually used.
    req->trace->set_attribute("path", final_path->fingerprint());

    response.headers.set("X-Skip-Transport", "scion");
    response.headers.set("X-Skip-Path", final_path->fingerprint());
    response.headers.set("X-Skip-Compliant", compliant ? "yes" : "no");

    ProxyResult out;
    out.transport = TransportUsed::kScion;
    out.policy_compliant = compliant;
    out.path_fingerprint = final_path->fingerprint();
    out.response = std::move(response);
    finish(req, std::move(out));
  };
  // Register before submit: a synchronous pool failure finishes the request
  // and must find (and erase) its registry entry. While registered, an
  // access-down transition can abandon this attempt and re-run it elsewhere.
  if (multi_access_ != nullptr) inflight_scion_[req.get()] = {ctx, req};
  scion_pool_.submit(key, origin_request, submit_options(*req), std::move(on_response),
                     std::move(factory));

  // Per-attempt timer: abandon an attempt that is eating the deadline budget
  // (e.g. a slow-loris origin) while there is still time to retry or fall
  // back. Bumping the epoch makes the late on_response a no-op. When
  // abandoning early could not buy anything — no fallback and no time for
  // another attempt — the timer stays unarmed and the request-deadline 504
  // remains the terminal answer.
  const Duration remaining = req->deadline - scope_.now();
  const bool can_fall_back = !req->strict && ctx->fallback_ip.has_value();
  Duration limit = Duration::zero();
  if (can_fall_back) {
    limit = remaining - kFallbackMargin;
    if (config_.attempt_timeout > Duration::zero()) {
      limit = std::min(limit, config_.attempt_timeout);
    }
  } else if (config_.attempt_timeout > Duration::zero() &&
             config_.attempt_timeout < remaining) {
    limit = config_.attempt_timeout;
  }
  scope_.cancel(req->attempt_timer);  // the previous attempt's, a no-op by now
  // A synchronous pool failure may have finished the request already.
  if (limit <= Duration::zero() || req->done) return;
  req->attempt_timer = scope_.schedule_after(limit, [this, ctx, req, path, my_epoch] {
    if (req->done || req->epoch != my_epoch) return;
    metrics_->counter("proxy.attempt_timeouts").inc();
    ++req->epoch;  // invalidate the in-flight on_response
    req->trace->end("fetch");
    req->trace->cancel("handshake");
    handle_scion_failure(ctx, req, path, "attempt timed out");
  });
}

void SkipProxy::fetch_over_ip(const http::Url& url, http::HttpRequest request, net::IpAddr ip,
                              bool fell_back, RequestPtr req) {
  // Legacy fetches ride an access link too: pick one when the request has
  // none yet (direct-to-IP and brownout paths), fail closed when every
  // access is down.
  if (multi_access_ != nullptr && req->access.empty()) {
    req->access = pick_access(*req);
    if (req->access.empty()) {
      fail_no_access(req, url.host);
      return;
    }
    req->trace->set_attribute("access", req->access);
  }
  // Legacy fetches are identity-partitioned too: the fallback path must not
  // leak a shared TCP connection across identities.
  const std::string key =
      identity_key(req->identity, access_authority(url.authority(), req->access));
  http::HttpRequest origin_request = to_origin_form(url, std::move(request));
  req->trace->begin("fetch");
  legacy_pool_.submit(
      key, std::move(origin_request), submit_options(*req),
      [this, fell_back, req](Result<http::HttpResponse> result) {
        if (req->done) return;
        req->trace->end("fetch");
        if (fell_back) req->trace->end("fallback");
        if (!result.ok()) {
          ProxyResult out;
          out.fell_back = fell_back;
          if (http::OriginPool::is_shed(result.error())) {
            // Deadline-aware shed: failed fast while retrying elsewhere (or
            // backing off) could still help — a 503, never a hung 504.
            metrics_->counter("overload.shed_requests").inc();
            req->trace->set_outcome("shed");
            out.response = http::make_retry_after_response(
                503, OverloadController::kRetryAfter, "shed under load: " + result.error());
          } else if (http::OriginPool::is_expired(result.error())) {
            metrics_->counter("proxy.timeouts").inc();
            req->trace->set_outcome("timeout");
            out.response = synthetic_error(504, "deadline expired: " + result.error());
          } else if (http::OriginPool::is_queue_timeout(result.error())) {
            metrics_->counter("proxy.timeouts").inc();
            req->trace->set_outcome("timeout");
            out.response = synthetic_error(504, "legacy fetch timed out: " + result.error());
          } else if (http::OriginPool::is_fast_fail(result.error())) {
            req->trace->set_outcome("fault");
            out.response = http::make_retry_after_response(
                503, kPoolBackoffCooldown, "origin unavailable: " + result.error());
          } else {
            req->trace->set_outcome("fault");
            out.response = synthetic_error(502, "legacy fetch failed: " + result.error());
          }
          finish(req, std::move(out));
          return;
        }
        http::HttpResponse response = std::move(result).take();
        metrics_->counter("proxy.bytes_ip").inc(response.body.size());
        response.headers.set("X-Skip-Transport", "ip");
        ProxyResult out;
        out.transport = TransportUsed::kIp;
        out.fell_back = fell_back;
        out.response = std::move(response);
        finish(req, std::move(out));
      },
      [this, ip, port = url.port, req]() {
        return std::make_unique<http::LegacyPooledConnection>(
            host_for(req->access), net::Endpoint{ip, port}, http::default_tcp_config());
      });
}

}  // namespace pan::proxy
