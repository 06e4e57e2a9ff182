#include "proxy/reverse_proxy.hpp"

#include <algorithm>
#include <cstdlib>

namespace pan::proxy {

namespace {
/// The pool key for the single configured backend.
constexpr const char* kBackendKey = "backend";
/// Backend connections idle longer than this are evicted.
constexpr Duration kPoolIdleTtl = seconds(60);
/// Adaptive concurrency for the backend pool: narrows the pipelining
/// fan-out when the backend's latency inflates.
constexpr AimdConfig kBackendAimd{
    .min_limit = 4, .max_limit = 64, .latency_target = milliseconds(1500)};
/// Local deadline budget per relayed request: the queue-shedding deadline
/// is now + min(kBackendBudget, X-Skip-Deadline-Ms from the client hop).
constexpr Duration kBackendBudget = seconds(8);
/// Per-request processing overhead of the reverse proxy.
constexpr Duration kProcessingOverhead = microseconds(150);
}  // namespace

http::OriginPoolConfig ReverseProxy::backend_pool_config(const ReverseProxyConfig& config,
                                                         http::ConcurrencyLimiter* limiter) {
  http::OriginPoolConfig pool;
  pool.name = "revproxy.backend";
  pool.max_conns_per_origin = config.max_backend_conns;
  // Unlimited outstanding per connection: once the pool is full, requests
  // pipeline onto the *least-outstanding* live connection instead of
  // convoying behind the first one.
  pool.max_outstanding_per_conn = 0;
  pool.idle_ttl = kPoolIdleTtl;
  pool.limiter = limiter;
  return pool;
}

TimePoint ReverseProxy::relay_deadline(const http::HttpRequest& request) const {
  Duration budget = kBackendBudget;
  if (const auto header = request.headers.get(kDeadlineHeader)) {
    char* end = nullptr;
    const long long ms = std::strtoll(header->c_str(), &end, 10);
    if (end != header->c_str() && ms > 0) {
      budget = std::min(budget, milliseconds(static_cast<std::int64_t>(ms)));
    }
  }
  return stack_.host().simulator().now() + budget;
}

ReverseProxy::ReverseProxy(scion::ScionStack& stack, std::uint16_t listen_port,
                           net::Endpoint backend, ReverseProxyConfig config)
    : stack_(stack),
      backend_(backend),
      config_(std::move(config)),
      collector_(config_.collector),
      backend_limiter_("revproxy.backend", kBackendAimd, metrics_),
      backend_pool_(stack.host().simulator(), metrics_,
                    backend_pool_config(config_, &backend_limiter_)) {
  backend_limiter_.set_simulator(&stack_.host().simulator());
  server_ = std::make_unique<http::ScionHttpServer>(
      stack_, listen_port,
      [this](const http::HttpRequest& request, http::HttpServer::Respond respond) {
        relay(request, std::move(respond));
      },
      http::default_quic_config());
}

void ReverseProxy::record_hop(const HopTrace& hop, int status, std::string_view outcome) {
  const TimePoint now = stack_.host().simulator().now();
  obs::CollectedSpan backend;
  backend.trace_id = hop.ctx.trace_id;
  backend.span_id = hop.backend_span;
  backend.parent_id = hop.relay_span;
  backend.name = "backend";
  backend.component = "revproxy";
  backend.start = hop.backend_start;
  backend.duration = now - hop.backend_start;
  backend.attrs.emplace_back("status", std::to_string(status));
  collector_->record_span(std::move(backend));
  obs::CollectedSpan relay;
  relay.trace_id = hop.ctx.trace_id;
  relay.span_id = hop.relay_span;
  relay.parent_id = hop.ctx.parent_span_id;
  relay.name = "relay";
  relay.component = "revproxy";
  relay.start = hop.ingress;
  relay.duration = now - hop.ingress;
  relay.attrs.emplace_back("status", std::to_string(status));
  relay.attrs.emplace_back("outcome", std::string(outcome));
  collector_->record_span(std::move(relay));
}

void ReverseProxy::relay(const http::HttpRequest& request,
                         http::HttpServer::Respond respond) {
  // Honor the client hop's trace context: this hop's spans parent under the
  // SKIP proxy's fetch span. Span ids live in this process's hop prefix, so
  // they can't collide with ids minted on the client side.
  std::shared_ptr<HopTrace> hop;
  if (collector_ != nullptr) {
    if (const auto header = request.headers.get(std::string(obs::kTraceHeader))) {
      if (const auto ctx = obs::parse_trace_context(*header)) {
        hop = std::make_shared<HopTrace>();
        hop->ctx = *ctx;
        hop->ingress = stack_.host().simulator().now();
        hop->relay_span = kHopReverseProxy | next_span_seq_++;
        hop->backend_span = kHopReverseProxy | next_span_seq_++;
      }
    }
  }

  http::SubmitOptions options;
  options.priority = static_cast<std::uint8_t>(priority_of(request));
  options.deadline = relay_deadline(request);
  auto forward = [this, request, options, hop, respond = std::move(respond)]() mutable {
    if (hop != nullptr) hop->backend_start = stack_.host().simulator().now();
    backend_pool_.submit(
        kBackendKey, request, options,
        [this, hop, respond = std::move(respond)](Result<http::HttpResponse> result) {
          ++relayed_;
          if (!result.ok()) {
            ++backend_errors_;
            if (http::OriginPool::is_shed(result.error())) {
              metrics_.counter("revproxy.overload.shed_requests").inc();
              if (hop != nullptr) record_hop(*hop, 503, "shed");
              respond(http::make_retry_after_response(
                  503, OverloadController::kRetryAfter,
                  "reverse proxy shed under load: " + result.error()));
            } else if (http::OriginPool::is_expired(result.error()) ||
                       http::OriginPool::is_queue_timeout(result.error())) {
              if (hop != nullptr) record_hop(*hop, 504, "timeout");
              respond(http::make_text_response(
                  504, "reverse proxy: deadline expired: " + result.error()));
            } else {
              if (hop != nullptr) record_hop(*hop, 502, "fault");
              respond(http::make_text_response(502, "reverse proxy: " + result.error()));
            }
            return;
          }
          http::HttpResponse response = std::move(result).take();
          if (config_.inject_strict_scion.has_value()) {
            http::set_strict_scion(response, *config_.inject_strict_scion);
          }
          if (config_.inject_path_preference.has_value()) {
            response.headers.set("Path-Preference", *config_.inject_path_preference);
          }
          response.headers.set("Via", "pan-reverse-proxy");
          if (hop != nullptr) {
            record_hop(*hop, response.status, response.status >= 400 ? "error" : "ok");
          }
          respond(std::move(response));
        },
        [this]() {
          return std::make_unique<http::LegacyPooledConnection>(stack_.host(), backend_,
                                                                http::default_tcp_config());
        });
  };
  stack_.host().simulator().schedule_after(kProcessingOverhead, std::move(forward));
}

}  // namespace pan::proxy
