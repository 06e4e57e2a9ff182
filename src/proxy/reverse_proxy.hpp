// Server-side reverse proxy ("we have implemented a simple reverse proxy to
// add SCION support to web servers", Section 5.1).
//
// Accepts QUIC-lite/SCION connections and relays each request to a legacy
// HTTP backend over TCP-lite/IP, returning the backend's response. It can
// inject the Strict-SCION header on behalf of operators whose sites are
// fully SCION-capable (Section 4.2).
#pragma once

#include <memory>

#include "http/endpoints.hpp"
#include "http/origin_pool.hpp"
#include "http/strict_scion.hpp"
#include "obs/collector.hpp"
#include "obs/trace.hpp"
#include "proxy/overload.hpp"

namespace pan::proxy {

struct ReverseProxyConfig {
  /// Inject "Strict-SCION: max-age=..." into all responses.
  std::optional<http::StrictScionDirective> inject_strict_scion;
  /// Inject a "Path-Preference: ..." header (server-side path negotiation)
  /// on behalf of the backend operator.
  std::optional<std::string> inject_path_preference;
  std::size_t max_backend_conns = 8;
  /// Trace collector for this hop's spans. When a relayed request carries an
  /// X-Skip-Trace header, the reverse proxy records a "relay" span (parented
  /// under the client hop's fetch span) and a "backend" span beneath it.
  /// Null disables recording. Sharing the client proxy's collector is what
  /// assembles the two hops into one tree.
  obs::TraceCollector* collector = nullptr;
};

class ReverseProxy {
 public:
  /// `stack` is the proxy host's SCION stack (the listening side); the
  /// legacy backend is reached from the same host.
  ReverseProxy(scion::ScionStack& stack, std::uint16_t listen_port,
               net::Endpoint backend, ReverseProxyConfig config = {});

  [[nodiscard]] std::uint64_t requests_relayed() const { return relayed_; }
  [[nodiscard]] std::uint64_t backend_errors() const { return backend_errors_; }
  /// The backend connection pool (introspection for tests). Once the pool
  /// is at max_backend_conns, further requests pipeline onto the
  /// least-outstanding live connection.
  [[nodiscard]] http::OriginPool& backend_pool() { return backend_pool_; }

 private:
  /// Span-id hop prefix for this process (the client process mints under
  /// obs::RequestTrace::kHopClient = 1<<56).
  static constexpr std::uint64_t kHopReverseProxy = 2ULL << 56;

  /// Per-relay tracing state (present when the request carried a parseable
  /// X-Skip-Trace header and a collector is configured).
  struct HopTrace {
    obs::TraceContext ctx;
    TimePoint ingress;
    TimePoint backend_start;
    std::uint64_t relay_span = 0;
    std::uint64_t backend_span = 0;
  };

  void relay(const http::HttpRequest& request, http::HttpServer::Respond respond);
  /// Records the relay and backend spans for a finished relay.
  void record_hop(const HopTrace& hop, int status, std::string_view outcome);
  [[nodiscard]] static http::OriginPoolConfig backend_pool_config(
      const ReverseProxyConfig& config, http::ConcurrencyLimiter* limiter);
  /// Queue-shedding deadline for one relayed request (kBackendBudget capped
  /// by the client hop's X-Skip-Deadline-Ms, when present).
  [[nodiscard]] TimePoint relay_deadline(const http::HttpRequest& request) const;

  scion::ScionStack& stack_;
  net::Endpoint backend_;
  ReverseProxyConfig config_;
  /// Backend-pool instruments (`pool.revproxy.backend.*`, AIMD window).
  obs::MetricsRegistry metrics_;  // before backend_limiter_ and backend_pool_
  obs::TraceCollector* collector_ = nullptr;
  AimdController backend_limiter_;
  http::OriginPool backend_pool_;
  std::unique_ptr<http::ScionHttpServer> server_;
  std::uint64_t next_span_seq_ = 1;
  std::uint64_t relayed_ = 0;
  std::uint64_t backend_errors_ = 0;
};

}  // namespace pan::proxy
