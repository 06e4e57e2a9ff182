#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>

#include "core/scenarios.hpp"
#include "crypto/sha256.hpp"
#include "http/file_server.hpp"
#include "net/trace.hpp"
#include "proxy/cluster.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace pan;

/// What a traced pass attaches: the obs collector (proxies and reverse
/// proxies), per-router forward-latency histograms, a Network tracer and
/// the benchmark's own spans. An untraced pass attaches none of them. Must
/// outlive every World it is attached to.
struct Instruments {
  explicit Instruments(bool traced_pass) : traced(traced_pass), spans(traced_pass) {}
  Instruments(const Instruments&) = delete;
  Instruments& operator=(const Instruments&) = delete;

  struct NetCounts {
    std::uint64_t packets = 0;
    std::uint64_t wire_bytes = 0;
    std::uint64_t loss_drops = 0;
    std::uint64_t queue_drops = 0;
  };

  void configure(browser::WorldConfig& config) {
    if (!traced) return;
    config.router_metrics = &router_metrics;
    config.reverse_proxy.collector = &collector;
  }

  void attach(browser::World& world) {
    if (!traced) return;
    world.topology().network().set_tracer([this](const net::TraceEvent& event) {
      switch (event.kind) {
        case net::TraceEvent::Kind::kSend:
          ++net.packets;
          net.wire_bytes += event.wire_bytes;
          break;
        case net::TraceEvent::Kind::kDropLoss:
          ++net.loss_drops;
          break;
        case net::TraceEvent::Kind::kDropQueue:
          ++net.queue_drops;
          break;
        default:
          break;
      }
    });
  }

  /// Border-router forwards so far: the summed counts of every
  /// `router.<ia>.forward_latency` histogram.
  [[nodiscard]] std::uint64_t hop_forwards() const {
    std::uint64_t total = 0;
    for (const auto& [name, hist] : router_metrics.histograms()) {
      if (name.starts_with("router.") && name.ends_with(".forward_latency")) {
        total += hist.count();
      }
    }
    return total;
  }

  bool traced;
  SpanRecorder spans;
  obs::TraceCollector collector;
  obs::MetricsRegistry router_metrics;
  NetCounts net;
};

/// The body FileServer::add_blob serves for `path` (its generator is keyed
/// by the first 8 bytes of the path's SHA-256).
Bytes expected_blob(const std::string& path, std::size_t size) {
  const crypto::Digest tag = crypto::sha256(path);
  std::uint64_t seed = 0;
  for (int i = 0; i < 8; ++i) seed = (seed << 8) | tag[static_cast<std::size_t>(i)];
  return http::generate_blob(size, seed);
}

bool body_matches(const Bytes& body, const Bytes& expected) {
  return body.size() == expected.size() &&
         (body.empty() || std::memcmp(body.data(), expected.data(), body.size()) == 0);
}

double per_op(double value, std::uint64_t ops) {
  return ops == 0 ? 0 : value / static_cast<double>(ops);
}

/// Layer numbers read from a proxy-side metrics registry: proxy request
/// accounting, per-phase latency, pool hit ratio and queue wait, and the
/// instrument count.
void read_proxy_registry(const obs::MetricsRegistry& registry, PassResult& out) {
  const std::uint64_t ops = out.log.ops();
  MetricMap& layer = out.layer;
  for (const auto& entry : registry.counters()) out.counter_names.push_back(entry.first);
  const auto c = [&](const char* name) {
    return static_cast<double>(registry.counter_value(name));
  };
  layer["proxy.requests_per_op"] = {per_op(c("proxy.requests"), ops), "count"};
  layer["proxy.retries_per_op"] = {per_op(c("proxy.retries"), ops), "count"};
  layer["proxy.timeouts_per_op"] = {per_op(c("proxy.timeouts"), ops), "count"};
  layer["proxy.fallbacks_per_op"] = {per_op(c("proxy.fallbacks"), ops), "count"};
  const double scion = c("proxy.over_scion");
  const double ip = c("proxy.over_ip");
  layer["proxy.scion_share"] = {scion + ip > 0 ? scion / (scion + ip) : 0, "ratio"};
  for (const char* phase : {"ipc", "detect", "select", "handshake", "fetch", "fallback"}) {
    const obs::Histogram* hist = registry.find_histogram(std::string("proxy.phase.") + phase);
    const double p50 = hist != nullptr && hist->count() > 0 ? hist->percentile(50).millis() : 0;
    layer[std::string("proxy.phase.") + phase + "_p50_ms"] = {p50, "ms"};
  }
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (const auto& [name, counter] : registry.counters()) {
    if (!name.starts_with("pool.")) continue;
    if (name.ends_with(".hits")) hits += counter.value();
    if (name.ends_with(".misses")) misses += counter.value();
  }
  layer["http.pool_hit_ratio"] = {
      hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0,
      "ratio"};
  const obs::Histogram* wait = registry.find_histogram("pool.queue_wait");
  layer["http.queue_wait_p99_ms"] = {
      wait != nullptr && wait->count() > 0 ? wait->percentile(99).millis() : 0, "ms"};
  layer["obs.instruments"] = {static_cast<double>(registry.counters().size() +
                                                  registry.gauges().size() +
                                                  registry.histograms().size()),
                              "count"};
}

/// Times ClientSession construction and destruction on `world` (a session
/// that loads nothing), `rounds` times. Medians in microseconds.
std::pair<double, double> time_session_lifecycle(browser::World& world,
                                                 const proxy::ProxyConfig& proxy_config,
                                                 int rounds) {
  std::vector<double> build_us;
  std::vector<double> teardown_us;
  for (int i = 0; i < rounds; ++i) {
    const std::int64_t t0 = host_now_ns();
    auto session = std::make_unique<browser::ClientSession>(world, proxy_config);
    const std::int64_t t1 = host_now_ns();
    session.reset();
    const std::int64_t t2 = host_now_ns();
    build_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    teardown_us.push_back(static_cast<double>(t2 - t1) / 1e3);
  }
  return {median(build_us), median(teardown_us)};
}

// ------------------------------------------------------------- workloads --

/// One workload's world and ops. run_pass() below drives the phases.
class Workload {
 public:
  Workload(const PassConfig& config, Instruments& inst) : config_(config), inst_(inst) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual void build_world() = 0;
  virtual void populate_sites() = 0;
  virtual void warm_up() = 0;
  /// The timed phase: exactly `ops` ops, recorded into out.log.
  virtual void run_ops(std::uint64_t ops, PassResult& out) = 0;
  /// After the timed phase: layer numbers, then the post-run output checks.
  virtual void after_run(PassResult& out) = 0;
  /// Tears down sessions so the engine can drain.
  virtual void end_sessions() = 0;
  [[nodiscard]] virtual browser::World& world() = 0;
  /// The latency limit every op is held to; a failed op is charged at
  /// least this much, so failures miss every latency percentile's limit.
  [[nodiscard]] virtual Duration latency_limit() const = 0;

 protected:
  const PassConfig& config_;
  Instruments& inst_;
};

// Page workloads (remote_cold, bulk_lossy): a closed loop with one user;
// every page load gets a fresh ClientSession on the remote world.
struct PageShape {
  int pages_per_kind = 8;        // distinct pages of each kind
  bool alternate_multi = true;   // alternate single-/multi-origin pages
  int resources = 6;
  std::size_t resource_bytes = 30'000;
  double inter_as_loss = 0.0;
  const char* tag = "p";
};

class PageWorkload final : public Workload {
 public:
  PageWorkload(const PassConfig& config, Instruments& inst, PageShape shape)
      : Workload(config, inst), shape_(shape) {
    proxy_config_.metrics = &registry_;
    if (inst_.traced) proxy_config_.collector = &inst_.collector;
  }

  void build_world() override {
    browser::WorldConfig wc;
    wc.seed = config_.seed;
    wc.inter_as_loss = shape_.inter_as_loss;
    inst_.configure(wc);
    world_ = browser::make_remote_world(wc);
    inst_.attach(*world_);
  }

  void populate_sites() override {
    http::FileServer& www = *world_->site("www.far.example");
    http::FileServer& cdn = *world_->site("static.far.example");
    const int kinds = shape_.alternate_multi ? 2 : 1;
    for (int p = 0; p < shape_.pages_per_kind; ++p) {
      for (int kind = 0; kind < kinds; ++kind) {
        const bool multi = kind == 1;
        std::vector<std::string> refs;
        for (int r = 0; r < shape_.resources; ++r) {
          const std::string path = std::string("/") + shape_.tag + std::to_string(p) +
                                   (multi ? "m" : "s") + std::to_string(r) + ".bin";
          const bool on_cdn = multi && r % 2 == 1;
          (on_cdn ? cdn : www).add_blob(path, shape_.resource_bytes);
          const std::string host = on_cdn ? "static.far.example" : "www.far.example";
          refs.push_back(on_cdn ? "http://" + host + path : path);
          expected_size_["http://" + host + path] = shape_.resource_bytes;
          blobs_.push_back({host, path});
        }
        const std::string doc_path =
            std::string("/") + shape_.tag + std::to_string(p) + (multi ? "-multi" : "-single");
        const std::string doc = browser::render_document(refs);
        www.add_text(doc_path, doc);
        const std::string url = "http://www.far.example" + doc_path;
        expected_size_[url] = doc.size();
        page_urls_.push_back(url);
      }
    }
  }

  // Every op is a cold visit with a fresh session, so there is nothing to
  // warm: users pay that cost on every load.
  void warm_up() override {}

  void run_ops(std::uint64_t ops, PassResult& out) override {
    for (std::uint64_t i = 0; i < ops; ++i) {
      const std::string& url = page_urls_[i % page_urls_.size()];
      browser::PageLoadResult result;
      {
        std::unique_ptr<browser::ClientSession> session;
        {
          ScopedSpan span(inst_.spans, "session_build", i);
          session = std::make_unique<browser::ClientSession>(*world_, proxy_config_);
        }
        {
          ScopedSpan span(inst_.spans, "page_load", i);
          result = session->load(url);
        }
        ScopedSpan span(inst_.spans, "session_teardown", i);
        session.reset();
      }
      record_page(url, result, out.log);
      out.quarters.tick(i + 1);
    }
  }

  void after_run(PassResult& out) override {
    read_proxy_registry(registry_, out);
    const auto [build_us, teardown_us] =
        inst_.traced ? std::pair{inst_.spans.median_us("session_build"),
                                 inst_.spans.median_us("session_teardown")}
                     : std::pair{0.0, 0.0};
    out.layer["core.session_build_us"] = {build_us, "us"};
    out.layer["core.session_teardown_us"] = {teardown_us, "us"};
    out.layer["proxy.fleet.failovers_per_op"] = {0, "count"};
    out.layer["proxy.fleet.shed_per_op"] = {0, "count"};
    out.layer["proxy.fleet.probes_per_op"] = {0, "count"};
    out.layer["proxy.fetch_call_us"] = {0, "us"};
    verify_blob_bytes(out.log);
  }

  void end_sessions() override {}
  browser::World& world() override { return *world_; }
  /// A page fails when a resource exhausts the proxy's request deadline.
  Duration latency_limit() const override { return proxy::ProxyConfig{}.request_timeout; }

 private:
  struct Blob {
    std::string host;
    std::string path;
  };

  void record_page(const std::string& page_url, const browser::PageLoadResult& result,
                   OpLog& log) {
    std::uint64_t body_bytes = 0;
    bool all_2xx = !result.resources.empty();
    for (const browser::ResourceOutcome& res : result.resources) {
      body_bytes += res.bytes;
      all_2xx = all_2xx && res.status >= 200 && res.status < 300;
      log.mix(static_cast<std::uint64_t>(res.status));
      log.mix(static_cast<std::uint64_t>(res.elapsed.nanos()));
      log.mix(res.bytes);
      log.mix(static_cast<std::uint64_t>(res.transport));
      if (res.status == 200) {
        // Same-origin references come back origin-relative.
        const std::string url = res.url.starts_with("/") ? "http://www.far.example" + res.url
                                                          : res.url;
        const auto it = expected_size_.find(url);
        log.check(it != expected_size_.end() && it->second == res.bytes,
                  "body length of " + url + " is " + std::to_string(res.bytes));
      }
    }
    if (result.ok && !result.resources.empty()) {
      log.check(result.resources.size() == 1 + static_cast<std::size_t>(shape_.resources),
                page_url + " loaded " + std::to_string(result.resources.size()) +
                    " resources");
    }
    OpOutcome outcome;
    outcome.status = result.resources.empty() ? 0 : result.resources.front().status;
    outcome.sim_latency_ns = result.plt.nanos();
    outcome.body_bytes = body_bytes;
    outcome.transport = static_cast<int>(result.over_scion * 256 + result.over_ip);
    outcome.failed = !result.ok || !result.complete || !all_2xx;
    log.record(outcome);
  }

  /// The browser hands back body lengths, not bodies. So after the timed
  /// phase every distinct blob is fetched once more through a fresh
  /// session's SKIP proxy and compared byte for byte with what the file
  /// server generates for it. A fetch that times out (the lossy workload)
  /// is retried; it is an error, not a broken check.
  void verify_blob_bytes(OpLog& log) {
    browser::ClientSession session(*world_, proxy_config_);
    sim::Simulator& sim = world_->sim();
    for (const Blob& blob : blobs_) {
      const Bytes expected = expected_blob(blob.path, shape_.resource_bytes);
      for (int attempt = 0; attempt < 3; ++attempt) {
        http::HttpRequest request;
        request.method = "GET";
        request.target = "http://" + blob.host + blob.path;
        bool done = false;
        proxy::ProxyResult result;
        session.proxy().fetch(std::move(request), {}, [&](proxy::ProxyResult r) {
          result = std::move(r);
          done = true;
        });
        sim.run_until_condition([&] { return done; }, sim.now() + seconds(60));
        if (done && result.response.status == 200) {
          log.check(body_matches(result.response.body, expected),
                    "body bytes of http://" + blob.host + blob.path);
          break;
        }
      }
    }
  }

  PageShape shape_;
  obs::MetricsRegistry registry_;  // shared by every per-page proxy
  proxy::ProxyConfig proxy_config_;
  std::unique_ptr<browser::World> world_;
  std::vector<std::string> page_urls_;
  std::vector<Blob> blobs_;
  std::unordered_map<std::string, std::size_t> expected_size_;
};

// fleet_stream: an open loop at a fixed sim-time rate through a 4-replica
// ProxyCluster on the local world, with a repeating replica
// crash/hang/restart plan on the origin's owner.
class FleetWorkload final : public Workload {
 public:
  static constexpr Duration kPeriod = milliseconds(2);
  static constexpr Duration kDeadline = seconds(2);
  static constexpr Duration kChaosCycle = seconds(4);
  static constexpr int kBodies = 8;

  FleetWorkload(const PassConfig& config, Instruments& inst) : Workload(config, inst) {}

  ~FleetWorkload() override { end_sessions(); }

  void build_world() override {
    browser::WorldConfig wc;
    wc.seed = config_.seed;
    inst_.configure(wc);
    world_ = browser::make_local_world(wc);
    inst_.attach(*world_);
  }

  void populate_sites() override {
    // Bodies of 1..15 KB in 2 KB steps, each nudged by the seed, so every
    // seed offers the same mix of sizes.
    Rng rng(config_.seed ^ 0xf1ee7);
    for (const char* domain : {"scion-fs.local", "tcpip-fs.local"}) {
      http::FileServer& site = *world_->site(domain);
      for (int i = 0; i < kBodies; ++i) {
        const std::string path = "/f" + std::to_string(i) + ".bin";
        const auto size = static_cast<std::size_t>(1'000 + 2'000 * i + rng.next_in(-100, 100));
        site.add_blob(path, size);
        bodies_[std::string("http://") + domain + path] = expected_blob(path, size);
      }
    }
  }

  void warm_up() override {
    proxy::ClusterConfig config;
    config.replicas = 4;
    if (inst_.traced) config.proxy.collector = &inst_.collector;
    session_ = std::make_unique<browser::FleetSession>(*world_, config);
    for (const auto& [url, body] : bodies_) {
      (void)session_->fetch(url, url.find("scion-fs") != std::string::npos);
    }
  }

  void run_ops(std::uint64_t ops, PassResult& out) override {
    proxy::ProxyCluster& cluster = session_->cluster();
    sim::Simulator& sim = world_->sim();
    // The op mix is drawn from the seed: 3/4 strict to the SCION-only
    // origin, 1/4 opportunistic to the IP-only one, bodies uniformly.
    Rng rng(config_.seed ^ 0x5eed);
    std::vector<std::string> urls;
    std::vector<bool> strict;
    urls.reserve(ops);
    strict.reserve(ops);
    for (std::uint64_t i = 0; i < ops; ++i) {
      const bool s = rng.next_below(4) != 0;
      strict.push_back(s);
      urls.push_back(std::string("http://") + (s ? "scion-fs.local" : "tcpip-fs.local") +
                     "/f" + std::to_string(rng.next_below(kBodies)) + ".bin");
    }

    const TimePoint start = sim.now() + milliseconds(1);
    const TimePoint last = start + kPeriod * static_cast<std::int64_t>(ops);
    const std::string owner = cluster.owner_of("scion-fs.local");
    std::string plan;
    for (TimePoint cycle = start; cycle < last; cycle = cycle + kChaosCycle) {
      const auto at = [&](Duration offset) {
        return std::to_string((cycle + offset).nanos() / 1'000'000) + "ms";
      };
      plan += "at=" + at(milliseconds(1000)) + " dur=400ms replica-crash " + owner + "\n";
      plan += "at=" + at(milliseconds(2200)) + " dur=300ms replica-hang " + owner + "\n";
      plan += "at=" + at(milliseconds(3300)) + " replica-restart " + owner + "\n";
    }
    const Status scheduled = world_->schedule_chaos(plan);
    out.log.check(scheduled.ok(), "chaos plan rejected");

    completed_ = 0;
    // Self-rescheduling generator: fetch i is launched at start + i*period
    // no matter how earlier fetches fared, and timed from that instant.
    std::function<void(std::uint64_t)> launch = [&](std::uint64_t i) {
      const TimePoint due = start + kPeriod * static_cast<std::int64_t>(i);
      if (i + 1 < ops) {
        sim.schedule_at(due + kPeriod, [&launch, i] { launch(i + 1); });
      }
      http::HttpRequest request;
      request.method = "GET";
      request.target = urls[i];
      proxy::ProxyRequestOptions options;
      options.strict = strict[i];
      options.deadline = due + kDeadline;
      const bool is_strict = strict[i];
      const Bytes* expected = &bodies_.at(urls[i]);
      OpLog& log = out.log;
      auto on_result = [this, &sim, &log, due, is_strict, expected,
                        i](proxy::ProxyResult result) {
        ++completed_;
        const int status = result.response.status;
        log.check(sim.now() <= due + kDeadline + milliseconds(1),
                  "fetch " + std::to_string(i) + " resolved past its deadline");
        log.check(!(is_strict && result.transport == proxy::TransportUsed::kIp),
                  "strict fetch " + std::to_string(i) + " answered over IP");
        if (status == 200) {
          log.check(body_matches(result.response.body, *expected),
                    "body bytes of fetch " + std::to_string(i));
        }
        OpOutcome outcome;
        outcome.status = status;
        outcome.sim_latency_ns = (sim.now() - due).nanos();
        outcome.body_bytes = result.response.body.size();
        outcome.transport = static_cast<int>(result.transport);
        outcome.failed = status < 200 || status >= 300;
        log.record(outcome);
      };
      {
        ScopedSpan span(inst_.spans, "fetch_call", i);
        cluster.fetch(std::move(request), options, std::move(on_result));
      }
      out.quarters.tick(i + 1);
    };
    if (ops > 0) sim.schedule_at(start, [&launch] { launch(0); });
    {
      ScopedSpan span(inst_.spans, "run_until", 0);
      sim.run_until(last + kDeadline + seconds(1));
    }
    out.log.check(completed_ == ops,
                  std::to_string(ops - completed_) + " fetches never resolved");
  }

  void after_run(PassResult& out) override {
    proxy::ProxyCluster& cluster = session_->cluster();
    const std::uint64_t ops = out.log.ops();
    cluster.refresh_fleet_metrics();
    obs::MetricsRegistry merged;
    cluster.fleet_metrics().build_merged(merged);
    read_proxy_registry(merged, out);
    const proxy::FleetStats fleet = cluster.stats();
    out.layer["proxy.fleet.failovers_per_op"] = {per_op(static_cast<double>(fleet.failovers), ops),
                                                 "count"};
    out.layer["proxy.fleet.shed_per_op"] = {per_op(static_cast<double>(fleet.shed), ops), "count"};
    out.layer["proxy.fleet.probes_per_op"] = {per_op(static_cast<double>(fleet.probes), ops),
                                              "count"};
    out.layer["proxy.fetch_call_us"] = {inst_.spans.median_us("fetch_call"), "us"};
    // No per-op sessions here: the lifecycle is timed on this world after
    // the run so the number exists on every workload. The sessions share a
    // registry that outlives the world (the fault injector keeps a pointer
    // to the last session's registry).
    proxy::ProxyConfig proxy_config;
    proxy_config.metrics = &lifecycle_registry_;
    const auto [build_us, teardown_us] = time_session_lifecycle(*world_, proxy_config, 20);
    out.layer["core.session_build_us"] = {build_us, "us"};
    out.layer["core.session_teardown_us"] = {teardown_us, "us"};
  }

  void end_sessions() override { session_.reset(); }
  browser::World& world() override { return *world_; }
  Duration latency_limit() const override { return kDeadline; }

 private:
  obs::MetricsRegistry lifecycle_registry_;
  std::unique_ptr<browser::World> world_;
  std::unique_ptr<browser::FleetSession> session_;
  std::map<std::string, Bytes> bodies_;
  std::uint64_t completed_ = 0;  // fetches of the timed phase that resolved
};

template <class W, class... Args>
PassResult run_pass(const PassConfig& config, double ops_per_second, Args... args) {
  PassResult out;
  Instruments inst(config.traced);
  std::unique_ptr<W> workload;
  for (int i = 0; i < std::max(1, config.setups); ++i) {
    workload.reset();  // one world alive at a time
    const std::int64_t t0 = host_now_ns();
    workload = std::make_unique<W>(config, inst, args...);
    {
      ScopedSpan span(inst.spans, "world_build");
      workload->build_world();
    }
    const std::int64_t t1 = host_now_ns();
    {
      ScopedSpan span(inst.spans, "site_population");
      workload->populate_sites();
    }
    const std::int64_t t2 = host_now_ns();
    {
      ScopedSpan span(inst.spans, "warmup");
      workload->warm_up();
    }
    const std::int64_t t3 = host_now_ns();
    out.setup_s.push_back(static_cast<double>(t3 - t0) / 1e9);
    out.world_s = static_cast<double>(t1 - t0) / 1e9;
    out.sites_s = static_cast<double>(t2 - t1) / 1e9;
    out.warmup_s = static_cast<double>(t3 - t2) / 1e9;
  }

  const auto ops =
      static_cast<std::uint64_t>(std::max(1.0, std::ceil(config.seconds * ops_per_second)));
  browser::World& world = workload->world();
  sim::Simulator& sim = world.sim();
  const std::uint64_t events0 = sim.events_executed();
  const TimePoint sim0 = sim.now();
  const Instruments::NetCounts net0 = inst.net;
  const std::uint64_t hops0 = inst.hop_forwards();
  const AllocTotals allocs0 = alloc_totals();
  const std::int64_t start_ns = host_now_ns();
  out.log = OpLog(workload->latency_limit().nanos());
  out.quarters = SliceClock(ops, start_ns);
  workload->run_ops(ops, out);
  const std::int64_t end_ns = host_now_ns();
  const AllocTotals allocs1 = alloc_totals();
  out.timed_s = static_cast<double>(end_ns - start_ns) / 1e9;
  out.sim_s = (sim.now() - sim0).millis() / 1e3;
  out.events = sim.events_executed() - events0;
  out.allocs = {allocs1.count - allocs0.count, allocs1.bytes - allocs0.bytes};

  const std::uint64_t n = out.log.ops();
  const auto d = [](std::uint64_t a, std::uint64_t b) { return static_cast<double>(a - b); };
  out.layer["net.packets_per_op"] = {per_op(d(inst.net.packets, net0.packets), n), "count"};
  out.layer["net.wire_bytes_per_op"] = {per_op(d(inst.net.wire_bytes, net0.wire_bytes), n),
                                        "bytes"};
  out.layer["net.loss_drops_per_op"] = {per_op(d(inst.net.loss_drops, net0.loss_drops), n),
                                        "count"};
  out.layer["net.queue_drops_per_op"] = {per_op(d(inst.net.queue_drops, net0.queue_drops), n),
                                         "count"};
  const double wire = d(inst.net.wire_bytes, net0.wire_bytes);
  out.layer["net.useful_byte_ratio"] = {
      wire > 0 ? static_cast<double>(out.log.ok_body_bytes()) / wire : 0, "ratio"};
  out.layer["scion.hop_forwards_per_op"] = {per_op(d(inst.hop_forwards(), hops0), n), "count"};
  scion::Topology& topo = world.topology();
  out.layer["scion.beacon_verifications"] = {static_cast<double>(topo.beacon_verifications()),
                                             "count"};
  out.layer["scion.beacon_memo_hits"] = {static_cast<double>(topo.beacon_memo_hits()), "count"};
  out.layer["scion.chain_validations"] = {
      static_cast<double>(topo.trust_store().chain_validations()), "count"};

  workload->after_run(out);

  // Drain: with every session gone, whatever the engine still holds after
  // five idle minutes of sim time is leaked or mis-accounted work.
  workload->end_sessions();
  sim.run_until(sim.now() + seconds(300));
  out.layer["sim.pending_after_drain"] = {static_cast<double>(sim.pending_events()), "count"};

  if (config.traced) {
    out.spans_json = inst.spans.chrome_trace_json();
    out.collector_json = inst.collector.chrome_trace_json();
  }
  return out;
}

PassResult run_remote_cold(const PassConfig& config) {
  PageShape shape;
  shape.pages_per_kind = 8;
  shape.alternate_multi = true;
  shape.resources = 6;
  shape.resource_bytes = 30'000;
  shape.tag = "rc";
  return run_pass<PageWorkload>(config, 60, shape);
}

PassResult run_fleet_stream(const PassConfig& config) {
  return run_pass<FleetWorkload>(config, 600);
}

PassResult run_bulk_lossy(const PassConfig& config) {
  PageShape shape;
  shape.pages_per_kind = 4;
  shape.alternate_multi = false;
  shape.resources = 2;
  shape.resource_bytes = 1 << 20;
  shape.inter_as_loss = 0.001;
  shape.tag = "bl";
  return run_pass<PageWorkload>(config, 4, shape);
}

}  // namespace

const std::vector<WorkloadInfo>& workloads() {
  // Remote world: the detour path is 3 segments of 2 hop fields, with a
  // handful of candidate paths. Local world: one AS, so a path is a single
  // segment with no transit and there is one candidate.
  static const std::vector<WorkloadInfo> list = {
      {"remote_cold", run_remote_cold,
       {.path_hops = 6, .candidate_paths = 4, .body_bytes = 30'000}},
      {"fleet_stream", run_fleet_stream,
       {.path_hops = 2, .candidate_paths = 1, .body_bytes = 8'000}},
      {"bulk_lossy", run_bulk_lossy,
       {.path_hops = 6, .candidate_paths = 4, .body_bytes = 1 << 20}},
  };
  return list;
}

}  // namespace perfbench
