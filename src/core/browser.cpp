#include "core/browser.hpp"

#include "net/multi_access.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace pan::browser {

namespace {
constexpr std::string_view kLog = "browser";
/// Document parse time before sub-resource fetches start.
constexpr Duration kParseDelay = microseconds(500);
/// Direct mode: max parallel legacy connections per origin, and how long a
/// pooled connection may idle before it is evicted.
constexpr std::size_t kMaxConnsPerOrigin = 6;
constexpr Duration kPoolIdleTtl = seconds(60);

http::OriginPoolConfig direct_pool_config() {
  http::OriginPoolConfig pool;
  pool.name = "browser.direct";
  pool.max_conns_per_origin = kMaxConnsPerOrigin;
  pool.max_outstanding_per_conn = 1;  // browser-like: no pipelining
  pool.idle_ttl = kPoolIdleTtl;
  return pool;
}
}  // namespace

struct Browser::PageLoad {
  std::string url_text;
  http::Url url;
  LoadFn on_loaded;
  TimePoint started;
  PageLoadResult result;
  // Work queue of resource indices not yet started (index into
  // result.resources; 0 is the main document, handled separately).
  std::deque<std::size_t> queue;
  std::size_t in_flight = 0;
  std::size_t remaining = 0;  // resources not yet finished (incl. main doc)
  bool settled = false;
  /// Strict mode for the whole page (site toggle / Strict-SCION pin on the
  /// main document's host): every sub-resource request inherits it.
  bool page_strict = false;
  sim::EventId timeout_event = sim::kInvalidEventId;
};

Browser::Browser(sim::Simulator& sim, BrowserExtension& extension, BrowserConfig config)
    : sim_(sim),
      config_(config),
      extension_(&extension),
      direct_pool_(sim, metrics_, direct_pool_config()) {}

Browser::Browser(sim::Simulator& sim, net::Host& host, dns::Resolver& resolver,
                 BrowserConfig config)
    : sim_(sim),
      config_(config),
      host_(&host),
      resolver_(&resolver),
      direct_pool_(sim, metrics_, direct_pool_config()) {}

Browser::~Browser() = default;

void Browser::load_page(const std::string& url, LoadFn on_loaded) {
  auto page = std::make_shared<PageLoad>();
  page->url_text = url;
  page->on_loaded = std::move(on_loaded);
  page->started = sim_.now();
  const auto parsed = http::parse_url(url);
  if (!parsed.ok()) {
    page->result.url = url;
    page->result.ok = false;
    page->on_loaded(std::move(page->result));
    return;
  }
  page->url = parsed.value();
  page->page_strict = extension_ != nullptr && extension_->strict_for(page->url.host);
  page->result.url = url;
  ResourceOutcome main_doc;
  main_doc.url = url;
  page->result.resources.push_back(std::move(main_doc));
  page->remaining = 1;

  page->timeout_event = sim_.schedule_after(config_.page_timeout, [this, page] {
    if (!page->settled) {
      PAN_WARN(kLog) << "page load timeout for " << page->url_text;
      settle(page);
    }
  });

  fetch_resource(page, 0);
}

void Browser::fetch_resource(const std::shared_ptr<PageLoad>& page, std::size_t index) {
  ResourceOutcome& outcome = page->result.resources[index];
  const auto url = index == 0 ? Result<http::Url>(page->url)
                              : resolve_resource_url(page->url, outcome.url);
  if (!url.ok()) {
    outcome.ok = false;
    outcome.status = 0;
    resource_done(page, index);
    return;
  }
  if (extension_ != nullptr) {
    fetch_via_extension(page, index, url.value());
  } else {
    fetch_direct(page, index, url.value());
  }
}

void Browser::fetch_via_extension(const std::shared_ptr<PageLoad>& page, std::size_t index,
                                  const http::Url& url) {
  http::HttpRequest request;
  request.method = "GET";
  request.target = url.to_string();  // absolute form toward the proxy
  request.headers.set("Host", url.authority());
  request.headers.set("User-Agent", "pan-browser/1.0");
  // Tag the priority class for the proxy's admission ladder and pool queue
  // ordering: the main document outranks its sub-resources.
  request.headers.set(std::string(proxy::kPriorityHeader),
                      index == 0 ? "document" : "subresource");
  // Socket-Intents-style access hint for a multi-access proxy: the document
  // is latency-critical, sub-resources are bulk transfers.
  request.headers.set(std::string(net::kIntentHeader),
                      index == 0 ? "latency-critical" : "bulk");
  add_conditional_headers(url.to_string(), request);

  const TimePoint begun = sim_.now();
  std::optional<TimePoint> deadline;
  if (config_.request_deadline > Duration::zero()) {
    deadline = begun + config_.request_deadline;
  }
  extension_->fetch(
      std::move(request), url.host, page->page_strict, extension_->make_trace(),
      [this, page, index, url, begun](proxy::ProxyResult result) {
        if (page->settled) return;
        extension_->observe_response(url.host, result.response);
        if (maybe_follow_redirect(page, index, url, result.response.status,
                                  result.response.headers.get("Location"))) {
          return;
        }
        ResourceOutcome& outcome = page->result.resources[index];
        bool from_cache = false;
        const Bytes* effective_body =
            apply_cache(url.to_string(), result.response.status, result.response, &from_cache);
        outcome.from_cache = from_cache;
        outcome.elapsed = sim_.now() - begun;
        outcome.status = result.response.status;
        outcome.transport = result.transport;
        outcome.policy_compliant = result.policy_compliant;
        outcome.path_fingerprint = result.path_fingerprint;
        outcome.spans = std::move(result.spans);
        outcome.bytes = effective_body->size();
        outcome.blocked = result.transport == proxy::TransportUsed::kBlocked;
        outcome.ok = (result.response.ok() || from_cache) &&
                     result.transport != proxy::TransportUsed::kBlocked &&
                     result.transport != proxy::TransportUsed::kError;
        if (index == 0 && outcome.ok) {
          // Discover sub-resources.
          const std::string body(reinterpret_cast<const char*>(effective_body->data()),
                                 effective_body->size());
          for (const std::string& res : parse_document(body)) {
            ResourceOutcome sub;
            sub.url = res;
            page->result.resources.push_back(std::move(sub));
            ++page->remaining;
            page->queue.push_back(page->result.resources.size() - 1);
          }
          sim_.schedule_after(kParseDelay, [this, page] { pump_queue(page); });
        }
        resource_done(page, index);
      },
      deadline, config_.identity);
}

void Browser::fetch_direct(const std::shared_ptr<PageLoad>& page, std::size_t index,
                           const http::Url& url) {
  const TimePoint begun = sim_.now();
  resolver_->resolve(url.host, [this, page, index, url,
                                begun](Result<dns::RecordSet> records) {
    if (page->settled) return;
    ResourceOutcome& outcome = page->result.resources[index];
    if (!records.ok() || records.value().a.empty()) {
      outcome.ok = false;
      outcome.status = 0;
      outcome.elapsed = sim_.now() - begun;
      resource_done(page, index);
      return;
    }
    const net::IpAddr ip = records.value().a.front();

    http::HttpRequest request;
    request.method = "GET";
    request.target = url.path;
    request.headers.set("Host", url.authority());
    request.headers.set("User-Agent", "pan-browser/1.0");
    add_conditional_headers(url.to_string(), request);

    // Proxy-less baseline still benefits from priority queue ordering and
    // deadline shedding in its own connection pool.
    http::SubmitOptions submit_options;
    submit_options.priority = index == 0 ? 0 : 1;
    if (config_.request_deadline > Duration::zero()) {
      submit_options.deadline = begun + config_.request_deadline;
    }
    // Identity-partitioned pooling: two identities never reuse each other's
    // direct TCP connections, mirroring the proxy-side isolation.
    const std::string origin_key = proxy::identity_key(config_.identity, url.authority());
    direct_pool_.submit(
        origin_key, std::move(request), submit_options,
        [this, page, index, url, begun](Result<http::HttpResponse> result) {
          if (page->settled) return;
          ResourceOutcome& res_outcome = page->result.resources[index];
          res_outcome.elapsed = sim_.now() - begun;
          if (!result.ok()) {
            res_outcome.ok = false;
            resource_done(page, index);
            return;
          }
          if (maybe_follow_redirect(page, index, url, result.value().status,
                                    result.value().headers.get("Location"))) {
            return;
          }
          const http::HttpResponse& response = result.value();
          bool from_cache = false;
          const Bytes* effective_body =
              apply_cache(url.to_string(), response.status, response, &from_cache);
          res_outcome.from_cache = from_cache;
          res_outcome.ok = response.ok() || from_cache;
          res_outcome.status = response.status;
          res_outcome.transport = proxy::TransportUsed::kIp;
          res_outcome.bytes = effective_body->size();
          if (index == 0 && res_outcome.ok) {
            const std::string body(reinterpret_cast<const char*>(effective_body->data()),
                                   effective_body->size());
            for (const std::string& res : parse_document(body)) {
              ResourceOutcome sub;
            sub.url = res;
            page->result.resources.push_back(std::move(sub));
              ++page->remaining;
              page->queue.push_back(page->result.resources.size() - 1);
            }
            sim_.schedule_after(kParseDelay, [this, page] { pump_queue(page); });
          }
          resource_done(page, index);
        },
        [this, ip, port = url.port]() {
          return std::make_unique<http::LegacyPooledConnection>(*host_,
                                                                net::Endpoint{ip, port});
        });
  });
}

std::string Browser::cache_key(const std::string& url_text) const {
  return proxy::identity_key(config_.identity, url_text);
}

void Browser::add_conditional_headers(const std::string& url_text,
                                      http::HttpRequest& request) const {
  if (!config_.enable_cache) return;
  const auto it = cache_.find(cache_key(url_text));
  if (it != cache_.end()) {
    request.headers.set("If-None-Match", "\"" + it->second.etag + "\"");
  }
}

void Browser::cache_touch(CacheEntry& entry) {
  cache_lru_.splice(cache_lru_.begin(), cache_lru_, entry.lru_it);
}

void Browser::cache_store(const std::string& url_text, std::string etag, Bytes body) {
  if (const auto it = cache_.find(url_text); it != cache_.end()) {
    it->second.etag = std::move(etag);
    it->second.body = std::move(body);
    cache_touch(it->second);
    return;
  }
  if (config_.cache_max_entries > 0 && cache_.size() >= config_.cache_max_entries) {
    // Evict the least-recently-used entry to stay within the cap.
    const std::string& victim = cache_lru_.back();
    PAN_DEBUG(kLog) << "cache evicting " << victim;
    cache_.erase(victim);
    cache_lru_.pop_back();
    metrics_.counter("browser.cache.evictions").inc();
  }
  cache_lru_.push_front(url_text);
  cache_.emplace(url_text,
                 CacheEntry{std::move(etag), std::move(body), cache_lru_.begin()});
}

const Bytes* Browser::apply_cache(const std::string& url_text, int status,
                                  const http::HttpResponse& response, bool* from_cache) {
  *from_cache = false;
  if (!config_.enable_cache) return &response.body;
  const std::string key = cache_key(url_text);
  if (status == 304) {
    const auto it = cache_.find(key);
    if (it != cache_.end()) {
      *from_cache = true;
      cache_touch(it->second);
      return &it->second.body;
    }
    return &response.body;  // 304 without a cache entry: treat as empty
  }
  if (status == 200) {
    if (const auto etag = response.headers.get("ETag")) {
      std::string value = *etag;
      if (value.size() >= 2 && value.front() == '"' && value.back() == '"') {
        value = value.substr(1, value.size() - 2);
      }
      cache_store(key, std::move(value), response.body);
    }
  }
  return &response.body;
}

bool Browser::maybe_follow_redirect(const std::shared_ptr<PageLoad>& page, std::size_t index,
                                    const http::Url& current_url, int status,
                                    const std::optional<std::string>& location) {
  const bool is_redirect =
      status == 301 || status == 302 || status == 303 || status == 307 || status == 308;
  if (!is_redirect || !location.has_value()) return false;
  ResourceOutcome& outcome = page->result.resources[index];
  if (outcome.redirects >= kMaxRedirects) {
    PAN_WARN(kLog) << "redirect limit reached for " << outcome.url;
    return false;
  }
  const auto target = resolve_resource_url(current_url, *location);
  if (!target.ok()) {
    PAN_DEBUG(kLog) << "unresolvable Location '" << *location << "': " << target.error();
    return false;
  }
  ++outcome.redirects;
  outcome.url = target.value().to_string();
  if (index == 0) {
    // The main document moved: relative resources resolve against the new
    // location, and page-level strictness follows the new host.
    page->url = target.value();
    page->page_strict =
        extension_ != nullptr && extension_->strict_for(target.value().host);
  }
  fetch_resource(page, index);
  return true;
}

void Browser::pump_queue(const std::shared_ptr<PageLoad>& page) {
  if (page->settled) return;
  while (page->in_flight < config_.max_concurrent_fetches && !page->queue.empty()) {
    const std::size_t index = page->queue.front();
    page->queue.pop_front();
    ++page->in_flight;
    fetch_resource(page, index);
  }
}

void Browser::resource_done(const std::shared_ptr<PageLoad>& page, std::size_t index) {
  if (page->settled) return;
  if (index != 0 && page->in_flight > 0) --page->in_flight;
  if (page->remaining > 0) --page->remaining;

  if (index == 0 && !page->result.resources[0].ok &&
      page->result.resources[0].blocked == false) {
    // Main document failed outright: settle immediately.
    settle(page);
    return;
  }
  if (page->remaining == 0) {
    settle(page);
    return;
  }
  pump_queue(page);
}

void Browser::settle(const std::shared_ptr<PageLoad>& page) {
  if (page->settled) return;
  page->settled = true;
  sim_.cancel(page->timeout_event);

  PageLoadResult& result = page->result;
  result.plt = sim_.now() - page->started;
  result.fully_policy_compliant = true;
  for (const ResourceOutcome& outcome : result.resources) {
    if (outcome.blocked) {
      ++result.blocked;
    } else if (!outcome.ok) {
      ++result.failed;
    } else if (outcome.transport == proxy::TransportUsed::kScion) {
      ++result.over_scion;
      if (!outcome.policy_compliant) result.fully_policy_compliant = false;
    } else {
      ++result.over_ip;
      result.fully_policy_compliant = false;  // IP has no path guarantees
    }
  }
  result.ok = result.resources[0].ok && result.failed == 0;
  result.complete = result.ok && result.blocked == 0;
  result.indicator =
      BrowserExtension::indicator(result.over_scion, result.resources.size());
  page->on_loaded(std::move(result));
}

}  // namespace pan::browser
