#include "http/file_server.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "crypto/sha256.hpp"

namespace pan::http {

std::string etag_of(std::span<const std::uint8_t> body) {
  return crypto::hex_digest(crypto::sha256(body)).substr(0, 16);
}

Bytes generate_blob(std::size_t size, std::uint64_t seed_tag) {
  Bytes out(size);
  // Repeating pattern keyed by the tag — cheap, deterministic, and content
  // differs per resource so misrouted bodies are detectable. Each xorshift
  // word lands little-endian (byte i is x >> 8*i): one 8-byte store per
  // word, then the tail byte by byte.
  std::uint64_t x = seed_tag * 0x9e3779b97f4a7c15ULL + 0x1234567;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::size_t pos = 0;
  for (; pos + 8 <= size; pos += 8) {
    std::uint64_t word = next();
    if constexpr (std::endian::native == std::endian::big) word = __builtin_bswap64(word);
    std::memcpy(out.data() + pos, &word, 8);
  }
  if (pos < size) {
    const std::uint64_t word = next();
    for (int i = 0; pos < size; ++i, ++pos) out[pos] = static_cast<std::uint8_t>(word >> (8 * i));
  }
  return out;
}

FileServer::FileServer(sim::Simulator& sim) : sim_(sim) {}

void FileServer::add_text(const std::string& path, std::string body,
                          std::string content_type) {
  Resource resource;
  resource.body = from_string(body);
  resource.content_type = std::move(content_type);
  resources_[path] = std::move(resource);
}

void FileServer::add_blob(const std::string& path, std::size_t size,
                          std::string content_type) {
  const crypto::Digest tag = crypto::sha256(path);
  std::uint64_t seed = 0;
  for (int i = 0; i < 8; ++i) seed = (seed << 8) | tag[static_cast<std::size_t>(i)];
  Resource resource;
  resource.body = generate_blob(size, seed);
  resource.content_type = std::move(content_type);
  resources_[path] = std::move(resource);
}

void FileServer::add_redirect(const std::string& path, std::string location, int status) {
  Resource resource;
  resource.redirect_location = std::move(location);
  resource.redirect_status = status;
  resources_[path] = std::move(resource);
}

void FileServer::remove(const std::string& path) { resources_.erase(path); }

void FileServer::enable_strict_scion(Duration max_age) {
  strict_scion_ = StrictScionDirective{max_age};
}

void FileServer::set_extra_header(std::string name, std::string value) {
  extra_headers_.push_back(Headers::Field{std::move(name), std::move(value)});
}

HttpResponse FileServer::respond_to(const HttpRequest& request) {
  HttpResponse response;
  const auto it = resources_.find(request.target);
  if (it == resources_.end()) {
    ++misses_;
    response = make_text_response(404, "not found: " + request.target);
  } else if (!it->second.redirect_location.empty()) {
    ++hits_;
    response = make_text_response(it->second.redirect_status, "moved");
    response.reason = status_reason(it->second.redirect_status);
    response.headers.set("Location", it->second.redirect_location);
  } else {
    ++hits_;
    Resource& resource = it->second;
    if (resource.etag.empty()) resource.etag = "\"" + etag_of(resource.body) + "\"";
    if (const auto inm = request.headers.get("If-None-Match"); inm == resource.etag) {
      ++revalidations_;
      response.status = 304;
      response.reason = status_reason(304);
    } else {
      response = make_response(200, resource.body, resource.content_type);
    }
    response.headers.set("ETag", resource.etag);
  }
  if (strict_scion_.has_value()) {
    set_strict_scion(response, *strict_scion_);
  }
  for (const Headers::Field& field : extra_headers_) {
    response.headers.set(field.name, field.value);
  }
  return response;
}

OriginFaultMode FileServer::current_fault() {
  if (fault_hook_) {
    const OriginFaultMode hooked = fault_hook_();
    if (hooked != OriginFaultMode::kNone) return hooked;
  }
  return fault_mode_;
}

HttpServer::Handler FileServer::handler() {
  return [this](const HttpRequest& request, HttpServer::Respond respond) {
    // The fault mode is sampled when the request arrives (a fault reverted
    // mid-think-time no longer corrupts the in-flight response, matching a
    // real origin recovering between requests).
    const OriginFaultMode fault = current_fault();
    Duration delay = think_time_;
    if (fault == OriginFaultMode::kSlowLoris) {
      ++faulted_;
      delay = std::max(delay, slow_loris_delay_);
    }
    auto finish = [this, request, fault,
                   respond = std::move(respond)]() mutable {
      HttpResponse response = respond_to(request);
      if (fault == OriginFaultMode::kReset) {
        ++faulted_;
        // Cut the wire halfway through what would have been sent.
        response.truncate_wire_at = response.serialize().size() / 2;
      } else if (fault == OriginFaultMode::kBadStrictScion) {
        ++faulted_;
        response.headers.set(std::string(kStrictScionHeader), "max-age=; ]]garbage[[");
      }
      respond(std::move(response));
    };
    if (delay > Duration::zero()) {
      sim_.schedule_after(delay, std::move(finish));
    } else {
      finish();
    }
  };
}

}  // namespace pan::http
