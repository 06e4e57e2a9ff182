#include "http/file_server.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "crypto/sha256.hpp"

namespace pan::http {

std::string etag_of(std::span<const std::uint8_t> body) {
  return crypto::hex_digest(crypto::sha256(body)).substr(0, 16);
}

namespace {

// generate_blob's xorshift64 step.
constexpr std::uint64_t xorshift(std::uint64_t x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

// Words each lane of generate_blob's four-lane loop writes per round.
constexpr std::size_t kLaneWords = 64;

// xorshift is linear over GF(2), so kLaneWords steps are one 64x64 bit
// matrix: the state after them is the XOR of the matrix columns of the
// starting state's set bits. The columns are grouped by nibble: entry [n][v]
// is the XOR of the columns of bits 4n..4n+3 set in v, so a jump is 16
// lookups.
constexpr std::array<std::array<std::uint64_t, 16>, 16> kLaneJump = [] {
  std::array<std::uint64_t, 64> columns{};
  for (std::size_t bit = 0; bit < 64; ++bit) {
    std::uint64_t x = 1ULL << bit;
    for (std::size_t step = 0; step < kLaneWords; ++step) x = xorshift(x);
    columns[bit] = x;
  }
  std::array<std::array<std::uint64_t, 16>, 16> nibbles{};
  for (std::size_t n = 0; n < 16; ++n) {
    for (std::size_t v = 0; v < 16; ++v) {
      for (std::size_t b = 0; b < 4; ++b) {
        if (((v >> b) & 1) != 0) nibbles[n][v] ^= columns[4 * n + b];
      }
    }
  }
  return nibbles;
}();

// The state kLaneWords xorshift steps after x.
std::uint64_t lane_jump(std::uint64_t x) {
  std::uint64_t out = 0;
  for (std::size_t n = 0; n < 16; ++n) out ^= kLaneJump[n][(x >> (4 * n)) & 15];
  return out;
}

// Stores a word little-endian (byte i is word >> 8*i).
void store_word(std::uint8_t* at, std::uint64_t word) {
  if constexpr (std::endian::native == std::endian::big) word = __builtin_bswap64(word);
  std::memcpy(at, &word, 8);
}

}  // namespace

Bytes generate_blob(std::size_t size, std::uint64_t seed_tag) {
  Bytes out(size);
  // Repeating pattern keyed by the tag — cheap, deterministic, and content
  // differs per resource so misrouted bodies are detectable. Word n is the
  // (n+1)-th xorshift state, stored little-endian; the tail takes the low
  // bytes of one more word.
  std::uint64_t x = seed_tag * 0x9e3779b97f4a7c15ULL + 0x1234567;
  std::uint8_t* const data = out.data();
  std::size_t pos = 0;
  // Four lanes of kLaneWords words each per round, lane k starting
  // k * kLaneWords steps on: four independent chains instead of one. Lane
  // 3 ends where the next round starts.
  constexpr std::size_t kRoundBytes = 4 * kLaneWords * 8;
  for (; pos + kRoundBytes <= size; pos += kRoundBytes) {
    std::uint64_t a = x;
    std::uint64_t b = lane_jump(a);
    std::uint64_t c = lane_jump(b);
    std::uint64_t d = lane_jump(c);
    std::uint8_t* const round = data + pos;
    for (std::size_t i = 0; i < kLaneWords; ++i) {
      a = xorshift(a);
      b = xorshift(b);
      c = xorshift(c);
      d = xorshift(d);
      store_word(round + 8 * i, a);
      store_word(round + 8 * (kLaneWords + i), b);
      store_word(round + 8 * (2 * kLaneWords + i), c);
      store_word(round + 8 * (3 * kLaneWords + i), d);
    }
    x = d;
  }
  for (; pos + 8 <= size; pos += 8) {
    x = xorshift(x);
    store_word(data + pos, x);
  }
  if (pos < size) {
    x = xorshift(x);
    for (int i = 0; pos < size; ++i, ++pos) data[pos] = static_cast<std::uint8_t>(x >> (8 * i));
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
