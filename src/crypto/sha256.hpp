// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used for the SCION control-plane PKI substitute: beacon signatures, TRC
// digests, and as the PRF underlying hop-field MACs (via HMAC). The
// implementation is a straightforward streaming Merkle–Damgård compressor
// over one of two block kernels (crypto/sha256_kernels.hpp): the portable
// round-by-round loop, or the x86 SHA-extensions one. 32-byte inputs, the
// bulk of Lamport key generation and verification, have a one-block
// shortcut (sha256_32) over the same two. The kernel is chosen
// once, at static initialisation, from what the CPU supports; both produce
// identical states, so which one ran never shows in any output. Correctness
// is pinned by the FIPS test vectors and a kernel-vs-kernel differential
// test in tests/crypto_test.cpp.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

#include "util/bytes.hpp"

namespace pan::crypto {

inline constexpr std::size_t kSha256DigestSize = 32;
using Digest = std::array<std::uint8_t, kSha256DigestSize>;

class Sha256 {
 public:
  Sha256();

  /// Feed more input; may be called any number of times.
  void update(std::span<const std::uint8_t> data);
  void update(std::string_view s);

  /// Finalizes and returns the digest. The object must not be reused after
  /// finalize() without reset().
  [[nodiscard]] Digest finalize();

  void reset();

 private:
  std::array<std::uint32_t, 8> state_{};
  std::uint64_t total_bytes_ = 0;
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffered_ = 0;
};

/// One-shot helpers.
[[nodiscard]] Digest sha256(std::span<const std::uint8_t> data);
[[nodiscard]] Digest sha256(std::string_view s);

/// SHA-256 of exactly 32 bytes (a Lamport preimage, a digest): one
/// pre-padded block, hashed without a Sha256 object. Equal to
/// sha256(std::span(data)).
[[nodiscard]] Digest sha256_32(const Digest& data);

/// Blocks compressed so far by this process, through Sha256 and sha256_32
/// (HMACs included): a deterministic work count for a run or a set-up.
[[nodiscard]] std::uint64_t sha256_blocks();

/// Digest as lowercase hex (for logs, TRC ids).
[[nodiscard]] std::string hex_digest(const Digest& d);

}  // namespace pan::crypto
