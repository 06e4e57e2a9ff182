// Lamport one-time signatures over SHA-256.
//
// The SCION control plane authenticates beacons with its control-plane PKI.
// To keep this repository dependency-free we implement Lamport signatures:
// real, verifiable public-key signatures built only from a hash function.
//
// Caveat documented in DESIGN.md: Lamport keys are one-time keys; the
// simulator reuses them across beacons. That is cryptographically unsound
// for production but irrelevant for reproducing the paper's behaviour —
// what matters is that tampered beacons fail verification, which they do.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "crypto/sha256.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"

namespace pan::crypto {

inline constexpr std::size_t kSignatureBits = 256;

/// 256 pairs of 32-byte hash preimages (the secret key) — 16 KiB.
struct PrivateKey {
  std::array<std::array<Digest, 2>, kSignatureBits> secrets;
};

/// Hashes of the preimages — 16 KiB. Identified compactly by fingerprint().
struct PublicKey {
  std::array<std::array<Digest, 2>, kSignatureBits> hashes;

  /// 32-byte identifier: SHA-256 over the serialized key material.
  [[nodiscard]] Digest fingerprint() const;

  bool operator==(const PublicKey& other) const { return hashes == other.hashes; }
};

/// One revealed preimage per message-digest bit — 8 KiB.
struct Signature {
  std::array<Digest, kSignatureBits> revealed;

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static Result<Signature> deserialize(std::span<const std::uint8_t> data);
};

struct KeyPair {
  PrivateKey private_key;
  PublicKey public_key;
};

/// Deterministic key generation from an Rng (the simulation seeds per-AS
/// generators, so topologies are reproducible end to end).
[[nodiscard]] KeyPair generate_keypair(Rng& rng);

[[nodiscard]] Signature sign(const PrivateKey& key, std::span<const std::uint8_t> message);
[[nodiscard]] Signature sign(const PrivateKey& key, std::string_view message);
/// Signs a message already hashed: sign(key, m) is
/// sign_digest(key, sha256(m)). For signers that hash their message in a
/// running pass (scion::SegmentHasher).
[[nodiscard]] Signature sign_digest(const PrivateKey& key, const Digest& message_digest);

/// Hasher for Digest keys in unordered containers (digests are uniformly
/// distributed, so the first machine word is already a good hash).
struct DigestHasher {
  std::size_t operator()(const Digest& d) const {
    std::size_t h = 0;
    for (std::size_t i = 0; i < sizeof(h); ++i) h |= static_cast<std::size_t>(d[i]) << (8 * i);
    return h;
  }
};

/// Memoizes sha256(preimage) for revealed signature preimages.
///
/// The simulator reuses Lamport keypairs across beacons (see the caveat
/// above), so each key position only ever reveals one of two preimages.
/// Once a preimage's hash is cached, every later verification that reveals
/// the same preimage costs a 32-byte map lookup + memcmp instead of a
/// SHA-256 compression — which is where nearly all of verify()'s time goes
/// (256 compressions per signature).
class PreimageCache {
 public:
  /// Returns sha256(preimage), computing and memoizing on first sight.
  const Digest& hash_of(const Digest& preimage);

  [[nodiscard]] std::size_t size() const { return cache_.size(); }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }

 private:
  std::unordered_map<Digest, Digest, DigestHasher> cache_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

[[nodiscard]] bool verify(const PublicKey& key, std::span<const std::uint8_t> message,
                          const Signature& sig);
[[nodiscard]] bool verify(const PublicKey& key, std::string_view message, const Signature& sig);
/// Cache-assisted verification; `cache` may be nullptr (falls back to the
/// plain path).
[[nodiscard]] bool verify(const PublicKey& key, std::span<const std::uint8_t> message,
                          const Signature& sig, PreimageCache* cache);
/// Verifies against a message already hashed: verify(key, m, sig, cache) is
/// verify_digest(key, sha256(m), sig, cache).
[[nodiscard]] bool verify_digest(const PublicKey& key, const Digest& message_digest,
                                 const Signature& sig, PreimageCache* cache = nullptr);

}  // namespace pan::crypto
