#include "crypto/signature.hpp"

#include <algorithm>

#include "util/result.hpp"

namespace pan::crypto {
namespace {

Digest random_digest(Rng& rng) {
  Digest d{};
  for (std::size_t i = 0; i < d.size(); i += 8) {
    const std::uint64_t word = rng.next_u64();
    for (std::size_t j = 0; j < 8; ++j) {
      d[i + j] = static_cast<std::uint8_t>(word >> (8 * j));
    }
  }
  return d;
}

bool digest_bit(const Digest& d, std::size_t bit) {
  return ((d[bit / 8] >> (bit % 8)) & 1) != 0;
}

}  // namespace

Digest PublicKey::fingerprint() const {
  // The pairs are contiguous in order (arrays of bytes have no padding), so
  // one update hashes the same bytes as one per digest.
  static_assert(sizeof(hashes) == kSignatureBits * 2 * kSha256DigestSize);
  return sha256(std::span<const std::uint8_t>(hashes.front().front().data(), sizeof(hashes)));
}

Bytes Signature::serialize() const {
  Bytes out;
  out.reserve(kSignatureBits * kSha256DigestSize);
  for (const Digest& d : revealed) {
    out.insert(out.end(), d.begin(), d.end());
  }
  return out;
}

Result<Signature> Signature::deserialize(std::span<const std::uint8_t> data) {
  if (data.size() != kSignatureBits * kSha256DigestSize) {
    return Err("signature has wrong length");
  }
  Signature sig;
  for (std::size_t i = 0; i < kSignatureBits; ++i) {
    std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(i * kSha256DigestSize),
                kSha256DigestSize, sig.revealed[i].begin());
  }
  return sig;
}

KeyPair generate_keypair(Rng& rng) {
  KeyPair kp;
  for (std::size_t i = 0; i < kSignatureBits; ++i) {
    for (std::size_t b = 0; b < 2; ++b) {
      kp.private_key.secrets[i][b] = random_digest(rng);
      kp.public_key.hashes[i][b] = sha256_32(kp.private_key.secrets[i][b]);
    }
  }
  return kp;
}

Signature sign(const PrivateKey& key, std::span<const std::uint8_t> message) {
  return sign_digest(key, sha256(message));
}

Signature sign_digest(const PrivateKey& key, const Digest& msg_digest) {
  Signature sig;
  for (std::size_t i = 0; i < kSignatureBits; ++i) {
    sig.revealed[i] = key.secrets[i][digest_bit(msg_digest, i) ? 1 : 0];
  }
  return sig;
}

Signature sign(const PrivateKey& key, std::string_view message) {
  return sign(key, std::span<const std::uint8_t>(
                       reinterpret_cast<const std::uint8_t*>(message.data()), message.size()));
}

const Digest& PreimageCache::hash_of(const Digest& preimage) {
  const auto it = cache_.find(preimage);
  if (it != cache_.end()) {
    ++hits_;
    return it->second;
  }
  ++misses_;
  return cache_.emplace(preimage, sha256_32(preimage)).first->second;
}

bool verify(const PublicKey& key, std::span<const std::uint8_t> message, const Signature& sig) {
  return verify(key, message, sig, nullptr);
}

bool verify(const PublicKey& key, std::span<const std::uint8_t> message, const Signature& sig,
            PreimageCache* cache) {
  return verify_digest(key, sha256(message), sig, cache);
}

bool verify_digest(const PublicKey& key, const Digest& msg_digest, const Signature& sig,
                   PreimageCache* cache) {
  for (std::size_t i = 0; i < kSignatureBits; ++i) {
    const Digest hashed =
        cache != nullptr ? cache->hash_of(sig.revealed[i]) : sha256_32(sig.revealed[i]);
    if (hashed != key.hashes[i][digest_bit(msg_digest, i) ? 1 : 0]) return false;
  }
  return true;
}

bool verify(const PublicKey& key, std::string_view message, const Signature& sig) {
  return verify(key,
                std::span<const std::uint8_t>(
                    reinterpret_cast<const std::uint8_t*>(message.data()), message.size()),
                sig);
}

}  // namespace pan::crypto
