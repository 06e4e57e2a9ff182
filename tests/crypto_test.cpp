// Unit tests for src/crypto: SHA-256 against FIPS 180-4 vectors, the
// portable and SHA-extensions compression kernels against the vectors and
// each other, HMAC-SHA256 against RFC 4231 vectors, truncated MACs, and
// Lamport signatures.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_kernels.hpp"
#include "crypto/signature.hpp"
#include "util/rng.hpp"

namespace pan::crypto {
namespace {

std::string hex_of(std::string_view s) { return hex_digest(sha256(s)); }

// ------------------------------------------------------------- sha256 ---

TEST(Sha256Test, FipsVectors) {
  EXPECT_EQ(hex_of(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hex_of("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(hex_of("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex_digest(h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, ExactBlockBoundary) {
  // 64 bytes = exactly one block; padding must spill into a second block.
  const std::string block(64, 'x');
  EXPECT_EQ(hex_of(block), hex_digest(sha256(block)));
  const std::string block55(55, 'y');  // largest single-block message
  const std::string block56(56, 'y');  // forces a second block
  EXPECT_NE(hex_of(block55), hex_of(block56));
}

/// Streaming in arbitrary chunk sizes must match the one-shot digest.
class Sha256Streaming : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Sha256Streaming, ChunkedEqualsOneShot) {
  const std::size_t chunk_size = GetParam();
  std::string message;
  for (int i = 0; i < 500; ++i) message += static_cast<char>('A' + i % 26);
  const Digest oneshot = sha256(message);

  Sha256 h;
  for (std::size_t pos = 0; pos < message.size(); pos += chunk_size) {
    h.update(std::string_view(message).substr(pos, chunk_size));
  }
  EXPECT_EQ(h.finalize(), oneshot);
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, Sha256Streaming,
                         ::testing::Values(1, 3, 7, 63, 64, 65, 128, 499, 500));

TEST(Sha256Test, ResetReuses) {
  Sha256 h;
  h.update("garbage");
  h.reset();
  h.update("abc");
  EXPECT_EQ(hex_digest(h.finalize()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// ------------------------------------------------------------ kernels ---

namespace kernels = sha256_kernels;

constexpr std::uint32_t kInitialState[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

/// Hashes `message` with `kernel` alone: FIPS 180-4 padding done here, all
/// blocks in one kernel call, digest words printed big-endian.
std::string hex_via(kernels::Compress kernel, std::string_view message) {
  Bytes padded(message.begin(), message.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(message.size()) * 8;
  for (int i = 7; i >= 0; --i) padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));

  std::uint32_t state[8];
  std::memcpy(state, kInitialState, sizeof(state));
  kernel(state, padded.data(), padded.size() / 64);
  Digest out{};
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t b = 0; b < 4; ++b) {
      out[4 * i + b] = static_cast<std::uint8_t>(state[i] >> (24 - 8 * b));
    }
  }
  return hex_digest(out);
}

void expect_fips_vectors(kernels::Compress kernel) {
  EXPECT_EQ(hex_via(kernel, ""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hex_via(kernel, "abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(hex_via(kernel, "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(hex_via(kernel, std::string(1'000'000, 'a')),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256KernelTest, PortableKernelMatchesFipsVectors) {
  expect_fips_vectors(kernels::portable);
}

TEST(Sha256KernelTest, HardwareKernelMatchesFipsVectors) {
  if (kernels::hardware() == nullptr) {
    GTEST_SKIP() << "no SHA-extensions kernel on this build or CPU; portable kernel only";
  }
  expect_fips_vectors(kernels::hardware());
}

TEST(Sha256KernelTest, HardwareKernelMatchesPortableOnRandomInputs) {
  if (kernels::hardware() == nullptr) {
    GTEST_SKIP() << "no SHA-extensions kernel on this build or CPU; portable kernel only";
  }
  // Random chaining states and blocks, runs of one to three blocks, and
  // data at every offset mod 16 so the kernel's unaligned loads are covered.
  Rng rng(20221114);
  std::vector<std::uint8_t> buffer(16 + 3 * 64);
  for (int trial = 0; trial < 10'000; ++trial) {
    std::uint32_t portable_state[8];
    for (std::uint32_t& word : portable_state) word = static_cast<std::uint32_t>(rng.next_u64());
    for (std::uint8_t& byte : buffer) byte = static_cast<std::uint8_t>(rng.next_u64());
    const std::size_t offset = rng.next_below(16);
    const std::size_t blocks = 1 + rng.next_below(3);

    std::uint32_t hardware_state[8];
    std::memcpy(hardware_state, portable_state, sizeof(portable_state));
    kernels::portable(portable_state, buffer.data() + offset, blocks);
    kernels::hardware()(hardware_state, buffer.data() + offset, blocks);
    ASSERT_EQ(0, std::memcmp(portable_state, hardware_state, sizeof(portable_state)))
        << "trial " << trial << ", " << blocks << " block(s) at offset " << offset;
  }
}

TEST(Sha256KernelTest, SelectedKernelIsHardwareWhenPresent) {
  const kernels::Compress expected =
      kernels::hardware() != nullptr ? kernels::hardware() : kernels::portable;
  EXPECT_EQ(kernels::selected(), expected);
}

/// Checks `hash` against sha256(span) on 10k random 32-byte inputs.
void expect_hash32_matches_span(kernels::Hash32 hash) {
  Rng rng(20221115);
  for (int trial = 0; trial < 10'000; ++trial) {
    Digest input{};
    for (std::uint8_t& byte : input) byte = static_cast<std::uint8_t>(rng.next_u64());
    Digest out{};
    hash(input.data(), out.data());
    ASSERT_EQ(out, sha256(std::span<const std::uint8_t>(input))) << "trial " << trial;
  }
}

TEST(Sha256KernelTest, Portable32MatchesSpanHashOnRandomInputs) {
  expect_hash32_matches_span(kernels::portable_32);
}

TEST(Sha256KernelTest, Hardware32MatchesSpanHashOnRandomInputs) {
  if (kernels::hardware_32() == nullptr) {
    GTEST_SKIP() << "no SHA-extensions kernel on this build or CPU; portable kernel only";
  }
  expect_hash32_matches_span(kernels::hardware_32());
}

TEST(Sha256KernelTest, Selected32IsHardwareExactlyWhenCompressIs) {
  EXPECT_EQ(kernels::hardware_32() == nullptr, kernels::hardware() == nullptr);
  const kernels::Hash32 expected =
      kernels::hardware_32() != nullptr ? kernels::hardware_32() : kernels::portable_32;
  EXPECT_EQ(kernels::selected_32(), expected);
}

TEST(Sha256Test, OneBlock32MatchesSpanHash) {
  Digest input{};
  for (int trial = 0; trial < 256; ++trial) {
    input[static_cast<std::size_t>(trial) % input.size()] ^= static_cast<std::uint8_t>(trial);
    EXPECT_EQ(sha256_32(input), sha256(std::span<const std::uint8_t>(input)));
  }
  // FIPS 180-4 has no 32-byte vector; 32 zero bytes is a well-known one.
  EXPECT_EQ(hex_digest(sha256_32(Digest{})),
            "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925");
}

TEST(Sha256Test, BlockCounterCountsCompressedBlocks) {
  const std::uint64_t start = sha256_blocks();
  (void)sha256("abc");  // message and padding in one block
  EXPECT_EQ(sha256_blocks() - start, 1u);
  (void)sha256(std::string(56, 'x'));  // the padding spills into a second
  EXPECT_EQ(sha256_blocks() - start, 3u);
  (void)sha256_32(Digest{});
  EXPECT_EQ(sha256_blocks() - start, 4u);
  Sha256 h;
  h.update(std::string(200, 'y'));  // three whole blocks now, 8 bytes held
  EXPECT_EQ(sha256_blocks() - start, 7u);
  (void)h.finalize();
  EXPECT_EQ(sha256_blocks() - start, 8u);
}

// --------------------------------------------------------------- hmac ---

TEST(HmacTest, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const Digest mac = hmac_sha256(key, "Hi There");
  EXPECT_EQ(hex_digest(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  const Bytes key = from_string("Jefe");
  const Digest mac = hmac_sha256(key, "what do ya want for nothing?");
  EXPECT_EQ(hex_digest(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes message(50, 0xdd);
  const Digest mac = hmac_sha256(key, message);
  EXPECT_EQ(hex_digest(mac),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacTest, LongKeyIsHashed) {
  // RFC 4231 case 6: 131-byte key.
  const Bytes key(131, 0xaa);
  const Digest mac = hmac_sha256(key, "Test Using Larger Than Block-Size Key - Hash Key First");
  EXPECT_EQ(hex_digest(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, DifferentKeysDiffer) {
  const Bytes k1(16, 0x01);
  const Bytes k2(16, 0x02);
  EXPECT_NE(hmac_sha256(k1, "msg"), hmac_sha256(k2, "msg"));
}

TEST(HmacKeyTest, MatchesOneShotHmacAcrossKeyLengths) {
  // Short key (zero-padded), exactly block-sized key, and over-block key
  // (hashed first): the precomputed-midstate path must agree with the
  // one-shot reference on all three, across message sizes including empty
  // and multi-block.
  const std::vector<Bytes> keys = {Bytes(16, 0x42), Bytes(64, 0xA5), Bytes(131, 0xAA)};
  const std::vector<Bytes> messages = {Bytes{}, from_string("Hi There"), Bytes(20, 0xDD),
                                       Bytes(200, 0x33)};
  for (const Bytes& key : keys) {
    const HmacKey precomputed(key);
    for (const Bytes& message : messages) {
      EXPECT_EQ(precomputed.mac(message), hmac_sha256(key, message))
          << "key size " << key.size() << ", message size " << message.size();
      EXPECT_EQ(precomputed.short_mac(message), short_mac(key, message));
    }
  }
}

TEST(HmacKeyTest, ReusableAcrossCalls) {
  const Bytes key(16, 0x42);
  const HmacKey precomputed(key);
  const Digest first = precomputed.mac(from_string("one"));
  EXPECT_EQ(precomputed.mac(from_string("two")), hmac_sha256(key, from_string("two")));
  EXPECT_EQ(precomputed.mac(from_string("one")), first);  // midstates untouched
}

TEST(ShortMacTest, TruncatesHmac) {
  const Bytes key(16, 0x42);
  const Bytes message = from_string("payload");
  const Digest full = hmac_sha256(key, message);
  const ShortMac mac = short_mac(key, message);
  for (std::size_t i = 0; i < kShortMacSize; ++i) {
    EXPECT_EQ(mac[i], full[i]);
  }
}

TEST(ShortMacTest, MacEqual) {
  const Bytes key(16, 0x42);
  const ShortMac a = short_mac(key, from_string("x"));
  ShortMac b = a;
  EXPECT_TRUE(mac_equal(a, b));
  b[5] ^= 1;
  EXPECT_FALSE(mac_equal(a, b));
}

// ----------------------------------------------------------- signature --

TEST(SignatureTest, SignVerifyRoundTrip) {
  Rng rng(1);
  const KeyPair kp = generate_keypair(rng);
  const Signature sig = sign(kp.private_key, "a signed beacon entry");
  EXPECT_TRUE(verify(kp.public_key, "a signed beacon entry", sig));
}

TEST(SignatureTest, TamperedMessageFails) {
  Rng rng(2);
  const KeyPair kp = generate_keypair(rng);
  const Signature sig = sign(kp.private_key, "original");
  EXPECT_FALSE(verify(kp.public_key, "orig1nal", sig));
}

TEST(SignatureTest, TamperedSignatureFails) {
  Rng rng(3);
  const KeyPair kp = generate_keypair(rng);
  Signature sig = sign(kp.private_key, "message");
  sig.revealed[10][0] ^= 0x80;
  EXPECT_FALSE(verify(kp.public_key, "message", sig));
}

TEST(SignatureTest, WrongKeyFails) {
  Rng rng(4);
  const KeyPair kp1 = generate_keypair(rng);
  const KeyPair kp2 = generate_keypair(rng);
  const Signature sig = sign(kp1.private_key, "message");
  EXPECT_FALSE(verify(kp2.public_key, "message", sig));
}

TEST(SignatureTest, SerializeRoundTrip) {
  Rng rng(5);
  const KeyPair kp = generate_keypair(rng);
  const Signature sig = sign(kp.private_key, "wire");
  const Bytes wire = sig.serialize();
  EXPECT_EQ(wire.size(), kSignatureBits * kSha256DigestSize);
  const auto parsed = Signature::deserialize(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(verify(kp.public_key, "wire", parsed.value()));
}

TEST(SignatureTest, DeserializeRejectsBadLength) {
  EXPECT_FALSE(Signature::deserialize(Bytes(100)).ok());
  EXPECT_FALSE(Signature::deserialize(Bytes{}).ok());
}

TEST(SignatureTest, FingerprintStable) {
  Rng rng(6);
  const KeyPair kp = generate_keypair(rng);
  EXPECT_EQ(kp.public_key.fingerprint(), kp.public_key.fingerprint());
  Rng rng2(7);
  const KeyPair other = generate_keypair(rng2);
  EXPECT_NE(kp.public_key.fingerprint(), other.public_key.fingerprint());
}

TEST(SignatureTest, DigestFormsMatchMessageForms) {
  Rng rng(8);
  const KeyPair kp = generate_keypair(rng);
  const std::string message = "a beacon entry";
  const Digest digest = sha256(message);
  const Signature sig = sign(kp.private_key, message);
  EXPECT_EQ(sign_digest(kp.private_key, digest).revealed, sig.revealed);
  EXPECT_TRUE(verify_digest(kp.public_key, digest, sig));
  PreimageCache cache;
  EXPECT_TRUE(verify_digest(kp.public_key, digest, sig, &cache));
  EXPECT_TRUE(verify_digest(kp.public_key, digest, sig, &cache));  // warm
  EXPECT_EQ(cache.misses(), kSignatureBits);
  EXPECT_EQ(cache.hits(), kSignatureBits);
  Digest other = digest;
  other[0] ^= 1;
  EXPECT_FALSE(verify_digest(kp.public_key, other, sig));
  EXPECT_FALSE(verify_digest(kp.public_key, other, sig, &cache));
}

TEST(SignatureTest, KeygenHashesEachSecret) {
  Rng rng(9);
  const KeyPair kp = generate_keypair(rng);
  for (std::size_t i = 0; i < kSignatureBits; ++i) {
    for (std::size_t b = 0; b < 2; ++b) {
      ASSERT_EQ(kp.public_key.hashes[i][b],
                sha256(std::span<const std::uint8_t>(kp.private_key.secrets[i][b])));
    }
  }
}

TEST(SignatureTest, FingerprintHashesTheDigestsInOrder) {
  Rng rng(10);
  const KeyPair kp = generate_keypair(rng);
  Sha256 h;
  for (const auto& pair : kp.public_key.hashes) {
    h.update(std::span<const std::uint8_t>(pair[0]));
    h.update(std::span<const std::uint8_t>(pair[1]));
  }
  EXPECT_EQ(kp.public_key.fingerprint(), h.finalize());
}

TEST(SignatureTest, DeterministicKeygen) {
  Rng a(99);
  Rng b(99);
  const KeyPair ka = generate_keypair(a);
  const KeyPair kb = generate_keypair(b);
  EXPECT_TRUE(ka.public_key == kb.public_key);
}

}  // namespace
}  // namespace pan::crypto
