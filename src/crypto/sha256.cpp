#include "crypto/sha256.hpp"

#include <cstring>

#include "crypto/sha256_kernels.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace pan::crypto {
namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<std::uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

constexpr std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

void compress_block(std::uint32_t* state, const std::uint8_t block[64]) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[static_cast<std::size_t>(i)] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

}  // namespace

namespace sha256_kernels {

void portable(std::uint32_t* state, const std::uint8_t* data, std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) compress_block(state, data);
}

}  // namespace sha256_kernels

namespace {

#if defined(__x86_64__)
// The same compression on the SHA extensions: sha256rnds2 runs two rounds on
// the state held as ABEF/CDGH word pairs, sha256msg1/msg2 extend the message
// schedule four words at a time. Loads and stores are unaligned.

// The shuffle that reverses the bytes of each 32-bit lane (message and
// digest words are big-endian).
__attribute__((target("sse4.1"), always_inline)) inline __m128i byte_swap_mask() {
  return _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
}

// Runs the 64 rounds of one block on abef/cdgh and adds the input state back
// in. w0..w3 hold the block's sixteen message words, four to a vector, in
// host order.
__attribute__((target("sha,sse4.1"), always_inline)) inline void rounds_sha_ni(
    __m128i& abef, __m128i& cdgh, __m128i w0, __m128i w1, __m128i w2, __m128i w3) {
  const __m128i abef_in = abef;
  const __m128i cdgh_in = cdgh;
  // w[g % 4] holds message words 4g..4g+3 while rounds 4g..4g+3 run.
  __m128i w[4] = {w0, w1, w2, w3};
#pragma GCC unroll 16
  for (int g = 0; g < 16; ++g) {
    __m128i& words = w[g % 4];
    if (g >= 4) {
      const __m128i prev = w[(g + 3) % 4];  // words 4g-4..4g-1
      words = _mm_sha256msg1_epu32(words, w[(g + 1) % 4]);
      words = _mm_add_epi32(words, _mm_alignr_epi8(prev, w[(g + 2) % 4], 4));
      words = _mm_sha256msg2_epu32(words, prev);
    }
    const __m128i k_plus_w = _mm_add_epi32(
        words, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kRoundConstants.data() + 4 * g)));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, k_plus_w);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(k_plus_w, 0x0E));
  }
  abef = _mm_add_epi32(abef, abef_in);
  cdgh = _mm_add_epi32(cdgh, cdgh_in);
}

// Register names list the state words in the lanes from high to low.
__attribute__((target("sha,sse4.1"), always_inline)) inline void load_state_sha_ni(
    const std::uint32_t* state, __m128i& abef, __m128i& cdgh) {
  const __m128i cdab =
      _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  const __m128i efgh =
      _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  abef = _mm_alignr_epi8(cdab, efgh, 8);
  cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
}

// The inverse of load_state_sha_ni: abcd and efgh in the lanes from low to
// high.
__attribute__((target("sha,sse4.1"), always_inline)) inline void unload_state_sha_ni(
    __m128i abef, __m128i cdgh, __m128i& abcd, __m128i& efgh) {
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  abcd = _mm_blend_epi16(feba, dchg, 0xF0);
  efgh = _mm_alignr_epi8(dchg, feba, 8);
}

__attribute__((target("sha,sse4.1"))) void compress_sha_ni(std::uint32_t* state,
                                                          const std::uint8_t* data,
                                                          std::size_t blocks) {
  const __m128i byte_swap = byte_swap_mask();
  __m128i abef;
  __m128i cdgh;
  load_state_sha_ni(state, abef, cdgh);
  for (; blocks > 0; --blocks, data += 64) {
    __m128i w[4];
    for (int g = 0; g < 4; ++g) {
      w[g] = _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)),
                              byte_swap);
    }
    rounds_sha_ni(abef, cdgh, w[0], w[1], w[2], w[3]);
  }
  __m128i abcd;
  __m128i efgh;
  unload_state_sha_ni(abef, cdgh, abcd, efgh);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), abcd);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), efgh);
}

// SHA-256 of exactly 32 bytes: one block whose second half is the fixed
// padding (0x80, zeros, bit length 256), so message words 8..15 are
// constants and the digest is stored straight from the registers.
__attribute__((target("sha,sse4.1"))) void hash32_sha_ni(const std::uint8_t* data,
                                                        std::uint8_t* digest) {
  const __m128i byte_swap = byte_swap_mask();
  __m128i abef;
  __m128i cdgh;
  load_state_sha_ni(kInitialState.data(), abef, cdgh);
  rounds_sha_ni(
      abef, cdgh,
      _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(data)), byte_swap),
      _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16)), byte_swap),
      _mm_set_epi32(0, 0, 0, static_cast<int>(0x80000000U)), _mm_set_epi32(256, 0, 0, 0));
  __m128i abcd;
  __m128i efgh;
  unload_state_sha_ni(abef, cdgh, abcd, efgh);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(digest), _mm_shuffle_epi8(abcd, byte_swap));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(digest + 16), _mm_shuffle_epi8(efgh, byte_swap));
}

#endif

// Writes the eight state words big-endian: the digest.
void store_digest(const std::uint32_t* state, std::uint8_t* digest) {
  for (std::size_t i = 0; i < 8; ++i) {
    digest[4 * i] = static_cast<std::uint8_t>(state[i] >> 24);
    digest[4 * i + 1] = static_cast<std::uint8_t>(state[i] >> 16);
    digest[4 * i + 2] = static_cast<std::uint8_t>(state[i] >> 8);
    digest[4 * i + 3] = static_cast<std::uint8_t>(state[i]);
  }
}

// Sha256 compresses through g_compress and sha256_32 hashes through
// g_hash32. Both start as the portable kernels, so hashing from another
// file's static initialiser is correct too, and are switched to the hardware
// ones once, by kHardware's initialiser below.
constinit sha256_kernels::Compress g_compress = sha256_kernels::portable;
constinit sha256_kernels::Hash32 g_hash32 = sha256_kernels::portable_32;

struct HardwareKernels {
  sha256_kernels::Compress compress = nullptr;
  sha256_kernels::Hash32 hash32 = nullptr;
};

const HardwareKernels kHardware = [] {
  HardwareKernels hardware;
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sha")) hardware = {compress_sha_ni, hash32_sha_ni};
#endif
  if (hardware.compress != nullptr) {
    g_compress = hardware.compress;
    g_hash32 = hardware.hash32;
  }
  return hardware;
}();

// Blocks compressed through Sha256 and sha256_32. The library runs on one
// thread, so a plain counter is exact.
constinit std::uint64_t g_blocks = 0;

}  // namespace

namespace sha256_kernels {

void portable_32(const std::uint8_t* data, std::uint8_t* digest) {
  std::uint8_t block[64] = {};
  std::memcpy(block, data, 32);
  block[32] = 0x80;
  block[62] = 0x01;  // bit length 256, big-endian
  std::array<std::uint32_t, 8> state = kInitialState;
  compress_block(state.data(), block);
  store_digest(state.data(), digest);
}

Compress hardware() { return kHardware.compress; }

Compress selected() { return g_compress; }

Hash32 hardware_32() { return kHardware.hash32; }

Hash32 selected_32() { return g_hash32; }

}  // namespace sha256_kernels

std::uint64_t sha256_blocks() { return g_blocks; }

Digest sha256_32(const Digest& data) {
  ++g_blocks;
  Digest out;
  g_hash32(data.data(), out.data());
  return out;
}

Sha256::Sha256() { reset(); }

void Sha256::reset() {
  state_ = kInitialState;
  total_bytes_ = 0;
  buffered_ = 0;
}

void Sha256::update(std::span<const std::uint8_t> data) {
  total_bytes_ += data.size();
  std::size_t offset = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ == 64) {
      ++g_blocks;
      g_compress(state_.data(), buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  const std::size_t blocks = (data.size() - offset) / 64;
  if (blocks > 0) {
    g_blocks += blocks;
    g_compress(state_.data(), data.data() + offset, blocks);
    offset += 64 * blocks;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

void Sha256::update(std::string_view s) {
  update(std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

Digest Sha256::finalize() {
  const std::uint64_t bit_length = total_bytes_ * 8;
  // Padding: 0x80, zeros to 56 mod 64, 8-byte big-endian bit length — built
  // in one stack buffer and fed in a single update (the hop-MAC path
  // finalizes twice per packet, so per-byte padding calls would show up).
  std::array<std::uint8_t, 72> pad{};
  pad[0] = 0x80;
  const std::size_t zeros_end = buffered_ < 56 ? 56 - buffered_ : 120 - buffered_;
  for (std::size_t i = 0; i < 8; ++i) {
    pad[zeros_end + i] = static_cast<std::uint8_t>(bit_length >> (56 - 8 * i));
  }
  update(std::span<const std::uint8_t>(pad.data(), zeros_end + 8));

  Digest out;
  store_digest(state_.data(), out.data());
  return out;
}

Digest sha256(std::span<const std::uint8_t> data) {
  Sha256 h;
  h.update(data);
  return h.finalize();
}

Digest sha256(std::string_view s) {
  Sha256 h;
  h.update(s);
  return h.finalize();
}

std::string hex_digest(const Digest& d) {
  return to_hex(std::span<const std::uint8_t>(d));
}

}  // namespace pan::crypto
