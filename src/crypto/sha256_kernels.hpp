// The SHA-256 block compressors behind crypto::Sha256, and the one-block
// 32-byte hashes behind crypto::sha256_32, exposed so tests can run each one
// directly and compare them. Production code goes through Sha256 and
// sha256_32, which use selected() and selected_32(); nothing here can force
// a kernel.
#pragma once

#include <cstddef>
#include <cstdint>

namespace pan::crypto::sha256_kernels {

/// Absorbs `blocks` consecutive 64-byte blocks into the eight-word state
/// (a..h, host order). No alignment is required of either pointer.
using Compress = void (*)(std::uint32_t* state, const std::uint8_t* data, std::size_t blocks);

/// The FIPS 180-4 reference loop, one round at a time. Runs everywhere.
void portable(std::uint32_t* state, const std::uint8_t* data, std::size_t blocks);

/// The x86 SHA-extensions kernel, or nullptr when the build does not target
/// x86-64 or the CPU lacks the SHA extensions.
[[nodiscard]] Compress hardware();

/// The kernel Sha256 compresses with: hardware() when there is one, else
/// portable. Chosen once, at static initialisation.
[[nodiscard]] Compress selected();

/// Writes SHA-256 of exactly 32 bytes at `data` to the 32 bytes at
/// `digest`. A 32-byte message and its padding fill one block, so this is
/// one compression from the initial state.
using Hash32 = void (*)(const std::uint8_t* data, std::uint8_t* digest);

/// Pads into one block and compresses it with the portable loop.
void portable_32(const std::uint8_t* data, std::uint8_t* digest);

/// The SHA-extensions one-block hash, with the padding words (8..15) built
/// in as constants, or nullptr exactly when hardware() is nullptr.
[[nodiscard]] Hash32 hardware_32();

/// The hash sha256_32 runs: hardware_32() when there is one, else
/// portable_32.
[[nodiscard]] Hash32 selected_32();

}  // namespace pan::crypto::sha256_kernels
