// The SHA-256 block compressors behind crypto::Sha256, exposed so tests can
// run each one directly and compare them. Production code goes through
// Sha256, which uses selected(); nothing here can force a kernel.
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

}  // namespace pan::crypto::sha256_kernels
