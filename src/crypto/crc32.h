// CRC-32 (IEEE 802.3 polynomial, reflected).  Used for message-channel
// integrity checksums (§3.5) and as the CRC accelerator's functional
// model.  On x86-64 CPUs with PCLMULQDQ the bulk of each buffer is folded
// with carry-less multiplies (chosen from CPUID once per process; see
// hardware_crc32()).  The slicing-by-8 table code stays as
// detail::crc32_portable(): it is the only path on other CPUs, finishes
// the tail the folding leaves, and is the reference the tests hold the
// hardware path to.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace ipipe::crypto {

/// One-shot CRC32 of `data`, with optional chaining via `seed` (pass a
/// previous crc32 result to continue over concatenated buffers).
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data,
                                  std::uint32_t seed = 0) noexcept;

/// True when crc32() folds on PCLMULQDQ in this process.
[[nodiscard]] bool hardware_crc32() noexcept;

namespace detail {

/// crc32() on the slicing-by-8 tables, whatever the CPU.
[[nodiscard]] std::uint32_t crc32_portable(std::span<const std::uint8_t> data,
                                           std::uint32_t seed = 0) noexcept;

}  // namespace detail

}  // namespace ipipe::crypto
