// CRC-32 (IEEE 802.3 polynomial, reflected), slicing-by-8 table-driven.
// Used for message-channel integrity checksums (§3.5) and as the CRC
// accelerator's functional model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace ipipe::crypto {

/// One-shot CRC32 of `data`, with optional chaining via `seed` (pass a
/// previous crc32 result to continue over concatenated buffers).
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data,
                                  std::uint32_t seed = 0) noexcept;

}  // namespace ipipe::crypto
