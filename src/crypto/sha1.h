// SHA-1 (FIPS 180-4) with incremental API, plus HMAC-SHA1 (RFC 2104).
// Used by the IPSec gateway datapath (§5.7: "AES-256-CTR encryption and
// SHA-1 authentication") and as the SHA-1 accelerator functional model.
// The engine's time comes from the accelerator model, so only the bytes
// must be right: blocks compress on SHA-NI when CPUID reports it (checked
// once per process; see hardware_sha1()).  The rolling-schedule integer
// rounds stay as detail::sha1_compress_portable(): they are the only path
// on CPUs without SHA-NI and the reference the tests hold the hardware
// path to.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace ipipe::crypto {

class Sha1 {
 public:
  using Digest = std::array<std::uint8_t, 20>;

  Sha1() noexcept { reset(); }

  void reset() noexcept;
  void update(std::span<const std::uint8_t> data) noexcept;
  [[nodiscard]] Digest finalize() noexcept;

  [[nodiscard]] static Digest hash(std::span<const std::uint8_t> data) noexcept;

 private:
  /// Compresses `n` whole 64-byte blocks into state_.
  void compress(const std::uint8_t* blocks, std::size_t n) noexcept;

  std::array<std::uint32_t, 5> state_{};
  std::uint64_t total_bytes_ = 0;
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffered_ = 0;
};

/// HMAC-SHA1 (RFC 2104) under one fixed key.  The key's ipad and opad
/// blocks are hashed once, at construction; each message then costs only
/// its own blocks plus the two final compressions.
class HmacSha1 {
 public:
  /// Any key length; keys longer than a block are hashed first.
  explicit HmacSha1(std::span<const std::uint8_t> key) noexcept;

  /// A hasher already fed the key's ipad block.  update() it with the
  /// message, in as many pieces as convenient, then pass it to finish().
  [[nodiscard]] Sha1 begin() const noexcept { return inner_; }
  /// The MAC of everything fed to `inner` since begin(); resets `inner`.
  [[nodiscard]] Sha1::Digest finish(Sha1& inner) const noexcept;

  [[nodiscard]] Sha1::Digest mac(std::span<const std::uint8_t> data) const noexcept;

 private:
  Sha1 inner_;  // after the key ^ ipad block
  Sha1 outer_;  // after the key ^ opad block
};

/// HMAC-SHA1 over `data` with `key` (any key length; RFC 2104 key prep).
[[nodiscard]] Sha1::Digest hmac_sha1(std::span<const std::uint8_t> key,
                                     std::span<const std::uint8_t> data) noexcept;

/// True when Sha1 compresses its blocks on SHA-NI in this process.
[[nodiscard]] bool hardware_sha1() noexcept;

namespace detail {

/// The SHA-1 compression of `n` whole 64-byte blocks into `state`, on the
/// integer rounds, whatever the CPU.
void sha1_compress_portable(std::array<std::uint32_t, 5>& state,
                            const std::uint8_t* blocks, std::size_t n) noexcept;

}  // namespace detail

}  // namespace ipipe::crypto
