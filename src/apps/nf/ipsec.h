// IPSec ESP datapath (§5.7): AES-256-CTR encryption + HMAC-SHA1
// authentication, with *real* cryptography from crypto::.  On the
// simulated SmartNIC the time cost comes from the AES/SHA-1 engines
// (Table 3); functionally, encapsulate/decapsulate round-trip real bytes.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "crypto/aes.h"
#include "crypto/sha1.h"

namespace ipipe::nf {

class IpsecGateway {
 public:
  /// 32-byte AES-256 key + arbitrary-length HMAC key.
  IpsecGateway(std::span<const std::uint8_t> aes_key,
               const std::vector<std::uint8_t>& hmac_key,
               std::uint32_t spi = 0x1001);

  struct EspPacket {
    std::uint32_t spi = 0;
    std::uint64_t seq = 0;
    std::array<std::uint8_t, 8> iv{};
    std::vector<std::uint8_t> ciphertext;
    std::array<std::uint8_t, 12> icv{};  // truncated HMAC-SHA1 tag
  };

  /// Encrypt + authenticate a plaintext payload.
  [[nodiscard]] EspPacket encapsulate(std::span<const std::uint8_t> plaintext);

  /// Verify + decrypt; nullopt on authentication failure or replay.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> decapsulate(
      const EspPacket& pkt);

  [[nodiscard]] std::uint64_t sent() const noexcept { return seq_; }
  [[nodiscard]] std::uint64_t auth_failures() const noexcept {
    return auth_failures_;
  }
  [[nodiscard]] std::uint64_t replays() const noexcept { return replays_; }

 private:
  [[nodiscard]] std::array<std::uint8_t, 16> counter_block(
      const EspPacket& pkt) const;
  [[nodiscard]] std::array<std::uint8_t, 12> compute_icv(
      const EspPacket& pkt) const;

  crypto::Aes aes_;
  crypto::HmacSha1 hmac_;
  std::uint32_t spi_;
  std::uint64_t seq_ = 0;
  std::uint64_t highest_seen_ = 0;
  std::uint64_t auth_failures_ = 0;
  std::uint64_t replays_ = 0;
};

}  // namespace ipipe::nf
