// AES-128/192/256 block cipher (FIPS 197) and CTR mode.
//
// Functional model for the SmartNIC AES engine (Table 3) and the working
// cipher behind the IPSec gateway (§5.7, AES-256-CTR).  The engine's time
// comes from the accelerator model, so this code only has to produce the
// right bytes cheaply: encryption runs 32-bit T-table rounds (one 1 KiB
// table, rotated per row), decryption stays byte-wise.  Table lookups are
// not side-channel resistant; this encrypts simulated traffic, never real
// secrets.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace ipipe::crypto {

class Aes {
 public:
  static constexpr std::size_t kBlockSize = 16;

  /// key.size() must be 16, 24 or 32 bytes.
  explicit Aes(std::span<const std::uint8_t> key);

  /// Encrypt exactly one 16-byte block (in may alias out).
  void encrypt_block(const std::uint8_t* in, std::uint8_t* out) const noexcept;
  /// Decrypt exactly one 16-byte block (in may alias out).
  void decrypt_block(const std::uint8_t* in, std::uint8_t* out) const noexcept;

  [[nodiscard]] int rounds() const noexcept { return rounds_; }

 private:
  int rounds_;
  // rounds_ + 1 round keys (at most 15, AES-256), each as four big-endian
  // words.
  std::array<std::uint32_t, 4 * 15> round_keys_{};
};

/// AES-CTR keystream cipher.  Encrypt and decrypt are the same operation.
/// `counter` is the 16-byte initial counter block (IV || counter).
void aes_ctr_crypt(const Aes& aes, std::array<std::uint8_t, 16> counter,
                   std::span<const std::uint8_t> in,
                   std::span<std::uint8_t> out) noexcept;

}  // namespace ipipe::crypto
