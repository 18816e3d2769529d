// AES-128/192/256 block cipher (FIPS 197) and CTR mode.
//
// Functional model for the SmartNIC AES engine (Table 3) and the working
// cipher behind the IPSec gateway (§5.7, AES-256-CTR).  The engine's time
// comes from the accelerator model, so this code only has to produce the
// right bytes cheaply.  aes_ctr_crypt() runs on AES-NI, eight counter
// blocks at a time, when CPUID reports it (checked once per process; see
// hardware_aes()).  Otherwise, and in encrypt_block(), encryption runs
// 32-bit T-table rounds (one 1 KiB table, rotated per row); decryption
// stays byte-wise.  The T-table CTR path stays as
// detail::aes_ctr_crypt_portable(): it is the only path on CPUs without
// AES-NI and the reference the tests hold the hardware path to.  Table
// lookups are not side-channel resistant; this encrypts simulated
// traffic, never real secrets.
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
  friend void aes_ctr_crypt(const Aes& aes,
                            std::array<std::uint8_t, 16> counter,
                            std::span<const std::uint8_t> in,
                            std::span<std::uint8_t> out) noexcept;

  int rounds_;
  // rounds_ + 1 round keys (at most 15, AES-256), each as four big-endian
  // words (the T-table layout).
  std::array<std::uint32_t, 4 * 15> round_keys_{};
  // The same round keys as 16-byte blocks in FIPS 197 byte order (the
  // AES-NI layout).
  alignas(16) std::array<std::uint8_t, 16 * 15> round_key_blocks_{};
};

/// AES-CTR keystream cipher.  Encrypt and decrypt are the same operation.
/// `counter` is the 16-byte initial counter block (IV || counter),
/// incremented as one 128-bit big-endian number.  `in` may alias `out`.
void aes_ctr_crypt(const Aes& aes, std::array<std::uint8_t, 16> counter,
                   std::span<const std::uint8_t> in,
                   std::span<std::uint8_t> out) noexcept;

/// True when aes_ctr_crypt() runs on AES-NI in this process.
[[nodiscard]] bool hardware_aes() noexcept;

namespace detail {

/// aes_ctr_crypt() on the T-table rounds, whatever the CPU.
void aes_ctr_crypt_portable(const Aes& aes,
                            std::array<std::uint8_t, 16> counter,
                            std::span<const std::uint8_t> in,
                            std::span<std::uint8_t> out) noexcept;

}  // namespace detail

}  // namespace ipipe::crypto
