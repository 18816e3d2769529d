#include "crypto/sha1.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "crypto/endian.h"

namespace ipipe::crypto {

void Sha1::reset() noexcept {
  state_ = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};
  total_bytes_ = 0;
  buffered_ = 0;
}

void Sha1::process_block(const std::uint8_t* block) noexcept {
  // The schedule keeps its last 16 words: word t >= 16 replaces word t - 16.
  std::uint32_t w[16];
  for (int i = 0; i < 16; ++i) w[i] = load_be32(block + i * 4);
  const auto word = [&w](int t) {
    if (t < 16) return w[t];
    w[t & 15] = std::rotl(
        w[(t - 3) & 15] ^ w[(t - 8) & 15] ^ w[(t - 14) & 15] ^ w[t & 15], 1);
    return w[t & 15];
  };

  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3],
                e = state_[4];
  // Five rounds t..t+4.  Each round adds into the variable playing e and
  // rotates the one playing b; the roles then shift by one, so after five
  // rounds every variable is back in its own role and no value moves.
  const auto step = [&](int t, std::uint32_t k, auto f) {
    e += std::rotl(a, 5) + f(b, c, d) + k + word(t);
    b = std::rotl(b, 30);
    d += std::rotl(e, 5) + f(a, b, c) + k + word(t + 1);
    a = std::rotl(a, 30);
    c += std::rotl(d, 5) + f(e, a, b) + k + word(t + 2);
    e = std::rotl(e, 30);
    b += std::rotl(c, 5) + f(d, e, a) + k + word(t + 3);
    d = std::rotl(d, 30);
    a += std::rotl(b, 5) + f(c, d, e) + k + word(t + 4);
    c = std::rotl(c, 30);
  };
  const auto choose = [](std::uint32_t x, std::uint32_t y, std::uint32_t z) {
    return z ^ (x & (y ^ z));
  };
  const auto parity = [](std::uint32_t x, std::uint32_t y, std::uint32_t z) {
    return x ^ y ^ z;
  };
  const auto majority = [](std::uint32_t x, std::uint32_t y, std::uint32_t z) {
    return (x & y) | (z & (x | y));
  };
  for (int t = 0; t < 20; t += 5) step(t, 0x5A827999u, choose);
  for (int t = 20; t < 40; t += 5) step(t, 0x6ED9EBA1u, parity);
  for (int t = 40; t < 60; t += 5) step(t, 0x8F1BBCDCu, majority);
  for (int t = 60; t < 80; t += 5) step(t, 0xCA62C1D6u, parity);

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
}

void Sha1::update(std::span<const std::uint8_t> data) noexcept {
  if (data.empty()) return;  // data.data() may be null: no memcpy from it
  total_bytes_ += data.size();
  std::size_t offset = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ == 64) {
      process_block(buffer_.data());
      buffered_ = 0;
    }
  }
  while (offset + 64 <= data.size()) {
    process_block(data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

Sha1::Digest Sha1::finalize() noexcept {
  // Pad with 0x80, zeros up to 56 mod 64, then the big-endian bit length.
  const std::uint64_t bit_len = total_bytes_ * 8;
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::memset(buffer_.data() + buffered_, 0, 64 - buffered_);
    process_block(buffer_.data());
    buffered_ = 0;
  }
  std::memset(buffer_.data() + buffered_, 0, 56 - buffered_);
  store_be32(buffer_.data() + 56, static_cast<std::uint32_t>(bit_len >> 32));
  store_be32(buffer_.data() + 60, static_cast<std::uint32_t>(bit_len));
  process_block(buffer_.data());

  Digest digest;
  for (int i = 0; i < 5; ++i)
    store_be32(digest.data() + i * 4, state_[static_cast<std::size_t>(i)]);
  reset();
  return digest;
}

Sha1::Digest Sha1::hash(std::span<const std::uint8_t> data) noexcept {
  Sha1 sha;
  sha.update(data);
  return sha.finalize();
}

HmacSha1::HmacSha1(std::span<const std::uint8_t> key) noexcept {
  std::array<std::uint8_t, 64> key_block{};
  if (key.size() > 64) {
    const auto digest = Sha1::hash(key);
    std::copy(digest.begin(), digest.end(), key_block.begin());
  } else {
    std::copy(key.begin(), key.end(), key_block.begin());
  }

  std::array<std::uint8_t, 64> pad;
  for (std::size_t i = 0; i < 64; ++i)
    pad[i] = static_cast<std::uint8_t>(key_block[i] ^ 0x36);
  inner_.update(pad);
  for (std::size_t i = 0; i < 64; ++i)
    pad[i] = static_cast<std::uint8_t>(key_block[i] ^ 0x5C);
  outer_.update(pad);
}

Sha1::Digest HmacSha1::finish(Sha1& inner) const noexcept {
  const auto inner_digest = inner.finalize();
  Sha1 outer = outer_;
  outer.update(inner_digest);
  return outer.finalize();
}

Sha1::Digest HmacSha1::mac(std::span<const std::uint8_t> data) const noexcept {
  Sha1 inner = begin();
  inner.update(data);
  return finish(inner);
}

Sha1::Digest hmac_sha1(std::span<const std::uint8_t> key,
                       std::span<const std::uint8_t> data) noexcept {
  return HmacSha1(key).mac(data);
}

}  // namespace ipipe::crypto
