#include "crypto/sha1.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "crypto/endian.h"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace ipipe::crypto {

void Sha1::reset() noexcept {
  state_ = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};
  total_bytes_ = 0;
  buffered_ = 0;
}

namespace {

/// One block on the integer rounds.
void compress_block(std::array<std::uint32_t, 5>& state,
                    const std::uint8_t* block) noexcept {
  // The schedule keeps its last 16 words: word t >= 16 replaces word t - 16.
  std::uint32_t w[16];
  for (int i = 0; i < 16; ++i) w[i] = load_be32(block + i * 4);
  const auto word = [&w](int t) {
    if (t < 16) return w[t];
    w[t & 15] = std::rotl(
        w[(t - 3) & 15] ^ w[(t - 8) & 15] ^ w[(t - 14) & 15] ^ w[t & 15], 1);
    return w[t & 15];
  };

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3],
                e = state[4];
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

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
}

#if defined(__x86_64__)

bool cpu_has_shani() noexcept {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0 ||
      (ecx & bit_SSE4_1) == 0 || (ecx & bit_SSSE3) == 0) {
    return false;
  }
  return __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0 &&
         (ebx & bit_SHA) != 0;
}

/// The compression on SHA-NI.  Lanes hold words high to low: ABCD has A
/// in lane 3, and each message chunk holds its first word in lane 3.
/// sha1rnds4 runs four rounds; sha1nexte derives the E of the next four
/// (A of the last four, rotated by 30) and adds it to their first word;
/// sha1msg1/sha1msg2 extend the schedule four words at a time.
__attribute__((target("sha,sse4.1"))) void compress_shani(
    std::array<std::uint32_t, 5>& state, const std::uint8_t* blocks,
    std::size_t n) noexcept {
  const __m128i reverse =
      _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);
  __m128i abcd = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data())), 0x1B);
  __m128i e = _mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0);
  for (; n > 0; --n, blocks += 64) {
    const __m128i abcd_in = abcd;
    const __m128i e_in = e;
    __m128i msg[4];  // words 4g..4g+3 of group g sit in msg[g % 4]
    __m128i prev = abcd;  // ABCD before the last four rounds
#pragma GCC unroll 20
    for (int g = 0; g < 20; ++g) {
      __m128i& m = msg[g & 3];
      if (g < 4) {
        m = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * g)),
            reverse);
      } else {
        m = _mm_sha1msg2_epu32(
            _mm_xor_si128(_mm_sha1msg1_epu32(m, msg[(g + 1) & 3]),
                          msg[(g + 2) & 3]),
            msg[(g + 3) & 3]);
      }
      const __m128i we = g == 0 ? _mm_add_epi32(e, m)
                                : _mm_sha1nexte_epu32(prev, m);
      prev = abcd;
      switch (g / 5) {  // the round function's selector is an immediate
        case 0:
          abcd = _mm_sha1rnds4_epu32(abcd, we, 0);
          break;
        case 1:
          abcd = _mm_sha1rnds4_epu32(abcd, we, 1);
          break;
        case 2:
          abcd = _mm_sha1rnds4_epu32(abcd, we, 2);
          break;
        default:
          abcd = _mm_sha1rnds4_epu32(abcd, we, 3);
          break;
      }
    }
    e = _mm_sha1nexte_epu32(prev, e_in);
    abcd = _mm_add_epi32(abcd, abcd_in);
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data()),
                   _mm_shuffle_epi32(abcd, 0x1B));
  state[4] = static_cast<std::uint32_t>(_mm_extract_epi32(e, 3));
}

#endif  // __x86_64__

}  // namespace

void detail::sha1_compress_portable(std::array<std::uint32_t, 5>& state,
                                    const std::uint8_t* blocks,
                                    std::size_t n) noexcept {
  for (; n > 0; --n, blocks += 64) compress_block(state, blocks);
}

bool hardware_sha1() noexcept {
#if defined(__x86_64__)
  static const bool supported = cpu_has_shani();
  return supported;
#else
  return false;
#endif
}

void Sha1::compress(const std::uint8_t* blocks, std::size_t n) noexcept {
#if defined(__x86_64__)
  if (hardware_sha1()) {
    compress_shani(state_, blocks, n);
    return;
  }
#endif
  detail::sha1_compress_portable(state_, blocks, n);
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
      compress(buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  const std::size_t whole = (data.size() - offset) / 64;
  if (whole > 0) {
    compress(data.data() + offset, whole);
    offset += whole * 64;
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
    compress(buffer_.data(), 1);
    buffered_ = 0;
  }
  std::memset(buffer_.data() + buffered_, 0, 56 - buffered_);
  store_be32(buffer_.data() + 56, static_cast<std::uint32_t>(bit_len >> 32));
  store_be32(buffer_.data() + 60, static_cast<std::uint32_t>(bit_len));
  compress(buffer_.data(), 1);

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
