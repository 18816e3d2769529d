#include "crypto/aes.h"

#include <bit>
#include <cassert>
#include <cstring>
#include <utility>

#include "crypto/endian.h"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace ipipe::crypto {
namespace {

constexpr std::uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr std::uint8_t kInvSbox[256] = {
    0x52, 0x09, 0x6a, 0xd5, 0x30, 0x36, 0xa5, 0x38, 0xbf, 0x40, 0xa3, 0x9e,
    0x81, 0xf3, 0xd7, 0xfb, 0x7c, 0xe3, 0x39, 0x82, 0x9b, 0x2f, 0xff, 0x87,
    0x34, 0x8e, 0x43, 0x44, 0xc4, 0xde, 0xe9, 0xcb, 0x54, 0x7b, 0x94, 0x32,
    0xa6, 0xc2, 0x23, 0x3d, 0xee, 0x4c, 0x95, 0x0b, 0x42, 0xfa, 0xc3, 0x4e,
    0x08, 0x2e, 0xa1, 0x66, 0x28, 0xd9, 0x24, 0xb2, 0x76, 0x5b, 0xa2, 0x49,
    0x6d, 0x8b, 0xd1, 0x25, 0x72, 0xf8, 0xf6, 0x64, 0x86, 0x68, 0x98, 0x16,
    0xd4, 0xa4, 0x5c, 0xcc, 0x5d, 0x65, 0xb6, 0x92, 0x6c, 0x70, 0x48, 0x50,
    0xfd, 0xed, 0xb9, 0xda, 0x5e, 0x15, 0x46, 0x57, 0xa7, 0x8d, 0x9d, 0x84,
    0x90, 0xd8, 0xab, 0x00, 0x8c, 0xbc, 0xd3, 0x0a, 0xf7, 0xe4, 0x58, 0x05,
    0xb8, 0xb3, 0x45, 0x06, 0xd0, 0x2c, 0x1e, 0x8f, 0xca, 0x3f, 0x0f, 0x02,
    0xc1, 0xaf, 0xbd, 0x03, 0x01, 0x13, 0x8a, 0x6b, 0x3a, 0x91, 0x11, 0x41,
    0x4f, 0x67, 0xdc, 0xea, 0x97, 0xf2, 0xcf, 0xce, 0xf0, 0xb4, 0xe6, 0x73,
    0x96, 0xac, 0x74, 0x22, 0xe7, 0xad, 0x35, 0x85, 0xe2, 0xf9, 0x37, 0xe8,
    0x1c, 0x75, 0xdf, 0x6e, 0x47, 0xf1, 0x1a, 0x71, 0x1d, 0x29, 0xc5, 0x89,
    0x6f, 0xb7, 0x62, 0x0e, 0xaa, 0x18, 0xbe, 0x1b, 0xfc, 0x56, 0x3e, 0x4b,
    0xc6, 0xd2, 0x79, 0x20, 0x9a, 0xdb, 0xc0, 0xfe, 0x78, 0xcd, 0x5a, 0xf4,
    0x1f, 0xdd, 0xa8, 0x33, 0x88, 0x07, 0xc7, 0x31, 0xb1, 0x12, 0x10, 0x59,
    0x27, 0x80, 0xec, 0x5f, 0x60, 0x51, 0x7f, 0xa9, 0x19, 0xb5, 0x4a, 0x0d,
    0x2d, 0xe5, 0x7a, 0x9f, 0x93, 0xc9, 0x9c, 0xef, 0xa0, 0xe0, 0x3b, 0x4d,
    0xae, 0x2a, 0xf5, 0xb0, 0xc8, 0xeb, 0xbb, 0x3c, 0x83, 0x53, 0x99, 0x61,
    0x17, 0x2b, 0x04, 0x7e, 0xba, 0x77, 0xd6, 0x26, 0xe1, 0x69, 0x14, 0x63,
    0x55, 0x21, 0x0c, 0x7d};

constexpr std::uint8_t xtime(std::uint8_t x) noexcept {
  return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1B));
}

std::uint8_t gmul(std::uint8_t a, std::uint8_t b) noexcept {
  std::uint8_t p = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) p ^= a;
    a = xtime(a);
    b >>= 1;
  }
  return p;
}

// kTe[x] is the MixColumns column (2·S[x], S[x], S[x], 3·S[x]) as one
// big-endian word: what SubBytes output S[x] in row 0 adds to its column.
// Rows 1, 2 and 3 add the same word rotated right by 8, 16 and 24 bits.
constexpr std::array<std::uint32_t, 256> kTe = [] {
  std::array<std::uint32_t, 256> te{};
  for (std::size_t x = 0; x < 256; ++x) {
    const std::uint32_t s = kSbox[x];
    const std::uint32_t s2 = xtime(kSbox[x]);
    te[x] = (s2 << 24) | (s << 16) | (s << 8) | (s2 ^ s);
  }
  return te;
}();

/// SubBytes + ShiftRows for one output column: its row-r byte is the S-box
/// of row r of the r-th argument (a for row 0, ..., d for row 3).
std::uint32_t sub_shift(std::uint32_t a, std::uint32_t b, std::uint32_t c,
                        std::uint32_t d) noexcept {
  return (static_cast<std::uint32_t>(kSbox[a >> 24]) << 24) |
         (static_cast<std::uint32_t>(kSbox[(b >> 16) & 0xff]) << 16) |
         (static_cast<std::uint32_t>(kSbox[(c >> 8) & 0xff]) << 8) |
         static_cast<std::uint32_t>(kSbox[d & 0xff]);
}

/// sub_shift() followed by MixColumns, from the T-table.
std::uint32_t sub_shift_mix(std::uint32_t a, std::uint32_t b, std::uint32_t c,
                            std::uint32_t d) noexcept {
  return kTe[a >> 24] ^ std::rotr(kTe[(b >> 16) & 0xff], 8) ^
         std::rotr(kTe[(c >> 8) & 0xff], 16) ^ std::rotr(kTe[d & 0xff], 24);
}

#if defined(__x86_64__)

bool cpu_has_aesni() noexcept {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  return __get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0 && (ecx & bit_AES) != 0;
}

/// The counter block whose big-endian halves are `hi` and `lo`.
__attribute__((target("aes"))) inline __m128i counter_block(
    std::uint64_t hi, std::uint64_t lo) noexcept {
  return _mm_set_epi64x(static_cast<long long>(__builtin_bswap64(lo)),
                        static_cast<long long>(__builtin_bswap64(hi)));
}

__attribute__((target("aes"))) inline __m128i round_key(
    const std::uint8_t* blocks, int round) noexcept {
  return _mm_load_si128(reinterpret_cast<const __m128i*>(blocks + 16 * round));
}

/// CTR on AES-NI, eight counter blocks per pass while eight remain.  The
/// 128-bit counter is two 64-bit halves; the low half carries into the
/// high one.  A tail shorter than a block takes the head of one keystream
/// block.
__attribute__((target("aes"))) void ctr_aesni(
    const std::uint8_t* keys, int rounds, std::array<std::uint8_t, 16> counter,
    const std::uint8_t* in, std::uint8_t* out, std::size_t len) noexcept {
  constexpr std::size_t kLanes = 8;
  std::uint64_t hi = load_be64(counter.data());
  std::uint64_t lo = load_be64(counter.data() + 8);
  std::size_t off = 0;
  for (; len - off >= kLanes * 16; off += kLanes * 16) {
    __m128i b[kLanes];
    const __m128i first = round_key(keys, 0);
#pragma GCC unroll 8
    for (std::size_t i = 0; i < kLanes; ++i) {
      b[i] = _mm_xor_si128(counter_block(hi, lo), first);
      if (++lo == 0) ++hi;
    }
    for (int r = 1; r < rounds; ++r) {
      const __m128i k = round_key(keys, r);
#pragma GCC unroll 8
      for (std::size_t i = 0; i < kLanes; ++i) b[i] = _mm_aesenc_si128(b[i], k);
    }
    const __m128i last = round_key(keys, rounds);
#pragma GCC unroll 8
    for (std::size_t i = 0; i < kLanes; ++i) {
      const auto* src = reinterpret_cast<const __m128i*>(in + off + 16 * i);
      auto* dst = reinterpret_cast<__m128i*>(out + off + 16 * i);
      _mm_storeu_si128(dst, _mm_xor_si128(_mm_loadu_si128(src),
                                          _mm_aesenclast_si128(b[i], last)));
    }
  }
  for (; off < len; off += 16) {
    __m128i b = _mm_xor_si128(counter_block(hi, lo), round_key(keys, 0));
    if (++lo == 0) ++hi;
    for (int r = 1; r < rounds; ++r) b = _mm_aesenc_si128(b, round_key(keys, r));
    b = _mm_aesenclast_si128(b, round_key(keys, rounds));
    if (len - off >= 16) {
      const auto* src = reinterpret_cast<const __m128i*>(in + off);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + off),
                       _mm_xor_si128(_mm_loadu_si128(src), b));
    } else {
      alignas(16) std::uint8_t keystream[16];
      _mm_store_si128(reinterpret_cast<__m128i*>(keystream), b);
      for (std::size_t i = 0; i < len - off; ++i)
        out[off + i] = static_cast<std::uint8_t>(in[off + i] ^ keystream[i]);
    }
  }
}

#endif  // __x86_64__

}  // namespace

Aes::Aes(std::span<const std::uint8_t> key) {
  const std::size_t key_len = key.size();
  assert(key_len == 16 || key_len == 24 || key_len == 32);
  const int nk = static_cast<int>(key_len / 4);
  rounds_ = nk + 6;
  const int total_words = 4 * (rounds_ + 1);

  // Key expansion (FIPS 197 §5.2), one big-endian word at a time.
  std::uint32_t* w = round_keys_.data();
  for (int i = 0; i < nk; ++i) w[i] = load_be32(key.data() + i * 4);
  std::uint8_t rcon = 0x01;
  for (int i = nk; i < total_words; ++i) {
    std::uint32_t temp = w[i - 1];
    if (i % nk == 0) {
      // RotWord + SubWord + Rcon (sub_shift of one word four times is
      // SubWord).
      temp = std::rotl(temp, 8);
      temp = sub_shift(temp, temp, temp, temp) ^ (std::uint32_t{rcon} << 24);
      rcon = xtime(rcon);
    } else if (nk > 6 && i % nk == 4) {
      temp = sub_shift(temp, temp, temp, temp);
    }
    w[i] = w[i - nk] ^ temp;
  }
  for (int i = 0; i < total_words; ++i)
    store_be32(round_key_blocks_.data() + 4 * i, w[i]);
}

void Aes::encrypt_block(const std::uint8_t* in, std::uint8_t* out) const noexcept {
  // The state is four big-endian column words.
  const std::uint32_t* rk = round_keys_.data();
  std::uint32_t s0 = load_be32(in) ^ rk[0];
  std::uint32_t s1 = load_be32(in + 4) ^ rk[1];
  std::uint32_t s2 = load_be32(in + 8) ^ rk[2];
  std::uint32_t s3 = load_be32(in + 12) ^ rk[3];
  for (int round = 1; round < rounds_; ++round) {
    rk += 4;
    const std::uint32_t t0 = sub_shift_mix(s0, s1, s2, s3) ^ rk[0];
    const std::uint32_t t1 = sub_shift_mix(s1, s2, s3, s0) ^ rk[1];
    const std::uint32_t t2 = sub_shift_mix(s2, s3, s0, s1) ^ rk[2];
    const std::uint32_t t3 = sub_shift_mix(s3, s0, s1, s2) ^ rk[3];
    s0 = t0;
    s1 = t1;
    s2 = t2;
    s3 = t3;
  }
  rk += 4;  // the final round has no MixColumns
  store_be32(out, sub_shift(s0, s1, s2, s3) ^ rk[0]);
  store_be32(out + 4, sub_shift(s1, s2, s3, s0) ^ rk[1]);
  store_be32(out + 8, sub_shift(s2, s3, s0, s1) ^ rk[2]);
  store_be32(out + 12, sub_shift(s3, s0, s1, s2) ^ rk[3]);
}

void Aes::decrypt_block(const std::uint8_t* in, std::uint8_t* out) const noexcept {
  std::uint8_t s[16];
  std::memcpy(s, in, 16);
  auto add_round_key = [&](int round) {
    const std::uint32_t* rk = round_keys_.data() + round * 4;
    for (int i = 0; i < 16; ++i)
      s[i] ^= static_cast<std::uint8_t>(rk[i / 4] >> (24 - 8 * (i % 4)));
  };
  auto inv_sub_bytes = [&] {
    for (auto& b : s) b = kInvSbox[b];
  };
  auto inv_shift_rows = [&] {
    // Row r rotates right by r.
    std::uint8_t t = s[13];
    s[13] = s[9]; s[9] = s[5]; s[5] = s[1]; s[1] = t;
    std::swap(s[2], s[10]);
    std::swap(s[6], s[14]);
    t = s[3];
    s[3] = s[7]; s[7] = s[11]; s[11] = s[15]; s[15] = t;
  };
  auto inv_mix_columns = [&] {
    for (int c = 0; c < 4; ++c) {
      std::uint8_t* col = s + c * 4;
      const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
      col[0] = static_cast<std::uint8_t>(gmul(a0, 14) ^ gmul(a1, 11) ^ gmul(a2, 13) ^ gmul(a3, 9));
      col[1] = static_cast<std::uint8_t>(gmul(a0, 9) ^ gmul(a1, 14) ^ gmul(a2, 11) ^ gmul(a3, 13));
      col[2] = static_cast<std::uint8_t>(gmul(a0, 13) ^ gmul(a1, 9) ^ gmul(a2, 14) ^ gmul(a3, 11));
      col[3] = static_cast<std::uint8_t>(gmul(a0, 11) ^ gmul(a1, 13) ^ gmul(a2, 9) ^ gmul(a3, 14));
    }
  };

  add_round_key(rounds_);
  for (int round = rounds_ - 1; round >= 1; --round) {
    inv_shift_rows();
    inv_sub_bytes();
    add_round_key(round);
    inv_mix_columns();
  }
  inv_shift_rows();
  inv_sub_bytes();
  add_round_key(0);
  std::memcpy(out, s, 16);
}

bool hardware_aes() noexcept {
#if defined(__x86_64__)
  static const bool supported = cpu_has_aesni();
  return supported;
#else
  return false;
#endif
}

void aes_ctr_crypt(const Aes& aes, std::array<std::uint8_t, 16> counter,
                   std::span<const std::uint8_t> in,
                   std::span<std::uint8_t> out) noexcept {
  assert(out.size() >= in.size());
#if defined(__x86_64__)
  if (hardware_aes()) {
    ctr_aesni(aes.round_key_blocks_.data(), aes.rounds_, counter, in.data(),
              out.data(), in.size());
    return;
  }
#endif
  detail::aes_ctr_crypt_portable(aes, counter, in, out);
}

void detail::aes_ctr_crypt_portable(const Aes& aes,
                                    std::array<std::uint8_t, 16> counter,
                                    std::span<const std::uint8_t> in,
                                    std::span<std::uint8_t> out) noexcept {
  assert(out.size() >= in.size());
  std::uint8_t keystream[16];
  for (std::size_t offset = 0; offset < in.size(); offset += 16) {
    aes.encrypt_block(counter.data(), keystream);
    // Increment the 128-bit big-endian counter.
    for (int i = 15; i >= 0; --i) {
      if (++counter[static_cast<std::size_t>(i)] != 0) break;
    }
    const std::uint8_t* src = in.data() + offset;
    std::uint8_t* dst = out.data() + offset;
    if (in.size() - offset >= 16) {
      // Whole block: two 8-byte XORs (in may alias out).
      for (std::size_t i = 0; i < 16; i += 8) {
        std::uint64_t data;
        std::uint64_t key;
        std::memcpy(&data, src + i, 8);
        std::memcpy(&key, keystream + i, 8);
        data ^= key;
        std::memcpy(dst + i, &data, 8);
      }
    } else {
      for (std::size_t i = 0; i < in.size() - offset; ++i)
        dst[i] = static_cast<std::uint8_t>(src[i] ^ keystream[i]);
    }
  }
}

}  // namespace ipipe::crypto
