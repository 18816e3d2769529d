#include "crypto/crc32.h"

#include <array>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace ipipe::crypto {
namespace {

constexpr std::uint32_t kPoly = 0xEDB88320u;  // reflected 0x04C11DB7

/// Slicing-by-8 tables: kTables[0] is the classic bytewise table, and
/// kTables[k][i] is the CRC of byte i followed by k zero bytes, so eight
/// lookups advance the register over eight input bytes at once.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (kPoly ^ (c >> 1)) : (c >> 1);
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

constexpr auto kTables = make_tables();

/// Advance the (uninverted) CRC register `c` over `n` bytes at `p`.
std::uint32_t sliced(std::uint32_t c, const std::uint8_t* p,
                     std::size_t n) noexcept {
  // Byte loads keep this independent of host endianness and alignment.
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = c ^ (std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
                                  std::uint32_t{p[2]} << 16 |
                                  std::uint32_t{p[3]} << 24);
    c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
        kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
        kTables[3][p[4]] ^ kTables[2][p[5]] ^ kTables[1][p[6]] ^
        kTables[0][p[7]];
  }
  for (; n > 0; --n, ++p) c = kTables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c;
}

#if defined(__x86_64__)

bool cpu_has_pclmul() noexcept {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  return __get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0 &&
         (ecx & bit_PCLMUL) != 0;
}

/// Fewest bytes the folding takes: it starts from four 16-byte lanes.
constexpr std::size_t kFoldMin = 64;

__attribute__((target("pclmul"))) inline __m128i load16(
    const std::uint8_t* at) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

/// One fold of the 128-bit lane `x` forward by the distance `k` encodes
/// (x.hi * k.hi ^ x.lo * k.lo), merged with the lane `next` found there.
__attribute__((target("pclmul"))) inline __m128i fold(__m128i x, __m128i k,
                                                      __m128i next) noexcept {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x11),
                                     _mm_clmulepi64_si128(x, k, 0x00)),
                       next);
}

/// Advance the (uninverted) register `c` over `n` bytes at `p`, where
/// n >= kFoldMin and n is a multiple of 16, by folding with carry-less
/// multiplies (Gopal et al., "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ Instruction", Intel, 2009).  The constants
/// are x^k mod P for the reflected polynomial, bit-reflected and shifted
/// left by one; `kMuPoly` holds P and the Barrett constant floor(x^64 / P).
__attribute__((target("pclmul"))) std::uint32_t fold_pclmul(
    std::uint32_t c, const std::uint8_t* p, std::size_t n) noexcept {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i kMuPoly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i x1 =
      _mm_xor_si128(load16(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load16(p + 16);
  __m128i x3 = load16(p + 32);
  __m128i x4 = load16(p + 48);
  p += 64;
  n -= 64;
  // Four lanes in parallel, 64 bytes per step.
  for (; n >= 64; n -= 64, p += 64) {
    x1 = fold(x1, k1k2, load16(p));
    x2 = fold(x2, k1k2, load16(p + 16));
    x3 = fold(x3, k1k2, load16(p + 32));
    x4 = fold(x4, k1k2, load16(p + 48));
  }
  // Fold the four lanes into one, then the remaining 16-byte blocks.
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; n >= 16; n -= 16, p += 16) x1 = fold(x1, k3k4, load16(p));

  // 128 -> 64 bits.
  __m128i t = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), t);
  // 64 -> 32 bits.
  t = _mm_srli_si128(x1, 4);
  x1 = _mm_and_si128(x1, low32);
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, k5, 0x00), t);
  // Barrett reduction to the 32-bit register.
  t = _mm_and_si128(x1, low32);
  t = _mm_clmulepi64_si128(t, kMuPoly, 0x10);
  t = _mm_and_si128(t, low32);
  t = _mm_clmulepi64_si128(t, kMuPoly, 0x00);
  x1 = _mm_xor_si128(x1, t);
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x1, 4)));
}

#endif

}  // namespace

bool hardware_crc32() noexcept {
#if defined(__x86_64__)
  static const bool supported = cpu_has_pclmul();
  return supported;
#else
  return false;
#endif
}

std::uint32_t crc32(std::span<const std::uint8_t> data,
                    std::uint32_t seed) noexcept {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
#if defined(__x86_64__)
  if (n >= kFoldMin && hardware_crc32()) {
    const std::size_t whole = n & ~std::size_t{15};
    c = fold_pclmul(c, p, whole);
    p += whole;
    n -= whole;
  }
#endif
  return sliced(c, p, n) ^ 0xFFFFFFFFu;
}

std::uint32_t detail::crc32_portable(std::span<const std::uint8_t> data,
                                     std::uint32_t seed) noexcept {
  return sliced(seed ^ 0xFFFFFFFFu, data.data(), data.size()) ^ 0xFFFFFFFFu;
}

}  // namespace ipipe::crypto
