#include "common/rng.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>

namespace ipipe {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

// splitmix64: seeds the xoshiro state from a single 64-bit value.
std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t x = seed;
  for (auto& word : s_) word = splitmix64(x);
}

std::uint64_t Rng::next() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_u64(std::uint64_t n) noexcept {
  // Lemire's multiply-shift bounded rejection.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (lo < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::exponential(double mean) noexcept {
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

bool Rng::bernoulli(double p) noexcept { return uniform() < p; }

double Rng::normal(double mean, double stddev) noexcept {
  double u1;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * std::numbers::pi * u2);
}

Rng Rng::fork() noexcept { return Rng(next() ^ 0xA5A5A5A55A5A5A5AULL); }

ZipfDist::ZipfDist(std::uint64_t n, double theta) : n_(n) {
  cdf_.resize(n);
  double sum = 0.0;
  for (std::uint64_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = sum;
  }
  // 4096 buckets keep the guide in 32 KiB and cut a search at n = 10^5
  // to a handful of entries; a smaller n gets one bucket per entry.  The
  // guide fills in the normalizing pass: bucket b takes the first index
  // whose value reaches b/B (exact: B is a power of two), and a bucket
  // no value reaches takes n - 1, where the plain search ends too.
  const std::uint64_t buckets =
      std::bit_ceil(std::clamp<std::uint64_t>(n, 1, 4096));
  const double width = 1.0 / static_cast<double>(buckets);
  guide_.assign(buckets + 1, n == 0 ? 0 : n - 1);
  std::uint64_t b = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    cdf_[i] /= sum;
    for (; b <= buckets && cdf_[i] >= static_cast<double>(b) * width; ++b) {
      guide_[b] = i;
    }
  }
}

std::uint64_t ZipfDist::at(double u) const noexcept {
  // u lies in [b/B, (b+1)/B), so the first cdf entry >= u lies in
  // [guide_[b], guide_[b + 1]]; binary-search that range.
  const auto b = static_cast<std::size_t>(
      u * static_cast<double>(guide_.size() - 1));
  std::uint64_t lo = guide_[b], hi = guide_[b + 1];
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (cdf_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace ipipe
