// Deterministic pseudo-random number generation for the simulator.
//
// We use xoshiro256** (Blackman & Vigna) rather than std::mt19937 because
// it is faster, has a tiny state, and gives us explicit cross-platform
// reproducibility for simulation runs.  On top of the raw generator we
// provide the distributions the paper's workloads need: uniform,
// exponential (Poisson arrivals), bimodal (high-dispersion service times,
// Fig. 16) and zipf (KV key popularity, §5.1).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace ipipe {

/// xoshiro256** generator.  Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept {
    return ~std::uint64_t{0};
  }

  result_type operator()() noexcept { return next(); }
  std::uint64_t next() noexcept;

  /// Uniform in [0, 1).
  double uniform() noexcept;
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) noexcept;
  /// Uniform integer in [0, n).  n must be > 0.
  std::uint64_t uniform_u64(std::uint64_t n) noexcept;
  /// Exponential with the given mean (> 0).
  double exponential(double mean) noexcept;
  /// true with probability p.
  bool bernoulli(double p) noexcept;
  /// Normal via Box-Muller (mean, stddev).
  double normal(double mean, double stddev) noexcept;

  /// Split off an independently-seeded child stream (for per-entity RNGs).
  [[nodiscard]] Rng fork() noexcept;

 private:
  std::array<std::uint64_t, 4> s_;
};

/// Bimodal service-time distribution: value b1 with probability p1,
/// otherwise b2.  Matches the paper's "bimodal-2" high-dispersion loads.
class BimodalDist {
 public:
  BimodalDist(double b1, double b2, double p1 = 0.5) noexcept
      : b1_(b1), b2_(b2), p1_(p1) {}
  [[nodiscard]] double operator()(Rng& rng) const noexcept {
    return rng.uniform() < p1_ ? b1_ : b2_;
  }
  [[nodiscard]] double mean() const noexcept {
    return p1_ * b1_ + (1.0 - p1_) * b2_;
  }

 private:
  double b1_, b2_, p1_;
};

/// Zipf-distributed integers in [0, n) with skew `theta` using the
/// rejection-inversion-free CDF-table method (exact).  For n up to a few
/// million the table is cheap and draws are precise, which matters for
/// reproducing the 0.99-skew KV workload.  A guide table of B = 2^k
/// buckets narrows each search to one bucket: entry b is the first index
/// whose CDF value is >= b/B, and a draw u lies in bucket floor(u * B).
/// Both b/B and u * B are exact in binary, so every draw equals the plain
/// search's; at n = 10^5, skew 0.99, a search averages under three
/// probes instead of seventeen.
class ZipfDist {
 public:
  ZipfDist(std::uint64_t n, double theta);
  [[nodiscard]] std::uint64_t operator()(Rng& rng) const noexcept {
    return at(rng.uniform());
  }
  /// The draw for uniform `u` in [0, 1): the first index whose CDF value
  /// is >= u (n - 1 if none is).
  [[nodiscard]] std::uint64_t at(double u) const noexcept;
  [[nodiscard]] std::uint64_t n() const noexcept { return n_; }

 private:
  std::uint64_t n_;
  std::vector<double> cdf_;  // cdf_[i] = P(X <= i)
  std::vector<std::uint64_t> guide_;  // B + 1 entries, see the class comment
};

}  // namespace ipipe
