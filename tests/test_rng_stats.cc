#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"

namespace ipipe {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformU64Bounded) {
  Rng rng(9);
  for (int i = 0; i < 10'000; ++i) {
    ASSERT_LT(rng.uniform_u64(17), 17u);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(32.0);
  EXPECT_NEAR(sum / n, 32.0, 0.5);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 200'000; ++i) stats.add(rng.normal(10.0, 3.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.05);
}

TEST(Zipf, SkewFavorsHeadKeys) {
  Rng rng(17);
  ZipfDist zipf(1000, 0.99);
  std::vector<int> counts(1000, 0);
  const int n = 100'000;
  for (int i = 0; i < n; ++i) ++counts[zipf(rng)];
  // Rank 0 should dominate rank 99 by roughly (100/1)^0.99.
  EXPECT_GT(counts[0], counts[99] * 20);
  // Head key near its theoretical share 1/H_0.99(1000) ~= 12.3%.
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.123, 0.02);
}

TEST(Zipf, UniformWhenThetaZero) {
  Rng rng(19);
  ZipfDist zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100'000; ++i) ++counts[zipf(rng)];
  for (const int c : counts) EXPECT_NEAR(c, 10'000, 600);
}

// The table ZipfDist builds, by the same loop: cdf[i] = P(X <= i).
std::vector<double> zipf_reference_cdf(std::uint64_t n, double theta) {
  std::vector<double> cdf(n);
  double sum = 0.0;
  for (std::uint64_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf[i] = sum;
  }
  for (double& v : cdf) v /= sum;
  return cdf;
}

// The first cdf entry >= u over the whole table (n - 1 if none), the
// search the guide table must reproduce.
std::uint64_t zipf_plain_search(const std::vector<double>& cdf, double u) {
  std::uint64_t lo = 0, hi = cdf.size() - 1;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (cdf[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

TEST(Zipf, GuidedDrawEqualsPlainSearch) {
  // The benches' key space and skew, a small table with one bucket per
  // key, and a uniform one with more buckets than keys.
  struct Case {
    std::uint64_t n;
    double theta;
  };
  for (const Case c : {Case{100'000, 0.99}, Case{1000, 1.2}, Case{7, 0.0}}) {
    const ZipfDist z(c.n, c.theta);
    const std::vector<double> cdf = zipf_reference_cdf(c.n, c.theta);
    const std::string where = "n=" + std::to_string(c.n);
    Rng rng(29);
    std::size_t mismatches = 0;
    for (int i = 0; i < 1'000'000; ++i) {
      const double u = rng.uniform();
      if (z.at(u) != zipf_plain_search(cdf, u)) ++mismatches;
    }
    // Every multiple of 1/4096 (which includes every bucket edge b/B of
    // a guide of up to 4096 buckets) and every cdf value, each with its
    // neighbours: the draws where a search is most likely to slip.
    std::vector<double> probes = {0.0, std::nextafter(1.0, 0.0)};
    for (int k = 1; k < 4096; ++k) probes.push_back(k / 4096.0);
    for (const double v : cdf) {
      if (v < 1.0) probes.push_back(v);
    }
    for (const double p : probes) {
      for (const double u : {std::nextafter(p, 0.0), p, std::nextafter(p, 1.0)}) {
        if (u < 0.0 || u >= 1.0) continue;
        if (z.at(u) != zipf_plain_search(cdf, u)) ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0u) << where;
  }
}

TEST(Bimodal, MeanMatches) {
  Rng rng(23);
  BimodalDist dist(35.0, 60.0, 0.5);
  double sum = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sum += dist(rng);
  EXPECT_NEAR(sum / n, dist.mean(), 0.3);
  EXPECT_DOUBLE_EQ(dist.mean(), 47.5);
}

TEST(Ewma, ConvergesToConstant) {
  Ewma ewma(0.2);
  for (int i = 0; i < 100; ++i) ewma.add(42.0);
  EXPECT_DOUBLE_EQ(ewma.value(), 42.0);
}

TEST(Ewma, FirstSampleSeeds) {
  Ewma ewma(0.1);
  EXPECT_FALSE(ewma.seeded());
  ewma.add(7.0);
  EXPECT_TRUE(ewma.seeded());
  EXPECT_DOUBLE_EQ(ewma.value(), 7.0);
}

TEST(EwmaMeanStd, TailApproximatesP99ForNormal) {
  Rng rng(31);
  EwmaMeanStd stats(0.02);
  for (int i = 0; i < 100'000; ++i) stats.add(rng.normal(100.0, 10.0));
  // µ+3σ for N(100,10) = 130; P99 = 123.3.  The estimator should land in
  // that neighbourhood.
  EXPECT_NEAR(stats.mean(), 100.0, 3.0);
  EXPECT_NEAR(stats.tail(), 130.0, 8.0);
}

TEST(RunningStats, ExactSmallCase) {
  RunningStats stats;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(v);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(LatencyHistogram, PercentilesOnUniformRamp) {
  LatencyHistogram hist;
  for (Ns v = 1; v <= 10'000; ++v) hist.add(v);
  EXPECT_EQ(hist.count(), 10'000u);
  EXPECT_NEAR(static_cast<double>(hist.p50()), 5000.0, 200.0);
  EXPECT_NEAR(static_cast<double>(hist.p99()), 9900.0, 300.0);
  EXPECT_EQ(hist.max(), 10'000u);
  EXPECT_NEAR(hist.mean_ns(), 5000.5, 1.0);
}

TEST(LatencyHistogram, MergeCombines) {
  LatencyHistogram a;
  LatencyHistogram b;
  for (Ns v = 1; v <= 100; ++v) a.add(v * 10);
  for (Ns v = 1; v <= 100; ++v) b.add(v * 1000);
  a.merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_GE(a.percentile(75.0), 250u);
}

TEST(LatencyHistogram, PercentileOfEmptyIsZero) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.p99(), 0u);
  EXPECT_EQ(hist.count(), 0u);
}

}  // namespace
}  // namespace ipipe
