// Property-based tests: randomized differential checks of the core
// primitives against oracles (std::regex, interval maps, deques).
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <regex>

#include "apps/rta/regex.h"
#include "common/rng.h"
#include "ipipe/channel.h"
#include "ipipe/dmo.h"
#include "nic/cache_model.h"
#include "nic/nic_config.h"

namespace ipipe {
namespace {

// ---------------------------------------------------------------- regex --

/// Random pattern from the grammar subset shared by our engine and
/// ECMAScript std::regex.
std::string random_pattern(Rng& rng, int depth = 0) {
  std::string out;
  const int atoms = 1 + static_cast<int>(rng.uniform_u64(4));
  for (int i = 0; i < atoms; ++i) {
    std::string atom;
    bool quantifiable = true;  // never quantify groups: nested stars make
                               // backtracking std::regex exponential
    const double dice = rng.uniform();
    if (dice < 0.5 || depth >= 2) {
      atom.push_back(static_cast<char>('a' + rng.uniform_u64(4)));
    } else if (dice < 0.65) {
      atom = "[" + std::string(1, static_cast<char>('a' + rng.uniform_u64(3))) +
             "-" + std::string(1, static_cast<char>('c' + rng.uniform_u64(3))) +
             "]";
    } else if (dice < 0.8) {
      atom = "(" + random_pattern(rng, depth + 1) + ")";
      quantifiable = false;
    } else {
      atom = "(" + random_pattern(rng, depth + 1) + "|" +
             random_pattern(rng, depth + 1) + ")";
      quantifiable = false;
    }
    const double quant = rng.uniform();
    if (quantifiable) {
      if (quant < 0.2) {
        atom += "*";
      } else if (quant < 0.35) {
        atom += "+";
      } else if (quant < 0.5) {
        atom += "?";
      }
    }
    out += atom;
  }
  return out;
}

TEST(RegexProperty, DifferentialAgainstStdRegex) {
  Rng rng(0xD1FF);
  int checked = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const std::string pattern = random_pattern(rng);
    std::unique_ptr<rta::Regex> ours;
    std::unique_ptr<std::regex> theirs;
    try {
      ours = std::make_unique<rta::Regex>(pattern);
      theirs = std::make_unique<std::regex>(pattern);
    } catch (...) {
      continue;  // either side rejected the pattern; skip
    }
    for (int t = 0; t < 20; ++t) {
      std::string text;
      const auto len = rng.uniform_u64(12);
      for (std::uint64_t i = 0; i < len; ++i) {
        text.push_back(static_cast<char>('a' + rng.uniform_u64(6)));
      }
      const bool mine = ours->match(text);
      const bool ref = std::regex_match(text, *theirs);
      ASSERT_EQ(mine, ref) << "pattern=\"" << pattern << "\" text=\"" << text
                           << "\"";
      ASSERT_EQ(ours->search(text), std::regex_search(text, *theirs))
          << "search pattern=\"" << pattern << "\" text=\"" << text << "\"";
      ++checked;
    }
  }
  EXPECT_GT(checked, 2000);  // ensure the generator produced real coverage
}

// --------------------------------------------------------------- channel --

TEST(ChannelRingProperty, RandomPushPopMatchesDequeOracle) {
  Rng rng(0xCAFE);
  ChannelRing ring(2048);
  std::deque<std::vector<std::uint8_t>> oracle;
  std::size_t oracle_bytes = 0;  // frame bytes the consumer hasn't acked

  for (int op = 0; op < 20'000; ++op) {
    if (rng.bernoulli(0.55)) {
      std::vector<std::uint8_t> msg(1 + rng.uniform_u64(120));
      for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next());
      const bool pushed = ring.push(msg);
      // The ring may refuse (lazy ack keeps its free-space view stale),
      // but it must never refuse when completely idle.
      if (pushed) {
        oracle.push_back(std::move(msg));
      } else {
        ASSERT_FALSE(oracle.empty() && oracle_bytes == 0 &&
                     ring.producer_free() == ring.capacity())
            << "refused push on an empty, fully-acked ring";
      }
    } else {
      const auto out = ring.pop();
      if (oracle.empty()) {
        ASSERT_FALSE(out.has_value());
      } else {
        ASSERT_TRUE(out.has_value());
        ASSERT_EQ(*out, oracle.front());
        oracle_bytes += 8 + oracle.front().size();
        oracle.pop_front();
        if (ring.unacked() > ring.capacity() / 2) {
          ring.ack();
          oracle_bytes = 0;
        }
      }
    }
  }
  EXPECT_EQ(ring.crc_failures(), 0u);
}

TEST(ChannelRingProperty, AnyCorruptionIsDetected) {
  Rng rng(0xBAD);
  for (int trial = 0; trial < 200; ++trial) {
    ChannelRing ring(1024);
    std::vector<std::uint8_t> msg(16 + rng.uniform_u64(100));
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next());
    ASSERT_TRUE(ring.push(msg));
    // Flip one random bit inside the *body* (corrupting the length header
    // is the DMA-reordering case the checksum cannot always catch; the
    // paper's design assumes framing words land intact).
    const std::size_t pos = 8 + rng.uniform_u64(msg.size());
    ring.corrupt_byte(pos, static_cast<std::uint8_t>(1u << rng.uniform_u64(8)));
    bool corrupt = false;
    const auto out = ring.pop(&corrupt);
    ASSERT_FALSE(out.has_value());
    ASSERT_TRUE(corrupt);
  }
}

// ------------------------------------------------------------- allocator --

TEST(RegionAllocatorProperty, RandomChurnAgainstIntervalOracle) {
  Rng rng(0xA110C);
  RegionAllocator alloc(1 << 12, 1 << 18);
  std::map<std::uint64_t, std::uint64_t> live;  // addr -> size
  std::uint64_t oracle_used = 0;

  for (int op = 0; op < 30'000; ++op) {
    if (live.empty() || rng.bernoulli(0.55)) {
      const std::uint64_t size = 1 + rng.uniform_u64(700);
      const auto addr = alloc.alloc(size);
      if (!addr) continue;  // fragmentation refusal is allowed
      // In-range and aligned.
      ASSERT_GE(*addr, alloc.region_base());
      ASSERT_LE(*addr + size, alloc.region_base() + alloc.region_size());
      ASSERT_EQ(*addr % 16, 0u);
      // Non-overlap with every live block.
      const auto next = live.lower_bound(*addr);
      if (next != live.end()) ASSERT_LE(*addr + size, next->first);
      if (next != live.begin()) {
        const auto prev = std::prev(next);
        ASSERT_LE(prev->first + prev->second, *addr);
      }
      live[*addr] = size;
      oracle_used += (size + 15) & ~15ull;
    } else {
      auto it = live.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(
                           rng.uniform_u64(live.size())));
      oracle_used -= (it->second + 15) & ~15ull;
      ASSERT_TRUE(alloc.free(it->first, it->second));
      live.erase(it);
    }
    ASSERT_EQ(alloc.bytes_used(), oracle_used);
  }
  // Free everything: the region coalesces back to one block.
  for (const auto& [addr, size] : live) {
    ASSERT_TRUE(alloc.free(addr, size));
  }
  EXPECT_EQ(alloc.bytes_used(), 0u);
  EXPECT_EQ(alloc.free_block_count(), 1u);
}

// ------------------------------------------------------------ cache model --

class CacheMonotonic : public ::testing::TestWithParam<int> {};

TEST_P(CacheMonotonic, LatencyNonDecreasingInWorkingSet) {
  const auto presets = nic::smartnic_presets();
  const auto& cfg = presets[static_cast<std::size_t>(GetParam())];
  nic::CacheModel cache = nic::CacheModel::for_nic(cfg);
  double prev = 0.0;
  for (std::uint64_t ws = 1024; ws <= 4 * GiB; ws *= 2) {
    const double lat = cache.expected_access_ns(ws);
    ASSERT_GE(lat + 1e-9, prev) << cfg.name << " ws=" << ws;
    prev = lat;
  }
  // Bounded by the slowest level.
  EXPECT_LE(prev, cfg.dram.latency_ns + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllCards, CacheMonotonic, ::testing::Values(0, 1, 2, 3));

class ForwardingMonotonic : public ::testing::TestWithParam<int> {};

TEST_P(ForwardingMonotonic, CostNonDecreasingInFrameSize) {
  const auto presets = nic::smartnic_presets();
  const auto& cfg = presets[static_cast<std::size_t>(GetParam())];
  Ns prev = 0;
  for (std::uint32_t frame = 64; frame <= 1500; frame += 64) {
    const Ns cost = cfg.forwarding.cost(frame);
    ASSERT_GE(cost, prev);
    prev = cost;
  }
}

INSTANTIATE_TEST_SUITE_P(AllCards, ForwardingMonotonic,
                         ::testing::Values(0, 1, 2, 3));

}  // namespace
}  // namespace ipipe
