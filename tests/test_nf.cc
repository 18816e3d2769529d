#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "apps/nf/chain_repl.h"
#include "apps/nf/count_min.h"
#include "apps/nf/ipsec.h"
#include "apps/nf/kv_cache.h"
#include "apps/nf/leaky_bucket.h"
#include "apps/nf/lpm_trie.h"
#include "apps/nf/maglev.h"
#include "apps/nf/naive_bayes.h"
#include "apps/nf/pfabric.h"
#include "apps/nf/tcam.h"
#include "common/rng.h"
#include "common/units.h"

namespace ipipe::nf {
namespace {

TEST(CountMin, NeverUnderestimates) {
  CountMinSketch sketch(1024, 4);
  Rng rng(1);
  std::unordered_map<std::uint64_t, std::uint64_t> truth;
  for (int i = 0; i < 20'000; ++i) {
    const std::uint64_t key = rng.uniform_u64(500);
    sketch.add(key);
    ++truth[key];
  }
  for (const auto& [key, count] : truth) {
    EXPECT_GE(sketch.estimate(key), count);
  }
}

TEST(CountMin, RejectsZeroDimensions) {
  // Regression: width 0 made index() compute `hash % 0` (UB); depth 0
  // made estimate() return uint64_t-max from an empty min-fold.  Both
  // are rejected at construction now.
  EXPECT_THROW(CountMinSketch(0, 4), std::invalid_argument);
  EXPECT_THROW(CountMinSketch(1024, 0), std::invalid_argument);
  EXPECT_THROW(CountMinSketch(0, 0), std::invalid_argument);
}

TEST(CountMin, AccurateForHeavyHitters) {
  CountMinSketch sketch(4096, 4);
  for (int i = 0; i < 10'000; ++i) sketch.add(42);
  for (int i = 0; i < 1000; ++i) sketch.add(static_cast<std::uint64_t>(i + 100));
  const auto est = sketch.estimate(42);
  EXPECT_GE(est, 10'000u);
  EXPECT_LE(est, 10'050u);
}

TEST(SoftTcam, PriorityAndWildcards) {
  SoftTcam tcam;
  // Low priority: accept everything.
  tcam.add_rule(TcamRule{{}, {}, 1, 100});
  // High priority: drop traffic to port 22.
  TcamRule ssh{};
  ssh.value.dst_port = 22;
  ssh.mask.dst_port = 0xFFFF;
  ssh.priority = 10;
  ssh.action = 0;
  tcam.add_rule(ssh);

  FiveTuple pkt;
  pkt.dst_port = 22;
  const auto r1 = tcam.lookup(pkt);
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r1->action, 0u);
  EXPECT_EQ(r1->rules_scanned, 1u);

  pkt.dst_port = 80;
  const auto r2 = tcam.lookup(pkt);
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->action, 100u);
  EXPECT_EQ(r2->rules_scanned, 2u);
}

TEST(SoftTcam, MatchesLinearScanOracle) {
  Rng rng(2);
  SoftTcam tcam;
  std::vector<TcamRule> rules;
  for (int i = 0; i < 200; ++i) {
    TcamRule rule{};
    rule.value.src_ip = static_cast<std::uint32_t>(rng.next());
    rule.mask.src_ip = 0xFFFFFF00u << (rng.uniform_u64(3) * 4);
    rule.value.proto = static_cast<std::uint8_t>(rng.uniform_u64(3));
    rule.mask.proto = rng.bernoulli(0.5) ? 0xFF : 0x00;
    rule.priority = static_cast<std::uint32_t>(rng.uniform_u64(1000));
    rule.action = static_cast<std::uint32_t>(i + 1);
    tcam.add_rule(rule);
    rules.push_back(rule);
  }
  // Oracle: max-priority matching rule via linear scan.
  for (int t = 0; t < 500; ++t) {
    FiveTuple pkt;
    pkt.src_ip = static_cast<std::uint32_t>(rng.next());
    pkt.proto = static_cast<std::uint8_t>(rng.uniform_u64(3));
    const TcamRule* best = nullptr;
    for (const auto& rule : rules) {
      if (rule.matches(pkt) && (best == nullptr || rule.priority > best->priority)) {
        best = &rule;
      }
    }
    const auto got = tcam.lookup(pkt);
    if (best == nullptr) {
      EXPECT_FALSE(got.has_value());
    } else {
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(got->priority, best->priority);
    }
  }
}

TEST(LpmTrie, LongestPrefixWins) {
  LpmTrie trie;
  trie.insert(0x0A000000, 8, 1);   // 10.0.0.0/8
  trie.insert(0x0A010000, 16, 2);  // 10.1.0.0/16
  trie.insert(0x0A010100, 24, 3);  // 10.1.1.0/24

  EXPECT_EQ(trie.lookup(0x0A010105)->next_hop, 3u);
  EXPECT_EQ(trie.lookup(0x0A010205)->next_hop, 2u);
  EXPECT_EQ(trie.lookup(0x0A020305)->next_hop, 1u);
  EXPECT_FALSE(trie.lookup(0x0B000001).has_value());
}

TEST(LpmTrie, MatchesBruteForceOracle) {
  Rng rng(3);
  LpmTrie trie;
  std::vector<std::tuple<std::uint32_t, unsigned, std::uint32_t>> prefixes;
  for (int i = 0; i < 300; ++i) {
    const unsigned len = 4 + static_cast<unsigned>(rng.uniform_u64(25));
    const std::uint32_t prefix =
        static_cast<std::uint32_t>(rng.next()) & (len == 32 ? ~0u : ~0u << (32 - len));
    trie.insert(prefix, len, static_cast<std::uint32_t>(i + 1));
    prefixes.emplace_back(prefix, len, static_cast<std::uint32_t>(i + 1));
  }
  for (int t = 0; t < 2000; ++t) {
    const auto addr = static_cast<std::uint32_t>(rng.next());
    unsigned best_len = 0;
    std::uint32_t best_hop = 0;
    bool found = false;
    for (const auto& [prefix, len, hop] : prefixes) {
      const std::uint32_t mask = len == 0 ? 0 : (len == 32 ? ~0u : ~0u << (32 - len));
      if ((addr & mask) == (prefix & mask) && (!found || len >= best_len)) {
        // On exact duplicate (prefix,len) the trie keeps the last insert.
        if (!found || len > best_len ||
            (len == best_len && hop > best_hop)) {
          best_len = len;
          best_hop = hop;
        }
        found = true;
      }
    }
    const auto got = trie.lookup(addr);
    EXPECT_EQ(got.has_value(), found);
    if (found && got) EXPECT_EQ(got->prefix_len, best_len);
  }
}

TEST(LpmTrie, EraseRemovesRoute) {
  LpmTrie trie;
  trie.insert(0x0A000000, 8, 1);
  EXPECT_TRUE(trie.erase(0x0A000000, 8));
  EXPECT_FALSE(trie.erase(0x0A000000, 8));
  EXPECT_FALSE(trie.lookup(0x0A000001).has_value());
}

TEST(Maglev, BalancedDistribution) {
  std::vector<std::string> backends;
  for (int i = 0; i < 10; ++i) backends.push_back("be" + std::to_string(i));
  MaglevTable table(backends, 65537);
  const auto dist = table.load_distribution();
  const auto [lo, hi] = std::minmax_element(dist.begin(), dist.end());
  // Maglev guarantees near-perfect balance.
  EXPECT_LT(static_cast<double>(*hi) / static_cast<double>(*lo), 1.02);
}

TEST(Maglev, MinimalDisruptionOnBackendFailure) {
  std::vector<std::string> backends;
  for (int i = 0; i < 10; ++i) backends.push_back("be" + std::to_string(i));
  MaglevTable table(backends, 65537);
  const double disruption = table.remove_backend(3);
  // Ideal: only the failed backend's ~10% of entries move; Maglev gets
  // close to that (paper reports ~same order).
  EXPECT_GT(disruption, 0.08);
  EXPECT_LT(disruption, 0.25);
  // No lookups land on the dead backend.
  Rng rng(4);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_NE(table.lookup(rng.next()), 3u);
  }
}

// Maglev's fill with the permutation written out as
// (offset + j * skip) % m on every probe, the textbook formula.
std::vector<std::size_t> maglev_reference(
    const std::vector<std::string>& backends, const std::vector<bool>& alive,
    std::size_t m) {
  auto hash = [](const std::string& s, std::uint64_t salt) {
    std::uint64_t h = 1469598103934665603ULL ^ salt;
    for (const char c : s) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 1099511628211ULL;
    }
    return h;
  };
  const std::size_t n = backends.size();
  std::vector<std::size_t> entries(m, MaglevTable::kNoBackend);
  std::vector<std::size_t> offset(n), skip(n), next(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    offset[i] = hash(backends[i], 0xA11CE) % m;
    skip[i] = hash(backends[i], 0xB0B) % (m - 1) + 1;
  }
  std::size_t filled = 0;
  while (filled < m) {
    for (std::size_t i = 0; i < n && filled < m; ++i) {
      if (!alive[i]) continue;
      std::size_t c = (offset[i] + next[i] * skip[i]) % m;
      while (entries[c] != MaglevTable::kNoBackend) {
        ++next[i];
        c = (offset[i] + next[i] * skip[i]) % m;
      }
      entries[c] = i;
      ++next[i];
      ++filled;
    }
  }
  return entries;
}

void expect_maglev_matches(const MaglevTable& t,
                           const std::vector<std::string>& backends,
                           const std::vector<bool>& alive) {
  const std::size_t m = t.table_size();
  const std::vector<std::size_t> want = maglev_reference(backends, alive, m);
  std::size_t mismatches = 0;
  for (std::size_t slot = 0; slot < m; ++slot) {
    if (t.lookup(slot) != want[slot]) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u) << "m=" << m << " backends=" << backends.size();
}

TEST(Maglev, FillMatchesModuloFormula) {
  // Prime sizes (small, near the 65537 default and between) and backend
  // counts from one to more than the smallest table's share allows.
  for (const std::size_t m : {2u, 3u, 101u, 4099u, 65537u}) {
    for (const int n : {1, 2, 7, 10, 33}) {
      std::vector<std::string> backends;
      for (int i = 0; i < n; ++i) backends.push_back("be" + std::to_string(i));
      MaglevTable t(backends, m);
      ASSERT_EQ(t.table_size(), m);
      std::vector<bool> alive(backends.size(), true);
      expect_maglev_matches(t, backends, alive);
      // Refills after failures, down to one live backend.
      for (int dead = 0; dead + 1 < n && dead < 3; ++dead) {
        const auto idx = static_cast<std::size_t>((dead * 5) % n);
        if (!alive[idx]) continue;
        (void)t.remove_backend(idx);
        alive[idx] = false;
        expect_maglev_matches(t, backends, alive);
      }
    }
  }
}

TEST(LeakyBucket, EnforcesRate) {
  LeakyBucket bucket(8e6 /*1MB/s*/, 2000, 10'000);
  Ns now = 0;
  for (int i = 0; i < 1000; ++i) {
    now += usec(100);  // 10k pkts/s of 1KB => 10MB/s offered, 1MB/s allowed
    bucket.offer(now, 1000);
  }
  bucket.drain(now);
  // 100ms at 1MB/s = 100KB = ~100 packets (plus the 2KB burst).
  EXPECT_NEAR(static_cast<double>(bucket.passed()), 102, 8);
}

TEST(LeakyBucket, BurstAllowsInitialSpike) {
  LeakyBucket bucket(1e6, 10'000, 100);
  int passed = 0;
  for (int i = 0; i < 12; ++i) {
    if (bucket.offer(1, 1000)) ++passed;
  }
  EXPECT_EQ(passed, 10);  // exactly the burst budget
}

TEST(PFabric, DequeuesSmallestRemaining) {
  PFabricScheduler sched;
  Rng rng(5);
  std::vector<std::uint32_t> remaining;
  for (int i = 0; i < 500; ++i) {
    const auto r = static_cast<std::uint32_t>(rng.uniform_u64(1'000'000));
    sched.enqueue({static_cast<std::uint64_t>(i), r, 0});
    remaining.push_back(r);
  }
  std::sort(remaining.begin(), remaining.end());
  for (const auto expected : remaining) {
    const auto e = sched.dequeue();
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->remaining, expected);
  }
  EXPECT_FALSE(sched.dequeue().has_value());
}

TEST(PFabric, MonotoneInsertionStaysBalanced) {
  // Regression: a long flow draining in order produces strictly
  // increasing `remaining` keys.  The old plain BST degenerated into a
  // linked list (enqueue #4096 visited 4096 nodes); the treap keeps the
  // expected depth logarithmic regardless of insertion order.
  PFabricScheduler sched;
  constexpr std::size_t kN = 4096;
  std::size_t max_visits = 0;
  for (std::size_t i = 0; i < kN; ++i) {
    sched.enqueue({i, static_cast<std::uint32_t>(i + 1), 0});
    max_visits = std::max(max_visits, sched.last_visits());
  }
  EXPECT_EQ(sched.size(), kN);
  // log2(4096) = 12; allow generous slack for treap variance, but far
  // below the linear 4096 the unbalanced tree produced.
  EXPECT_LE(max_visits, 64u);

  // Order semantics are unchanged: ascending by remaining.
  for (std::size_t i = 0; i < kN; ++i) {
    const auto e = sched.dequeue();
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->remaining, static_cast<std::uint32_t>(i + 1));
  }
  EXPECT_FALSE(sched.dequeue().has_value());
}

TEST(PFabric, EqualKeysDequeueInInsertionOrder) {
  // Tie-break contract the treap must preserve: equal (remaining,
  // flow_id) entries go to the right, so they drain FIFO.
  PFabricScheduler sched;
  for (std::uint64_t ref = 1; ref <= 32; ++ref) {
    sched.enqueue({7, 1000, ref});
  }
  for (std::uint64_t ref = 1; ref <= 32; ++ref) {
    const auto e = sched.dequeue();
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->packet_ref, ref);
  }
}

TEST(PFabric, DropLowestEvictsLargest) {
  PFabricScheduler sched;
  sched.enqueue({1, 100, 0});
  sched.enqueue({2, 900, 0});
  sched.enqueue({3, 500, 0});
  const auto dropped = sched.drop_lowest();
  ASSERT_TRUE(dropped.has_value());
  EXPECT_EQ(dropped->remaining, 900u);
  EXPECT_EQ(sched.size(), 2u);
}

TEST(KvCache, PutGetDelete) {
  KvCache cache(256, 1 << 20);
  cache.put("a", "1");
  cache.put("b", "2");
  EXPECT_EQ(cache.get("a").value_or(""), "1");
  cache.put("a", "updated");
  EXPECT_EQ(cache.get("a").value_or(""), "updated");
  EXPECT_TRUE(cache.del("a"));
  EXPECT_FALSE(cache.get("a").has_value());
  EXPECT_FALSE(cache.del("a"));
}

TEST(KvCache, EvictsUnderCapacity) {
  KvCache cache(16, 1000);
  for (int i = 0; i < 100; ++i) {
    cache.put("key" + std::to_string(i), std::string(50, 'x'));
  }
  EXPECT_LE(cache.memory_bytes(), 1000u);
  EXPECT_GT(cache.evictions(), 0u);
}

TEST(NaiveBayes, LearnsSeparableClasses) {
  NaiveBayes nb(2, 8);
  Rng rng(6);
  // Class 0: mass on features 0-3; class 1: mass on features 4-7.
  for (int i = 0; i < 200; ++i) {
    std::vector<std::uint32_t> f0(8, 0);
    std::vector<std::uint32_t> f1(8, 0);
    for (int j = 0; j < 4; ++j) {
      f0[static_cast<std::size_t>(j)] = 5 + static_cast<std::uint32_t>(rng.uniform_u64(10));
      f1[static_cast<std::size_t>(j + 4)] = 5 + static_cast<std::uint32_t>(rng.uniform_u64(10));
    }
    nb.train(0, f0);
    nb.train(1, f1);
  }
  int correct = 0;
  for (int i = 0; i < 100; ++i) {
    std::vector<std::uint32_t> f(8, 0);
    const std::size_t cls = rng.bernoulli(0.5) ? 1 : 0;
    for (int j = 0; j < 4; ++j) {
      f[cls * 4 + static_cast<std::size_t>(j)] =
          3 + static_cast<std::uint32_t>(rng.uniform_u64(8));
    }
    if (nb.classify(f).cls == cls) ++correct;
  }
  EXPECT_GT(correct, 95);
}

TEST(ChainReplicator, CommitAfterAllAcks) {
  ChainReplicator chain({1, 2, 3});
  const auto p = chain.submit();
  EXPECT_EQ(p.seq, 1u);
  EXPECT_EQ(p.acks_needed, 2u);
  EXPECT_FALSE(chain.ack(p.seq));
  EXPECT_TRUE(chain.ack(p.seq));
  EXPECT_EQ(chain.committed(), 1u);
  EXPECT_EQ(chain.pending_count(), 0u);
  EXPECT_FALSE(chain.ack(p.seq));  // already committed
}

TEST(Ipsec, EncapsulateDecapsulateRoundTrip) {
  const std::vector<std::uint8_t> aes_key(32, 0x11);
  IpsecGateway tx(aes_key, {0x22, 0x22, 0x22, 0x22});
  IpsecGateway rx(aes_key, {0x22, 0x22, 0x22, 0x22});

  std::vector<std::uint8_t> plain(777);
  for (std::size_t i = 0; i < plain.size(); ++i) {
    plain[i] = static_cast<std::uint8_t>(i);
  }
  const auto esp = tx.encapsulate(plain);
  EXPECT_NE(esp.ciphertext, plain);
  const auto back = rx.decapsulate(esp);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, plain);
}

TEST(Ipsec, RejectsTamperedCiphertext) {
  const std::vector<std::uint8_t> aes_key(32, 0x11);
  IpsecGateway tx(aes_key, {0x22});
  IpsecGateway rx(aes_key, {0x22});
  auto esp = tx.encapsulate(std::vector<std::uint8_t>(100, 0x5A));
  esp.ciphertext[50] ^= 0x01;
  EXPECT_FALSE(rx.decapsulate(esp).has_value());
  EXPECT_EQ(rx.auth_failures(), 1u);
}

TEST(Ipsec, RejectsReplay) {
  const std::vector<std::uint8_t> aes_key(32, 0x11);
  IpsecGateway tx(aes_key, {0x22});
  IpsecGateway rx(aes_key, {0x22});
  const auto esp1 = tx.encapsulate(std::vector<std::uint8_t>(10, 1));
  const auto esp2 = tx.encapsulate(std::vector<std::uint8_t>(10, 2));
  EXPECT_TRUE(rx.decapsulate(esp1).has_value());
  EXPECT_TRUE(rx.decapsulate(esp2).has_value());
  EXPECT_FALSE(rx.decapsulate(esp1).has_value());  // replayed
  EXPECT_EQ(rx.replays(), 1u);
}

TEST(Ipsec, WrongKeyFailsAuthentication) {
  const std::vector<std::uint8_t> key_a(32, 0x11);
  const std::vector<std::uint8_t> key_b(32, 0x12);
  IpsecGateway tx(key_a, {0x22});
  IpsecGateway rx(key_b, {0x23});
  const auto esp = tx.encapsulate(std::vector<std::uint8_t>(64, 0xAB));
  EXPECT_FALSE(rx.decapsulate(esp).has_value());
}

// ESP output pinned to the bytes of the byte-wise AES / SHA-1 reference
// code: one FNV-1a digest of ciphertext + ICV per HMAC key length, over
// payloads that straddle every AES block and SHA-1 padding boundary of the
// authenticated data (spi + seq + iv + ciphertext = 20 + len bytes).
TEST(Ipsec, EncapsulateMatchesParentBytes) {
  std::vector<std::uint8_t> aes_key(32);
  for (std::size_t i = 0; i < aes_key.size(); ++i) {
    aes_key[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  const std::size_t payload_lens[] = {0,  1,  15, 16,  17,  35,
                                      36, 43, 44, 100, 448, 1000};
  const std::pair<std::size_t, std::uint64_t> cases[] = {
      {1, 0x09734a4d44e308a8ULL},  {20, 0xc8a4b05d26f7466aULL},
      {64, 0x493b7b8b09d797e6ULL}, {65, 0xf9f8c8eb1cef8027ULL},
      {90, 0x0d14ad6302b64efdULL},
  };
  for (const auto& [key_len, expected] : cases) {
    std::vector<std::uint8_t> hmac_key(key_len);
    for (std::size_t i = 0; i < key_len; ++i) {
      hmac_key[i] = static_cast<std::uint8_t>(i * 13 + key_len);
    }
    IpsecGateway gw(aes_key, hmac_key);
    std::uint64_t fnv = 0xcbf29ce484222325ULL;
    const auto mix = [&fnv](std::span<const std::uint8_t> bytes) {
      for (const std::uint8_t b : bytes) fnv = (fnv ^ b) * 0x100000001b3ULL;
    };
    for (const std::size_t len : payload_lens) {
      std::vector<std::uint8_t> plain(len);
      for (std::size_t i = 0; i < len; ++i) {
        plain[i] = static_cast<std::uint8_t>(i * 31 + len);
      }
      const auto esp = gw.encapsulate(plain);
      mix(esp.ciphertext);
      mix(esp.icv);
    }
    EXPECT_EQ(fnv, expected) << "hmac key length " << key_len << ": 0x"
                             << std::hex << fnv;
  }
}

}  // namespace
}  // namespace ipipe::nf
