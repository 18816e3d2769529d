// google-benchmark microbenchmarks for the hot data structures and
// primitives: wall-clock cost of the *real* implementations (these
// complement the simulated-time figures — they show the framework's own
// code is cheap enough to simulate large runs).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "apps/dt/hashtable.h"
#include "apps/nf/count_min.h"
#include "apps/nf/ipsec.h"
#include "apps/nf/lpm_trie.h"
#include "apps/nf/maglev.h"
#include "apps/nf/tcam.h"
#include "apps/rkv/lsm.h"
#include "apps/rkv/rkv_actors.h"
#include "apps/rkv/skiplist.h"
#include "apps/rta/regex.h"
#include "common/rng.h"
#include "common/stats.h"
#include "crypto/aes.h"
#include "crypto/crc32.h"
#include "crypto/md5.h"
#include "crypto/sha1.h"
#include "ipipe/channel.h"
#include "ipipe/dmo.h"

// Minimal ActorEnv for data-structure benches (no simulation attached).
#include "../tests/fake_env.h"

namespace ipipe {
namespace {

void BM_Crc32(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::crc32(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(1024)->Arg(8192);

void BM_Md5(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Md5::hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Md5)->Arg(64)->Arg(1024)->Arg(8192);

void BM_Sha1(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha1::hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha1)->Arg(64)->Arg(1024)->Arg(8192);

void BM_AesCtr(benchmark::State& state) {
  const std::vector<std::uint8_t> key(32, 0x42);
  crypto::Aes aes(key);
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(state.range(0)), 0x55);
  std::array<std::uint8_t, 16> ctr{};
  for (auto _ : state) {
    crypto::aes_ctr_crypt(aes, ctr, buf, buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AesCtr)->Arg(64)->Arg(1024)->Arg(8192);

// One ESP encapsulation (AES-256-CTR + HMAC-SHA1-96) of a payload of
// range(0) bytes; 448 B is the ipsec stage's per-packet work in perfbench's
// nf_chain workload.  Gated in CI by a floor in BENCH_sim.json, set for the
// portable SHA-1 (see the crypto_* context for the path that ran).
void BM_IpsecEncapsulate(benchmark::State& state) {
  nf::IpsecGateway gw(std::vector<std::uint8_t>(32, 0x42),
                      std::vector<std::uint8_t>(20, 0x11));
  const std::vector<std::uint8_t> payload(
      static_cast<std::size_t>(state.range(0)), 0x55);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gw.encapsulate(payload));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IpsecEncapsulate)->Arg(448);

void BM_SkipListInsert(benchmark::State& state) {
  test::FakeEnv env(1, 512 * MiB);
  rkv::DmoSkipList list;
  list.create(env);
  Rng rng(1);
  std::vector<std::uint8_t> value(64, 7);
  std::uint64_t i = 0;
  for (auto _ : state) {
    list.insert(env, "key" + std::to_string(rng.uniform_u64(100'000) + i), value);
    ++i;
  }
}
BENCHMARK(BM_SkipListInsert);

void BM_SkipListGet(benchmark::State& state) {
  test::FakeEnv env(1, 512 * MiB);
  rkv::DmoSkipList list;
  list.create(env);
  Rng rng(1);
  std::vector<std::uint8_t> value(64, 7);
  for (int i = 0; i < 10'000; ++i) {
    list.insert(env, "key" + std::to_string(i), value);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        list.get(env, "key" + std::to_string(rng.uniform_u64(10'000))));
  }
}
BENCHMARK(BM_SkipListGet);

// One memtable lifetime in RKV: insert 16 B keys with 448 B values until
// MemtableActor would flush (RkvParams' default threshold), then clear().
// Every node and value is a DMO, so this times the object table's alloc,
// read, write and free at memtable scale.  Items are inserts.
void BM_DmoMemtableCycle(benchmark::State& state) {
  constexpr std::size_t kValueLen = 448;
  const std::size_t entries =
      rkv::RkvParams{}.memtable_flush_bytes / (kValueLen + 128) + 1;
  Rng rng(11);
  std::vector<std::string> keys(entries);
  for (auto& key : keys) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(rng.next()));
    key = buf;
  }
  const std::vector<std::uint8_t> value(kValueLen, 0x5C);
  test::FakeEnv env(1, 64 * MiB);
  rkv::DmoSkipList list;
  list.create(env);
  for (auto _ : state) {
    for (const auto& key : keys) {
      benchmark::DoNotOptimize(list.insert(env, key, value));
    }
    list.clear(env);
    benchmark::DoNotOptimize(list.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(entries));
}
BENCHMARK(BM_DmoMemtableCycle);

void BM_ExtendibleHashPut(benchmark::State& state) {
  test::FakeEnv env(1, 512 * MiB);
  dt::DmoHashTable table;
  table.create(env, 4);
  Rng rng(2);
  const std::vector<std::uint8_t> value(32, 9);
  for (auto _ : state) {
    table.put(env, "k" + std::to_string(rng.uniform_u64(100'000)), value);
  }
}
BENCHMARK(BM_ExtendibleHashPut);

void BM_TcamLookup(benchmark::State& state) {
  nf::SoftTcam tcam;
  Rng rng(3);
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    nf::TcamRule rule{};
    rule.value.dst_ip = static_cast<std::uint32_t>(rng.next());
    rule.mask.dst_ip = 0xFFFFFF00;
    rule.priority = static_cast<std::uint32_t>(i);
    tcam.add_rule(rule);
  }
  for (auto _ : state) {
    nf::FiveTuple t;
    t.dst_ip = static_cast<std::uint32_t>(rng.next());
    benchmark::DoNotOptimize(tcam.lookup(t));
  }
}
BENCHMARK(BM_TcamLookup)->Arg(512)->Arg(8192);

void BM_LpmLookup(benchmark::State& state) {
  nf::LpmTrie trie;
  Rng rng(4);
  for (int i = 0; i < 100'000; ++i) {
    trie.insert(static_cast<std::uint32_t>(rng.next()),
                8 + static_cast<unsigned>(rng.uniform_u64(17)), 1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(trie.lookup(static_cast<std::uint32_t>(rng.next())));
  }
}
BENCHMARK(BM_LpmLookup);

void BM_MaglevLookup(benchmark::State& state) {
  std::vector<std::string> backends;
  for (int i = 0; i < 16; ++i) backends.push_back("b" + std::to_string(i));
  nf::MaglevTable table(backends);
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(rng.next()));
  }
}
BENCHMARK(BM_MaglevLookup);

void BM_RegexSearch(benchmark::State& state) {
  rta::Regex re("[a-z]*ing");
  const std::string text = "the networking application was processing data";
  for (auto _ : state) {
    benchmark::DoNotOptimize(re.search(text));
  }
}
BENCHMARK(BM_RegexSearch);

void BM_CountMinAdd(benchmark::State& state) {
  nf::CountMinSketch sketch(64 * 1024, 4);
  Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch.add(rng.next()));
  }
}
BENCHMARK(BM_CountMinAdd);

void BM_RegionAllocator(benchmark::State& state) {
  RegionAllocator alloc(0, 256 * MiB);
  Rng rng(7);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> live;  // addr, size
  for (auto _ : state) {
    if (live.size() > 1000 || (rng.bernoulli(0.4) && !live.empty())) {
      const std::size_t idx = rng.uniform_u64(live.size());
      alloc.free(live[idx].first, live[idx].second);
      live[idx] = live.back();
      live.pop_back();
    } else {
      const std::uint64_t size = 16 + rng.uniform_u64(512);
      if (const auto addr = alloc.alloc(size)) live.emplace_back(*addr, size);
    }
  }
}
BENCHMARK(BM_RegionAllocator);

void BM_ChannelRingRoundTrip(benchmark::State& state) {
  ChannelRing ring(1 << 20);
  const std::vector<std::uint8_t> msg(256, 0xCD);
  for (auto _ : state) {
    ring.push(msg);
    benchmark::DoNotOptimize(ring.pop());
    if (ring.unacked() > ring.capacity() / 2) ring.ack();
  }
}
BENCHMARK(BM_ChannelRingRoundTrip);

void BM_LatencyHistogram(benchmark::State& state) {
  LatencyHistogram hist;
  Rng rng(8);
  for (auto _ : state) {
    hist.add(1 + rng.uniform_u64(1'000'000));
  }
  benchmark::DoNotOptimize(hist.p99());
}
BENCHMARK(BM_LatencyHistogram);

void BM_LsmGet(benchmark::State& state) {
  rkv::LsmTree lsm;
  Rng rng(9);
  for (int batch = 0; batch < 10; ++batch) {
    std::vector<rkv::SstEntry> entries;
    for (int i = 0; i < 1000; ++i) {
      entries.push_back({"key" + std::to_string(batch * 1000 + i),
                         std::vector<std::uint8_t>(32, 1), false});
    }
    std::sort(entries.begin(), entries.end(),
              [](const rkv::SstEntry& a, const rkv::SstEntry& b) {
                return a.key < b.key;
              });
    lsm.add_l0(std::move(entries));
    lsm.maybe_compact();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lsm.get("key" + std::to_string(rng.uniform_u64(10'000))));
  }
}
BENCHMARK(BM_LsmGet);

}  // namespace
}  // namespace ipipe

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // The crypto numbers depend on which path CPUID selected; record it in
  // the context so every result says what produced it.
  benchmark::AddCustomContext(
      "crypto_aes_ctr", ipipe::crypto::hardware_aes() ? "aes-ni" : "portable t-table");
  benchmark::AddCustomContext(
      "crypto_sha1", ipipe::crypto::hardware_sha1() ? "sha-ni" : "portable");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
