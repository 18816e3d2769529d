// google-benchmark microbenchmarks for the hot data structures and
// primitives: wall-clock cost of the *real* implementations (these
// complement the simulated-time figures — they show the framework's own
// code is cheap enough to simulate large runs).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
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
#include "nic/dma_engine.h"
#include "sim/simulation.h"

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

// One RKV write through a three-replica group: the leader's
// ConsensusActor takes a client PUT (16 B key, 448 B value) and the
// frames each replica's actors send are carried to their destinations
// until the leader's memtable acks it.  Each replica runs a
// ConsensusActor and a MemtableActor on their own FakeEnvs, flushing at
// 256 KiB as perfbench's rkv_write does (flush batches are dropped), so
// this times the write path's host cost: decoding, encoding and copying
// the value at every hop, the Paxos log, the DMO skip-list insert and
// the flush encode.  The group is rebuilt untimed every kGroupPuts
// writes to bound the log.  Items are acked PUTs.
void BM_RkvPaxosPut(benchmark::State& state) {
  constexpr std::size_t kReplicas = 3;
  constexpr std::size_t kValueLen = 448;
  constexpr std::uint64_t kGroupPuts = 8192;
  constexpr ActorId kConsensus = 7;
  constexpr ActorId kMemtable = 9;
  struct Replica {
    explicit Replica(const rkv::RkvParams& params)
        : cons_env(kConsensus),
          mem_env(kMemtable),
          cons(params, kMemtable),
          mem(params, /*sst_read=*/11, /*compaction=*/12) {
      mem.init(mem_env);
    }
    test::FakeEnv cons_env;
    test::FakeEnv mem_env;
    rkv::ConsensusActor cons;
    rkv::MemtableActor mem;
  };
  std::vector<std::unique_ptr<Replica>> group;
  const auto build = [&] {
    group.clear();
    rkv::RkvParams params;
    params.replicas = {0, 1, 2};
    params.peer_consensus_actor = kConsensus;
    params.memtable_flush_bytes = 256 * 1024;
    for (std::size_t r = 0; r < kReplicas; ++r) {
      params.self_index = r;
      group.push_back(std::make_unique<Replica>(params));
    }
  };
  build();

  Rng rng(12);
  rkv::ClientReq req;
  req.op = rkv::Op::kPut;
  req.value.assign(kValueLen, 0x5C);
  netsim::Packet pkt;
  std::vector<test::FakeEnv::Sent> frames;
  std::uint64_t puts = 0;
  std::int64_t acked = 0;
  for (auto _ : state) {
    if (puts++ == kGroupPuts) {
      state.PauseTiming();
      build();
      puts = 1;
      state.ResumeTiming();
    }
    char key[17];
    std::snprintf(key, sizeof key, "%016llx",
                  static_cast<unsigned long long>(rng.uniform_u64(100'000)));
    req.key = key;
    pkt.src = 100;
    pkt.src_actor = 5;
    pkt.msg_type = rkv::kClientPut;
    pkt.request_id = puts;
    pkt.payload = req.encode();
    group[0]->cons.handle(group[0]->cons_env, pkt);

    // Carry frames until every actor is idle.  A batch is swapped out
    // before delivery, so handlers append to an empty list.
    for (bool moved = true; moved;) {
      moved = false;
      for (std::size_t r = 0; r < kReplicas; ++r) {
        Replica& from = *group[r];
        frames.swap(from.cons_env.sent);
        for (auto& f : frames) {
          pkt.src = static_cast<netsim::NodeId>(r);
          pkt.src_actor = kConsensus;
          pkt.msg_type = f.type;
          pkt.payload = std::move(f.payload);
          if (f.is_local) {
            from.mem.handle(from.mem_env, pkt);
          } else {
            Replica& to = *group[f.node];
            to.cons.handle(to.cons_env, pkt);
          }
          moved = true;
        }
        frames.clear();
        for (const auto& f : from.mem_env.sent) {
          if (f.type == rkv::kClientReply) ++acked;
        }
        from.mem_env.sent.clear();
      }
    }
  }
  state.SetItemsProcessed(acked);
}
BENCHMARK(BM_RkvPaxosPut);

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

// One memtable flush batch (214 KB, the size `rkv_write` moves to its
// compaction actor) sent through a MessageChannel and polled on the far
// side: the channel's host cost per message, from the sender handing the
// payload over to the receiver holding it.  The polled payload is the
// next iteration's, so no copy outside the channel is timed.
void BM_ChannelFlushBatch(benchmark::State& state) {
  constexpr std::size_t kBatchBytes = 214'000;
  sim::Simulation sim;
  nic::DmaEngine dma(sim, nic::DmaTiming{});
  MessageChannel chan(sim, dma, 1 << 20);
  ChannelMsg msg;
  msg.msg_type = rkv::kFlushBatch;
  msg.payload.resize(kBatchBytes);
  Rng rng(10);
  for (auto& b : msg.payload) b = static_cast<std::uint8_t>(rng.next());
  for (auto _ : state) {
    chan.send_or_queue_to_host(std::move(msg));
    sim.run();
    auto got = chan.host_poll();
    if (!got) {
      state.SkipWithError("flush batch not delivered");
      break;
    }
    msg = std::move(*got);
    benchmark::DoNotOptimize(msg.payload.data());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBatchBytes));
}
BENCHMARK(BM_ChannelFlushBatch);

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
  benchmark::AddCustomContext(
      "crypto_crc32",
      ipipe::crypto::hardware_crc32() ? "pclmulqdq" : "portable slicing-by-8");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
