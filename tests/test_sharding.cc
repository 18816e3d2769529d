// Sharded RKV scale-out tests: the consistent-hash ring, the client-side
// router + open-loop generator, the NIC hot-key cache freshness contract,
// and the two-phase rebalance — parameterized across the chaos matrix
// {none, leader crash, nic-crash, partition} x {cache on, cache off}.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/rkv/hot_cache.h"
#include "apps/rkv/rkv_actors.h"
#include "ipipe/shard.h"
#include "netsim/chaos.h"
#include "testbed/cluster.h"
#include "testbed/rkv_deploy.h"
#include "workloads/open_loop.h"

namespace ipipe {
namespace {

using testbed::kTorLatency;
using testbed::ParallelCluster;
using testbed::ServerSpec;

// ---------------------------------------------------------------- ring --

TEST(ShardRing, InsertionOrderIsIrrelevant) {
  shard::ShardRing a(256), b(256);
  for (std::uint32_t g = 0; g < 8; ++g) a.add_group(g);
  for (std::uint32_t g = 8; g-- > 0;) b.add_group(g);
  const auto ta = a.table(1);
  const auto tb = b.table(1);
  EXPECT_EQ(ta.owner, tb.owner);
}

TEST(ShardRing, RemoveUndoesAdd) {
  shard::ShardRing a(256);
  for (std::uint32_t g = 0; g < 4; ++g) a.add_group(g);
  const auto before = a.table(1);
  a.add_group(9);
  a.remove_group(9);
  EXPECT_EQ(a.table(2).owner, before.owner);
}

TEST(ShardRing, VirtualNodesBalanceOwnership) {
  constexpr std::uint32_t kShards = 4096;
  constexpr std::uint32_t kGroups = 8;
  shard::ShardRing ring(kShards, /*vnodes=*/64);
  for (std::uint32_t g = 0; g < kGroups; ++g) ring.add_group(g);
  const auto table = ring.table(1);
  std::vector<std::size_t> counts(kGroups, 0);
  for (const auto owner : table.owner) {
    ASSERT_LT(owner, kGroups);
    ++counts[owner];
  }
  const double mean = static_cast<double>(kShards) / kGroups;
  for (std::uint32_t g = 0; g < kGroups; ++g) {
    EXPECT_GT(counts[g], 0u) << "group " << g << " owns nothing";
    // 64 vnodes keep the max/mean spread well under 2x.
    EXPECT_LT(static_cast<double>(counts[g]), 2.0 * mean) << "group " << g;
  }
}

TEST(ShardRing, AddingAGroupOnlyMovesShardsToIt) {
  shard::ShardRing ring(1024);
  for (std::uint32_t g = 0; g < 6; ++g) ring.add_group(g);
  const auto before = ring.table(1);
  ring.add_group(6);
  const auto after = ring.table(2);
  const auto moved = shard::RouteTable::moved(before, after);
  EXPECT_FALSE(moved.empty());  // the new group must take some load
  for (const auto s : moved) EXPECT_EQ(after.owner[s], 6u) << "shard " << s;
  // The minimal-disruption property: nothing shuffled between survivors.
}

TEST(ShardRing, RemovingAGroupOnlyMovesItsShards) {
  shard::ShardRing ring(1024);
  for (std::uint32_t g = 0; g < 6; ++g) ring.add_group(g);
  const auto before = ring.table(1);
  ring.remove_group(3);
  const auto after = ring.table(2);
  for (const auto s : shard::RouteTable::moved(before, after)) {
    EXPECT_EQ(before.owner[s], 3u) << "shard " << s;
    EXPECT_NE(after.owner[s], 3u) << "shard " << s;
  }
}

TEST(ShardHash, KeyToShardIsStable) {
  // Pure function of the bytes: pin a few values so any accidental hash
  // change shows up as a test diff, not a silent full-cluster reshuffle.
  static_assert(shard::shard_of_key("k1", 0) == 0);
  const auto s = shard::shard_of_key("k1", 16);
  EXPECT_EQ(shard::shard_of_key("k1", 16), s);
  EXPECT_EQ(shard::shard_of_key(std::string("k") + "1", 16), s);
}

TEST(RequestId, RoundTripsNodeAndSequence) {
  const auto id = workloads::RequestId::make(1234, 0xF2345678ABULL);
  EXPECT_EQ(workloads::RequestId::node_of(id), 1234u);
  EXPECT_EQ(workloads::RequestId::seq_of(id), 0xF2345678ABULL);
  // Distinct nodes can never collide, whatever their sequences.
  EXPECT_NE(workloads::RequestId::make(1, 0),
            workloads::RequestId::make(2, 0));
}

// ------------------------------------------------- dedup-table bounds --

TEST(RkvDedup, RequestTableStaysBounded) {
  ParallelCluster cluster(kTorLatency);
  cluster.add_server(ServerSpec{});
  const auto d = testbed::deploy_rkv_group(
      cluster, {.replicas = {0}, .req_dedup_cap = 8})[0];

  const auto put = [&](netsim::PacketPool& pool, const std::string& key) {
    auto pkt = pool.make();
    pkt->dst = 0;
    pkt->dst_actor = d.consensus;
    pkt->msg_type = rkv::kClientPut;
    pkt->frame_size = 256;
    rkv::ClientReq req;
    req.op = rkv::Op::kPut;
    req.key = key;
    req.value = {1, 2, 3};
    pkt->payload = req.encode();
    return pkt;
  };
  auto& client = cluster.add_client(
      10.0, [&](std::uint64_t seq, Rng&, netsim::PacketPool& pool) {
        if (seq > 100) return netsim::PacketPtr{};
        return put(pool, "k" + std::to_string(seq));
      });
  std::vector<std::uint64_t> ids;
  client.set_on_issue(
      [&](const netsim::Packet& pkt) { ids.push_back(pkt.request_id); });
  client.start_closed_loop(1, sec(1));
  cluster.run_until(msec(500));
  EXPECT_EQ(client.completed(), 100u);
  ASSERT_EQ(ids.size(), 100u);

  auto* cons = dynamic_cast<rkv::ConsensusActor*>(
      cluster.server(0).runtime().find_actor(d.consensus));
  ASSERT_NE(cons, nullptr);
  EXPECT_LE(cons->dedup_size(), 8u);  // FIFO-evicted, not grown to 100
  // First-insert order: exactly the last eight requests survive, each
  // with the slot it was proposed in.
  ASSERT_EQ(cons->dedup_size(), 8u);
  for (std::size_t i = 0; i < 92; ++i) {
    EXPECT_EQ(cons->dedup_slot(ids[i]), nullptr) << "request " << i;
  }
  const std::uint64_t* last = cons->dedup_slot(ids[99]);
  ASSERT_NE(last, nullptr);
  for (std::size_t i = 92; i < 100; ++i) {
    const std::uint64_t* slot = cons->dedup_slot(ids[i]);
    ASSERT_NE(slot, nullptr) << "request " << i;
    EXPECT_EQ(*slot + (99 - i), *last) << "request " << i;
  }

  // A retry of the first (evicted) request is proposed afresh and
  // re-inserted as the newest entry, evicting the oldest survivor.
  const std::uint64_t retried = ids[0];
  cluster.client_sim().schedule_at(msec(500) + usec(1), [&] {
    auto pkt = put(cluster.net().pool(), "k1");
    pkt->src = client.node();
    pkt->request_id = retried;
    pkt->created_at = cluster.client_sim().now();
    cluster.net().send(std::move(pkt));
  });
  cluster.run_until(msec(600));
  EXPECT_EQ(cons->dedup_size(), 8u);
  const std::uint64_t* again = cons->dedup_slot(retried);
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(*again, *last + 1);
  EXPECT_EQ(cons->dedup_slot(ids[92]), nullptr);
  for (std::size_t i = 93; i < 100; ++i) {
    EXPECT_NE(cons->dedup_slot(ids[i]), nullptr) << "request " << i;
  }
}

// The table against the map-plus-FIFO it replaced, under random inserts,
// in-place updates and re-inserts of evicted ids, at caps around its
// power-of-two growth steps.
TEST(RkvDedup, TableMatchesMapWithFifoEviction) {
  for (const std::size_t cap : {0u, 1u, 3u, 8u, 10u, 100u, 1000u}) {
    rkv::RequestTable table(cap);
    std::unordered_map<std::uint64_t, std::uint64_t> model;
    std::deque<std::uint64_t> order;
    Rng rng(0xDED0 + cap);
    for (int op = 0; op < 20'000; ++op) {
      // Ids from a range a few times the cap: hits, misses and re-inserts.
      const std::uint64_t id =
          workloads::RequestId::make(1000 + rng.uniform_u64(3),
                                     rng.uniform_u64(3 * cap + 4));
      const std::uint64_t slot = rng.next();
      table.remember(id, slot);
      if (const auto [it, fresh] = model.emplace(id, slot); !fresh) {
        it->second = slot;
      } else {
        order.push_back(id);
        while (model.size() > cap) {
          model.erase(order.front());
          order.pop_front();
        }
      }
      ASSERT_EQ(table.size(), model.size()) << "cap=" << cap << " op=" << op;
      const std::uint64_t probe =
          workloads::RequestId::make(1000 + rng.uniform_u64(3),
                                     rng.uniform_u64(3 * cap + 4));
      const auto it = model.find(probe);
      const std::uint64_t* got = table.find(probe);
      ASSERT_EQ(got != nullptr, it != model.end())
          << "cap=" << cap << " op=" << op;
      if (got != nullptr) {
        ASSERT_EQ(*got, it->second);
      }
    }
    for (const std::uint64_t id : order) {
      ASSERT_NE(table.find(id), nullptr);
      EXPECT_EQ(*table.find(id), model.at(id));
    }
    table.clear();
    EXPECT_EQ(table.size(), 0u);
    for (const std::uint64_t id : order) EXPECT_EQ(table.find(id), nullptr);
  }
}

TEST(ClientGen, FireAndForgetInflightExpires) {
  ParallelCluster cluster(kTorLatency);  // no servers: every request is dropped at the switch
  auto& client = cluster.add_client(
      10.0, [&](std::uint64_t, Rng&, netsim::PacketPool& pool) {
        auto pkt = pool.make();
        pkt->dst = 77;  // unattached node
        pkt->dst_actor = 1;
        pkt->msg_type = 1;
        pkt->frame_size = 128;
        return pkt;
      });
  client.set_inflight_horizon(msec(100));
  client.start_open_loop(1000.0, sec(2), /*poisson=*/false);
  cluster.run_until(sec(2));
  EXPECT_GT(client.expired(), 0u);
  // Bounded by the horizon: ~100ms of traffic at 1 krps, not 2 s worth.
  EXPECT_LT(client.inflight(), 250u);
  EXPECT_EQ(client.completed(), 0u);
}

// ------------------------------------------------ sharded deployments --

constexpr std::uint32_t kShards = 16;

struct ShardedOpts {
  std::uint32_t groups = 2;
  std::size_t replicas = 3;
  bool cache = false;
  bool failover = true;
  std::uint32_t active_groups = 0;  ///< 0 = all groups on the ring
  bool inject_stale_cache = false;
  std::size_t cache_capacity = 32 * MiB;
};

/// Adds the servers and deploys the groups with short failover timings,
/// so elections settle inside the tests' sub-second fault windows.
testbed::ShardedRkv deploy_sharded(ParallelCluster& cluster, ShardedOpts opts) {
  for (std::size_t i = 0; i < opts.groups * opts.replicas; ++i) {
    cluster.add_server(ServerSpec{});
  }
  rkv::RkvParams base;
  base.enable_failover = opts.failover;
  base.heartbeat_period = msec(50);
  base.election_timeout_min = msec(150);
  base.election_timeout_max = msec(250);
  base.num_shards = kShards;
  base.enable_hot_cache = opts.cache;
  base.inject_stale_cache = opts.inject_stale_cache;
  base.cache_capacity_bytes = opts.cache_capacity;
  return testbed::deploy_sharded_rkv(
      cluster, opts.groups, opts.replicas,
      opts.active_groups == 0 ? opts.groups : opts.active_groups, base);
}

workloads::OpenLoopParams small_population() {
  workloads::OpenLoopParams p;
  p.clients = 5000;
  p.rate_rps = 4000.0;
  p.get_fraction = 0.7;
  p.key_space = 400;
  p.zipf_theta = 1.0;
  p.value_len = 32;
  p.seed = 7;
  p.retry_timeout = msec(60);
  p.max_retries = 10;
  return p;
}

TEST(ShardedRkv, RoutesAcrossGroupsAndReadsBack) {
  ParallelCluster cluster(kTorLatency);
  const auto rkv = deploy_sharded(
      cluster, {.groups = 2, .replicas = 1, .cache = false, .failover = false});
  auto& gen = cluster.add_open_loop(small_population());
  gen.set_groups(rkv.targets);
  gen.set_route_table(rkv.table);
  gen.start(msec(400));
  cluster.run_until(msec(600));

  EXPECT_GT(gen.acked_writes(), 100u);
  EXPECT_EQ(gen.stale_reads(), 0u);
  EXPECT_EQ(gen.lost_acked(), 0u);
  EXPECT_GT(gen.distinct_clients(), 1000u);

  // Post-run audit: every acked key is still readable.
  const auto issued = gen.issue_readback(10000);
  EXPECT_GT(issued, 0u);
  cluster.run_until(sec(1));
  EXPECT_EQ(gen.readback_pending(), 0u);
  EXPECT_EQ(gen.lost_acked(), 0u);
  EXPECT_EQ(gen.stale_reads(), 0u);
}

TEST(ShardedRkv, WrongShardCarriesEpochAndIsRetriable) {
  ParallelCluster cluster(kTorLatency);
  const auto rkv = deploy_sharded(
      cluster, {.groups = 2, .replicas = 1, .cache = false, .failover = false});
  // Find a key owned by group 1 and ask group 0 for it.
  std::string stray;
  for (std::uint32_t k = 0; k < 64 && stray.empty(); ++k) {
    const auto name = workloads::OpenLoopGen::key_name(k);
    if (rkv.table.group_of_key(name) == 1) stray = name;
  }
  ASSERT_FALSE(stray.empty());

  std::vector<rkv::ClientReply> replies;
  auto& client = cluster.add_client(
      10.0, [&](std::uint64_t seq, Rng&, netsim::PacketPool& pool) {
        if (seq > 1) return netsim::PacketPtr{};
        auto pkt = pool.make();
        pkt->dst = 0;  // group 0's only replica
        pkt->dst_actor = rkv.targets[0].consensus;
        pkt->msg_type = rkv::kClientGet;
        pkt->frame_size = 256;
        rkv::ClientReq req;
        req.op = rkv::Op::kGet;
        req.key = stray;
        pkt->payload = req.encode();
        return pkt;
      });
  client.set_on_reply([&](const netsim::Packet& pkt) {
    if (auto rep = rkv::ClientReply::decode(pkt.payload)) {
      replies.push_back(*rep);
    }
  });
  client.start_closed_loop(1, msec(100));
  cluster.run_until(msec(100));

  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].status, rkv::Status::kWrongShard);
  ASSERT_EQ(replies[0].value.size(), 8u);  // route epoch (u64)
  wire::Reader r(replies[0].value);
  std::uint64_t epoch = 0;
  ASSERT_TRUE(r.get(epoch));
  EXPECT_EQ(epoch, rkv.table.epoch);
}

TEST(ShardedRkv, HotCacheServesRepeatsAndInvalidatesOnWrite) {
  ParallelCluster cluster(kTorLatency);
  // A deliberately tiny cache: write-through keeps every written key
  // resident in a large cache (no misses, hence no fills), so eviction
  // pressure is what exercises the miss -> kCacheGet -> fill path here.
  const auto rkv = deploy_sharded(cluster, {.groups = 1,
                                           .replicas = 3,
                                           .cache = true,
                                           .failover = true,
                                           .cache_capacity = 2 * KiB});
  auto params = small_population();
  params.get_fraction = 0.9;  // read-heavy: the cache should carry load
  auto& gen = cluster.add_open_loop(params);
  gen.set_groups(rkv.targets);
  gen.set_route_table(rkv.table);
  gen.start(sec(1));
  cluster.run_until(sec(1) + msec(500));

  auto* cache = rkv.deployments[0].cache;
  ASSERT_NE(cache, nullptr);
  EXPECT_GT(cache->hits(), 0u);
  EXPECT_GT(cache->fills(), 0u);
  EXPECT_GT(cache->invals(), 0u);  // write-through invalidation ran
  EXPECT_EQ(gen.stale_reads(), 0u);
  EXPECT_EQ(gen.lost_acked(), 0u);
}

TEST(ShardedRkv, CheckerCatchesInjectedStaleCache) {
  // Self-test of the online checker: a cache that drops invalidations
  // MUST produce observable stale reads under a read-heavy Zipf load.
  ParallelCluster cluster(kTorLatency);
  const auto rkv = deploy_sharded(cluster, {.groups = 1,
                                           .replicas = 3,
                                           .cache = true,
                                           .failover = true,
                                           .inject_stale_cache = true});
  auto params = small_population();
  params.get_fraction = 0.8;
  params.key_space = 50;  // hot keys get rewritten while cached
  auto& gen = cluster.add_open_loop(params);
  gen.set_groups(rkv.targets);
  gen.set_route_table(rkv.table);
  gen.start(sec(1));
  cluster.run_until(sec(1) + msec(500));
  EXPECT_GT(gen.stale_reads(), 0u);
}

// ------------------------------------------------- rebalance x chaos --

enum class Fault { kNone, kLeaderCrash, kNicCrash, kPartition };

struct MatrixCase {
  Fault fault;
  bool cache;
};

std::string case_name(const testing::TestParamInfo<MatrixCase>& info) {
  std::string name;
  switch (info.param.fault) {
    case Fault::kNone:
      name = "NoFault";
      break;
    case Fault::kLeaderCrash:
      name = "LeaderCrash";
      break;
    case Fault::kNicCrash:
      name = "NicCrash";
      break;
    case Fault::kPartition:
      name = "Partition";
      break;
  }
  return name + (info.param.cache ? "CacheOn" : "CacheOff");
}

class ShardRebalanceMatrix : public testing::TestWithParam<MatrixCase> {};

TEST_P(ShardRebalanceMatrix, RebalanceSurvivesChaos) {
  const auto param = GetParam();
  ParallelCluster cluster(kTorLatency);
  // Two active groups plus a standby third group that the rebalance
  // brings onto the ring mid-run.
  const auto rkv = deploy_sharded(cluster, {.groups = 3,
                                           .replicas = 3,
                                           .cache = param.cache,
                                           .failover = true,
                                           .active_groups = 2});

  auto params = small_population();
  params.max_retries = 12;
  auto& gen = cluster.add_open_loop(params);
  gen.set_groups(rkv.targets);
  gen.set_route_table(rkv.table);

  auto chaos = cluster.make_chaos();
  netsim::FaultPlan plan;
  switch (param.fault) {
    case Fault::kNone:
      break;
    case Fault::kLeaderCrash:
      plan.crash(0, msec(900), msec(700));  // group 0's initial leader
      break;
    case Fault::kNicCrash:
      // The cache rides node 0's NIC: queued invalidations die with it.
      plan.nic_crash(0, msec(900), msec(600));
      break;
    case Fault::kPartition:
      // Cut group 0's initial leader off from its followers.
      plan.partition({0}, {1, 2}, msec(900), msec(600));
      break;
  }
  chaos->execute(plan);

  gen.start(sec(3));
  cluster.run_until(msec(800));

  // Grow the ring to three groups while the fault window is open.
  bool rebalanced = false;
  gen.start_rebalance(testbed::ring_table(kShards, 3, /*epoch=*/2),
                      [&] { rebalanced = true; });
  cluster.run_until(sec(3) + sec(2));

  EXPECT_TRUE(rebalanced);
  EXPECT_EQ(gen.rebalances_done(), 1u);
  EXPECT_GT(gen.acked_writes(), 100u);
  EXPECT_EQ(gen.stale_reads(), 0u) << "stale read under " << case_name({GetParam(), 0});
  EXPECT_EQ(gen.lost_acked(), 0u);
  // The new group actually took traffic-bearing ownership.
  EXPECT_FALSE(gen.route_table().shards_of(2).empty());

  // Post-chaos audit: every acked key readable under the new routing.
  gen.issue_readback(10000);
  cluster.run_until(sec(3) + sec(4));
  EXPECT_EQ(gen.readback_pending(), 0u);
  EXPECT_EQ(gen.lost_acked(), 0u);
  EXPECT_EQ(gen.stale_reads(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ShardedRkv, ShardRebalanceMatrix,
    testing::Values(MatrixCase{Fault::kNone, false},
                    MatrixCase{Fault::kNone, true},
                    MatrixCase{Fault::kLeaderCrash, false},
                    MatrixCase{Fault::kLeaderCrash, true},
                    MatrixCase{Fault::kNicCrash, true},
                    MatrixCase{Fault::kPartition, false},
                    MatrixCase{Fault::kPartition, true}),
    case_name);

}  // namespace
}  // namespace ipipe
