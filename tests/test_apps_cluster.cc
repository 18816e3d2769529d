// End-to-end cluster tests: the three paper applications running on a
// simulated 3-server testbed under the iPipe runtime, exercising Paxos
// replication, OCC/2PC transactions and the analytics pipeline.
#include <gtest/gtest.h>

#include <map>

#include "apps/dt/dt_actors.h"
#include "apps/rkv/rkv_actors.h"
#include "apps/rta/rta_actors.h"
#include "testbed/cluster.h"
#include "testbed/rkv_deploy.h"
#include "workloads/app_workloads.h"

namespace ipipe {
namespace {

using testbed::kTorLatency;
using testbed::ParallelCluster;
using testbed::Mode;
using testbed::ServerSpec;

struct RkvCluster {
  explicit RkvCluster(ParallelCluster& cluster, Mode mode = Mode::kIPipe) {
    for (int i = 0; i < 3; ++i) {
      ServerSpec spec;
      spec.mode = mode;
      cluster.add_server(spec);
    }
    deployments = testbed::deploy_rkv_group(cluster, {.replicas = {0, 1, 2}});
  }
  std::vector<rkv::RkvDeployment> deployments;
};

TEST(RkvCluster, PutThenGetRoundTrip) {
  ParallelCluster cluster(kTorLatency);
  RkvCluster rkv(cluster);

  std::map<std::string, rkv::ClientReply> replies;
  auto& client = cluster.add_client(10.0, [&](std::uint64_t seq, Rng&, netsim::PacketPool& pool) {
    auto pkt = pool.make();
    pkt->dst = 0;
    pkt->dst_actor = rkv.deployments[0].consensus;
    pkt->frame_size = 512;
    rkv::ClientReq req;
    if (seq <= 50) {
      req.op = rkv::Op::kPut;
      pkt->msg_type = rkv::kClientPut;
      req.key = "key" + std::to_string(seq);
      const std::string v = "value" + std::to_string(seq);
      req.value.assign(v.begin(), v.end());
    } else if (seq <= 100) {
      req.op = rkv::Op::kGet;
      pkt->msg_type = rkv::kClientGet;
      req.key = "key" + std::to_string(seq - 50);
    } else {
      return netsim::PacketPtr{};
    }
    pkt->payload = req.encode();
    return pkt;
  });
  std::vector<std::pair<std::uint64_t, rkv::ClientReply>> got;
  client.set_on_reply([&](const netsim::Packet& pkt) {
    if (auto rep = rkv::ClientReply::decode(pkt.payload)) {
      got.emplace_back(pkt.request_id & 0xFFFFFFFFFULL, *rep);
    }
  });
  client.start_closed_loop(1, sec(1));
  cluster.run_until(msec(500));

  ASSERT_EQ(got.size(), 100u);
  for (const auto& [seq, rep] : got) {
    ASSERT_EQ(rep.status, rkv::Status::kOk) << "request " << seq;
    if (seq > 50) {
      const std::string expect = "value" + std::to_string(seq - 50);
      EXPECT_EQ(std::string(rep.value.begin(), rep.value.end()), expect);
    }
  }
}

TEST(RkvCluster, WritesReplicateToFollowers) {
  ParallelCluster cluster(kTorLatency);
  RkvCluster rkv(cluster);

  auto& client = cluster.add_client(10.0, [&](std::uint64_t seq, Rng&, netsim::PacketPool& pool) {
    if (seq > 30) return netsim::PacketPtr{};
    auto pkt = pool.make();
    pkt->dst = 0;
    pkt->dst_actor = rkv.deployments[0].consensus;
    pkt->msg_type = rkv::kClientPut;
    pkt->frame_size = 256;
    rkv::ClientReq req;
    req.op = rkv::Op::kPut;
    req.key = "rkey" + std::to_string(seq);
    req.value = {1, 2, 3};
    pkt->payload = req.encode();
    return pkt;
  });
  client.start_closed_loop(1, sec(1));
  cluster.run_until(msec(400));
  EXPECT_EQ(client.completed(), 30u);

  // Every replica's consensus actor chose all 30 slots, and every
  // follower's memtable applied them.
  for (std::size_t i = 0; i < 3; ++i) {
    auto* consensus = dynamic_cast<rkv::ConsensusActor*>(
        cluster.server(i).runtime().find_actor(rkv.deployments[i].consensus));
    ASSERT_NE(consensus, nullptr);
    EXPECT_EQ(consensus->chosen_count(), 30u) << "replica " << i;
    auto* memtable = dynamic_cast<rkv::MemtableActor*>(
        cluster.server(i).runtime().find_actor(rkv.deployments[i].memtable));
    ASSERT_NE(memtable, nullptr);
    EXPECT_EQ(memtable->list().size(), 30u) << "replica " << i;
  }
}

TEST(RkvCluster, FollowerRejectsClientWrites) {
  ParallelCluster cluster(kTorLatency);
  RkvCluster rkv(cluster);
  auto& client = cluster.add_client(10.0, [&](std::uint64_t seq, Rng&, netsim::PacketPool& pool) {
    if (seq > 1) return netsim::PacketPtr{};
    auto pkt = pool.make();
    pkt->dst = 1;  // follower
    pkt->dst_actor = rkv.deployments[1].consensus;
    pkt->msg_type = rkv::kClientPut;
    pkt->frame_size = 256;
    rkv::ClientReq req;
    req.op = rkv::Op::kPut;
    req.key = "k";
    req.value = {1};
    pkt->payload = req.encode();
    return pkt;
  });
  rkv::Status status = rkv::Status::kOk;
  client.set_on_reply([&](const netsim::Packet& pkt) {
    if (auto rep = rkv::ClientReply::decode(pkt.payload)) status = rep->status;
  });
  client.start_closed_loop(1, msec(50));
  cluster.run_until(msec(60));
  EXPECT_EQ(client.completed(), 1u);
  EXPECT_EQ(status, rkv::Status::kNotLeader);
}

TEST(RkvCluster, SurvivesMessageLossAndDuplication) {
  ParallelCluster cluster(kTorLatency);
  RkvCluster rkv(cluster);
  netsim::FaultModel fm;
  fm.dup_prob = 0.05;
  fm.reorder_jitter = usec(20);
  cluster.net().set_fault_model(fm);

  auto& client = cluster.add_client(10.0, [&](std::uint64_t seq, Rng&, netsim::PacketPool& pool) {
    if (seq > 40) return netsim::PacketPtr{};
    auto pkt = pool.make();
    pkt->dst = 0;
    pkt->dst_actor = rkv.deployments[0].consensus;
    pkt->msg_type = rkv::kClientPut;
    pkt->frame_size = 256;
    rkv::ClientReq req;
    req.op = rkv::Op::kPut;
    req.key = "dkey" + std::to_string(seq % 10);
    req.value = {static_cast<std::uint8_t>(seq)};
    pkt->payload = req.encode();
    return pkt;
  });
  client.start_closed_loop(1, sec(1));
  cluster.run_until(msec(400));
  EXPECT_EQ(client.completed(), 40u);

  // Paxos safety: all replicas agree on the same chosen count despite
  // duplicated/reordered protocol messages.
  std::uint64_t chosen[3];
  for (std::size_t i = 0; i < 3; ++i) {
    auto* consensus = dynamic_cast<rkv::ConsensusActor*>(
        cluster.server(i).runtime().find_actor(rkv.deployments[i].consensus));
    chosen[i] = consensus->chosen_count();
  }
  // Duplicated client requests may drive extra (idempotent) instances,
  // but every replica must agree on the same chosen log.
  EXPECT_GE(chosen[0], 40u);
  EXPECT_EQ(chosen[1], chosen[0]);
  EXPECT_EQ(chosen[2], chosen[0]);
}

TEST(RkvCluster, LeaderElectionPromotesFollower) {
  ParallelCluster cluster(kTorLatency);
  RkvCluster rkv(cluster);

  // Trigger an election on node 1.
  cluster.server(1).sim().schedule(msec(1), [&] {
    auto pkt = netsim::alloc_packet();
    pkt->src = 1;
    pkt->dst = 1;
    pkt->dst_actor = rkv.deployments[1].consensus;
    pkt->msg_type = rkv::ConsensusActor::kElectTrigger;
    pkt->frame_size = 64;
    pkt->nic_arrival = cluster.server(1).sim().now();
    cluster.server(1).nic().tm().push(std::move(pkt));
  });
  cluster.run_until(msec(20));

  auto* new_leader = dynamic_cast<rkv::ConsensusActor*>(
      cluster.server(1).runtime().find_actor(rkv.deployments[1].consensus));
  EXPECT_TRUE(new_leader->is_leader());
  // Old leader stepped down after seeing the higher ballot.
  auto* old_leader = dynamic_cast<rkv::ConsensusActor*>(
      cluster.server(0).runtime().find_actor(rkv.deployments[0].consensus));
  EXPECT_FALSE(old_leader->is_leader());
}

TEST(RkvCluster, MemtableFlushMovesDataToSstables) {
  ParallelCluster cluster(kTorLatency);
  // Small flush threshold to force minor compactions quickly.
  for (int i = 0; i < 3; ++i) {
    ServerSpec spec;
    cluster.add_server(spec);
  }
  const auto deployments = testbed::deploy_rkv_group(
      cluster, {.replicas = {0, 1, 2}, .memtable_flush_bytes = 8 * 1024});

  std::uint64_t get_ok = 0;
  std::uint64_t get_total = 0;
  auto& client = cluster.add_client(10.0, [&](std::uint64_t seq, Rng&, netsim::PacketPool& pool) {
    if (seq > 400) return netsim::PacketPtr{};
    auto pkt = pool.make();
    pkt->dst = 0;
    pkt->dst_actor = deployments[0].consensus;
    pkt->frame_size = 512;
    rkv::ClientReq req;
    if (seq <= 200) {
      req.op = rkv::Op::kPut;
      pkt->msg_type = rkv::kClientPut;
      req.key = "fkey" + std::to_string(seq);
      req.value.assign(100, static_cast<std::uint8_t>(seq));
    } else {
      req.op = rkv::Op::kGet;
      pkt->msg_type = rkv::kClientGet;
      req.key = "fkey" + std::to_string(seq - 200);
    }
    pkt->payload = req.encode();
    return pkt;
  });
  client.set_on_reply([&](const netsim::Packet& pkt) {
    if (pkt.msg_type != rkv::kClientReply) return;
    if (auto rep = rkv::ClientReply::decode(pkt.payload)) {
      // Only count GET phase replies with values.
      if (!rep->value.empty() || rep->status != rkv::Status::kOk) {
        ++get_total;
        if (rep->status == rkv::Status::kOk) ++get_ok;
      }
    }
  });
  client.start_closed_loop(1, sec(2));
  cluster.run_until(sec(1));

  EXPECT_EQ(client.completed(), 400u);
  auto* memtable = dynamic_cast<rkv::MemtableActor*>(
      cluster.server(0).runtime().find_actor(deployments[0].memtable));
  EXPECT_GT(memtable->flushes(), 0u) << "flush threshold never hit";
  EXPECT_GT(deployments[0].lsm->table_count(), 0u);
  // All 200 reads found their value (memtable or SSTable path).
  EXPECT_EQ(get_total, 200u);
  EXPECT_EQ(get_ok, 200u);
}

// ---------------------------------------------------------------------- DT --

struct DtCluster {
  explicit DtCluster(ParallelCluster& cluster, Mode mode = Mode::kIPipe) {
    for (int i = 0; i < 3; ++i) {
      ServerSpec spec;
      spec.mode = mode;
      cluster.add_server(spec);
    }
    // Node 0: coordinator (+participant+log), nodes 1-2: participants.
    for (std::size_t i = 0; i < 3; ++i) {
      deployments.push_back(
          dt::deploy_dt(cluster.server(i).runtime(), /*with_coordinator=*/i == 0));
    }
  }
  std::vector<dt::DtDeployment> deployments;
};

TEST(DtCluster, CommittedTransactionsApplyWrites) {
  ParallelCluster cluster(kTorLatency);
  DtCluster dtc(cluster);

  std::vector<dt::TxnReply> replies;
  auto& client = cluster.add_client(10.0, [&](std::uint64_t seq, Rng&, netsim::PacketPool& pool) {
    if (seq > 50) return netsim::PacketPtr{};
    auto pkt = pool.make();
    pkt->dst = 0;
    pkt->dst_actor = dtc.deployments[0].coordinator;
    pkt->msg_type = dt::kTxnRequest;
    pkt->frame_size = 512;
    dt::TxnRequest txn;
    txn.writes.push_back({1, "wkey" + std::to_string(seq), {5, 5, 5}});
    txn.reads.push_back({2, "rkey" + std::to_string(seq)});
    pkt->payload = txn.encode();
    return pkt;
  });
  client.set_on_reply([&](const netsim::Packet& pkt) {
    if (auto rep = dt::TxnReply::decode(pkt.payload)) replies.push_back(*rep);
  });
  client.start_closed_loop(1, sec(1));
  cluster.run_until(msec(500));

  ASSERT_EQ(replies.size(), 50u);
  for (const auto& rep : replies) {
    EXPECT_EQ(rep.status, dt::TxnStatus::kCommitted);
  }
  auto* coord = dynamic_cast<dt::CoordinatorActor*>(
      cluster.server(0).runtime().find_actor(dtc.deployments[0].coordinator));
  EXPECT_EQ(coord->committed(), 50u);
  EXPECT_EQ(coord->aborted(), 0u);
  // The log actor persisted one entry per transaction.
  auto* log = dynamic_cast<dt::LogActor*>(
      cluster.server(0).runtime().find_actor(dtc.deployments[0].log));
  EXPECT_EQ(log->appended(), 50u);
}

TEST(DtCluster, ReadYourWrites) {
  ParallelCluster cluster(kTorLatency);
  DtCluster dtc(cluster);

  std::vector<dt::TxnReply> replies;
  auto& client = cluster.add_client(10.0, [&](std::uint64_t seq, Rng&, netsim::PacketPool& pool) {
    if (seq > 2) return netsim::PacketPtr{};
    auto pkt = pool.make();
    pkt->dst = 0;
    pkt->dst_actor = dtc.deployments[0].coordinator;
    pkt->msg_type = dt::kTxnRequest;
    pkt->frame_size = 512;
    dt::TxnRequest txn;
    if (seq == 1) {
      txn.writes.push_back({1, "shared-key", {42}});
    } else {
      txn.reads.push_back({1, "shared-key"});
    }
    pkt->payload = txn.encode();
    return pkt;
  });
  client.set_on_reply([&](const netsim::Packet& pkt) {
    if (auto rep = dt::TxnReply::decode(pkt.payload)) replies.push_back(*rep);
  });
  client.start_closed_loop(1, msec(100));
  cluster.run_until(msec(150));

  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].status, dt::TxnStatus::kCommitted);
  EXPECT_EQ(replies[1].status, dt::TxnStatus::kCommitted);
  ASSERT_EQ(replies[1].read_values.size(), 1u);
  EXPECT_EQ(replies[1].read_values[0], (std::vector<std::uint8_t>{42}));
}

TEST(DtCluster, ConflictingTransactionsSerializable) {
  // Hammer a tiny keyspace with read-write transactions.  OCC must keep
  // the final version count == number of committed writes per key.
  ParallelCluster cluster(kTorLatency);
  DtCluster dtc(cluster);

  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  auto& client = cluster.add_client(10.0, [&](std::uint64_t seq, Rng& rng, netsim::PacketPool& pool) {
    if (seq > 300) return netsim::PacketPtr{};
    auto pkt = pool.make();
    pkt->dst = 0;
    pkt->dst_actor = dtc.deployments[0].coordinator;
    pkt->msg_type = dt::kTxnRequest;
    pkt->frame_size = 512;
    dt::TxnRequest txn;
    const auto key = "hot" + std::to_string(rng.uniform_u64(3));
    txn.reads.push_back({1, key});
    txn.writes.push_back({2, "w" + key, {1}});
    pkt->payload = txn.encode();
    return pkt;
  });
  client.set_on_reply([&](const netsim::Packet& pkt) {
    if (auto rep = dt::TxnReply::decode(pkt.payload)) {
      if (rep->status == dt::TxnStatus::kCommitted) {
        ++committed;
      } else {
        ++aborted;
      }
    }
  });
  // 4 concurrent clients' worth of conflict pressure via one generator.
  client.start_closed_loop(4, sec(1));
  cluster.run_until(msec(800));

  EXPECT_EQ(committed + aborted, 300u);
  EXPECT_GT(committed, 0u);
  auto* coord = dynamic_cast<dt::CoordinatorActor*>(
      cluster.server(0).runtime().find_actor(dtc.deployments[0].coordinator));
  EXPECT_EQ(coord->committed(), committed);
  EXPECT_EQ(coord->aborted(), aborted);
}

// --------------------------------------------------------------------- RTA --

TEST(RtaCluster, PipelineCountsAndRanks) {
  ParallelCluster cluster(kTorLatency);
  cluster.add_server(ServerSpec{});
  rta::RtaParams params;
  params.counter_emit_every = 2;
  auto d = rta::deploy_rta(cluster.server(0).runtime(), params);

  workloads::RtaWorkloadParams wl;
  wl.worker = 0;
  wl.filter_actor = d.filter;
  wl.frame_size = 512;
  auto& client = cluster.add_client(10.0, workloads::rta_workload(wl));
  client.start_closed_loop(4, msec(50));
  cluster.run_until(msec(60));

  EXPECT_GT(client.completed(), 500u);
  auto& rt = cluster.server(0).runtime();
  auto* filter = dynamic_cast<rta::FilterActor*>(rt.find_actor(d.filter));
  auto* counter = dynamic_cast<rta::CounterActor*>(rt.find_actor(d.counter));
  auto* ranker = dynamic_cast<rta::RankerActor*>(rt.find_actor(d.ranker));
  ASSERT_TRUE(filter && counter && ranker);
  EXPECT_GT(filter->admitted(), 0u);
  EXPECT_GT(filter->discarded(), 0u);
  EXPECT_GT(counter->keys(), 0u);
  const auto top = ranker->top();
  ASSERT_FALSE(top.empty());
  // Top list is sorted descending by count.
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].count, top[i].count);
  }
}

TEST(RtaCluster, AggregatedRankerReceivesRemoteTopN) {
  ParallelCluster cluster(kTorLatency);
  cluster.add_server(ServerSpec{});  // node 0: aggregator
  cluster.add_server(ServerSpec{});  // node 1: worker

  rta::RtaParams params;
  params.counter_emit_every = 2;
  params.ranker_emit_every = 4;
  params.aggregator_node = 0;
  auto d0 = rta::deploy_rta(cluster.server(0).runtime(), params);
  params.aggregator_ranker = d0.ranker;
  auto d1 = rta::deploy_rta(cluster.server(1).runtime(), params);

  workloads::RtaWorkloadParams wl;
  wl.worker = 1;
  wl.filter_actor = d1.filter;
  auto& client = cluster.add_client(10.0, workloads::rta_workload(wl));
  client.start_closed_loop(2, msec(50));
  cluster.run_until(msec(60));

  auto* worker_ranker = dynamic_cast<rta::RankerActor*>(
      cluster.server(1).runtime().find_actor(d1.ranker));
  EXPECT_GT(worker_ranker->emissions(), 0u);
  auto* agg = dynamic_cast<rta::RankerActor*>(
      cluster.server(0).runtime().find_actor(d0.ranker));
  EXPECT_FALSE(agg->top().empty()) << "aggregator never received top-n";
}

}  // namespace
}  // namespace ipipe
