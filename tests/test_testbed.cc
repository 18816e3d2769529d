#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "apps/rkv/rkv_actors.h"
#include "harness/bench_util.h"
#include "testbed/cluster.h"
#include "testbed/echo_firmware.h"
#include "testbed/rkv_deploy.h"
#include "workloads/app_workloads.h"

namespace ipipe::testbed {
namespace {

TEST(ConfigForMode, DpdkZeroesFrameworkOverheads) {
  IPipeConfig base;
  const auto dpdk = config_for_mode(Mode::kDpdk, base);
  EXPECT_EQ(dpdk.channel_handling_ns, 0u);
  EXPECT_EQ(dpdk.dmo_translate_ns, 0u);
  EXPECT_EQ(dpdk.sched_bookkeeping_ns, 0u);
  EXPECT_FALSE(dpdk.enable_migration);
}

TEST(ConfigForMode, FloemKeepsOverheadsDisablesMigration) {
  IPipeConfig base;
  const auto floem = config_for_mode(Mode::kFloem, base);
  EXPECT_FALSE(floem.enable_migration);
  EXPECT_EQ(floem.channel_handling_ns, base.channel_handling_ns);
  const auto ipipe = config_for_mode(Mode::kIPipe, base);
  EXPECT_TRUE(ipipe.enable_migration);
}

TEST(ServerNode, DpdkModeUsesDumbNic) {
  ParallelCluster cluster(kTorLatency);
  ServerSpec spec;
  spec.mode = Mode::kDpdk;
  spec.nic = nic::liquidio_cn2350();
  auto& server = cluster.add_server(spec);
  EXPECT_EQ(server.nic().config().cores, 0u);
  EXPECT_EQ(server.nic().config().link_gbps, 10.0);
  EXPECT_EQ(server.default_loc(), ActorLoc::kHost);
}

TEST(ServerNode, IPipeModeKeepsSmartNic) {
  ParallelCluster cluster(kTorLatency);
  auto& server = cluster.add_server(ServerSpec{});
  EXPECT_EQ(server.nic().config().cores, 12u);
  EXPECT_EQ(server.default_loc(), ActorLoc::kNic);
}

TEST(ServerNode, CoreUsageAccountingWindowed) {
  ParallelCluster cluster(kTorLatency);
  auto& server = cluster.add_server(ServerSpec{});

  class Burn final : public Actor {
   public:
    Burn() : Actor("burn") {}
    void handle(ActorEnv& env, const netsim::Packet& req) override {
      env.charge(usec(10));
      env.reply(req, 2, {});
    }
  };
  const ActorId id = server.runtime().register_actor(std::make_unique<Burn>());
  workloads::EchoWorkloadParams wl;
  wl.server = 0;
  wl.actor = id;
  wl.msg_type = 1;
  auto& client = cluster.add_client(10.0, workloads::echo_workload(wl));
  client.start_closed_loop(4, msec(20));

  cluster.snapshot_all_at(msec(5));
  cluster.run_until(msec(20));
  // NIC cores are busy (handler work on the NIC), host idle.
  EXPECT_GT(server.nic_cores_used(), 0.5);
  EXPECT_LT(server.host_cores_used(), 0.05);
}

TEST(EchoFirmware, CountsAndBouncesFrames) {
  BareFabric fabric;
  sim::Simulation& sim = fabric.sim();
  netsim::Network& net = fabric.net;
  nic::NicModel nic(sim, nic::liquidio_cn2350(), net, 0);
  EchoFirmware echo(usec(1));
  nic.set_firmware(&echo);

  workloads::EchoWorkloadParams wl;
  wl.server = 0;
  wl.frame_size = 256;
  workloads::ClientGen client(sim, net, 1000, 10.0,
                              workloads::echo_workload(wl));
  client.start_closed_loop(2, msec(2));
  fabric.run(msec(3));
  EXPECT_GT(echo.echoed(), 100u);
  EXPECT_EQ(echo.echoed(), client.completed());
}

TEST(Cluster, ClientNodeIdsStartAtBase) {
  ParallelCluster cluster(kTorLatency);
  cluster.add_server(ServerSpec{});
  workloads::EchoWorkloadParams wl;
  wl.server = 0;
  auto& c0 = cluster.add_client(10.0, workloads::echo_workload(wl));
  auto& c1 = cluster.add_client(10.0, workloads::echo_workload(wl));
  EXPECT_EQ(c0.node(), ParallelCluster::kClientBase);
  EXPECT_EQ(c1.node(), ParallelCluster::kClientBase + 1);
}

// ------------------------------------------------------- RKV deployment --

const rkv::ConsensusActor* consensus_on(ParallelCluster& cluster,
                                        netsim::NodeId node, ActorId id) {
  return dynamic_cast<const rkv::ConsensusActor*>(
      cluster.server(node).runtime().find_actor(id));
}

TEST(RkvDeploy, GroupAgreesOnActorIdsAndLeadsFromReplicaZero) {
  ParallelCluster cluster(kTorLatency);
  for (int i = 0; i < 6; ++i) cluster.add_server(ServerSpec{});
  const auto deps = deploy_rkv_group(cluster, {.replicas = {3, 4, 5}});

  ASSERT_EQ(deps.size(), 3u);
  for (const auto& d : deps) {
    EXPECT_EQ(d.consensus, deps[0].consensus);
    EXPECT_EQ(d.memtable, deps[0].memtable);
    EXPECT_EQ(d.sst_read, deps[0].sst_read);
    EXPECT_EQ(d.compaction, deps[0].compaction);
  }
  for (netsim::NodeId node = 0; node < 6; ++node) {
    const auto* c = consensus_on(cluster, node, deps[0].consensus);
    ASSERT_EQ(c != nullptr, node >= 3) << "node " << node;
    if (c != nullptr) {
      EXPECT_EQ(c->is_leader(), node == 3) << "node " << node;
    }
  }
}

TEST(RkvDeploy, GroupRejectsReplicasWhoseActorIdsDiffer) {
  ParallelCluster cluster(kTorLatency);
  for (int i = 0; i < 3; ++i) cluster.add_server(ServerSpec{});
  // An extra actor on node 1 shifts every id the group registers there.
  cluster.server(1).runtime().register_actor(
      std::make_unique<bench::EchoActor>());
  EXPECT_THROW(
      static_cast<void>(deploy_rkv_group(cluster, {.replicas = {0, 1, 2}})),
      std::logic_error);
}

TEST(RkvDeploy, ShardedRingSplitsShardsAndLeavesStandbyEmpty) {
  ParallelCluster cluster(kTorLatency);
  for (int i = 0; i < 9; ++i) cluster.add_server(ServerSpec{});
  const ShardedRkv s = deploy_sharded_rkv(
      cluster, /*groups=*/3, /*replicas=*/3, /*on_ring=*/2,
      {.num_shards = 16, .enable_hot_cache = true});

  EXPECT_EQ(s.table.epoch, 1u);
  ASSERT_EQ(s.targets.size(), 3u);
  std::vector<int> owners(16, 0);  // groups owning each shard
  for (std::uint32_t g = 0; g < 3; ++g) {
    const auto& t = s.targets[g];
    const netsim::NodeId first = 3 * g;
    EXPECT_EQ(t.replicas,
              (std::vector<netsim::NodeId>{first, first + 1, first + 2}));
    EXPECT_EQ(t.leader_hint, t.replicas[0]);
    EXPECT_EQ(t.consensus, s.deployments[first].consensus);
    EXPECT_NE(t.cache, 0u);
    EXPECT_EQ(t.cache, s.deployments[first].hot_cache);
    const auto want = s.table.shards_of(g);
    EXPECT_EQ(want.empty(), g == 2) << "group " << g;
    for (const netsim::NodeId node : t.replicas) {
      const auto* c = consensus_on(cluster, node, t.consensus);
      ASSERT_NE(c, nullptr);
      EXPECT_EQ(c->shard_epoch(), 1u);
      EXPECT_EQ(std::vector<std::uint32_t>(c->owned_shards().begin(),
                                           c->owned_shards().end()),
                want) << "node " << node;
    }
    for (const std::uint32_t shard : want) ++owners[shard];
  }
  EXPECT_EQ(owners, std::vector<int>(16, 1));
  // The grown ring a rebalance installs gives the standby a share.
  EXPECT_FALSE(ring_table(16, 3, /*epoch=*/2).shards_of(2).empty());
}

}  // namespace
}  // namespace ipipe::testbed
