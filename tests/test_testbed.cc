#include <gtest/gtest.h>

#include "testbed/cluster.h"
#include "testbed/echo_firmware.h"
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

}  // namespace
}  // namespace ipipe::testbed
