// End-to-end tests of the sharded cluster harness (ParallelCluster): the
// full node stack (NIC + host + runtime + actors) runs per-domain, frames
// cross domains through the fabric, and chaos faults dispatch to the
// right domain.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "ipipe/runtime.h"
#include "netsim/chaos.h"
#include "testbed/cluster.h"
#include "workloads/app_workloads.h"

namespace ipipe {
namespace {

class Echo final : public Actor {
 public:
  Echo() : Actor("echo") {}
  void handle(ActorEnv& env, const netsim::Packet& req) override {
    env.charge(usec(2));
    env.reply(req, 2, {});
  }
};

/// Everything a run can observe.
struct RunResult {
  std::uint64_t executed = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_dropped = 0;
  std::vector<std::uint64_t> completed;
  std::vector<Ns> p50;
  std::vector<Ns> p99;
  std::string chaos_log;
  std::uint64_t chaos_crashes = 0;
  std::uint64_t chaos_restores = 0;
};

RunResult run_echo_cluster(bool with_chaos) {
  constexpr int kServers = 3;
  testbed::ParallelCluster cluster;
  std::vector<ActorId> actors;
  for (int i = 0; i < kServers; ++i) {
    auto& server = cluster.add_server(testbed::ServerSpec{});
    actors.push_back(server.runtime().register_actor(std::make_unique<Echo>()));
  }
  for (int i = 0; i < kServers; ++i) {
    workloads::EchoWorkloadParams wl;
    wl.server = static_cast<netsim::NodeId>(i);
    wl.actor = actors[static_cast<std::size_t>(i)];
    wl.msg_type = 1;
    wl.frame_size = 512;
    auto& client = cluster.add_client(10.0, workloads::echo_workload(wl),
                                      /*seed=*/100 + static_cast<std::uint64_t>(i));
    client.enable_retries(
        {.timeout = msec(2), .max_retries = 3, .backoff = 2.0, .cap = msec(8)});
    client.start_closed_loop(4, msec(18));
  }

  std::unique_ptr<netsim::ChaosController> chaos;
  if (with_chaos) {
    chaos = cluster.make_chaos();
    netsim::FaultPlan plan;
    plan.crash(1, msec(4), msec(5));
    netsim::FaultModel lossy;
    lossy.drop_prob = 0.05;
    plan.link_fault(lossy, msec(10), msec(3));
    chaos->execute(plan);
  }

  cluster.run_until(msec(20));

  RunResult r;
  r.executed = cluster.engine().executed();
  r.frames_sent = cluster.net().frames_sent();
  r.frames_delivered = cluster.net().frames_delivered();
  r.frames_dropped = cluster.net().frames_dropped();
  for (int i = 0; i < kServers; ++i) {
    auto& c = cluster.client(static_cast<std::size_t>(i));
    r.completed.push_back(c.completed());
    r.p50.push_back(c.latencies().p50());
    r.p99.push_back(c.latencies().p99());
  }
  if (chaos != nullptr) {
    r.chaos_log = chaos->event_log_text();
    r.chaos_crashes = chaos->crashes();
    r.chaos_restores = chaos->restores();
  }
  return r;
}

TEST(ParallelCluster, EchoTrafficFlowsAcrossDomains) {
  const RunResult r = run_echo_cluster(/*with_chaos=*/false);
  EXPECT_GT(r.executed, 1000u);
  EXPECT_GT(r.frames_delivered, 100u);
  for (const std::uint64_t done : r.completed) EXPECT_GT(done, 50u);
  for (const Ns p : r.p50) EXPECT_GT(p, 0u);
}

TEST(ParallelCluster, ChaosRunCrashesAndRestoresOneServer) {
  const RunResult r = run_echo_cluster(/*with_chaos=*/true);
  EXPECT_EQ(r.chaos_crashes, 1u);
  EXPECT_EQ(r.chaos_restores, 1u);
  EXPECT_FALSE(r.chaos_log.empty());
  // The crashed server's client made less progress than its peers but the
  // node came back (restore re-attaches the port in its original domain).
  EXPECT_GT(r.completed[1], 0u);
  EXPECT_LT(r.completed[1], r.completed[0]);
  // The lossy window dropped frames; nothing else did.
  EXPECT_GT(r.frames_dropped, 0u);
  EXPECT_EQ(r.frames_sent, r.frames_delivered + r.frames_dropped);
}

TEST(ParallelCluster, EngineCountersReachMetricsSnapshots) {
  testbed::ParallelCluster cluster;
  testbed::ServerSpec spec;
  auto& server = cluster.add_server(spec);
  server.runtime().enable_tracing(1 << 12, /*metrics_period=*/msec(2));
  const ActorId id = server.runtime().register_actor(std::make_unique<Echo>());
  workloads::EchoWorkloadParams wl;
  wl.server = 0;
  wl.actor = id;
  wl.msg_type = 1;
  wl.frame_size = 512;
  auto& client = cluster.add_client(10.0, workloads::echo_workload(wl));
  client.start_closed_loop(4, msec(8));
  cluster.run_until(msec(10));

  const auto& snaps = server.runtime().metrics().snapshots();
  ASSERT_FALSE(snaps.empty());
  const auto& last = snaps.back();
  EXPECT_GT(last.eng_events, 0u);
  EXPECT_GT(last.eng_windows, 0u);
  EXPECT_GT(last.eng_handoffs_in, 0u);
  EXPECT_GT(last.eng_lookahead_ns, 0u);
}

TEST(ParallelCluster, SubTwoNanosecondSwitchIsRejected) {
  // Below 2 ns one switch half-latency, and so one fabric lookahead, is
  // zero: the cluster refuses the topology at construction.
  EXPECT_THROW(testbed::ParallelCluster{0}, std::invalid_argument);
  EXPECT_THROW(testbed::ParallelCluster{1}, std::invalid_argument);

  // 2 ns is the smallest switch that windows; it still serves traffic.
  testbed::ParallelCluster cluster(/*switch_latency=*/2);
  auto& server = cluster.add_server(testbed::ServerSpec{});
  const ActorId id = server.runtime().register_actor(std::make_unique<Echo>());
  workloads::EchoWorkloadParams wl;
  wl.server = 0;
  wl.actor = id;
  wl.msg_type = 1;
  wl.frame_size = 512;
  auto& client = cluster.add_client(10.0, workloads::echo_workload(wl));
  client.start_closed_loop(2, msec(2));
  cluster.run_until(msec(3));
  EXPECT_EQ(cluster.engine().lookahead(0, 2), 1u);
  EXPECT_GT(client.completed(), 10u);
}

}  // namespace
}  // namespace ipipe
