// Replicated key-value store example (§4): a 3-replica Multi-Paxos + LSM
// cluster served from the SmartNICs, exercised with the paper's YCSB-like
// workload (zipf 0.99, 95/5 read/write).  Shows leader election and
// where each actor ends up running.
//
// Build & run:  ./build/examples/replicated_kv
#include <cstdio>

#include "apps/rkv/rkv_actors.h"
#include "testbed/cluster.h"
#include "testbed/rkv_deploy.h"
#include "workloads/app_workloads.h"

using namespace ipipe;

int main() {
  testbed::ParallelCluster cluster(testbed::kTorLatency);
  for (int i = 0; i < 3; ++i) cluster.add_server(testbed::ServerSpec{});

  // Deploy the four RKV actors on every replica (same order everywhere so
  // actor ids agree cluster-wide); node 0 starts as leader.
  const auto nodes =
      testbed::deploy_rkv_group(cluster, {.replicas = {0, 1, 2}});
  std::printf("deployed RKV: consensus=%u memtable=%u sst-read=%u compact=%u\n",
              nodes[0].consensus, nodes[0].memtable, nodes[0].sst_read,
              nodes[0].compaction);

  // The paper's KV workload against the leader (node 0).
  workloads::KvWorkloadParams wl;
  wl.server = 0;
  wl.consensus_actor = nodes[0].consensus;
  wl.frame_size = 512;
  wl.num_keys = 10'000;
  auto& client = cluster.add_client(10.0, workloads::kv_workload(wl));
  client.start_closed_loop(8, msec(200));
  cluster.run_until(msec(220));

  std::printf("\nafter 200 simulated ms:\n");
  std::printf("  %llu requests completed, mean %.1fus, p99 %.1fus\n",
              static_cast<unsigned long long>(client.completed()),
              client.latencies().mean_ns() / 1000.0,
              to_us(client.latencies().p99()));
  for (std::size_t i = 0; i < 3; ++i) {
    auto& rt = cluster.server(i).runtime();
    auto* consensus = dynamic_cast<rkv::ConsensusActor*>(
        rt.find_actor(nodes[i].consensus));
    auto* memtable = dynamic_cast<rkv::MemtableActor*>(
        rt.find_actor(nodes[i].memtable));
    std::printf(
        "  node %zu: %s, %llu slots chosen, memtable %zu keys (%llu "
        "flushes), consensus on %s\n",
        i, consensus->is_leader() ? "LEADER" : "follower",
        static_cast<unsigned long long>(consensus->chosen_count()),
        memtable->list().size(),
        static_cast<unsigned long long>(memtable->flushes()),
        rt.control(nodes[i].consensus)->loc == ActorLoc::kNic ? "NIC" : "host");
  }

  // Fail over: trigger a leader election on node 2.
  std::printf("\ntriggering leader election on node 2...\n");
  auto pkt = netsim::alloc_packet();
  pkt->src = 2;
  pkt->dst = 2;
  pkt->dst_actor = nodes[2].consensus;
  pkt->msg_type = rkv::ConsensusActor::kElectTrigger;
  pkt->frame_size = 64;
  pkt->nic_arrival = cluster.server(2).sim().now();
  cluster.server(2).nic().tm().push(std::move(pkt));
  cluster.run_until(cluster.server(2).sim().now() + msec(10));

  for (std::size_t i = 0; i < 3; ++i) {
    auto* consensus = dynamic_cast<rkv::ConsensusActor*>(
        cluster.server(i).runtime().find_actor(nodes[i].consensus));
    std::printf("  node %zu: %s (ballot %llu)\n", i,
                consensus->is_leader() ? "LEADER" : "follower",
                static_cast<unsigned long long>(consensus->ballot()));
  }
  return 0;
}
