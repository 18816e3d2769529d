// Distributed transactions example (§4): OCC + two-phase commit with a
// NIC-resident coordinator and participants, a host-pinned logger, and a
// deliberate write-write conflict to show the abort path.
//
// Build & run:  ./build/examples/transactions
#include <cstdio>

#include "apps/dt/dt_actors.h"
#include "testbed/cluster.h"

using namespace ipipe;

int main() {
  testbed::ParallelCluster cluster(testbed::kTorLatency);
  for (int i = 0; i < 3; ++i) cluster.add_server(testbed::ServerSpec{});

  std::vector<dt::DtDeployment> nodes;
  for (std::size_t i = 0; i < 3; ++i) {
    nodes.push_back(dt::deploy_dt(cluster.server(i).runtime(), i == 0));
  }
  std::printf("deployed DT: coordinator=%u on node 0, participants on 1-2\n",
              nodes[0].coordinator);

  // Issue a handful of transactions, including two that race on one key.
  std::vector<std::pair<std::uint64_t, dt::TxnReply>> replies;
  auto& client = cluster.add_client(10.0, [&](std::uint64_t seq, Rng&, netsim::PacketPool& pool) {
    if (seq > 6) return netsim::PacketPtr{};
    auto pkt = pool.make();
    pkt->dst = 0;
    pkt->dst_actor = nodes[0].coordinator;
    pkt->msg_type = dt::kTxnRequest;
    pkt->frame_size = 512;
    dt::TxnRequest txn;
    switch (seq) {
      case 1:  // seed the accounts
        txn.writes.push_back({1, "alice", {100}});
        break;
      case 2:
        txn.writes.push_back({2, "bob", {50}});
        break;
      case 3:  // read both, transfer
        txn.reads.push_back({1, "alice"});
        txn.reads.push_back({2, "bob"});
        txn.writes.push_back({1, "alice", {90}});
        break;
      case 4:  // read-only audit
        txn.reads.push_back({1, "alice"});
        txn.reads.push_back({2, "bob"});
        break;
      default:  // repeated writes to one hot key
        txn.writes.push_back({1, "hot", {static_cast<std::uint8_t>(seq)}});
        txn.reads.push_back({2, "bob"});
    }
    pkt->payload = txn.encode();
    return pkt;
  });
  client.set_on_reply([&](const netsim::Packet& pkt) {
    if (auto rep = dt::TxnReply::decode(pkt.payload)) {
      replies.emplace_back(pkt.request_id & 0xFFFF, *rep);
    }
  });
  client.start_closed_loop(1, msec(100));
  cluster.run_until(msec(120));

  const char* status_names[] = {"COMMITTED", "ABORTED(locked)",
                                "ABORTED(validation)", "ERROR"};
  std::printf("\ntransaction outcomes:\n");
  for (const auto& [seq, rep] : replies) {
    std::printf("  txn %llu: %s", static_cast<unsigned long long>(seq),
                status_names[static_cast<int>(rep.status)]);
    if (!rep.read_values.empty()) {
      std::printf("  reads=[");
      for (const auto& v : rep.read_values) {
        std::printf("%s%u", &v == &rep.read_values.front() ? "" : ", ",
                    v.empty() ? 0 : v[0]);
      }
      std::printf("]");
    }
    std::printf("\n");
  }

  auto* coord = dynamic_cast<dt::CoordinatorActor*>(
      cluster.server(0).runtime().find_actor(nodes[0].coordinator));
  auto* log = dynamic_cast<dt::LogActor*>(
      cluster.server(0).runtime().find_actor(nodes[0].log));
  std::printf(
      "\ncoordinator: %llu committed, %llu aborted; log appended %llu "
      "entries (host-pinned: %s)\n",
      static_cast<unsigned long long>(coord->committed()),
      static_cast<unsigned long long>(coord->aborted()),
      static_cast<unsigned long long>(log->appended()),
      cluster.server(0).runtime().control(nodes[0].log)->loc == ActorLoc::kHost
          ? "yes"
          : "no");
  return 0;
}
