// Network-function example (§5.7): an IPSec gateway actor with *real*
// AES-256-CTR + HMAC-SHA1 (bytes are genuinely encrypted/authenticated)
// and a TCAM firewall in front of it, both running on the SmartNIC.
//
// Build & run:  ./build/examples/nf_gateway
#include <cstdio>

#include "apps/nf/ipsec.h"
#include "apps/nf/tcam.h"
#include "crypto/md5.h"
#include "ipipe/runtime.h"
#include "testbed/cluster.h"
#include "workloads/app_workloads.h"

using namespace ipipe;

namespace {

class GatewayActor final : public Actor {
 public:
  GatewayActor()
      : Actor("ipsec-gateway"),
        tx_(std::vector<std::uint8_t>(32, 0x42), {0xAA, 0xBB}),
        rx_(std::vector<std::uint8_t>(32, 0x42), {0xAA, 0xBB}) {
    // Firewall policy: drop anything to port 23 (telnet), allow the rest.
    nf::TcamRule deny{};
    deny.value.dst_port = 23;
    deny.mask.dst_port = 0xFFFF;
    deny.priority = 10;
    deny.action = 0;
    firewall_.add_rule(deny);
    nf::TcamRule allow{};
    allow.priority = 1;
    allow.action = 1;
    firewall_.add_rule(allow);
  }

  void handle(ActorEnv& env, const netsim::Packet& req) override {
    nf::FiveTuple tuple;
    tuple.dst_port = static_cast<std::uint16_t>(req.flow % 1024);
    const auto verdict = firewall_.lookup(tuple);
    env.compute(200);
    if (!verdict || verdict->action == 0) {
      ++dropped_;
      return;  // firewall drop
    }

    // Encrypt + authenticate the payload with real crypto, then verify
    // the round trip (a self-check a production gateway wouldn't do).
    const auto esp = tx_.encapsulate(req.payload);
    const auto back = rx_.decapsulate(esp);
    round_trip_ok_ = round_trip_ok_ && back.has_value() &&
                     *back == req.payload;
    // Time cost comes from the AES + SHA-1 engines (batched).
    env.accel(nic::AccelKind::kAes, req.frame_size, 8);
    env.accel(nic::AccelKind::kSha1, req.frame_size, 8);
    ++encrypted_;
    env.reply(req, 2, {}, req.frame_size);
  }

  std::uint64_t encrypted_ = 0;
  std::uint64_t dropped_ = 0;
  bool round_trip_ok_ = true;

 private:
  nf::SoftTcam firewall_;
  nf::IpsecGateway tx_;
  nf::IpsecGateway rx_;
};

}  // namespace

int main() {
  testbed::ParallelCluster cluster(testbed::kTorLatency);
  auto& server = cluster.add_server(testbed::ServerSpec{});
  auto gw = std::make_unique<GatewayActor>();
  auto* gateway = gw.get();
  const ActorId id = server.runtime().register_actor(std::move(gw));

  auto& client = cluster.add_client(10.0, [&](std::uint64_t seq, Rng& rng, netsim::PacketPool& pool) {
    auto pkt = pool.make();
    pkt->dst = 0;
    pkt->dst_actor = id;
    pkt->msg_type = 1;
    pkt->frame_size = 1024;
    pkt->flow = static_cast<std::uint32_t>(seq);
    pkt->payload.resize(900);
    for (auto& b : pkt->payload) b = static_cast<std::uint8_t>(rng.next());
    return pkt;
  });
  client.start_closed_loop(8, msec(100));
  cluster.run_until(msec(110));

  const double gbps = static_cast<double>(client.completed()) * 1024 * 8 /
                      to_sec(msec(100)) / 1e9;
  std::printf("IPSec gateway on %s:\n", server.nic().config().name.c_str());
  std::printf("  %llu packets encrypted, %llu dropped by firewall\n",
              static_cast<unsigned long long>(gateway->encrypted_),
              static_cast<unsigned long long>(gateway->dropped_));
  std::printf("  crypto round-trip check: %s\n",
              gateway->round_trip_ok_ ? "all packets verified" : "FAILED");
  std::printf("  achieved ~%.1f Gbps of application bandwidth\n", gbps);
  std::printf("  mean latency %.1fus, p99 %.1fus\n",
              client.latencies().mean_ns() / 1000.0,
              to_us(client.latencies().p99()));
  return 0;
}
