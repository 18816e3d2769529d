// Quickstart: offload your first actor onto a simulated SmartNIC.
//
// This example builds the smallest possible iPipe deployment — one server
// with a LiquidIOII CN2350, one client — registers a key-value cache
// actor, and shows the core ideas:
//   * actors implement init()/handle() against ActorEnv,
//   * private state lives in DMOs (so the actor can migrate freely),
//   * cost is charged through the env (compute / mem / accelerators),
//   * the iPipe scheduler runs the actor on the NIC while it fits.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "apps/common/wire.h"
#include "ipipe/runtime.h"
#include "testbed/cluster.h"
#include "workloads/client.h"

using namespace ipipe;

namespace {

enum : std::uint16_t { kGet = 1, kPut = 2, kReply = 3 };

/// A tiny cache actor: fixed-size table of 64B slots held in one DMO.
class MiniCacheActor final : public Actor {
 public:
  MiniCacheActor() : Actor("mini-cache") {}

  static constexpr std::uint32_t kSlots = 1024;
  static constexpr std::uint32_t kSlotBytes = 64;

  void init(ActorEnv& env) override {
    table_ = env.dmo_alloc(kSlots * kSlotBytes);
    env.dmo_memset(table_, 0, 0, kSlots * kSlotBytes);
  }

  void handle(ActorEnv& env, const netsim::Packet& req) override {
    wire::Reader r(req.payload);
    std::uint32_t key = 0;
    if (!r.get(key)) return;
    const std::uint32_t slot = key % kSlots;

    env.compute(400);  // parse + hash

    if (req.msg_type == kPut) {
      std::vector<std::uint8_t> value;
      if (!r.get_bytes(value)) return;
      value.resize(kSlotBytes);
      env.dmo_write(table_, slot * kSlotBytes, value);
      env.reply(req, kReply, {1});
      ++puts_;
    } else {
      std::vector<std::uint8_t> value(kSlotBytes);
      if (!env.dmo_read(table_, slot * kSlotBytes, value)) return;
      env.reply(req, kReply, std::move(value));
      ++gets_;
    }
  }

  std::uint64_t puts_ = 0;
  std::uint64_t gets_ = 0;

 private:
  ObjId table_ = kInvalidObj;
};

}  // namespace

int main() {
  // 1. Build the testbed: one server (SmartNIC + host + iPipe runtime).
  testbed::ParallelCluster cluster(testbed::kTorLatency);
  auto& server = cluster.add_server(testbed::ServerSpec{});

  // 2. Register the actor.  The runtime places it on the NIC and will
  //    migrate it automatically if it ever overloads the NIC cores.
  auto actor = std::make_unique<MiniCacheActor>();
  auto* cache = actor.get();
  const ActorId id = server.runtime().register_actor(std::move(actor));
  std::printf("registered actor %u (%s) on the %s\n", id, "mini-cache",
              server.runtime().control(id)->loc == ActorLoc::kNic ? "NIC"
                                                                  : "host");

  // 3. Drive it with a closed-loop client: alternate PUT/GET.
  auto& client = cluster.add_client(10.0, [&](std::uint64_t seq, Rng& rng, netsim::PacketPool& pool) {
    auto pkt = pool.make();
    pkt->dst = 0;
    pkt->dst_actor = id;
    pkt->frame_size = 128;
    wire::Writer w;
    w.put(static_cast<std::uint32_t>(rng.uniform_u64(1024)));
    if (seq % 2 == 0) {
      pkt->msg_type = kPut;
      w.put_bytes(std::vector<std::uint8_t>{1, 2, 3, 4});
    } else {
      pkt->msg_type = kGet;
    }
    pkt->payload = w.take();
    return pkt;
  });
  client.start_closed_loop(/*outstanding=*/4, /*stop_at=*/msec(50));

  // 4. Run the simulation and inspect the results.
  cluster.run_until(msec(60));

  std::printf("completed %llu requests (%llu puts, %llu gets)\n",
              static_cast<unsigned long long>(client.completed()),
              static_cast<unsigned long long>(cache->puts_),
              static_cast<unsigned long long>(cache->gets_));
  std::printf("mean latency %.1fus, p99 %.1fus\n",
              client.latencies().mean_ns() / 1000.0,
              to_us(client.latencies().p99()));
  std::printf("requests served on NIC: %llu, on host: %llu\n",
              static_cast<unsigned long long>(
                  server.runtime().requests_on_nic()),
              static_cast<unsigned long long>(
                  server.runtime().requests_on_host()));
  std::printf("host cores used: %.2f (the whole point of offloading!)\n",
              server.host_cores_used());
  return 0;
}
