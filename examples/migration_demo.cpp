// Actor migration demo (§3.2.5): watch the iPipe scheduler shed a
// heavyweight actor to the host when the NIC saturates, then pull it back
// when load drops — with the 4-phase protocol timings printed.
//
// Build & run:  ./build/examples/migration_demo
#include <cstdio>

#include "ipipe/runtime.h"
#include "testbed/cluster.h"
#include "workloads/app_workloads.h"

using namespace ipipe;

namespace {

class HeavyActor final : public Actor {
 public:
  HeavyActor() : Actor("heavy") {}

  [[nodiscard]] std::uint64_t region_bytes() const override { return 32 * MiB; }

  void init(ActorEnv& env) override {
    for (int i = 0; i < 128; ++i) {
      (void)env.dmo_alloc(64 * 1024);  // 8MB of private state
    }
  }

  void handle(ActorEnv& env, const netsim::Packet& req) override {
    env.compute(20'000);  // ~17us on a wimpy core, ~2.7us on the host
    env.mem(8 * MiB, 20);
    env.reply(req, 2, {});
  }
};

}  // namespace

int main() {
  testbed::ParallelCluster cluster(testbed::kTorLatency);
  testbed::ServerSpec spec;
  spec.ipipe.mean_thresh = usec(25);
  auto& server = cluster.add_server(spec);

  const ActorId id =
      server.runtime().register_actor(std::make_unique<HeavyActor>());

  workloads::EchoWorkloadParams wl;
  wl.server = 0;
  wl.frame_size = 512;
  wl.actor = id;
  wl.msg_type = 1;
  auto& heavy_client = cluster.add_client(10.0, workloads::echo_workload(wl));
  auto& light_client = cluster.add_client(10.0, workloads::echo_workload(wl));

  // Heavy phase: 32 outstanding requests overload the NIC cores.
  heavy_client.start_closed_loop(32, msec(60));
  cluster.run_until(msec(62));  // let the heavy window drain
  const auto* control = server.runtime().control(id);
  std::printf("after heavy load:  actor on %s (%llu push migrations)\n",
              control->loc == ActorLoc::kNic ? "NIC" : "HOST",
              static_cast<unsigned long long>(
                  server.runtime().push_migrations()));
  std::printf("  migration phases (us): prepare=%.1f drain=%.1f objects=%.1f "
              "flush=%.1f\n",
              to_us(control->mig_phase_ns[0]), to_us(control->mig_phase_ns[1]),
              to_us(control->mig_phase_ns[2]), to_us(control->mig_phase_ns[3]));

  // Light phase: a single-request loop leaves the NIC idle; the scheduler
  // pulls the actor home.
  light_client.start_closed_loop(1, msec(300));
  cluster.run_until(msec(300));
  std::printf("after light load:  actor on %s (%llu pull migrations)\n",
              server.runtime().control(id)->loc == ActorLoc::kNic ? "NIC"
                                                                  : "HOST",
              static_cast<unsigned long long>(
                  server.runtime().pull_migrations()));
  std::printf("served %llu requests total; NIC=%llu host=%llu\n",
              static_cast<unsigned long long>(heavy_client.completed() +
                                              light_client.completed()),
              static_cast<unsigned long long>(
                  server.runtime().requests_on_nic()),
              static_cast<unsigned long long>(
                  server.runtime().requests_on_host()));
  return 0;
}
