// Figure 18 (Appendix B.3): actor migration elapsed-time breakdown.
// Eight actors drawn from the three applications are force-migrated from
// the NIC to the host under ~90% network load; the four protocol phases
// (Prepare, drain-to-Ready, object move, buffered-request forwarding) are
// timed individually.
#include <cstdio>

#include "common/table.h"
#include "harness/trace_opts.h"
#include "ipipe/runtime.h"
#include "testbed/cluster.h"
#include "workloads/app_workloads.h"

using namespace ipipe;

namespace {

constexpr std::uint16_t kReq = 1;
constexpr std::uint16_t kRep = 2;

/// Stand-in actor with the state footprint and per-request cost of one of
/// the paper's application actors.
class AppActor final : public Actor {
 public:
  AppActor(std::string name, std::uint64_t state_bytes, Ns cost)
      : Actor(std::move(name)), state_bytes_(state_bytes), cost_(cost) {}

  [[nodiscard]] std::uint64_t region_bytes() const override {
    return state_bytes_ * 2 + MiB;
  }

  void init(ActorEnv& env) override {
    // Carve the private state into 32KB DMOs (object tables hold many
    // objects, not one blob).
    std::uint64_t remaining = state_bytes_;
    while (remaining > 0) {
      const auto chunk = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(remaining, 32 * KiB));
      (void)env.dmo_alloc(chunk);
      remaining -= chunk;
    }
  }

  void handle(ActorEnv& env, const netsim::Packet& req) override {
    env.charge(cost_);
    env.reply(req, kRep, {});
  }

 private:
  std::uint64_t state_bytes_;
  Ns cost_;
};

struct Candidate {
  const char* name;
  std::uint64_t state_bytes;
  Ns cost;
};

}  // namespace

int main(int argc, char** argv) {
  // --trace-out= captures the first candidate's run (all four migration
  // phases plus the surrounding exec/channel activity).
  const bench::TraceOpts trace = bench::parse_trace_opts(argc, argv);
  bool trace_written = false;
  // Actor state sizes follow §4 / Fig. 18: the LSM memtable dominates
  // (~32MB); filters are stateless; rankers/coordinators hold KBs-MBs.
  const Candidate candidates[] = {
      {"Filter", 16 * KiB, usec(2)},
      {"Count", 2 * MiB, usec(3)},
      {"Rank", 256 * KiB, usec(8)},
      {"Coord.", 4 * MiB, usec(3)},
      {"Parti.", 8 * MiB, usec(3)},
      {"Consensus", 6 * MiB, usec(2)},
      {"LSMmem.", 32 * MiB, usec(4)},
      {"KVcache", 16 * MiB, usec(3)},
  };

  std::printf(
      "\nFigure 18: migration elapsed time breakdown (ms) at ~90%% load, "
      "10GbE CN2350\n");
  TablePrinter table({"actor", "state", "Phase1", "Phase2", "Phase3",
                      "Phase4", "total"});
  for (const auto& cand : candidates) {
    testbed::ParallelCluster cluster(testbed::kTorLatency);
    testbed::ServerSpec spec;
    spec.ipipe.enable_migration = false;  // only the forced migration
    auto& server = cluster.add_server(spec);
    if (!trace_written) trace.apply(cluster);
    const ActorId id = server.runtime().register_actor(
        std::make_unique<AppActor>(cand.name, cand.state_bytes, cand.cost));

    workloads::EchoWorkloadParams wl;
    wl.server = 0;
    wl.frame_size = 512;
    wl.actor = id;
    wl.msg_type = kReq;
    auto& client = cluster.add_client(10.0, workloads::echo_workload(wl));
    // ~90% of one actor's service capacity.
    const double rate = 0.9 * 1e9 / static_cast<double>(
        cand.cost + nic::liquidio_cn2350().forwarding.cost(512));
    client.start_open_loop(rate, msec(120), true);

    server.sim().schedule(msec(5), [&] {
      server.runtime().start_migration(id, ActorLoc::kHost);
    });
    cluster.run_until(msec(120));
    if (trace.enabled() && !trace_written) {
      bench::write_cluster_trace(trace, cluster,
                                 std::string("fig18/") + cand.name);
      trace_written = true;
    }

    const auto* control = server.runtime().control(id);
    const auto& phases = control->mig_phase_ns;
    const double total =
        to_ms(phases[0] + phases[1] + phases[2] + phases[3]);
    table.add_row({cand.name,
                   cand.state_bytes >= MiB
                       ? strf("%lluMB", static_cast<unsigned long long>(
                                            cand.state_bytes / MiB))
                       : strf("%lluKB", static_cast<unsigned long long>(
                                            cand.state_bytes / KiB)),
                   strf("%.3f", to_ms(phases[0])), strf("%.3f", to_ms(phases[1])),
                   strf("%.3f", to_ms(phases[2])), strf("%.3f", to_ms(phases[3])),
                   strf("%.3f", total)});
  }
  table.print();
  std::printf(
      "Paper shape: phase 3 (object movement) dominates (~68%% on average; "
      "35.8ms for the 32MB LSM memtable), phase 4 (buffered-request "
      "forwarding) second (~27%%), phases 1-2 negligible.\n");
  return 0;
}
