// Figure 16: P99 tail latency vs offered network load for three NIC-side
// schedulers — standalone FCFS, standalone DRR, and the iPipe hybrid —
// under low-dispersion (exponential) and high-dispersion (bimodal-2)
// request cost distributions, on the 10GbE LiquidIOII CN2350 and the
// 25GbE Stingray PS225 (§5.4).
#include <cstdio>

#include "common/table.h"
#include "harness/sweep.h"
#include "harness/trace_opts.h"
#include "ipipe/runtime.h"
#include "testbed/cluster.h"
#include "workloads/app_workloads.h"

using namespace ipipe;

namespace {

/// Tracing (--trace-out=/--trace-txt=) runs one *dedicated* capture pass
/// before the table sweeps: the hybrid scheduler on the first bimodal
/// scenario at high load with a narrowed host channel ring, so demotions,
/// migrations and channel backpressure all land in a single trace file.
/// The table runs themselves stay untraced — the printed numbers are
/// identical with and without --trace-out.
bench::TraceOpts g_trace;

constexpr std::uint16_t kReq = 1;
constexpr std::uint16_t kRep = 2;

/// Actor whose handler cost follows the configured distribution.
class DistActor final : public Actor {
 public:
  using CostFn = std::function<Ns(Rng&)>;
  explicit DistActor(CostFn cost) : Actor("dist"), cost_(std::move(cost)) {}
  void handle(ActorEnv& env, const netsim::Packet& req) override {
    env.charge(cost_(env.rng()));
    env.reply(req, kRep, {});
  }

 private:
  CostFn cost_;
};

struct Scenario {
  const char* name;
  nic::NicConfig nic;
  double mean_us;  ///< distribution mean (paper: 32us / 27us exp)
  bool bimodal;
  double b1_us, b2_us;
};

/// Per-actor cost functions for a scenario.  Low dispersion: three
/// identical exponential actors.  High dispersion: the paper's workload
/// is a packet-trace mix of the three applications, so the actors are
/// heterogeneous — a lightweight fast-path actor plus two heavyweight
/// bimodal ones (this is exactly the regime the hybrid targets: light
/// actors stay on FCFS cores, high-dispersion ones move to DRR cores).
std::vector<DistActor::CostFn> make_actors(const Scenario& sc, double& mix_mean) {
  std::vector<DistActor::CostFn> fns;
  if (!sc.bimodal) {
    const double mean = sc.mean_us;
    for (int i = 0; i < 3; ++i) {
      fns.push_back([mean](Rng& rng) { return usec(rng.exponential(mean)); });
    }
    mix_mean = mean;
    return fns;
  }
  const double light = sc.b1_us / 5.0;
  const double b1 = sc.b1_us;
  const double b2 = sc.b2_us;
  fns.push_back([light](Rng& rng) { return usec(rng.exponential(light)); });
  fns.push_back([b1, b2](Rng& rng) {
    return usec(rng.bernoulli(0.5) ? b1 : b2);
  });
  fns.push_back([b1, b2](Rng& rng) {
    return usec(rng.bernoulli(0.5) ? b1 : b2);
  });
  mix_mean = (light + (b1 + b2) / 2.0 * 2.0) / 3.0;
  return fns;
}

const char* policy_name(SchedPolicy policy) {
  switch (policy) {
    case SchedPolicy::kFcfsOnly:
      return "FCFS";
    case SchedPolicy::kDrrOnly:
      return "DRR";
    default:
      return "hybrid";
  }
}

double p99_at_load(const Scenario& sc, SchedPolicy policy, double load,
                   bool capture = false, bench::PointPerf* perf = nullptr) {
  testbed::ParallelCluster cluster(testbed::kTorLatency);
  testbed::ServerSpec spec;
  spec.nic = sc.nic;
  spec.ipipe.policy = policy;
  if (capture) {
    // Narrow the host channel ring so the reliability/backpressure path
    // genuinely exercises during the capture (the default 1MB ring never
    // fills at these message rates).
    spec.ipipe.channel_bytes = 8 * 1024;
  }
  // The FCFS/DRR baselines are pure NIC-side schedulers; the iPipe hybrid
  // is the full runtime — including shedding load to the host when the
  // NIC cannot keep up (§3.2.2: "migrates actors between SmartNIC and
  // host processors when necessary").
  spec.ipipe.enable_migration = policy == SchedPolicy::kHybrid;
  spec.ipipe.migration_cooldown = msec(4);  // both heavy actors can shed
  // Tail threshold (§3.2.3): the service level the NIC must preserve.
  // It sits above the workload's intrinsic tail — only *queueing*
  // inflation beyond it should trigger downgrades.
  spec.ipipe.tail_thresh =
      sc.bimodal ? usec(sc.b2_us * 1.3) : usec(sc.mean_us * 12.0);
  spec.ipipe.mean_thresh =
      sc.bimodal ? usec((sc.b1_us + sc.b2_us) / 2.0 * 1.6)
                 : usec(sc.mean_us * 2.2);
  auto& server = cluster.add_server(spec);
  if (capture) g_trace.apply(cluster);

  // Three actors share the NIC (multiple apps coexist, §5.4 workload is a
  // trace mix); each receives a slice of the Poisson stream.
  double mix_mean_us = 0.0;
  auto fns = make_actors(sc, mix_mean_us);
  std::vector<ActorId> actors;
  for (auto& fn : fns) {
    actors.push_back(server.runtime().register_actor(
        std::make_unique<DistActor>(std::move(fn))));
  }

  // Offered load: fraction of the system's aggregate capacity, including
  // the per-packet forwarding tax.  The DRR baseline reserves one core as
  // dispatcher/manager, so its capacity is normalized to the remaining
  // handler cores (load = fraction of each system's own max throughput).
  const double fwd_us =
      static_cast<double>(sc.nic.forwarding.cost(512) +
                          sc.nic.sw_shuffle_cost) / 1000.0;
  const double handler_cores = policy == SchedPolicy::kDrrOnly
                                   ? static_cast<double>(sc.nic.cores - 1)
                                   : static_cast<double>(sc.nic.cores);
  const double capacity_rps = handler_cores * 1e6 / (mix_mean_us + fwd_us);
  const double rate = capacity_rps * load;

  auto& client = cluster.add_client(
      sc.nic.link_gbps,
      [&, actors](std::uint64_t seq, Rng&, netsim::PacketPool& pool) {
        auto pkt = pool.make();
        pkt->dst = 0;
        pkt->dst_actor = actors[seq % actors.size()];
        pkt->msg_type = kReq;
        pkt->frame_size = 512;
        return pkt;
      });
  const Ns duration = msec(60);
  client.set_warmup(msec(15));
  client.start_open_loop(rate, duration, /*poisson=*/true);
  cluster.run_until(duration + msec(20));
  if (capture) {
    bench::write_cluster_trace(g_trace, cluster,
                               std::string("fig16/") + sc.name);
  }
  if (perf != nullptr) bench::fill_perf(*perf, cluster);
  return to_us(client.latencies().p99());
}

constexpr double kLoads[] = {0.1, 0.3, 0.5, 0.7, 0.8, 0.9};
constexpr SchedPolicy kPolicies[] = {SchedPolicy::kFcfsOnly,
                                     SchedPolicy::kDrrOnly,
                                     SchedPolicy::kHybrid};

}  // namespace

int main(int argc, char** argv) {
  g_trace = bench::parse_trace_opts(argc, argv);
  const bench::SweepOpts sweep_opts = bench::parse_sweep_opts(argc, argv);
  const Scenario scenarios[] = {
      {"(a) low dispersion (exp, mean 32us), 10GbE LiquidIOII CN2350",
       nic::liquidio_cn2350(), 32.0, false, 0, 0},
      {"(b) high dispersion (bimodal 35/60us), 10GbE LiquidIOII CN2350",
       nic::liquidio_cn2350(), 0, true, 35.0, 60.0},
      {"(c) low dispersion (exp, mean 27us), 25GbE Stingray PS225",
       nic::stingray_ps225(), 27.0, false, 0, 0},
      {"(d) high dispersion (bimodal 25/55us), 25GbE Stingray PS225",
       nic::stingray_ps225(), 0, true, 25.0, 55.0},
  };
  if (g_trace.enabled()) {
    (void)p99_at_load(scenarios[1], SchedPolicy::kHybrid, 0.95,
                      /*capture=*/true);
  }

  // Every (scenario, load, policy) point is an independent simulation:
  // compute them all through the sweep runner (parallel under --jobs=N),
  // then print in the fixed sequential order.
  struct Point {
    const Scenario* sc;
    std::size_t sc_idx;
    double load;
    SchedPolicy policy;
  };
  std::vector<Point> points;
  for (std::size_t si = 0; si < std::size(scenarios); ++si) {
    for (const double load : kLoads) {
      for (const SchedPolicy policy : kPolicies) {
        points.push_back({&scenarios[si], si, load, policy});
      }
    }
  }
  bench::SweepRunner runner(sweep_opts);
  const auto p99s = runner.map(
      points.size(), [&](std::size_t i, bench::PointPerf& perf) {
        const Point& pt = points[i];
        perf.label = strf("sc%zu %s load=%.1f", pt.sc_idx,
                          policy_name(pt.policy), pt.load);
        return p99_at_load(*pt.sc, pt.policy, pt.load, /*capture=*/false,
                           &perf);
      });

  std::size_t k = 0;
  for (const auto& sc : scenarios) {
    std::printf("\nFigure 16: %s\n", sc.name);
    TablePrinter table({"load", "FCFS", "DRR", "iPipe-sched"});
    for (const double load : kLoads) {
      table.add_row({strf("%.1f", load), strf("%.1f", p99s[k]),
                     strf("%.1f", p99s[k + 1]), strf("%.1f", p99s[k + 2])});
      k += 3;
    }
    table.print();
  }
  runner.write_json("fig16_scheduler");
  std::printf(
      "\nPaper shape: low dispersion — hybrid ~= FCFS, beats DRR; high "
      "dispersion — hybrid beats FCFS by up to ~68%% at 0.9 load and edges "
      "out DRR (~11-13%%).\n");
  return 0;
}
