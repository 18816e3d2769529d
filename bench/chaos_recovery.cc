// Chaos & recovery driver: run the replicated KV store under a fault
// schedule (default backbone + seeded random tail, or a user-supplied
// FaultPlan text) and report what survived.  Prints the replayable chaos
// event log — byte-identical for the same seed/plan and binary — plus the
// durability sweep, election, supervision and fabric-loss statistics the
// chaos e2e tests assert on (see EXPERIMENTS.md "Chaos & recovery").
//
//   chaos_recovery [--seed=N] [--duration-s=N]
//                  [--plan-file=<path> | --plan="<directives>"]
//                  [--trace-out=<json>] [--trace-txt=<txt>]
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/exact_text.h"
#include "harness/bench_util.h"
#include "harness/rkv_durability.h"
#include "harness/trace_opts.h"
#include "testbed/rkv_deploy.h"

using namespace ipipe;

namespace {

constexpr int kReplicas = 3;

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 1;
  double duration_s = 600.0;
  std::string plan_text;
  const bench::TraceOpts trace = bench::parse_trace_opts(argc, argv);

  for (int i = 1; i < argc; ++i) {
    bool ok = true;
    if (const char* v = bench::flag_value(argv[i], "--seed")) {
      ok = parse_exact(v, &seed);
    } else if (const char* v = bench::flag_value(argv[i], "--duration-s")) {
      ok = parse_exact(v, &duration_s);
    } else if (const char* v = bench::flag_value(argv[i], "--plan")) {
      plan_text = v;
    } else if (const char* v = bench::flag_value(argv[i], "--plan-file")) {
      std::ifstream in(v);
      if (!in) {
        std::fprintf(stderr, "chaos_recovery: cannot open plan file %s\n", v);
        return 1;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      plan_text = buf.str();
    } else if (bench::flag_value(argv[i], "--trace-out") == nullptr &&
               bench::flag_value(argv[i], "--trace-txt") == nullptr) {
      std::fprintf(stderr, "chaos_recovery: unknown flag %s\n", argv[i]);
      return 1;
    }
    if (!ok) {
      std::fprintf(stderr, "chaos_recovery: malformed number in %s\n",
                   argv[i]);
      return 1;
    }
  }
  if (duration_s < 60.0) {
    std::fprintf(stderr, "chaos_recovery: --duration-s must be >= 60\n");
    return 1;
  }

  const Ns total = sec(duration_s);
  const Ns write_end = total - sec(duration_s > 160 ? 110 : 40);
  const Ns verify_at = total - sec(duration_s > 160 ? 100 : 30);

  testbed::ParallelCluster cluster(testbed::kTorLatency);
  for (int i = 0; i < kReplicas; ++i) {
    testbed::ServerSpec spec;
    spec.ipipe.mgmt_period = msec(5);  // the cadence the pinned digests assume
    spec.ipipe.supervise = true;
    cluster.add_server(spec);
  }
  trace.apply(cluster);
  const auto deps = testbed::deploy_rkv_group(
      cluster, {.replicas = {0, 1, 2}, .enable_failover = true});

  auto chaos = cluster.make_chaos();
  netsim::FaultPlan plan;
  if (plan_text.empty()) {
    plan = bench::rkv_chaos_plan(seed, total);
  } else {
    std::string error;
    const auto parsed = netsim::FaultPlan::parse(plan_text, &error);
    if (!parsed) {
      std::fprintf(stderr, "chaos_recovery: bad plan: %s\n", error.c_str());
      return 1;
    }
    plan = *parsed;
  }
  chaos->execute(plan);

  // Writer: unique keys at a steady rate; after the final heal the
  // read-back re-reads every acked key.
  bench::AckedWriteProbe probe(
      cluster,
      {.nodes = {0, 1, 2},
       .consensus = deps[0].consensus,
       .key_prefix = "ck"},
      /*rate=*/2.0, write_end, /*seed=*/seed * 1000 + 17);
  probe.read_back(/*rate=*/200.0, verify_at, total, /*seed=*/seed * 1000 + 23);

  cluster.run_until(total);

  const bench::DurabilityVerdicts v = probe.verdicts();
  const std::uint64_t lost = v.not_found + v.mismatched;
  std::printf("# chaos event log (seed=%llu, duration=%.0fs)\n",
              static_cast<unsigned long long>(seed), duration_s);
  std::fputs(chaos->event_log_text().c_str(), stdout);
  std::printf("\n# recovery stats\n");
  std::printf("crashes=%llu restores=%llu partitions=%llu heals=%llu\n",
              static_cast<unsigned long long>(chaos->crashes()),
              static_cast<unsigned long long>(chaos->restores()),
              static_cast<unsigned long long>(chaos->partitions()),
              static_cast<unsigned long long>(chaos->heals()));
  std::printf("acked=%llu verified=%llu lost=%llu writer_retx=%llu\n",
              static_cast<unsigned long long>(v.acked),
              static_cast<unsigned long long>(v.verified),
              static_cast<unsigned long long>(lost),
              static_cast<unsigned long long>(probe.writer().retransmits()));
  for (std::size_t i = 0; i < kReplicas; ++i) {
    auto& rt = cluster.server(i).runtime();
    auto* c = dynamic_cast<rkv::ConsensusActor*>(rt.find_actor(deps[i].consensus));
    std::printf(
        "replica=%zu leader=%d chosen=%llu applied=%llu elections=%llu "
        "watchdog_kills=%llu restarts=%llu quarantined=%llu\n",
        i, c != nullptr ? static_cast<int>(c->is_leader()) : -1,
        c != nullptr ? static_cast<unsigned long long>(c->chosen_count()) : 0ULL,
        c != nullptr ? static_cast<unsigned long long>(c->next_apply()) : 0ULL,
        c != nullptr ? static_cast<unsigned long long>(c->elections_started())
                     : 0ULL,
        static_cast<unsigned long long>(rt.watchdog_kills()),
        static_cast<unsigned long long>(rt.actor_restarts()),
        static_cast<unsigned long long>(rt.actors_quarantined()));
  }
  std::printf(
      "net frames=%llu dropped=%llu dropped_fault=%llu dropped_partition=%llu "
      "corrupted=%llu\n",
      static_cast<unsigned long long>(cluster.net().frames_sent()),
      static_cast<unsigned long long>(cluster.net().frames_dropped()),
      static_cast<unsigned long long>(cluster.net().dropped_fault()),
      static_cast<unsigned long long>(cluster.net().dropped_partition()),
      static_cast<unsigned long long>(cluster.net().frames_corrupted()));

  if (trace.enabled()) {
    bench::write_cluster_trace(trace, cluster, "chaos_recovery");
  }
  if (lost > 0) return 2;
  if (v.unverified > 0) {
    std::fprintf(stderr, "chaos_recovery: %llu acked writes never verified\n",
                 static_cast<unsigned long long>(v.unverified));
    return 3;
  }
  return 0;
}
