// Parallel-engine acceptance driver: a 16-node rack (4 replicated-KV
// groups of 3 replicas + 4 echo servers) under a chaos schedule, executed
// on the sharded conservative engine.  stdout is a pure function of
// (--seed, --duration-s) and ends with FNV digests of the chaos event
// log, an exported runtime trace, and every workload result, so CI can
// diff whole runs as one line.  Wall-clock time goes to stderr (and
// --wall-out=<path> as JSON).
//
//   parallel_cluster [--duration-s=S] [--seed=N] [--min-events=N]
//                    [--wall-out=<path>]
//
// Exit codes: 0 ok, 1 unknown flag or malformed number, 2 lost acked
// writes, 3 fewer events than --min-events.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/exact_text.h"
#include "common/trace.h"
#include "harness/bench_util.h"
#include "harness/rkv_durability.h"
#include "testbed/rkv_deploy.h"
#include "workloads/app_workloads.h"

using namespace ipipe;
using bench::flag_value;
using bench::fnv1a_str;
using bench::fnv1a_u64;
using bench::kFnvBasis;

namespace {

constexpr int kGroups = 4;
constexpr int kReplicas = 3;
constexpr int kRkvServers = kGroups * kReplicas;  // nodes 0..11
constexpr int kEchoServers = 4;                   // nodes 12..15
constexpr int kServers = kRkvServers + kEchoServers;

}  // namespace

int main(int argc, char** argv) {
  double duration_s = 10.0;
  std::uint64_t seed = 1;
  std::uint64_t min_events = 0;
  std::string wall_out;
  for (int i = 1; i < argc; ++i) {
    bool ok = true;
    if (const char* v = flag_value(argv[i], "--duration-s")) {
      ok = parse_exact(v, &duration_s);
    } else if (const char* v = flag_value(argv[i], "--seed")) {
      ok = parse_exact(v, &seed);
    } else if (const char* v = flag_value(argv[i], "--min-events")) {
      ok = parse_exact(v, &min_events);
    } else if (const char* v = flag_value(argv[i], "--wall-out")) {
      wall_out = v;
    } else {
      std::fprintf(stderr, "parallel_cluster: unknown flag %s\n", argv[i]);
      return 1;
    }
    if (!ok) {
      std::fprintf(stderr, "parallel_cluster: malformed number in %s\n",
                   argv[i]);
      return 1;
    }
  }
  if (duration_s < 1.0) {
    std::fprintf(stderr, "parallel_cluster: --duration-s must be >= 1\n");
    return 1;
  }
  const Ns total = sec(duration_s);
  const Ns write_end = total - sec(duration_s * 0.2);

  testbed::ParallelCluster cluster;
  for (int i = 0; i < kServers; ++i) {
    testbed::ServerSpec spec;
    spec.ipipe.supervise = i < kRkvServers;
    cluster.add_server(spec);
  }
  // Trace one RKV replica and one echo server; the exported text (with
  // the engine counters) feeds the trace digest.
  cluster.server(0).runtime().enable_tracing(1 << 14, msec(250));
  cluster.server(kRkvServers).runtime().enable_tracing(1 << 14, msec(250));

  // ---- RKV groups: one acked-write probe each (no read-back) -----------
  std::vector<std::unique_ptr<bench::AckedWriteProbe>> groups;
  for (int g = 0; g < kGroups; ++g) {
    std::vector<netsim::NodeId> nodes;
    for (int r = 0; r < kReplicas; ++r) {
      nodes.push_back(static_cast<netsim::NodeId>(g * kReplicas + r));
    }
    const auto deps = testbed::deploy_rkv_group(
        cluster, {.replicas = nodes, .enable_failover = true});
    groups.push_back(std::make_unique<bench::AckedWriteProbe>(
        cluster,
        bench::RkvProbeGroup{
            .nodes = std::move(nodes),
            .consensus = deps[0].consensus,
            .key_prefix = "g" + std::to_string(g) + "k",
            .value =
                [g](std::uint64_t k) {
                  return std::vector<std::uint8_t>{
                      static_cast<std::uint8_t>(g), static_cast<std::uint8_t>(k),
                      static_cast<std::uint8_t>(k >> 8), 0x5A};
                }},
        /*rate=*/100.0, write_end,
        /*seed=*/seed * 1000 + 17 + static_cast<std::uint64_t>(g)));
  }

  // ---- Echo servers -----------------------------------------------------
  std::vector<workloads::ClientGen*> echo_clients;
  for (int e = 0; e < kEchoServers; ++e) {
    const auto node = static_cast<std::size_t>(kRkvServers + e);
    const ActorId id = cluster.server(node).runtime().register_actor(
        std::make_unique<bench::EchoActor>());
    workloads::EchoWorkloadParams wl;
    wl.server = static_cast<netsim::NodeId>(node);
    wl.actor = id;
    wl.msg_type = 1;
    wl.frame_size = 512;
    auto& client =
        cluster.add_client(10.0, workloads::echo_workload(wl),
                           /*seed=*/seed * 1000 + 91 + static_cast<std::uint64_t>(e));
    client.enable_retries({.timeout = msec(20),
                           .max_retries = 3,
                           .backoff = 2.0,
                           .cap = msec(200)});
    client.start_closed_loop(8, total - msec(50));
    echo_clients.push_back(&client);
  }

  // ---- Chaos schedule ---------------------------------------------------
  auto chaos = cluster.make_chaos();
  netsim::FaultPlan plan;
  {
    // A staggered replica crash per group, a fabric loss window, and one
    // flaky PCIe link on an echo node — plus a seeded random tail.
    for (int g = 0; g < kGroups; ++g) {
      plan.crash(static_cast<netsim::NodeId>(g * kReplicas), sec(2) + sec(g),
                 msec(1500));
    }
    netsim::FaultModel lossy;
    lossy.drop_prob = 0.01;
    lossy.corrupt_prob = 0.01;
    plan.link_fault(lossy, total / 2, msec(800));
    plan.pcie_corrupt(static_cast<netsim::NodeId>(kRkvServers + 1), 0.01,
                      total / 2, msec(500));
    Rng prng(0x9C1C0ULL + seed);
    Ns t = total / 2 + sec(1);
    while (t + sec(2) < total) {  // no `total - sec(2)`: Ns is unsigned
      const int g = static_cast<int>(prng.uniform_u64(kGroups));
      const auto victim = static_cast<netsim::NodeId>(
          g * kReplicas + static_cast<int>(prng.uniform_u64(kReplicas)));
      plan.crash(victim, t, msec(500) + static_cast<Ns>(prng.uniform_u64(sec(1))));
      t += sec(1) + static_cast<Ns>(prng.uniform_u64(sec(1)));
    }
  }
  chaos->execute(plan);

  // ---- Run --------------------------------------------------------------
  const auto wall_start = std::chrono::steady_clock::now();
  cluster.run_until(total);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  // ---- Deterministic report ----------------------------------------------
  const std::uint64_t events = cluster.engine().executed();
  std::printf("# parallel_cluster seed=%llu duration=%.0fs servers=%d\n",
              static_cast<unsigned long long>(seed), duration_s, kServers);
  std::printf("events=%llu rounds=%llu\n",
              static_cast<unsigned long long>(events),
              static_cast<unsigned long long>(cluster.engine().rounds()));
  std::printf(
      "net frames=%llu delivered=%llu dropped=%llu corrupted=%llu\n",
      static_cast<unsigned long long>(cluster.net().frames_sent()),
      static_cast<unsigned long long>(cluster.net().frames_delivered()),
      static_cast<unsigned long long>(cluster.net().frames_dropped()),
      static_cast<unsigned long long>(cluster.net().frames_corrupted()));

  std::uint64_t results = kFnvBasis;
  bool lost = false;
  for (int g = 0; g < kGroups; ++g) {
    const auto& probe = *groups[static_cast<std::size_t>(g)];
    const std::set<std::uint64_t>& acked = probe.acked();
    std::printf("group %d: acked=%zu retx=%llu\n", g, acked.size(),
                static_cast<unsigned long long>(probe.writer().retransmits()));
    results = fnv1a_u64(results, acked.size());
    results = fnv1a_u64(results, probe.writer().retransmits());
    for (const std::uint64_t k : acked) results = fnv1a_u64(results, k);
    if (acked.empty()) lost = true;  // a group that never acked is dead
  }
  for (int e = 0; e < kEchoServers; ++e) {
    auto& c = *echo_clients[static_cast<std::size_t>(e)];
    std::printf("echo %d: completed=%llu p50=%lluns p99=%lluns\n", e,
                static_cast<unsigned long long>(c.completed()),
                static_cast<unsigned long long>(c.latencies().p50()),
                static_cast<unsigned long long>(c.latencies().p99()));
    results = fnv1a_u64(results, c.completed());
    results = fnv1a_u64(results, c.latencies().p50());
    results = fnv1a_u64(results, c.latencies().p99());
  }
  std::printf("chaos crashes=%llu restores=%llu partitions=%llu heals=%llu\n",
              static_cast<unsigned long long>(chaos->crashes()),
              static_cast<unsigned long long>(chaos->restores()),
              static_cast<unsigned long long>(chaos->partitions()),
              static_cast<unsigned long long>(chaos->heals()));

  const std::uint64_t chaos_digest =
      fnv1a_str(kFnvBasis, chaos->event_log_text());
  std::ostringstream traces;
  trace::export_text(traces, cluster.server(0).runtime().tracer(),
                     &cluster.server(0).runtime().metrics());
  trace::export_text(traces, cluster.server(kRkvServers).runtime().tracer(),
                     &cluster.server(kRkvServers).runtime().metrics());
  const std::uint64_t trace_digest = fnv1a_str(kFnvBasis, traces.str());
  std::printf("digest chaos=%016llx trace=%016llx results=%016llx\n",
              static_cast<unsigned long long>(chaos_digest),
              static_cast<unsigned long long>(trace_digest),
              static_cast<unsigned long long>(results));

  // Wall-clock numbers vary run to run: stderr only.
  std::fprintf(stderr,
               "parallel_cluster: wall=%.3fs events=%llu (%.2fM events/s)\n",
               wall_s, static_cast<unsigned long long>(events),
               wall_s > 0 ? static_cast<double>(events) / wall_s / 1e6 : 0.0);
  if (!wall_out.empty()) {
    std::FILE* f = std::fopen(wall_out.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f,
                   "{\"wall_seconds\": %.6f, \"events\": %llu}\n",
                   wall_s,
                   static_cast<unsigned long long>(events));
      std::fclose(f);
    }
  }

  if (min_events > 0 && events < min_events) {
    std::fprintf(stderr,
                 "parallel_cluster: executed %llu events < --min-events=%llu\n",
                 static_cast<unsigned long long>(events),
                 static_cast<unsigned long long>(min_events));
    return 3;
  }
  return lost ? 2 : 0;
}
