// NIC-failure acceptance driver: a 3-replica RKV group plus an echo
// latency probe, all on watchdog-enabled servers, driven through a fixed
// schedule of NIC-scoped faults (`nic-crash`, `pcie-flap`, `nic-reset`,
// `accel-fail`).  Each crash fences the channel, emergency-evacuates the
// NIC-resident actors to the host (crash-consistent DMO mirror replay),
// serves degraded from the host, and re-offloads on revival — so the
// consensus group never loses its leader and no election storm follows a
// device failure.
//
// stdout is a pure function of (--seed, --duration-s) and ends with FNV
// digests of the chaos event log and the workload results so CI can diff
// whole runs as one line.
//
//   nic_failover [--duration-s=S] [--seed=N] [--p99-factor=F]
//
// Exit codes: 0 ok, 1 unknown flag or malformed number, 2 lost acked
// writes, 3 read-back verification failed (corrupt value or incomplete),
// 4 degraded p99 exceeded --p99-factor x the healthy baseline.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "common/exact_text.h"
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

constexpr int kReplicas = 3;           // nodes 0..2
constexpr int kEchoNode = kReplicas;   // node 3: latency probe target

}  // namespace

int main(int argc, char** argv) {
  double duration_s = 12.0;
  std::uint64_t seed = 1;
  double p99_factor = 50.0;
  for (int i = 1; i < argc; ++i) {
    bool ok = true;
    if (const char* v = flag_value(argv[i], "--duration-s")) {
      ok = parse_exact(v, &duration_s);
    } else if (const char* v = flag_value(argv[i], "--seed")) {
      ok = parse_exact(v, &seed);
    } else if (const char* v = flag_value(argv[i], "--p99-factor")) {
      ok = parse_exact(v, &p99_factor);
    } else {
      std::fprintf(stderr, "nic_failover: unknown flag %s\n", argv[i]);
      return 1;
    }
    if (!ok) {
      std::fprintf(stderr, "nic_failover: malformed number in %s\n", argv[i]);
      return 1;
    }
  }
  if (duration_s < 12.0) {
    std::fprintf(stderr, "nic_failover: --duration-s must be >= 12\n");
    return 1;
  }
  const Ns total = sec(duration_s);
  const Ns write_end = total - sec(3);
  const Ns verify_at = write_end + msec(500);

  testbed::ParallelCluster cluster;
  for (int i = 0; i <= kEchoNode; ++i) {
    testbed::ServerSpec spec;
    spec.ipipe.supervise = true;
    spec.ipipe.nic_watchdog = true;
    spec.ipipe.watchdog_heartbeat = usec(200);
    spec.ipipe.watchdog_miss_limit = 4;
    spec.ipipe.watchdog_probe_cap = msec(2);
    spec.ipipe.dmo_host_mirror = true;
    cluster.add_server(spec);
  }

  // ---- RKV group + acked-write probe -----------------------------------
  const auto deps = testbed::deploy_rkv_group(
      cluster, {.replicas = {0, 1, 2}, .enable_failover = true});
  const ActorId echo_id =
      cluster.server(kEchoNode).runtime().register_actor(
          std::make_unique<bench::EchoActor>());

  // Unique keys retried across redirects and abandons; after the final
  // heal the read-back re-reads every acked key.
  bench::AckedWriteProbe writes(
      cluster,
      {.nodes = {0, 1, 2}, .consensus = deps[0].consensus, .key_prefix = "fo"},
      /*rate=*/100.0, write_end, /*seed=*/seed * 1000 + 17);
  writes.read_back(/*rate=*/600.0, verify_at, total, /*seed=*/seed * 1000 + 23);

  // ---- Echo latency probe ----------------------------------------------
  workloads::EchoWorkloadParams wl;
  wl.server = static_cast<netsim::NodeId>(kEchoNode);
  wl.actor = echo_id;
  wl.msg_type = 1;
  wl.frame_size = 512;
  auto& probe = cluster.add_client(10.0, workloads::echo_workload(wl),
                                   /*seed=*/seed * 1000 + 91);
  probe.enable_retries(
      {.timeout = msec(20), .max_retries = 3, .backoff = 2.0, .cap = msec(200)});
  probe.start_closed_loop(4, total - msec(50));

  // Snapshot the healthy-phase p99 just before the first fault; the final
  // (cumulative) p99 includes every degraded window and must stay within
  // --p99-factor of it.
  std::uint64_t healthy_p99 = 0;
  cluster.client_sim().schedule_at(sec(2) - msec(100), [&] {
    healthy_p99 = probe.latencies().p99();
  });

  // ---- NIC fault schedule -----------------------------------------------
  // Leader NIC crash, a short PCIe flap (parked, no trip), a firmware
  // reset on the third replica, an accelerator-bank failure, and a crash
  // on the echo node so the probe measures degraded-mode service.
  auto chaos = cluster.make_chaos();
  netsim::FaultPlan plan;
  plan.nic_crash(0, sec(2), msec(1500));
  plan.pcie_flap(1, sec(4) + msec(500), msec(10));
  plan.nic_reset(2, sec(5) + msec(500), msec(300));
  plan.accel_fail(0, 0, sec(6) + msec(500), msec(500));
  plan.nic_crash(static_cast<netsim::NodeId>(kEchoNode), sec(7), msec(800));
  chaos->execute(plan);

  cluster.run_until(total);

  // ---- Deterministic report ----------------------------------------------
  std::printf("# nic_failover seed=%llu duration=%.0fs\n",
              static_cast<unsigned long long>(seed), duration_s);
  std::fputs(chaos->event_log_text().c_str(), stdout);
  std::printf("chaos nic_crashes=%llu nic_restores=%llu\n",
              static_cast<unsigned long long>(chaos->nic_crashes()),
              static_cast<unsigned long long>(chaos->nic_restores()));

  std::uint64_t results = kFnvBasis;
  std::uint64_t trips = 0;
  std::uint64_t evacs = 0;
  std::uint64_t reoffloads = 0;
  for (int i = 0; i <= kEchoNode; ++i) {
    auto& rt = cluster.server(static_cast<std::size_t>(i)).runtime();
    std::printf(
        "node=%d trips=%llu evacuations=%llu replayed=%llu lost_bytes=%llu "
        "reoffloads=%llu host_reqs=%llu nic_down=%d evacuated=%d\n",
        i, static_cast<unsigned long long>(rt.watchdog_trips()),
        static_cast<unsigned long long>(rt.evacuations()),
        static_cast<unsigned long long>(rt.evac_replayed_bytes()),
        static_cast<unsigned long long>(rt.evac_lost_bytes()),
        static_cast<unsigned long long>(rt.reoffloads()),
        static_cast<unsigned long long>(rt.requests_on_host()),
        rt.nic_down() ? 1 : 0, rt.evacuated() ? 1 : 0);
    trips += rt.watchdog_trips();
    evacs += rt.evacuations();
    reoffloads += rt.reoffloads();
    results = fnv1a_u64(results, rt.watchdog_trips());
    results = fnv1a_u64(results, rt.evacuations());
    results = fnv1a_u64(results, rt.evac_replayed_bytes());
    results = fnv1a_u64(results, rt.evac_lost_bytes());
    results = fnv1a_u64(results, rt.reoffloads());
  }
  const bench::DurabilityVerdicts v = writes.verdicts();
  std::printf("acked=%llu verified=%llu lost=%llu corrupt=%llu "
              "unverified=%llu writer_retx=%llu\n",
              static_cast<unsigned long long>(v.acked),
              static_cast<unsigned long long>(v.verified),
              static_cast<unsigned long long>(v.not_found),
              static_cast<unsigned long long>(v.mismatched),
              static_cast<unsigned long long>(v.unverified),
              static_cast<unsigned long long>(writes.writer().retransmits()));
  std::printf("probe completed=%llu healthy_p99=%lluns final_p99=%lluns\n",
              static_cast<unsigned long long>(probe.completed()),
              static_cast<unsigned long long>(healthy_p99),
              static_cast<unsigned long long>(probe.latencies().p99()));
  results = fnv1a_u64(results, v.acked);
  results = fnv1a_u64(results, v.verified);
  results = fnv1a_u64(results, v.not_found);
  results = fnv1a_u64(results, v.mismatched);
  results = fnv1a_u64(results, writes.writer().retransmits());
  results = fnv1a_u64(results, probe.completed());
  results = fnv1a_u64(results, probe.latencies().p50());
  results = fnv1a_u64(results, probe.latencies().p99());
  for (const std::uint64_t k : writes.acked()) results = fnv1a_u64(results, k);

  const std::uint64_t chaos_digest =
      fnv1a_str(kFnvBasis, chaos->event_log_text());
  std::printf("digest chaos=%016llx results=%016llx\n",
              static_cast<unsigned long long>(chaos_digest),
              static_cast<unsigned long long>(results));

  if (trips == 0 || evacs == 0 || reoffloads == 0) {
    std::fprintf(stderr,
                 "nic_failover: fault cycle incomplete (trips=%llu "
                 "evacuations=%llu reoffloads=%llu)\n",
                 static_cast<unsigned long long>(trips),
                 static_cast<unsigned long long>(evacs),
                 static_cast<unsigned long long>(reoffloads));
    return 3;
  }
  if (v.not_found > 0) return 2;
  if (v.mismatched > 0 || v.unverified > 0) return 3;
  const std::uint64_t final_p99 = probe.latencies().p99();
  if (healthy_p99 > 0 &&
      static_cast<double>(final_p99) >
          p99_factor * static_cast<double>(healthy_p99)) {
    std::fprintf(stderr,
                 "nic_failover: degraded p99 %lluns exceeds %.1fx healthy "
                 "baseline %lluns\n",
                 static_cast<unsigned long long>(final_p99), p99_factor,
                 static_cast<unsigned long long>(healthy_p99));
    return 4;
  }
  return 0;
}
