// Composable NF pipelines on pooled SmartNICs.
//   (1) NicPool placement: measured per-stage costs price each pipeline
//       per card; pipelines land whole on one NIC (least resulting
//       utilization under the saturation threshold, spillover beyond).
//   (2) Chain-depth x NIC sweep: text-spec pipelines of depth 1-6 run on
//       heterogeneous cards; goodput, latency and egress accounting per
//       point.  Cross-stage packet-order preservation is asserted — any
//       order violation fails the bench with a nonzero exit.
//
// Flags: --spec=<pipeline> overrides the reference 4-stage chain;
// --jobs=N parallelizes the sweep (stdout stays byte-identical);
// --bench-json=<path> emits the perf baseline; --trace-out=<path>
// captures the deepest chain's run.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/table.h"
#include "harness/sweep.h"
#include "harness/trace_opts.h"
#include "nfp/nic_pool.h"
#include "nfp/pipeline.h"
#include "nfp/spec.h"
#include "testbed/cluster.h"

using namespace ipipe;

namespace {

constexpr const char* kDefaultSpec =
    "firewall(128) | ratelimit(2Gbps) | maglev(8) | counter";

/// Reference chains for the depth sweep (the depth-4 entry is replaced
/// by --spec= when given).
struct Chain {
  std::size_t depth;
  std::string text;
};

std::vector<Chain> sweep_chains(const std::string& spec4) {
  return {
      {1, "counter"},
      {2, "firewall(128) | counter"},
      {4, spec4},
      // The deep chain is deliberately hostile to ordering: the rate
      // limiter is oversubscribed at the sweep's offered load (drops ->
      // tombstones) and pFabric dequeues by priority (reorders), so the
      // egress reorder point is exercised for real.
      {6,
       "firewall(128) | ratelimit(500Mbps) | maglev(8) | "
       "pfabric(cap=256,quantum=8) | classify | counter"},
  };
}

struct SweepCard {
  const char* label;
  nic::NicConfig (*make)();
};

constexpr SweepCard kCards[] = {
    {"cn2350", nic::liquidio_cn2350},
    {"stingray", nic::stingray_ps225},
};

struct PipePoint {
  std::string chain_label;
  std::string card;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t tombstones = 0;
  std::uint64_t order_violations = 0;
  double mean_us = 0.0;
  double p99_us = 0.0;
  double kpps = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::TraceOpts trace = bench::parse_trace_opts(argc, argv);
  const bench::SweepOpts sweep_opts = bench::parse_sweep_opts(argc, argv);
  std::string spec4 = kDefaultSpec;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--spec=", 7) == 0) spec4 = argv[i] + 7;
  }
  bench::SweepRunner runner(sweep_opts);

  const auto chains = sweep_chains(spec4);

  // ---- NicPool placement across pool sizes ------------------------------
  // Place the four reference chains (at 100 kpps each) onto pools of 1-3
  // heterogeneous cards; the per-card measured cost drives the decision.
  std::printf("NF pipeline placement: per-stage measured cost, one-NIC "
              "semantics, saturation %.2f\n",
              nfp::NicPool{}.saturation());
  for (std::size_t pool_size = 1; pool_size <= 3; ++pool_size) {
    nfp::NicPool pool;
    pool.add_nic("cn2350", nic::liquidio_cn2350());
    if (pool_size >= 2) pool.add_nic("stingray", nic::stingray_ps225());
    if (pool_size >= 3) pool.add_nic("cn2360", nic::liquidio_cn2360());
    std::printf("\npool of %zu NIC%s:\n", pool_size,
                pool_size == 1 ? "" : "s");
    TablePrinter table(
        {"pipeline", "depth", "placed on", "ns/pkt", "util+", "spilled"});
    for (const auto& chain : chains) {
      const auto spec = nfp::parse_pipeline(chain.text);
      const auto p = pool.place(spec, /*offered_pps=*/100e3);
      table.add_row({spec.text.size() > 38 ? spec.text.substr(0, 35) + "..."
                                           : spec.text,
                     strf("%zu", spec.depth()),
                     pool.nics()[p.nic].name,
                     strf("%.0f", p.cost.total_ns_per_pkt),
                     strf("%.3f", p.utilization_added),
                     p.spilled ? "YES" : "no"});
    }
    table.print();
    for (const auto& n : pool.nics()) {
      std::printf("  %-9s utilization %.3f (%zu pipeline%s)\n",
                  n.name.c_str(), n.utilization, n.pipelines,
                  n.pipelines == 1 ? "" : "s");
    }
  }

  // ---- chain depth x card sweep -----------------------------------------
  // Each point: one server with the card, the chain as an actor group on
  // its NIC, one open-loop client.  Points are independent simulations,
  // so the sweep parallelizes under --jobs without changing a byte.
  struct PointSpec {
    const Chain* chain;
    const SweepCard* card;
  };
  std::vector<PointSpec> points;
  for (const auto& chain : chains) {
    for (const auto& card : kCards) points.push_back({&chain, &card});
  }

  const auto results = runner.map(
      points.size(), [&](std::size_t i, bench::PointPerf& perf) {
        const auto& chain = *points[i].chain;
        const auto& card = *points[i].card;
        perf.label = strf("depth=%zu %s", chain.depth, card.label);

        testbed::ParallelCluster cluster(testbed::kTorLatency);
        testbed::ServerSpec sspec;
        sspec.nic = card.make();
        const bool traced =
            trace.enabled() && chain.depth == 6 && i + 1 == points.size();
        auto& server = cluster.add_server(sspec);
        if (traced) trace.apply(cluster);
        const auto spec = nfp::parse_pipeline(chain.text);
        nfp::PipelineRunner pipeline(server.runtime(), spec);

        auto& client = cluster.add_client(
            sspec.nic.link_gbps,
            [ingress = pipeline.ingress()](std::uint64_t, Rng&,
                                           netsim::PacketPool& pool) {
              auto pkt = pool.make();
              pkt->dst = 0;
              pkt->dst_actor = ingress;
              pkt->msg_type = nfp::kNfData;
              pkt->frame_size = 512;
              pkt->payload.assign(32, 0x5A);
              return pkt;
            });
        client.set_warmup(msec(5));
        client.start_open_loop(/*rate_rps=*/150e3, msec(25), /*poisson=*/true);
        cluster.run_until(msec(35));
        if (traced) bench::write_cluster_trace(trace, cluster, "nfp/sweep");
        bench::fill_perf(perf, cluster);

        const auto eg = pipeline.egress_stats();
        PipePoint out;
        out.chain_label = strf("depth=%zu", chain.depth);
        out.card = card.label;
        out.sent = client.sent();
        out.delivered = eg.delivered;
        out.tombstones = eg.tombstones;
        out.order_violations = eg.order_violations;
        out.mean_us = client.latencies().mean_ns() / 1000.0;
        out.p99_us = to_us(client.latencies().p99());
        const double window = to_sec(client.last_completion() -
                                     client.first_measured_completion());
        out.kpps = window > 0 ? static_cast<double>(
                                    client.completed_after_warmup()) /
                                    window / 1e3
                              : 0.0;
        return out;
      });

  std::printf(
      "\nchain depth x card sweep: 512B packets, open loop 150 kpps, "
      "order preservation asserted\n");
  TablePrinter table({"chain", "card", "sent", "delivered", "tombstones",
                      "kpps", "avg(us)", "p99(us)", "ord-viol"});
  std::uint64_t violations = 0;
  for (const auto& r : results) {
    violations += r.order_violations;
    table.add_row({r.chain_label, r.card, strf("%llu",
                       static_cast<unsigned long long>(r.sent)),
                   strf("%llu", static_cast<unsigned long long>(r.delivered)),
                   strf("%llu", static_cast<unsigned long long>(r.tombstones)),
                   strf("%.1f", r.kpps), strf("%.2f", r.mean_us),
                   strf("%.2f", r.p99_us),
                   strf("%llu",
                        static_cast<unsigned long long>(r.order_violations))});
  }
  table.print();
  runner.write_json("nf_pipeline");

  if (violations != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu cross-stage packet-order violations — the "
                 "egress reorder point must release every source's "
                 "sequence monotonically\n",
                 static_cast<unsigned long long>(violations));
    return 1;
  }
  std::printf("order preservation: OK (0 violations across %zu points)\n",
              results.size());
  return 0;
}
