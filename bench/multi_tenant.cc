// Multi-tenancy & QoS: many tenants packed on one SmartNIC, a victim's
// tail latency measured while a neighbor misbehaves.
//
// Points:
//   baseline        — victim + packed background tenants, no aggressor
//   flood qos=off   — tenancy layer disabled; an ingress flood shares the
//                     TM FIFO and the FCFS cores with everyone (this is
//                     the unbounded case the isolation work removes)
//   flood qos=on    — same flood, but leased: ingress policer + weighted
//                     RX class + throttle ladder contain it
//   dmo-hog qos=on  — aggressor allocates DMO far past its quota group
//   mbox-spam qos=on— aggressor spams the PF<->VF control mailbox
//
// The bench *asserts* the isolation contract and exits nonzero when it
// is violated: every qos=on victim p99 must stay within 25% of the
// undisturbed baseline, and each aggression must be attributed in the
// aggressor's own ledger (policer/queue drops, quota denials, mailbox
// drops) while the victim's ledger stays clean.
//
// Flags: --jobs=N parallelizes the points; --bench-json=<path> emits the
// perf baseline (committed as BENCH_mt.json, uploaded by CI sanitizers).
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/table.h"
#include "harness/sweep.h"
#include "ipipe/runtime.h"
#include "testbed/cluster.h"
#include "workloads/app_workloads.h"

using namespace ipipe;

namespace {

constexpr std::uint16_t kEchoReq = 1;
constexpr std::uint16_t kEchoRep = 2;

class ServiceActor final : public Actor {
 public:
  ServiceActor(std::string name, Ns cost) : Actor(std::move(name)), cost_(cost) {}
  void handle(ActorEnv& env, const netsim::Packet& req) override {
    env.charge(cost_);
    env.reply(req, kEchoRep, {});
  }

 private:
  Ns cost_;
};

/// Aggressor for the dmo-hog point: every request leaks a DMO chunk.
class DmoHogActor final : public Actor {
 public:
  DmoHogActor() : Actor("dmo-hog") {}
  void handle(ActorEnv& env, const netsim::Packet& req) override {
    env.charge(usec(1));
    (void)env.dmo_alloc(64 * KiB);  // never freed; quota must bound it
    env.reply(req, kEchoRep, {});
  }
};

workloads::ClientGen::MakeReq to_actor(ActorId actor, std::uint32_t frame) {
  workloads::EchoWorkloadParams p;
  p.server = 0;
  p.frame_size = frame;
  p.actor = actor;
  p.msg_type = kEchoReq;
  return workloads::echo_workload(p);
}

enum class Aggression { kNone, kFlood, kDmoHog, kMboxSpam };

struct PointCfg {
  const char* label;
  Aggression aggression;
  bool qos;  ///< tenancy layer on?
};

constexpr PointCfg kPoints[] = {
    {"baseline", Aggression::kNone, true},
    {"flood qos=off", Aggression::kFlood, false},
    {"flood qos=on", Aggression::kFlood, true},
    {"dmo-hog qos=on", Aggression::kDmoHog, true},
    {"mbox-spam qos=on", Aggression::kMboxSpam, true},
};

struct MtPoint {
  std::string label;
  double victim_p99_us = 0.0;
  double victim_mean_us = 0.0;
  std::uint64_t victim_completed = 0;
  std::uint64_t victim_drops = 0;      ///< victim-ledger ingress drops
  std::uint64_t aggro_drops = 0;       ///< policer+queue+throttle+filter
  std::uint64_t aggro_dmo_denied = 0;
  std::uint64_t aggro_mbox_drops = 0;
  std::uint64_t aggro_throttles = 0;
};

constexpr std::size_t kPackedTenants = 4;  ///< background VFs on the card
constexpr Ns kMeasureEnd = msec(30);

MtPoint run_point(const PointCfg& cfg, bench::PointPerf& perf) {
  testbed::ParallelCluster cluster(testbed::kTorLatency);
  auto& server = cluster.add_server(testbed::ServerSpec{});
  Runtime& rt = server.runtime();

  // Victim VF: generous lease, weight 2 of the card.
  TenantId victim = kNoTenant;
  if (cfg.qos) {
    TenantConfig vc;
    vc.name = "victim";
    vc.drr_weight = 2.0;
    victim = rt.create_tenant(vc);
  }
  const ActorId victim_id =
      rt.register_actor(std::make_unique<ServiceActor>("victim-svc", usec(2)),
                        ActorLoc::kNic, kNoGroup, victim);

  // Background VFs: the card is genuinely multi-tenant, each neighbor
  // with its own class, lease and light load.
  std::vector<ActorId> packed;
  for (std::size_t i = 0; i < kPackedTenants; ++i) {
    TenantId tid = kNoTenant;
    if (cfg.qos) {
      TenantConfig tc;
      tc.name = "packed-" + std::to_string(i);
      tc.ingress_rate_bps = 500e6;
      tid = rt.create_tenant(tc);
    }
    packed.push_back(rt.register_actor(
        std::make_unique<ServiceActor>("packed-" + std::to_string(i), usec(2)),
        ActorLoc::kNic, kNoGroup, tid));
  }

  // Aggressor VF: a 100 Mbps lease it is about to blow through.
  TenantId aggro = kNoTenant;
  if (cfg.qos) {
    TenantConfig ac;
    ac.name = "aggressor";
    ac.ingress_rate_bps = 100e6;
    ac.rx_queue_cap = 64;
    ac.dmo_cap_bytes = 256 * KiB;
    ac.mailbox_cap = 32;
    ac.throttle_threshold = 500;
    ac.throttle_window = msec(1);
    aggro = rt.create_tenant(ac);
  }
  std::unique_ptr<Actor> aggro_actor;
  if (cfg.aggression == Aggression::kDmoHog) {
    aggro_actor = std::make_unique<DmoHogActor>();
  } else {
    aggro_actor = std::make_unique<ServiceActor>("aggro-svc", usec(20));
  }
  const ActorId aggro_id = rt.register_actor(std::move(aggro_actor),
                                             ActorLoc::kNic, kNoGroup, aggro);

  // Victim load: closed loop, measured past warm-up.
  auto& victim_client = cluster.add_client(10.0, to_actor(victim_id, 256), 1);
  victim_client.set_warmup(msec(5));
  victim_client.start_closed_loop(2, kMeasureEnd);

  // Background load: light open loops on every packed tenant.
  for (std::size_t i = 0; i < packed.size(); ++i) {
    auto& c = cluster.add_client(10.0, to_actor(packed[i], 512),
                                 100 + static_cast<std::uint64_t>(i));
    c.start_open_loop(10e3, kMeasureEnd, /*poisson=*/true);
  }

  // The aggression.
  switch (cfg.aggression) {
    case Aggression::kNone:
      break;
    case Aggression::kFlood: {
      // ~4.8 Gbps of 1000B frames at 20us/req of service demand: enough
      // to saturate every NIC core when nothing contains it.
      auto& flood = cluster.add_client(10.0, to_actor(aggro_id, 1000), 2);
      flood.start_open_loop(600e3, kMeasureEnd, /*poisson=*/false);
      break;
    }
    case Aggression::kDmoHog: {
      auto& hog = cluster.add_client(10.0, to_actor(aggro_id, 512), 2);
      hog.start_open_loop(50e3, kMeasureEnd, /*poisson=*/false);
      break;
    }
    case Aggression::kMboxSpam: {
      for (int i = 0; i < 100'000; ++i) {
        (void)rt.vf_mailbox_post(aggro, {VfMboxOp::kQueryStats, 0.0});
      }
      break;
    }
  }

  cluster.run_until(kMeasureEnd + msec(5));
  bench::fill_perf(perf, cluster);

  MtPoint out;
  out.label = cfg.label;
  out.victim_p99_us = to_us(victim_client.latencies().p99());
  out.victim_mean_us = victim_client.latencies().mean_ns() / 1000.0;
  out.victim_completed = victim_client.completed();
  if (cfg.qos) {
    const TenantState* v = rt.tenant(victim);
    const TenantState* a = rt.tenant(aggro);
    out.victim_drops = v->stats.policer_drops + v->stats.queue_drops +
                       v->stats.filter_drops + v->stats.throttle_drops;
    out.aggro_drops = a->stats.policer_drops + a->stats.queue_drops +
                      a->stats.filter_drops + a->stats.throttle_drops;
    out.aggro_dmo_denied = a->stats.dmo_denied;
    out.aggro_mbox_drops = a->stats.mbox_drops;
    out.aggro_throttles = a->stats.throttles;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::SweepRunner runner(bench::parse_sweep_opts(argc, argv));
  constexpr std::size_t kN = sizeof(kPoints) / sizeof(kPoints[0]);

  std::printf(
      "multi-tenant QoS: %zu VFs packed on one cn2350, victim closed-loop "
      "2-deep, aggressor per point\n",
      kPackedTenants + 2);

  const auto results =
      runner.map(kN, [&](std::size_t i, bench::PointPerf& perf) {
        perf.label = kPoints[i].label;
        return run_point(kPoints[i], perf);
      });

  TablePrinter table({"point", "victim p99(us)", "mean(us)", "completed",
                      "victim-drops", "aggro-drops", "dmo-denied",
                      "mbox-drops", "throttles"});
  for (const auto& r : results) {
    table.add_row(
        {r.label, strf("%.2f", r.victim_p99_us), strf("%.2f", r.victim_mean_us),
         strf("%llu", static_cast<unsigned long long>(r.victim_completed)),
         strf("%llu", static_cast<unsigned long long>(r.victim_drops)),
         strf("%llu", static_cast<unsigned long long>(r.aggro_drops)),
         strf("%llu", static_cast<unsigned long long>(r.aggro_dmo_denied)),
         strf("%llu", static_cast<unsigned long long>(r.aggro_mbox_drops)),
         strf("%llu", static_cast<unsigned long long>(r.aggro_throttles))});
  }
  table.print();
  runner.write_json("multi_tenant");

  // ---- isolation contract (nonzero exit on violation) -------------------
  const MtPoint& base = results[0];
  int failures = 0;
  const double bound = base.victim_p99_us * 1.25;
  for (std::size_t i = 2; i < kN; ++i) {  // every qos=on aggression
    if (results[i].victim_p99_us > bound) {
      std::fprintf(stderr,
                   "FAIL: %s victim p99 %.2fus exceeds 1.25x baseline "
                   "(%.2fus)\n",
                   results[i].label.c_str(), results[i].victim_p99_us, bound);
      ++failures;
    }
    if (results[i].victim_drops != 0) {
      std::fprintf(stderr, "FAIL: %s victim ledger shows %llu drops\n",
                   results[i].label.c_str(),
                   static_cast<unsigned long long>(results[i].victim_drops));
      ++failures;
    }
  }
  if (results[2].aggro_drops == 0) {
    std::fprintf(stderr, "FAIL: flood qos=on attributed no aggressor drops\n");
    ++failures;
  }
  if (results[3].aggro_dmo_denied == 0) {
    std::fprintf(stderr, "FAIL: dmo-hog saw no quota denials\n");
    ++failures;
  }
  if (results[4].aggro_mbox_drops == 0) {
    std::fprintf(stderr, "FAIL: mbox-spam saw no mailbox drops\n");
    ++failures;
  }
  if (failures != 0) return 1;

  std::printf(
      "isolation: OK — qos=on victim p99 within 25%% of baseline "
      "(%.2fus); flood qos=off for contrast: %.2fus\n",
      base.victim_p99_us, results[1].victim_p99_us);
  return 0;
}
