// Multi-tenancy tests: SR-IOV-style virtual functions over one iPipe
// NIC.  Covers the three enforcement chokepoints (TM admission with
// weighted classes + ingress policer, channel token bucket, DMO quota
// groups), the PF<->VF control mailbox, the throttle->quarantine
// escalation ladder, tenant-aware NicPool packing, and the end-to-end
// victim/aggressor isolation scenario (an RKV tenant keeps its acked
// writes and its tail latency while a neighbor floods the card).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "apps/rkv/rkv_actors.h"
#include "ipipe/runtime.h"
#include "nfp/nic_pool.h"
#include "nic/traffic_manager.h"
#include "testbed/cluster.h"
#include "testbed/rkv_deploy.h"
#include "workloads/app_workloads.h"
#include "workloads/client.h"

namespace ipipe {
namespace {

using testbed::kTorLatency;
using testbed::ParallelCluster;
using testbed::ServerSpec;
using workloads::ClientGen;

constexpr std::uint16_t kEchoReq = 1;
constexpr std::uint16_t kEchoRep = 2;

class EchoActor : public Actor {
 public:
  explicit EchoActor(std::string name, Ns cost = usec(2))
      : Actor(std::move(name)), cost_(cost) {}

  void handle(ActorEnv& env, const netsim::Packet& req) override {
    env.charge(cost_);
    ++handled_;
    env.reply(req, kEchoRep, {});
  }

  std::uint64_t handled_ = 0;

 private:
  Ns cost_;
};

/// Allocates DMO chunks in init() until the directory refuses; records
/// how far it got (quota probes).
class HoarderActor final : public Actor {
 public:
  explicit HoarderActor(std::uint32_t chunk) : Actor("hoarder"), chunk_(chunk) {}

  void init(ActorEnv& env) override {
    while (granted_ < 64) {
      if (env.dmo_alloc(chunk_) == kInvalidObj) {
        denied_ = true;
        break;
      }
      ++granted_;
    }
  }
  void handle(ActorEnv&, const netsim::Packet&) override {}

  std::uint32_t chunk_;
  unsigned granted_ = 0;
  bool denied_ = false;
};

ClientGen::MakeReq to_actor(netsim::NodeId node, ActorId actor,
                            std::uint32_t frame = 256) {
  workloads::EchoWorkloadParams p;
  p.server = node;
  p.frame_size = frame;
  p.actor = actor;
  p.msg_type = kEchoReq;
  return workloads::echo_workload(p);
}

[[nodiscard]] std::uint64_t all_ingress_drops(const TenantStats& s) {
  return s.policer_drops + s.queue_drops + s.filter_drops + s.throttle_drops;
}

// ---------------------------------------------------------------------------
// Traffic manager: weighted classes.

TEST(TrafficManagerClasses, SmoothWrrHonorsWeights) {
  nic::TrafficManager tm(4096);
  tm.configure_class(1, 3.0, 1024);  // heavy tenant
  tm.configure_class(2, 1.0, 1024);  // light tenant
  tm.set_classifier([](netsim::Packet& pkt) {
    return static_cast<int>(pkt.tenant);
  });

  for (int i = 0; i < 400; ++i) {
    for (std::uint16_t t : {std::uint16_t{1}, std::uint16_t{2}}) {
      auto pkt = netsim::alloc_packet();
      pkt->tenant = t;
      ASSERT_TRUE(tm.push(std::move(pkt)));
    }
  }
  int served[3] = {0, 0, 0};
  for (int i = 0; i < 200; ++i) {
    auto pkt = tm.pop();
    ASSERT_NE(pkt, nullptr);
    ++served[pkt->tenant];
  }
  // Weight 3 vs 1: the heavy class gets ~3/4 of the dispatch slots.
  EXPECT_EQ(served[1], 150);
  EXPECT_EQ(served[2], 50);
  // Both backlogs drain completely once contention ends.
  while (auto pkt = tm.pop()) ++served[pkt->tenant];
  EXPECT_EQ(served[1], 400);
  EXPECT_EQ(served[2], 400);
}

TEST(TrafficManagerClasses, PerClassCapsAndFilterRejects) {
  nic::TrafficManager tm(4096);
  tm.configure_class(1, 1.0, 8);  // tiny RX queue pair
  tm.set_classifier([](netsim::Packet& pkt) {
    if (pkt.flow == 0xDEAD) return -1;  // MAC/flow filter miss
    return static_cast<int>(pkt.tenant);
  });

  for (int i = 0; i < 12; ++i) {
    auto pkt = netsim::alloc_packet();
    pkt->tenant = 1;
    tm.push(std::move(pkt));
  }
  EXPECT_EQ(tm.class_depth(1), 8u);   // capped at the class queue
  EXPECT_EQ(tm.class_drops(1), 4u);   // overflow attributed to class 1
  EXPECT_EQ(tm.class_depth(0), 0u);   // PF class untouched

  auto bad = netsim::alloc_packet();
  bad->flow = 0xDEAD;
  EXPECT_FALSE(tm.push(std::move(bad)));
  EXPECT_EQ(tm.filtered(), 1u);  // rejected at line rate, never queued
}

// ---------------------------------------------------------------------------
// Ingress policer: an aggressor's flood drops in its own class; the
// victim keeps its fast path and its ledger stays clean.

TEST(Tenancy, IngressPolicerIsolatesFlood) {
  ParallelCluster cluster(kTorLatency);
  auto& server = cluster.add_server(ServerSpec{});
  Runtime& rt = server.runtime();

  TenantConfig victim_cfg;
  victim_cfg.name = "victim";
  const TenantId victim = rt.create_tenant(victim_cfg);

  TenantConfig aggro_cfg;
  aggro_cfg.name = "aggressor";
  aggro_cfg.ingress_rate_bps = 100e6;  // 100 Mbps leased; flood is ~1 Gbps
  aggro_cfg.rx_queue_cap = 64;
  const TenantId aggro = rt.create_tenant(aggro_cfg);

  auto* victim_actor = new EchoActor("victim-echo");
  const ActorId victim_id = rt.register_actor(
      std::unique_ptr<Actor>(victim_actor), ActorLoc::kNic, kNoGroup, victim);
  auto* aggro_actor = new EchoActor("aggro-echo");
  const ActorId aggro_id = rt.register_actor(
      std::unique_ptr<Actor>(aggro_actor), ActorLoc::kNic, kNoGroup, aggro);

  auto& victim_client = cluster.add_client(10.0, to_actor(0, victim_id), 1);
  auto& flood = cluster.add_client(10.0, to_actor(0, aggro_id, 1000), 2);
  victim_client.start_closed_loop(2, msec(20));
  flood.start_open_loop(125'000.0, msec(20), /*poisson=*/false);  // ~1 Gbps
  cluster.run_until(msec(25));

  const TenantState* v = rt.tenant(victim);
  const TenantState* a = rt.tenant(aggro);
  ASSERT_NE(v, nullptr);
  ASSERT_NE(a, nullptr);

  // The flood exceeded its lease by ~10x: most of it died at the
  // policer, attributed to the aggressor's ledger.
  EXPECT_GT(a->stats.policer_drops, 1000u);
  EXPECT_GT(a->stats.admitted_packets, 0u);
  EXPECT_LT(aggro_actor->handled_, flood.sent());

  // The victim's ledger is clean and its service was uninterrupted.
  EXPECT_EQ(all_ingress_drops(v->stats), 0u);
  EXPECT_EQ(victim_actor->handled_, victim_client.completed());
  EXPECT_GT(victim_client.completed(), 1000u);
  EXPECT_LT(victim_client.latencies().p99(), usec(100));
}

// ---------------------------------------------------------------------------
// DMO quota groups.

TEST(Tenancy, DmoQuotaCapsTenantAllocations) {
  ParallelCluster cluster(kTorLatency);
  auto& server = cluster.add_server(ServerSpec{});
  Runtime& rt = server.runtime();

  TenantConfig capped_cfg;
  capped_cfg.name = "capped";
  capped_cfg.dmo_cap_bytes = 64 * KiB;
  const TenantId capped = rt.create_tenant(capped_cfg);

  auto* hoarder = new HoarderActor(8 * KiB);
  const ActorId hid = rt.register_actor(std::unique_ptr<Actor>(hoarder),
                                        ActorLoc::kNic, kNoGroup, capped);

  // 64 KiB cap / 8 KiB chunks: exactly 8 grants, then denial.
  EXPECT_TRUE(hoarder->denied_);
  EXPECT_EQ(hoarder->granted_, 8u);
  EXPECT_LE(rt.objects().quota_used(capped), 64 * KiB);
  EXPECT_EQ(rt.objects().quota_cap(capped), 64 * KiB);
  EXPECT_GE(rt.objects().quota_denials(), 1u);

  const TenantState* t = rt.tenant(capped);
  ASSERT_NE(t, nullptr);
  EXPECT_GE(t->stats.dmo_denied, 1u);

  // A neighbor without a cap is unaffected by the hoarder's exhaustion.
  auto* free_hoarder = new HoarderActor(8 * KiB);
  rt.register_actor(std::unique_ptr<Actor>(free_hoarder));
  EXPECT_FALSE(free_hoarder->denied_);
  EXPECT_EQ(free_hoarder->granted_, 64u);

  // Tearing the actor's objects down releases its quota charge.
  rt.objects().deregister_actor(hid);
  EXPECT_EQ(rt.objects().quota_used(capped), 0u);
}

// ---------------------------------------------------------------------------
// Channel budget: a tenant over its PCIe byte budget pays sender-side
// stalls instead of stealing ring capacity.

TEST(Tenancy, ChannelBudgetChargesStalls) {
  ParallelCluster cluster(kTorLatency);
  auto& server = cluster.add_server(ServerSpec{});
  Runtime& rt = server.runtime();

  TenantConfig cfg;
  cfg.name = "chan-capped";
  cfg.chan_rate_bps = 20e6;        // 20 Mbps of PCIe channel budget
  cfg.chan_burst_bytes = 8 * KiB;  // small burst allowance
  const TenantId tid = rt.create_tenant(cfg);

  // Host-pinned echo: every request crosses the PCIe message channel,
  // charging the tenant's byte bucket.
  class PinnedEcho final : public EchoActor {
   public:
    PinnedEcho() : EchoActor("pinned-echo") {}
    [[nodiscard]] bool host_pinned() const override { return true; }
  };
  auto* actor = new PinnedEcho();
  const ActorId id = rt.register_actor(std::unique_ptr<Actor>(actor),
                                       ActorLoc::kHost, kNoGroup, tid);

  auto& client = cluster.add_client(10.0, to_actor(0, id, 1000));
  client.start_closed_loop(2, msec(20));
  cluster.run_until(msec(25));

  const TenantState* t = rt.tenant(tid);
  ASSERT_NE(t, nullptr);
  EXPECT_GT(t->stats.chan_bytes, 8 * KiB);  // burst clearly exhausted
  EXPECT_GT(t->stats.chan_throttle_stalls, 0u);
  EXPECT_GT(t->stats.chan_stall_ns, 0u);
  // Still making progress: stalls pace the tenant, they don't wedge it.
  EXPECT_GT(client.completed(), 100u);
}

// ---------------------------------------------------------------------------
// PF<->VF control mailbox.

TEST(Tenancy, VfMailboxServesAndContainsSpam) {
  ParallelCluster cluster(kTorLatency);
  auto& server = cluster.add_server(ServerSpec{});
  Runtime& rt = server.runtime();

  TenantConfig cfg;
  cfg.name = "mbox";
  cfg.mailbox_cap = 4;
  cfg.mailbox_batch = 2;
  const TenantId tid = rt.create_tenant(cfg);

  // Spam 10 requests: the mailbox admits its cap, rejects the rest.
  unsigned accepted = 0;
  for (int i = 0; i < 10; ++i) {
    if (rt.vf_mailbox_post(tid, {VfMboxOp::kPing, 0.0})) ++accepted;
  }
  EXPECT_EQ(accepted, 4u);
  EXPECT_EQ(rt.tenant(tid)->stats.mbox_drops, 6u);

  // The management core drains the backlog batch-by-batch.
  cluster.run_until(msec(1));
  unsigned replies = 0;
  while (auto rep = rt.vf_mailbox_poll(tid)) {
    EXPECT_EQ(rep->op, VfMboxOp::kPing);
    EXPECT_EQ(rep->value, 1.0);
    ++replies;
  }
  EXPECT_EQ(replies, 4u);
  EXPECT_EQ(rt.tenant(tid)->stats.mbox_processed, 4u);

  // Control verbs take effect: weight reconfiguration via the mailbox.
  ASSERT_TRUE(rt.vf_mailbox_post(tid, {VfMboxOp::kSetWeight, 4.0}));
  ASSERT_TRUE(rt.vf_mailbox_post(tid, {VfMboxOp::kQueryStats, 0.0}));
  cluster.run_until(msec(2));
  EXPECT_EQ(rt.tenant(tid)->cfg.drr_weight, 4.0);
  bool saw_query = false;
  while (auto rep = rt.vf_mailbox_poll(tid)) {
    if (rep->op == VfMboxOp::kQueryStats) saw_query = true;
  }
  EXPECT_TRUE(saw_query);
}

// ---------------------------------------------------------------------------
// Escalation ladder: repeated violations throttle, persistence
// quarantines — and the neighbor never notices.

TEST(Tenancy, ThrottleThenQuarantineEscalation) {
  ParallelCluster cluster(kTorLatency);
  auto& server = cluster.add_server(ServerSpec{});
  Runtime& rt = server.runtime();

  TenantConfig victim_cfg;
  victim_cfg.name = "victim";
  const TenantId victim = rt.create_tenant(victim_cfg);

  TenantConfig aggro_cfg;
  aggro_cfg.name = "aggressor";
  aggro_cfg.ingress_rate_bps = 50e6;
  aggro_cfg.throttle_threshold = 100;  // violations per window
  aggro_cfg.throttle_window = msec(1);
  aggro_cfg.quarantine_after = 2;  // second episode is terminal
  const TenantId aggro = rt.create_tenant(aggro_cfg);

  auto* victim_actor = new EchoActor("victim-echo");
  const ActorId victim_id = rt.register_actor(
      std::unique_ptr<Actor>(victim_actor), ActorLoc::kNic, kNoGroup, victim);
  auto* aggro_actor = new EchoActor("aggro-echo");
  const ActorId aggro_id = rt.register_actor(
      std::unique_ptr<Actor>(aggro_actor), ActorLoc::kNic, kNoGroup, aggro);

  auto& victim_client = cluster.add_client(10.0, to_actor(0, victim_id), 1);
  auto& flood = cluster.add_client(10.0, to_actor(0, aggro_id, 1000), 2);
  victim_client.start_closed_loop(2, msec(40));
  flood.start_open_loop(125'000.0, msec(40), /*poisson=*/false);
  cluster.run_until(msec(45));

  const TenantState* a = rt.tenant(aggro);
  ASSERT_NE(a, nullptr);

  // Ladder ran to the end: throttled episodes, then the quarantine.
  EXPECT_GE(a->stats.throttles, 2u);
  EXPECT_GT(a->stats.throttled_ns, 0);
  EXPECT_GE(rt.tenant_throttles(), 2u);
  EXPECT_TRUE(a->quarantined);
  EXPECT_EQ(rt.tenants_quarantined(), 1u);
  EXPECT_GT(a->stats.throttle_drops, 0u);  // drops while in the penalty box

  // Quarantine is the supervision trap at VF scale: members are dead
  // and stay dead (no supervised restart into the same overload).
  const ActorControl* ac = rt.control(aggro_id);
  ASSERT_NE(ac, nullptr);
  EXPECT_TRUE(ac->killed);
  EXPECT_TRUE(ac->quarantined);

  // Mailbox of a quarantined VF is closed.
  EXPECT_FALSE(rt.vf_mailbox_post(aggro, {VfMboxOp::kPing, 0.0}));

  // The victim sailed through the whole incident.
  const TenantState* v = rt.tenant(victim);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(all_ingress_drops(v->stats), 0u);
  EXPECT_GT(victim_client.completed(), 1000u);
  EXPECT_LT(victim_client.latencies().p99(), usec(100));
}

// ---------------------------------------------------------------------------
// NicPool: tenant quotas shape placement.

TEST(Tenancy, NicPoolPacksByTenantQuota) {
  nfp::NicPool pool;
  pool.add_nic("lio-0", nic::liquidio_cn2350());
  pool.add_nic("lio-1", nic::liquidio_cn2350());
  const TenantId tid = 7;
  pool.set_tenant_quota(tid, 0.25);
  EXPECT_EQ(pool.tenant_quota(tid), 0.25);

  const auto spec = nfp::parse_pipeline("firewall(rules=64) | counter");
  // Keep placing the tenant's pipelines: the pool spreads them across
  // both cards while the quota holds...
  std::vector<nfp::NicPool::Placement> placements;
  for (int i = 0; i < 64; ++i) {
    auto p = pool.place(spec, 400'000.0, 42, tid);
    if (p.quota_limited) break;
    placements.push_back(p);
    EXPECT_LE(pool.tenant_utilization(p.nic, tid),
              pool.tenant_quota(tid) + 1e-9);
  }
  // ...and the quota eventually excludes every NIC: the next placement
  // is flagged instead of silently handing the tenant a whole card.
  ASSERT_LT(placements.size(), 64u);
  EXPECT_GE(placements.size(), 2u);
  const bool used_both = std::any_of(placements.begin(), placements.end(),
                                     [](const auto& p) { return p.nic == 1; }) &&
                         std::any_of(placements.begin(), placements.end(),
                                     [](const auto& p) { return p.nic == 0; });
  EXPECT_TRUE(used_both);

  // An untenanted pipeline still places freely.
  const auto pf = pool.place(spec, 400'000.0);
  EXPECT_FALSE(pf.quota_limited);
}

// ---------------------------------------------------------------------------
// End-to-end isolation: an RKV tenant's acked writes survive an
// aggressor flood on the same card, its read tail stays bounded, and
// the per-tenant ledgers attribute the damage to the aggressor.

struct RkvTenantRun {
  Ns get_p99 = 0;
  std::uint64_t gets_ok = 0;
  std::uint64_t gets_total = 0;
  TenantStats victim_stats;
  TenantStats aggro_stats;
};

RkvTenantRun run_rkv_tenant_scenario(bool with_aggressor) {
  ParallelCluster cluster(kTorLatency);
  for (int i = 0; i < 3; ++i) cluster.add_server(ServerSpec{});
  const auto deployments =
      testbed::deploy_rkv_group(cluster, {.replicas = {0, 1, 2}});

  Runtime& rt = cluster.server(0).runtime();
  TenantConfig victim_cfg;
  victim_cfg.name = "rkv";
  victim_cfg.drr_weight = 2.0;
  const TenantId victim = rt.create_tenant(victim_cfg);
  for (const ActorId id : {deployments[0].consensus, deployments[0].memtable,
                           deployments[0].sst_read, deployments[0].compaction}) {
    EXPECT_TRUE(rt.assign_actor_to_tenant(id, victim));
  }

  TenantConfig aggro_cfg;
  aggro_cfg.name = "aggressor";
  aggro_cfg.ingress_rate_bps = 100e6;
  aggro_cfg.rx_queue_cap = 64;
  const TenantId aggro = rt.create_tenant(aggro_cfg);
  auto* aggro_actor = new EchoActor("aggro-echo");
  const ActorId aggro_id = rt.register_actor(
      std::unique_ptr<Actor>(aggro_actor), ActorLoc::kNic, kNoGroup, aggro);

  // Phase 1: the victim writes 40 keys and every put is acked.
  constexpr std::uint64_t kKeys = 40;
  std::uint64_t puts_ok = 0;
  auto& writer = cluster.add_client(
      10.0,
      [&](std::uint64_t seq, Rng&, netsim::PacketPool& pool) {
        if (seq > kKeys) return netsim::PacketPtr{};
        auto pkt = pool.make();
        pkt->dst = 0;
        pkt->dst_actor = deployments[0].consensus;
        pkt->msg_type = rkv::kClientPut;
        pkt->frame_size = 512;
        rkv::ClientReq req;
        req.op = rkv::Op::kPut;
        req.key = "tkey" + std::to_string(seq);
        const std::string v = "tval" + std::to_string(seq);
        req.value.assign(v.begin(), v.end());
        pkt->payload = req.encode();
        return pkt;
      },
      11);
  writer.set_on_reply([&](const netsim::Packet& pkt) {
    if (auto rep = rkv::ClientReply::decode(pkt.payload)) {
      if (rep->status == rkv::Status::kOk) ++puts_ok;
    }
  });
  writer.start_closed_loop(1, msec(300));
  cluster.run_until(msec(300));
  EXPECT_EQ(puts_ok, kKeys);  // all acked before the attack starts

  // Phase 2: reads under fire (or in peace, for the baseline).
  RkvTenantRun out;
  auto& reader = cluster.add_client(
      10.0,
      [&](std::uint64_t seq, Rng&, netsim::PacketPool& pool) {
        auto pkt = pool.make();
        pkt->dst = 0;
        pkt->dst_actor = deployments[0].consensus;
        pkt->msg_type = rkv::kClientGet;
        pkt->frame_size = 256;
        rkv::ClientReq req;
        req.op = rkv::Op::kGet;
        req.key = "tkey" + std::to_string(1 + (seq % kKeys));
        pkt->payload = req.encode();
        return pkt;
      },
      12);
  reader.set_on_reply([&](const netsim::Packet& pkt) {
    ++out.gets_total;
    if (auto rep = rkv::ClientReply::decode(pkt.payload)) {
      if (rep->status == rkv::Status::kOk && !rep->value.empty()) {
        ++out.gets_ok;
      }
    }
  });
  if (with_aggressor) {
    auto& flood = cluster.add_client(10.0, to_actor(0, aggro_id, 1000), 13);
    flood.start_open_loop(125'000.0, msec(600), /*poisson=*/false);
  }
  reader.start_closed_loop(2, msec(600));
  cluster.run_until(msec(620));

  out.get_p99 = reader.latencies().p99();
  out.victim_stats = rt.tenant(victim)->stats;
  out.aggro_stats = rt.tenant(aggro)->stats;
  return out;
}

TEST(TenantIsolationE2E, RkvVictimSurvivesAggressorFlood) {
  const RkvTenantRun baseline = run_rkv_tenant_scenario(false);
  const RkvTenantRun attacked = run_rkv_tenant_scenario(true);

  // Acked writes are never lost: every get (baseline and under attack)
  // returned the committed value.
  ASSERT_GT(baseline.gets_total, 1000u);
  ASSERT_GT(attacked.gets_total, 1000u);
  EXPECT_EQ(baseline.gets_ok, baseline.gets_total);
  EXPECT_EQ(attacked.gets_ok, attacked.gets_total);

  // QoS bound: the victim's read p99 under attack stays within 25% of
  // its undisturbed baseline (the bench asserts the same bound).
  EXPECT_LE(attacked.get_p99,
            static_cast<Ns>(static_cast<double>(baseline.get_p99) * 1.25))
      << "baseline p99 " << baseline.get_p99 << "ns, attacked p99 "
      << attacked.get_p99 << "ns";

  // The ledgers attribute the damage: aggressor absorbed the flood in
  // its own counters, the victim's are clean.
  EXPECT_GT(attacked.aggro_stats.policer_drops, 1000u);
  EXPECT_EQ(all_ingress_drops(attacked.victim_stats), 0u);
  EXPECT_GT(attacked.victim_stats.admitted_packets, 0u);
}

}  // namespace
}  // namespace ipipe
