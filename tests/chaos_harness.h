// Shared chaos scenario harness: the full RKV / DT chaos runs (cluster
// bring-up, guaranteed fault backbone + seeded random tail, steering
// clients, durability sweeps, determinism digests) used by both the
// quick chaos tests (test_chaos.cc) and the long-horizon soak tests
// (test_chaos_soak.cc).  The RKV run is built from the bench harness'
// durability kit (bench/harness/rkv_durability.h).
//
// The soak horizons honor CHAOS_VSECS (virtual seconds, default 5000;
// CI uses a reduced value).  Values below ~300 leave no room for the
// fault schedule and are clamped.
#pragma once

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "apps/dt/dt_actors.h"
#include "apps/rkv/rkv_actors.h"
#include "harness/rkv_durability.h"
#include "netsim/chaos.h"
#include "testbed/cluster.h"
#include "testbed/rkv_deploy.h"
#include "workloads/client.h"

namespace ipipe::chaostest {

using testbed::kTorLatency;
using testbed::ParallelCluster;
using testbed::ServerSpec;
using workloads::ClientGen;

[[nodiscard]] inline double chaos_vsecs() {
  if (const char* env = std::getenv("CHAOS_VSECS")) {
    const double v = std::atof(env);
    if (v > 0) return std::max(v, 300.0);
  }
  return 5000.0;
}

struct RkvChaosResult {
  std::uint64_t acked = 0;
  std::uint64_t verified = 0;
  std::uint64_t lost = 0;
  std::uint64_t elections = 0;
  std::uint64_t crashes = 0;
  std::uint64_t partitions = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t post_heal_completed = 0;
  int leaders = 0;
  std::string digest;  ///< chaos log + end-state (determinism byte-compare)
};

/// One full RKV chaos scenario: 3 failover replicas, a seeded random fault
/// schedule (with guaranteed leader crash / partition / corruption), a
/// low-rate unique-key writer, and a post-heal read-back sweep over every
/// acknowledged write.
inline RkvChaosResult run_rkv_chaos(std::uint64_t seed, double total_secs) {
  const Ns total = sec(total_secs);
  const Ns write_end = total - sec(110);
  const Ns verify_at = total - sec(100);

  ParallelCluster cluster(kTorLatency);
  for (int i = 0; i < 3; ++i) {
    ServerSpec spec;
    // A 5 ms management cadence: supervision restarts and autoscale
    // windows land on its grid, and the pinned chaos timings assume it.
    spec.ipipe.mgmt_period = msec(5);
    cluster.add_server(spec);
  }
  const auto deps = testbed::deploy_rkv_group(
      cluster, {.replicas = {0, 1, 2}, .enable_failover = true});
  auto chaos = cluster.make_chaos();
  chaos->execute(bench::rkv_chaos_plan(seed, total));

  // Debug aid: CHAOS_PROGRESS=1 prints virtual-time progress (stall hunts).
  if (std::getenv("CHAOS_PROGRESS")) {
    for (Ns pt = sec(10); pt < total; pt += sec(10)) {
      cluster.client_sim().schedule_at(pt, [&cluster, &deps, pt] {
        fprintf(stderr, "[chaos] t=%llds events=%llu frames=%llu",
                static_cast<long long>(pt / sec(1)),
                static_cast<unsigned long long>(cluster.engine().executed()),
                static_cast<unsigned long long>(cluster.net().frames_sent()));
        for (std::size_t i = 0; i < 3; ++i) {
          auto* c = dynamic_cast<rkv::ConsensusActor*>(
              cluster.server(i).runtime().find_actor(deps[i].consensus));
          fprintf(stderr, " | n%zu ldr=%d slot=%llu apply=%llu elect=%llu",
                  i, c ? c->is_leader() : -1,
                  c ? static_cast<unsigned long long>(c->next_slot()) : 0ULL,
                  c ? static_cast<unsigned long long>(c->next_apply()) : 0ULL,
                  c ? static_cast<unsigned long long>(c->elections_started())
                    : 0ULL);
        }
        fprintf(stderr, "\n");
      });
    }
  }

  bench::AckedWriteProbe probe(
      cluster,
      {.nodes = {0, 1, 2},
       .consensus = deps[0].consensus,
       .key_prefix = "ck"},
      /*rate=*/2.0, write_end, /*seed=*/seed * 1000 + 17);
  probe.read_back(/*rate=*/200.0, verify_at, total, /*seed=*/seed * 1000 + 23);

  cluster.run_until(total);

  const bench::DurabilityVerdicts v = probe.verdicts();
  RkvChaosResult result;
  result.acked = v.acked;
  result.verified = v.verified;
  result.lost = v.not_found + v.mismatched;
  result.crashes = chaos->crashes();
  result.partitions = chaos->partitions();
  result.corrupted = cluster.net().frames_corrupted();
  result.post_heal_completed = probe.reader()->completed();
  std::ostringstream digest;
  digest << chaos->event_log_text();
  digest << "acked=" << result.acked << " verified=" << result.verified
         << " lost=" << result.lost << "\n";
  for (std::size_t i = 0; i < 3; ++i) {
    auto* c = dynamic_cast<rkv::ConsensusActor*>(
        cluster.server(i).runtime().find_actor(deps[i].consensus));
    result.elections += c->elections_started();
    if (c->is_leader()) ++result.leaders;
    digest << "replica=" << i << " chosen=" << c->chosen_count()
           << " applied=" << c->next_apply()
           << " elections=" << c->elections_started()
           << " leader=" << c->is_leader() << "\n";
  }
  digest << "writer_sent=" << probe.writer().sent()
         << " writer_retx=" << probe.writer().retransmits()
         << " verifier_completed=" << result.post_heal_completed << "\n";
  digest << "net_dropped=" << cluster.net().frames_dropped()
         << " corrupted=" << cluster.net().frames_corrupted() << "\n";
  result.digest = digest.str();
  return result;
}

// ------------------------------------------------- DT chaos harness --

struct DtChaosResult {
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t recovered = 0;
  std::uint64_t post_heal_commits = 0;
  std::uint64_t locked = 0;      ///< dangling locks across all participants
  std::uint64_t unresolved = 0;  ///< in-doubt records left in the log
  std::uint64_t in_flight = 0;
  std::string digest;
};

inline DtChaosResult run_dt_chaos(std::uint64_t seed, double total_secs) {
  const Ns total = sec(total_secs);
  const Ns chaos_start = sec(5);
  const Ns coord_crash_at = chaos_start + sec(20);
  const Ns chaos_end = total - sec(130);
  const Ns final_heal = total - sec(100);
  const Ns traffic_end = total - sec(60);

  ParallelCluster cluster(kTorLatency);
  for (int i = 0; i < 3; ++i) {
    ServerSpec spec;
    spec.ipipe.mgmt_period = msec(5);
    cluster.add_server(spec);
  }
  dt::DtRecoveryParams recovery;
  recovery.enabled = true;
  recovery.cluster = {0, 1, 2};
  std::vector<dt::DtDeployment> deps;
  for (std::size_t i = 0; i < 3; ++i) {
    deps.push_back(dt::deploy_dt(cluster.server(i).runtime(),
                                 /*with_coordinator=*/i == 0, recovery));
  }
  auto chaos = cluster.make_chaos();

  netsim::FaultPlan plan;
  plan.crash(1, chaos_start, sec(8));                 // participant crash
  plan.crash(0, coord_crash_at, sec(10));             // coordinator crash
  plan.partition({2}, {0, 1}, chaos_start + sec(45), sec(5));
  netsim::FaultModel lossy;
  lossy.drop_prob = 0.03;
  lossy.corrupt_prob = 0.02;
  plan.link_fault(lossy, chaos_start + sec(60), sec(5));
  plan.pcie_corrupt(0, 0.01, chaos_start + sec(70), sec(3));
  Rng prng(0xD7C44050ULL + seed);
  Ns t = chaos_start + sec(90);
  while (t < chaos_end) {
    switch (prng.uniform_u64(3)) {
      case 0:
        plan.crash(static_cast<netsim::NodeId>(prng.uniform_u64(3)), t,
                   sec(4) + static_cast<Ns>(prng.uniform_u64(sec(10))));
        break;
      case 1: {
        const auto lone = static_cast<netsim::NodeId>(prng.uniform_u64(3));
        std::vector<netsim::NodeId> rest;
        for (netsim::NodeId n = 0; n < 3; ++n) {
          if (n != lone) rest.push_back(n);
        }
        plan.partition({lone}, std::move(rest), t,
                       sec(2) + static_cast<Ns>(prng.uniform_u64(sec(5))));
        break;
      }
      default:
        plan.link_fault(lossy, t,
                        sec(2) + static_cast<Ns>(prng.uniform_u64(sec(5))));
        break;
    }
    t += sec(20) + static_cast<Ns>(prng.uniform_u64(sec(40)));
  }
  chaos->execute(plan);

  const auto txn_make = [&](std::uint64_t salt) {
    return [&, salt](std::uint64_t seq, Rng&, netsim::PacketPool& pool)
               -> netsim::PacketPtr {
      auto pkt = pool.make();
      pkt->dst = 0;
      pkt->dst_actor = deps[0].coordinator;
      pkt->msg_type = dt::kTxnRequest;
      pkt->frame_size = 512;
      const std::uint64_t s = seq + salt;
      dt::TxnRequest txn;
      txn.reads.push_back({static_cast<netsim::NodeId>(s * 7 % 3),
                           "r" + std::to_string(s % 40)});
      txn.writes.push_back({static_cast<netsim::NodeId>((s * 5 + 1) % 3),
                            "w" + std::to_string(s % 512),
                            {static_cast<std::uint8_t>(s), 1}});
      if (s % 4 == 0) {  // cross-node multi-write txns hold 2 locks
        txn.writes.push_back({static_cast<netsim::NodeId>((s * 5 + 2) % 3),
                              "w" + std::to_string((s + 256) % 512),
                              {static_cast<std::uint8_t>(s), 2}});
      }
      pkt->payload = txn.encode();
      return pkt;
    };
  };

  auto& client = cluster.add_client(10.0, txn_make(0), seed * 1000 + 31);
  client.enable_retries({.timeout = msec(100), .max_retries = 3,
                         .backoff = 2.0, .cap = sec(1)});
  client.start_open_loop(5.0, traffic_end, /*poisson=*/false);

  // Closed-loop burst straddling the coordinator crash: dozens of
  // concurrent transactions keep the log/commit pipeline populated, so
  // some are genuinely in-doubt (logged, not yet resolved) when it dies.
  auto& burst = cluster.add_client(10.0, txn_make(1'000'000),
                                   seed * 1000 + 37);
  burst.enable_retries({.timeout = msec(100), .max_retries = 3,
                        .backoff = 2.0, .cap = sec(1)});
  cluster.client_sim().schedule_at(coord_crash_at - msec(5), [&] {
    burst.start_closed_loop(64, coord_crash_at + msec(2));
  });

  auto* coord = dynamic_cast<dt::CoordinatorActor*>(
      cluster.server(0).runtime().find_actor(deps[0].coordinator));
  std::uint64_t committed_at_heal = 0;
  cluster.server(0).sim().schedule_at(
      final_heal, [&] { committed_at_heal = coord->committed(); });

  cluster.run_until(total);

  DtChaosResult result;
  result.committed = coord->committed();
  result.aborted = coord->aborted();
  result.recovered = coord->recovered_txns();
  result.post_heal_commits = coord->committed() - committed_at_heal;
  result.in_flight = coord->in_flight();
  auto* log = dynamic_cast<dt::LogActor*>(
      cluster.server(0).runtime().find_actor(deps[0].log));
  result.unresolved = log->unresolved();
  std::ostringstream digest;
  digest << chaos->event_log_text();
  for (std::size_t i = 0; i < 3; ++i) {
    auto* part = dynamic_cast<dt::ParticipantActor*>(
        cluster.server(i).runtime().find_actor(deps[i].participant));
    result.locked += part->locked_count();
    digest << "participant=" << i << " locked=" << part->locked_count()
           << " records=" << part->store().size() << "\n";
  }
  digest << "committed=" << result.committed << " aborted=" << result.aborted
         << " recovered=" << result.recovered
         << " retx=" << coord->retransmits()
         << " in_flight=" << result.in_flight
         << " unresolved=" << result.unresolved << "\n";
  digest << "client_sent=" << client.sent() << "+" << burst.sent()
         << " completed=" << client.completed() + burst.completed() << "\n";
  result.digest = digest.str();
  return result;
}

}  // namespace ipipe::chaostest
