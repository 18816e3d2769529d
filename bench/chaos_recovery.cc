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
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "apps/rkv/rkv_actors.h"
#include "harness/trace_opts.h"
#include "netsim/chaos.h"
#include "testbed/cluster.h"

using namespace ipipe;

namespace {

constexpr std::uint64_t kSeqMask = (1ULL << 40) - 1;
constexpr int kReplicas = 3;

std::string chaos_key(std::uint64_t k) { return "ck" + std::to_string(k); }

std::vector<std::uint8_t> chaos_value(std::uint64_t k) {
  return {static_cast<std::uint8_t>(k), static_cast<std::uint8_t>(k >> 8),
          static_cast<std::uint8_t>(k >> 16), 0xA5};
}

/// The built-in schedule: a guaranteed backbone (leader crash, partition,
/// corrupting fabric) followed by a seeded random fault tail, mirroring
/// the chaos e2e tests.
netsim::FaultPlan default_plan(std::uint64_t seed, Ns total) {
  const Ns chaos_start = sec(5);
  const Ns chaos_end = total > sec(160) ? total - sec(130) : total / 2;
  netsim::FaultPlan plan;
  plan.crash(0, chaos_start, sec(10));
  plan.partition({1}, {0, 2}, chaos_start + sec(30), sec(5));
  netsim::FaultModel lossy;
  lossy.drop_prob = 0.02;
  lossy.corrupt_prob = 0.02;
  lossy.dup_prob = 0.01;
  plan.link_fault(lossy, chaos_start + sec(45), sec(5));
  Rng prng(0xC4405000ULL + seed);
  Ns t = chaos_start + sec(60);
  while (t < chaos_end) {
    switch (prng.uniform_u64(4)) {
      case 0:
        plan.crash(static_cast<netsim::NodeId>(prng.uniform_u64(kReplicas)), t,
                   sec(5) + static_cast<Ns>(prng.uniform_u64(sec(15))));
        break;
      case 1: {
        const auto lone =
            static_cast<netsim::NodeId>(prng.uniform_u64(kReplicas));
        std::vector<netsim::NodeId> rest;
        for (netsim::NodeId n = 0; n < kReplicas; ++n) {
          if (n != lone) rest.push_back(n);
        }
        plan.partition({lone}, std::move(rest), t,
                       sec(3) + static_cast<Ns>(prng.uniform_u64(sec(7))));
        break;
      }
      case 2:
        plan.pcie_corrupt(
            static_cast<netsim::NodeId>(prng.uniform_u64(kReplicas)), 0.01, t,
            sec(2) + static_cast<Ns>(prng.uniform_u64(sec(6))));
        break;
      default:
        plan.link_fault(lossy, t,
                        sec(3) + static_cast<Ns>(prng.uniform_u64(sec(7))));
        break;
    }
    t += sec(20) + static_cast<Ns>(prng.uniform_u64(sec(40)));
  }
  return plan;
}

const char* flag_value(const char* arg, const char* name) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') return arg + n + 1;
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 1;
  double duration_s = 600.0;
  std::string plan_text;
  const bench::TraceOpts trace = bench::parse_trace_opts(argc, argv);

  for (int i = 1; i < argc; ++i) {
    if (const char* v = flag_value(argv[i], "--seed")) {
      seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = flag_value(argv[i], "--duration-s")) {
      duration_s = std::strtod(v, nullptr);
    } else if (const char* v = flag_value(argv[i], "--plan")) {
      plan_text = v;
    } else if (const char* v = flag_value(argv[i], "--plan-file")) {
      std::ifstream in(v);
      if (!in) {
        std::fprintf(stderr, "chaos_recovery: cannot open plan file %s\n", v);
        return 1;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      plan_text = buf.str();
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
    spec.ipipe.mgmt_period = msec(5);  // idle heartbeat cost on long runs
    spec.ipipe.supervise = true;
    trace.apply(spec.ipipe);
    cluster.add_server(spec);
  }

  rkv::RkvParams params;
  params.replicas.clear();
  for (netsim::NodeId n = 0; n < kReplicas; ++n) params.replicas.push_back(n);
  params.enable_failover = true;
  params.heartbeat_period = msec(100);
  params.election_timeout_min = msec(250);
  params.election_timeout_max = msec(450);
  std::vector<rkv::RkvDeployment> deps;
  for (std::size_t i = 0; i < kReplicas; ++i) {
    params.self_index = i;
    auto d = rkv::deploy_rkv(cluster.server(i).runtime(), params);
    deps.push_back(d);
    params.peer_consensus_actor = d.consensus;
  }

  auto chaos = cluster.make_chaos();
  netsim::FaultPlan plan;
  if (plan_text.empty()) {
    plan = default_plan(seed, total);
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

  // Writer: unique keys at a steady rate; the logical op retries across
  // NotLeader redirects and abandoned requests until acked.
  netsim::NodeId leader = 0;
  std::deque<std::uint64_t> wq;
  std::map<std::uint64_t, std::uint64_t> wissued;
  std::set<std::uint64_t> acked;
  std::uint64_t next_key = 1;
  const ActorId consensus = deps[0].consensus;

  auto& writer = cluster.add_client(
      10.0,
      [&](std::uint64_t seq, Rng&, netsim::PacketPool& pool) {
        std::uint64_t key = 0;
        if (!wq.empty()) {
          key = wq.front();
          wq.pop_front();
        } else if (cluster.client_sim().now() < write_end) {
          key = next_key++;
        } else {
          return netsim::PacketPtr{};
        }
        wissued[seq] = key;
        auto pkt = pool.make();
        pkt->dst = leader;
        pkt->dst_actor = consensus;
        pkt->msg_type = rkv::kClientPut;
        pkt->frame_size = 256;
        rkv::ClientReq req;
        req.op = rkv::Op::kPut;
        req.key = chaos_key(key);
        req.value = chaos_value(key);
        pkt->payload = req.encode();
        return pkt;
      },
      /*seed=*/seed * 1000 + 17);
  writer.enable_retries(
      {.timeout = msec(80), .max_retries = 4, .backoff = 2.0, .cap = msec(600)});
  writer.set_on_reply([&](const netsim::Packet& pkt) {
    const auto it = wissued.find(pkt.request_id & kSeqMask);
    if (it == wissued.end()) return;
    const auto rep = rkv::ClientReply::decode(pkt.payload);
    if (!rep) return;
    const std::uint64_t key = it->second;
    wissued.erase(it);
    if (rep->status == rkv::Status::kOk) {
      acked.insert(key);
      return;
    }
    if (rep->status == rkv::Status::kNotLeader && !rep->value.empty() &&
        rep->value[0] < kReplicas) {
      leader = rep->value[0];
    }
    wq.push_back(key);
  });
  writer.set_on_abandon([&](std::uint64_t rid) {
    const auto it = wissued.find(rid & kSeqMask);
    if (it != wissued.end()) {
      wq.push_back(it->second);
      wissued.erase(it);
    }
    leader = (leader + 1) % kReplicas;
  });
  writer.start_open_loop(2.0, write_end, /*poisson=*/false);

  // Verifier: after the final heal, read back every acked key.
  std::deque<std::uint64_t> vq;
  std::map<std::uint64_t, std::uint64_t> vissued;
  std::map<std::uint64_t, int> vattempts;
  std::uint64_t verified = 0;
  std::uint64_t lost = 0;

  auto& verifier = cluster.add_client(
      10.0,
      [&](std::uint64_t seq, Rng&, netsim::PacketPool& pool) {
        if (vq.empty()) return netsim::PacketPtr{};
        const std::uint64_t key = vq.front();
        vq.pop_front();
        vissued[seq] = key;
        auto pkt = pool.make();
        pkt->dst = leader;
        pkt->dst_actor = consensus;
        pkt->msg_type = rkv::kClientGet;
        pkt->frame_size = 256;
        rkv::ClientReq req;
        req.op = rkv::Op::kGet;
        req.key = chaos_key(key);
        pkt->payload = req.encode();
        return pkt;
      },
      /*seed=*/seed * 1000 + 23);
  verifier.enable_retries(
      {.timeout = msec(80), .max_retries = 4, .backoff = 2.0, .cap = msec(600)});
  verifier.set_on_reply([&](const netsim::Packet& pkt) {
    const auto it = vissued.find(pkt.request_id & kSeqMask);
    if (it == vissued.end()) return;
    const auto rep = rkv::ClientReply::decode(pkt.payload);
    if (!rep) return;
    const std::uint64_t key = it->second;
    vissued.erase(it);
    if (rep->status == rkv::Status::kOk) {
      if (rep->value == chaos_value(key)) {
        ++verified;
      } else {
        ++lost;
      }
      return;
    }
    if (rep->status == rkv::Status::kNotLeader) {
      if (!rep->value.empty() && rep->value[0] < kReplicas) {
        leader = rep->value[0];
      }
      vq.push_back(key);
      return;
    }
    if (++vattempts[key] <= 5) {
      vq.push_back(key);
    } else {
      ++lost;
    }
  });
  verifier.set_on_abandon([&](std::uint64_t rid) {
    const auto it = vissued.find(rid & kSeqMask);
    if (it != vissued.end()) {
      vq.push_back(it->second);
      vissued.erase(it);
    }
    leader = (leader + 1) % kReplicas;
  });
  cluster.client_sim().schedule_at(verify_at, [&] {
    for (const std::uint64_t key : acked) vq.push_back(key);
    verifier.start_open_loop(200.0, total, /*poisson=*/false);
  });

  cluster.run_until(total);

  std::printf("# chaos event log (seed=%llu, duration=%.0fs)\n",
              static_cast<unsigned long long>(seed), duration_s);
  std::fputs(chaos->event_log_text().c_str(), stdout);
  std::printf("\n# recovery stats\n");
  std::printf("crashes=%llu restores=%llu partitions=%llu heals=%llu\n",
              static_cast<unsigned long long>(chaos->crashes()),
              static_cast<unsigned long long>(chaos->restores()),
              static_cast<unsigned long long>(chaos->partitions()),
              static_cast<unsigned long long>(chaos->heals()));
  std::printf("acked=%zu verified=%llu lost=%llu writer_retx=%llu\n",
              acked.size(), static_cast<unsigned long long>(verified),
              static_cast<unsigned long long>(lost),
              static_cast<unsigned long long>(writer.retransmits()));
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
  return lost == 0 ? 0 : 2;
}
