#include "verify/fuzz.h"

#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "apps/dt/dt_actors.h"
#include "apps/rkv/rkv_actors.h"
#include "common/rng.h"
#include "testbed/cluster.h"
#include "testbed/rkv_deploy.h"
#include "workloads/open_loop.h"

namespace ipipe::verify {
namespace {

using testbed::ParallelCluster;
using testbed::ServerSpec;

constexpr std::size_t kNodes = 3;
constexpr std::uint64_t kKeySpace = 24;

std::string fuzz_key(std::uint64_t k) { return "fk" + std::to_string(k); }

/// Unique-per-operation value so the linearizer can tell writes apart.
std::vector<std::uint8_t> fuzz_value(std::uint64_t client,
                                     std::uint64_t seq) {
  return {static_cast<std::uint8_t>(client),
          static_cast<std::uint8_t>(seq),
          static_cast<std::uint8_t>(seq >> 8),
          static_cast<std::uint8_t>(seq >> 16),
          static_cast<std::uint8_t>(seq >> 24),
          0x5A};
}

/// Adds `n` servers with every fuzz run's spec: a 5 ms management
/// cadence and the NIC watchdog on (200 us heartbeats, 4 misses).
void add_servers(ParallelCluster& cluster, std::size_t n) {
  ServerSpec spec;
  spec.ipipe.mgmt_period = msec(5);
  spec.ipipe.nic_watchdog = true;
  spec.ipipe.watchdog_heartbeat = usec(200);
  spec.ipipe.watchdog_miss_limit = 4;
  spec.ipipe.watchdog_probe_cap = msec(2);
  for (std::size_t i = 0; i < n; ++i) cluster.add_server(spec);
}

void trace_verdict(const FuzzOptions& opt, const FuzzVerdict& v) {
  if (opt.tracer == nullptr || !opt.tracer->enabled()) return;
  opt.tracer->instant(
      trace::Cat::kVerify, v.ok ? "verify_pass" : "verify_fail",
      trace::tid::kVerify, 0,
      {"seed", static_cast<double>(opt.seed)},
      {"ops", static_cast<double>(v.kv_ops + v.txns_committed +
                                  v.txns_aborted)});
}

FuzzVerdict run_rkv(const FuzzOptions& opt, const netsim::FaultPlan& plan) {
  const Ns total = sec(opt.duration_s);
  const Ns traffic_end = total - sec(5);

  ParallelCluster cluster(testbed::kTorLatency);
  add_servers(cluster, kNodes);
  const auto deps = testbed::deploy_rkv_group(
      cluster, {.replicas = {0, 1, 2},
                .enable_failover = true,
                .inject_stale_reads = opt.inject_stale_reads});
  auto chaos = cluster.make_chaos();
  chaos->execute(plan);

  HistoryRecorder recorder(cluster.client_sim());

  // Leader steering shared by both clients: follow NotLeader hints,
  // probe round-robin when a reply carries none (a leader that lost its
  // read lease answers hintless) or a request is abandoned.
  netsim::NodeId leader = 0;
  const auto steer = [&leader](const netsim::Packet& pkt) {
    if (pkt.msg_type != rkv::kClientReply) return;
    auto rep = rkv::ClientReply::decode(std::span<const std::uint8_t>(
        pkt.payload.data(), pkt.payload.size()));
    if (!rep || rep->status != rkv::Status::kNotLeader) return;
    if (!rep->value.empty() && rep->value[0] < kNodes) {
      leader = rep->value[0];
    } else {
      leader = (leader + 1) % kNodes;
    }
  };
  const ActorId consensus = deps[0].consensus;

  // Writer: puts and deletes over a small key space (repeated writes per
  // key are what give stale reads something to be stale against).
  auto& writer = cluster.add_client(
      10.0,
      [&](std::uint64_t seq, Rng& rng, netsim::PacketPool& pool) {
        if (cluster.client_sim().now() >= traffic_end) {
          return netsim::PacketPtr{};
        }
        auto pkt = pool.make();
        pkt->dst = leader;
        pkt->dst_actor = consensus;
        pkt->frame_size = 256;
        rkv::ClientReq req;
        req.key = fuzz_key(rng.uniform_u64(kKeySpace));
        if (rng.uniform_u64(10) < 7) {
          req.op = rkv::Op::kPut;
          req.value = fuzz_value(1, seq);
          pkt->msg_type = rkv::kClientPut;
        } else {
          req.op = rkv::Op::kDel;
          pkt->msg_type = rkv::kClientDel;
        }
        pkt->payload = req.encode();
        return pkt;
      },
      0xF077ED00ULL + opt.seed);
  writer.enable_retries({});
  recorder.hook_rkv_client(writer);
  writer.add_on_reply(steer);
  writer.set_on_abandon(
      [&leader](std::uint64_t) { leader = (leader + 1) % kNodes; });

  // Reader: mostly follows the leader guess, but one get in four probes a
  // random replica — that is what exposes a follower serving stale reads.
  auto& reader = cluster.add_client(
      10.0,
      [&](std::uint64_t, Rng& rng, netsim::PacketPool& pool) {
        if (cluster.client_sim().now() >= traffic_end) {
          return netsim::PacketPtr{};
        }
        auto pkt = pool.make();
        pkt->dst = rng.uniform_u64(4) == 0
                       ? static_cast<netsim::NodeId>(rng.uniform_u64(kNodes))
                       : leader;
        pkt->dst_actor = consensus;
        pkt->frame_size = 128;
        pkt->msg_type = rkv::kClientGet;
        rkv::ClientReq req;
        req.op = rkv::Op::kGet;
        req.key = fuzz_key(rng.uniform_u64(kKeySpace));
        pkt->payload = req.encode();
        return pkt;
      },
      0x4EADE400ULL + opt.seed);
  reader.enable_retries({});
  recorder.hook_rkv_client(reader);
  reader.add_on_reply(steer);
  reader.set_on_abandon(
      [&leader](std::uint64_t) { leader = (leader + 1) % kNodes; });

  writer.start_open_loop(30.0, traffic_end);
  reader.start_open_loop(30.0, traffic_end);
  cluster.run_until(total);

  FuzzVerdict v;
  v.plan = plan;
  v.kv_ops = recorder.kv().ops.size();
  v.kv_completed = recorder.kv().completed();
  const LinearizeResult lin =
      check_kv_linearizable(recorder.kv(), opt.max_states);
  v.states_explored = lin.states_explored;
  v.inconclusive = lin.inconclusive;
  if (!lin.ok) {
    v.ok = false;
    v.checker = "linearizability";
    v.detail = lin.detail;
  }
  return v;
}

// --------------------------------------------------------- sharded RKV --

constexpr std::uint32_t kShardGroups = 2;
constexpr std::size_t kShardReplicas = 3;
constexpr std::size_t kShardNodes = kShardGroups * kShardReplicas;
constexpr std::uint32_t kShardCount = 16;

/// Sampled-key recording: full sharded histories are thousands of ops —
/// far past the Wing–Gong budget — so the recorder keeps a fixed
/// mid-tail key subset (hot Zipf heads alone run to thousands of ops per
/// key).  The generator's online floor checker still covers every key.
bool shard_sampled_key(const std::string& key) {
  if (key.size() < 2 || key[0] != 'k') return false;
  std::uint64_t n = 0;
  for (std::size_t i = 1; i < key.size(); ++i) {
    if (key[i] < '0' || key[i] > '9') return false;
    n = n * 10 + static_cast<std::uint64_t>(key[i] - '0');
  }
  return n % 50 == 29;
}

FuzzVerdict run_shard(const FuzzOptions& opt, const netsim::FaultPlan& plan) {
  const Ns total = sec(opt.duration_s);
  const Ns traffic_end = total - sec(5);

  ParallelCluster cluster(testbed::kTorLatency);
  add_servers(cluster, kShardNodes);

  const testbed::ShardedRkv rkv = testbed::deploy_sharded_rkv(
      cluster, kShardGroups, kShardReplicas, kShardGroups,
      {.enable_failover = true,
       .num_shards = kShardCount,
       .enable_hot_cache = true,
       .inject_stale_cache = opt.inject_stale_cache});

  auto chaos = cluster.make_chaos();
  chaos->execute(plan);

  HistoryRecorder recorder(cluster.client_sim());
  recorder.set_kv_key_filter(shard_sampled_key);

  workloads::OpenLoopParams wp;
  wp.clients = 20'000;
  wp.rate_rps = 800.0;
  wp.get_fraction = 0.85;
  wp.key_space = 200;
  wp.zipf_theta = 1.0;
  wp.value_len = 32;
  wp.seed = 0x0FE710ADULL + opt.seed;
  wp.retry_timeout = msec(80);
  wp.max_retries = 12;
  auto& gen = cluster.add_open_loop(wp);
  gen.set_groups(rkv.targets);
  gen.set_route_table(rkv.table);
  recorder.hook_rkv_openloop(gen);

  gen.start(traffic_end);
  cluster.run_until(traffic_end + sec(2));
  // Quiesce audit: every acked key must still be readable.
  gen.issue_readback(1000);
  cluster.run_until(total);

  FuzzVerdict v;
  v.plan = plan;
  v.kv_ops = recorder.kv().ops.size();
  v.kv_completed = recorder.kv().completed();
  // The generator's online floor checker covers the whole key space;
  // only when it is clean is the sampled Wing–Gong pass the verdict.
  if (gen.stale_reads() > 0) {
    v.ok = false;
    v.checker = "online-floor";
    v.detail = "open-loop checker: " + std::to_string(gen.stale_reads()) +
               " stale read(s) below the acked floor\n";
  } else if (gen.lost_acked() > 0) {
    v.ok = false;
    v.checker = "online-floor";
    v.detail = "open-loop checker: " + std::to_string(gen.lost_acked()) +
               " acked write(s) lost (kNotFound under a nonzero floor)\n";
  } else {
    const LinearizeResult lin =
        check_kv_linearizable(recorder.kv(), opt.max_states);
    v.states_explored = lin.states_explored;
    v.inconclusive = lin.inconclusive;
    if (!lin.ok) {
      v.ok = false;
      v.checker = "linearizability";
      v.detail = lin.detail;
    }
  }
  return v;
}

FuzzVerdict run_dt(const FuzzOptions& opt, const netsim::FaultPlan& plan) {
  const Ns total = sec(opt.duration_s);
  const Ns traffic_end = total - sec(5);

  ParallelCluster cluster(testbed::kTorLatency);
  add_servers(cluster, kNodes);
  dt::DtRecoveryParams rec;
  rec.enabled = true;
  rec.cluster = {0, 1, 2};
  rec.inject_lost_abort = opt.inject_lost_abort;
  std::vector<dt::DtDeployment> deps;
  for (std::size_t i = 0; i < kNodes; ++i) {
    deps.push_back(dt::deploy_dt(cluster.server(i).runtime(), i == 0, rec));
  }
  auto chaos = cluster.make_chaos();
  chaos->execute(plan);

  HistoryRecorder recorder(cluster.client_sim());
  auto* coord = dynamic_cast<dt::CoordinatorActor*>(
      cluster.server(0).runtime().find_actor(deps[0].coordinator));
  recorder.hook_dt_coordinator(*coord);
  for (std::size_t i = 0; i < kNodes; ++i) {
    auto* part = dynamic_cast<dt::ParticipantActor*>(
        cluster.server(i).runtime().find_actor(deps[i].participant));
    recorder.hook_dt_participant(*part, static_cast<netsim::NodeId>(i));
  }

  const ActorId coordinator = deps[0].coordinator;
  auto& client = cluster.add_client(
      10.0,
      [&](std::uint64_t seq, Rng& rng, netsim::PacketPool& pool) {
        if (cluster.client_sim().now() >= traffic_end) {
          return netsim::PacketPtr{};
        }
        auto pkt = pool.make();
        pkt->dst = 0;
        pkt->dst_actor = coordinator;
        pkt->frame_size = 512;
        pkt->msg_type = dt::kTxnRequest;
        dt::TxnRequest txn;
        const std::size_t nreads = rng.uniform_u64(3);
        const std::size_t nwrites = 1 + rng.uniform_u64(2);
        for (std::size_t r = 0; r < nreads; ++r) {
          const std::uint64_t k = rng.uniform_u64(kKeySpace);
          txn.reads.push_back(
              {static_cast<netsim::NodeId>(k % kNodes), fuzz_key(k)});
        }
        for (std::size_t w = 0; w < nwrites; ++w) {
          const std::uint64_t k = rng.uniform_u64(kKeySpace);
          txn.writes.push_back({static_cast<netsim::NodeId>(k % kNodes),
                                fuzz_key(k), fuzz_value(2 + w, seq)});
        }
        pkt->payload = txn.encode();
        return pkt;
      },
      0xD7FA2200ULL + opt.seed);
  client.enable_retries({});
  recorder.hook_dt_client(client);
  client.start_open_loop(20.0, traffic_end);
  cluster.run_until(total);

  FuzzVerdict v;
  v.plan = plan;
  const SerializeResult atom = check_dt_atomicity(recorder.dt());
  const SerializeResult ser = check_dt_serializable(recorder.dt());
  v.txns_committed = ser.committed;
  v.txns_aborted = ser.aborted;
  if (!atom.ok) {
    v.ok = false;
    v.checker = "atomicity";
    v.detail = atom.detail;
  } else if (!ser.ok) {
    v.ok = false;
    v.checker = "serializability";
    v.detail = ser.detail;
  }
  return v;
}

}  // namespace

netsim::FaultPlan random_fault_plan(std::uint64_t seed, std::size_t nodes,
                                    Ns window) {
  netsim::FaultPlan plan;
  Rng rng(0x5EEDFA17ULL ^ (seed * 0x9E3779B97F4A7C15ULL));
  Ns t = sec(2);
  const std::size_t events = 2 + rng.uniform_u64(4);
  for (std::size_t e = 0; e < events && t < window; ++e) {
    switch (rng.uniform_u64(8)) {
      case 0:
        plan.crash(static_cast<netsim::NodeId>(rng.uniform_u64(nodes)), t,
                   sec(1) + rng.uniform_u64(sec(3)));
        break;
      case 1: {
        const auto lone =
            static_cast<netsim::NodeId>(rng.uniform_u64(nodes));
        std::vector<netsim::NodeId> rest;
        for (netsim::NodeId n = 0; n < nodes; ++n) {
          if (n != lone) rest.push_back(n);
        }
        plan.partition({lone}, std::move(rest), t,
                       sec(2) + rng.uniform_u64(sec(4)));
        break;
      }
      case 2:
        plan.pcie_corrupt(static_cast<netsim::NodeId>(rng.uniform_u64(nodes)),
                          0.01 + 0.02 * rng.uniform(), t,
                          sec(1) + rng.uniform_u64(sec(2)));
        break;
      case 3: {
        netsim::FaultModel fm;
        fm.drop_prob = 0.01 + 0.02 * rng.uniform();
        fm.dup_prob = 0.01;
        fm.corrupt_prob = 0.01;
        fm.reorder_jitter = rng.uniform_u64(usec(50));
        plan.link_fault(fm, t, sec(1) + rng.uniform_u64(sec(3)));
        break;
      }
      case 4:
        plan.nic_crash(static_cast<netsim::NodeId>(rng.uniform_u64(nodes)), t,
                       msec(500) + rng.uniform_u64(sec(2)));
        break;
      case 5:
        plan.nic_reset(static_cast<netsim::NodeId>(rng.uniform_u64(nodes)), t,
                       msec(50) + rng.uniform_u64(msec(500)));
        break;
      case 6:
        plan.pcie_flap(static_cast<netsim::NodeId>(rng.uniform_u64(nodes)), t,
                       msec(1) + rng.uniform_u64(msec(20)));
        break;
      default:
        plan.accel_fail(static_cast<netsim::NodeId>(rng.uniform_u64(nodes)),
                        static_cast<std::uint32_t>(rng.uniform_u64(4)), t,
                        sec(1) + rng.uniform_u64(sec(2)));
        break;
    }
    t += sec(1) + rng.uniform_u64(sec(4));
  }
  return plan;
}

netsim::FaultPlan make_fault_plan(const FuzzOptions& opt) {
  if (!opt.chaos) return {};
  const Ns window = sec(opt.duration_s) - sec(8);
  const std::size_t nodes =
      opt.app == FuzzApp::kShard ? kShardNodes : kNodes;
  netsim::FaultPlan plan = random_fault_plan(opt.seed, nodes, window);
  // No backbone for inject_stale_cache: a read-heavy Zipf load rewrites
  // cached keys within milliseconds, so the dropped invalidations are
  // observable without any fault at all.
  if (opt.inject_stale_reads) {
    // Guaranteed follower isolation: node 2 keeps answering clients but
    // stops learning — a seconds-long stale window for the injected bug.
    plan.partition({2}, {0, 1}, sec(4), sec(10));
  }
  if (opt.inject_lost_abort) {
    // Guaranteed participant crash: stalled locks make concurrent
    // transactions abort, which is what arms the injected abort bug.
    plan.crash(1, sec(4), sec(3));
  }
  return plan;
}

FuzzVerdict run_verify_once(const FuzzOptions& opt) {
  const netsim::FaultPlan plan =
      opt.plan_override ? *opt.plan_override : make_fault_plan(opt);
  FuzzVerdict v = opt.app == FuzzApp::kRkv     ? run_rkv(opt, plan)
                  : opt.app == FuzzApp::kShard ? run_shard(opt, plan)
                                               : run_dt(opt, plan);
  trace_verdict(opt, v);
  return v;
}

ShrinkResult shrink_fault_plan(const FuzzOptions& opt,
                               const netsim::FaultPlan& failing) {
  ShrinkResult sr;
  FuzzOptions o = opt;
  FuzzVerdict last;
  const auto run_fails = [&](const netsim::FaultPlan& cand) {
    o.plan_override = cand;
    FuzzVerdict v = run_verify_once(o);
    ++sr.runs;
    if (opt.tracer != nullptr && opt.tracer->enabled()) {
      opt.tracer->instant(trace::Cat::kVerify, "shrink_step",
                          trace::tid::kVerify, 0,
                          {"runs", static_cast<double>(sr.runs)},
                          {"events", static_cast<double>(cand.size())});
    }
    const bool failed = !v.ok;
    if (failed) last = std::move(v);
    return failed;
  };

  netsim::FaultPlan cur = failing;
  if (!run_fails(cur)) {
    // Nothing to shrink: the plan does not reproduce a failure.
    sr.plan = cur;
    sr.verdict.ok = true;
    sr.steps.push_back("initial plan does not fail; nothing to shrink");
    return sr;
  }
  sr.steps.push_back("initial plan fails (" + std::to_string(cur.size()) +
                     " events, checker=" + last.checker + ")");

  // Pass 1: drop events to a fixpoint (greedy ddmin, deterministic
  // ascending order; removing one event can unlock removing another).
  bool progress = true;
  while (progress && sr.runs < 200) {
    progress = false;
    for (std::size_t i = 0; i < cur.actions.size() && sr.runs < 200;) {
      netsim::FaultPlan cand = cur;
      cand.actions.erase(cand.actions.begin() + static_cast<long>(i));
      if (run_fails(cand)) {
        cur = std::move(cand);
        progress = true;
        sr.steps.push_back("dropped event " + std::to_string(i) + " -> " +
                           std::to_string(cur.size()) + " events");
      } else {
        ++i;
      }
    }
  }

  // Pass 2: halve each surviving event's window while the failure holds.
  for (std::size_t i = 0; i < cur.actions.size() && sr.runs < 200; ++i) {
    while (cur.actions[i].duration >= msec(500) && sr.runs < 200) {
      netsim::FaultPlan cand = cur;
      cand.actions[i].duration /= 2;
      if (!run_fails(cand)) break;
      cur = std::move(cand);
      sr.steps.push_back("halved event " + std::to_string(i) +
                         " duration to " +
                         std::to_string(cur.actions[i].duration) + "ns");
    }
  }

  sr.plan = std::move(cur);
  sr.verdict = std::move(last);
  return sr;
}

}  // namespace ipipe::verify
