// Chaos quick tests: fault-plan parsing, fabric fault counters, actor
// supervision, Paxos failover, and 2PC crash recovery — the compressed
// scenarios that run in a few virtual minutes.  The long-horizon soak
// runs live in test_chaos_soak.cc; the shared scenario harness is in
// chaos_harness.h.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "apps/dt/dt_actors.h"
#include "apps/rkv/rkv_actors.h"
#include "chaos_harness.h"
#include "fake_env.h"
#include "netsim/chaos.h"
#include "testbed/cluster.h"
#include "testbed/rkv_deploy.h"
#include "text_mutator.h"
#include "verify/fuzz.h"
#include "workloads/client.h"

namespace ipipe {
namespace {

using chaostest::run_rkv_chaos;
using testbed::kTorLatency;
using testbed::ParallelCluster;
using testbed::ServerSpec;
using workloads::ClientGen;

// ------------------------------------------------------- FaultPlan parse --

/// Every verb once (ParsesFullGrammar's input; a fuzz seed too).
constexpr const char* kFullGrammar =
    "# chaos schedule\n"
    "crash 1 at 2s for 500ms\n"
    "partition 0,1|2 at 3s for 250ms   # isolate node 2\n"
    "pcie-corrupt 0 rate 0.05 at 4s for 100ms\n"
    "link-fault drop=0.1 dup=0.02 corrupt=0.03 jitter=50us at 5s for 1s\n"
    "nic-crash 1 at 6s for 200ms\n"
    "nic-reset 2 at 7s for 50ms\n"
    "pcie-flap 0 at 8s for 10ms\n"
    "accel-fail 1 bank 4 at 9s for 1s\n";

TEST(ChaosPlan, ParsesFullGrammar) {
  const std::string text = kFullGrammar;
  std::string error;
  const auto plan = netsim::FaultPlan::parse(text, &error);
  ASSERT_TRUE(plan.has_value()) << error;
  ASSERT_EQ(plan->size(), 8u);

  const auto& a = plan->actions;
  EXPECT_EQ(a[0].kind, netsim::FaultAction::Kind::kCrash);
  EXPECT_EQ(a[0].node, 1u);
  EXPECT_EQ(a[0].at, sec(2));
  EXPECT_EQ(a[0].duration, msec(500));

  EXPECT_EQ(a[1].kind, netsim::FaultAction::Kind::kPartition);
  EXPECT_EQ(a[1].group_a, (std::vector<netsim::NodeId>{0, 1}));
  EXPECT_EQ(a[1].group_b, (std::vector<netsim::NodeId>{2}));

  EXPECT_EQ(a[2].kind, netsim::FaultAction::Kind::kPcieCorrupt);
  EXPECT_DOUBLE_EQ(a[2].rate, 0.05);

  EXPECT_EQ(a[3].kind, netsim::FaultAction::Kind::kLinkFault);
  EXPECT_DOUBLE_EQ(a[3].fault.drop_prob, 0.1);
  EXPECT_DOUBLE_EQ(a[3].fault.dup_prob, 0.02);
  EXPECT_DOUBLE_EQ(a[3].fault.corrupt_prob, 0.03);
  EXPECT_EQ(a[3].fault.reorder_jitter, usec(50));

  EXPECT_EQ(a[4].kind, netsim::FaultAction::Kind::kNicCrash);
  EXPECT_EQ(a[4].node, 1u);
  EXPECT_EQ(a[4].at, sec(6));
  EXPECT_EQ(a[4].duration, msec(200));

  EXPECT_EQ(a[5].kind, netsim::FaultAction::Kind::kNicReset);
  EXPECT_EQ(a[5].node, 2u);

  EXPECT_EQ(a[6].kind, netsim::FaultAction::Kind::kPcieFlap);
  EXPECT_EQ(a[6].node, 0u);
  EXPECT_EQ(a[6].duration, msec(10));

  EXPECT_EQ(a[7].kind, netsim::FaultAction::Kind::kAccelFail);
  EXPECT_EQ(a[7].node, 1u);
  EXPECT_EQ(a[7].bank, 4u);

  // The grammar round-trips: to_text() of a parsed plan re-parses to the
  // same action list.
  const auto again = netsim::FaultPlan::parse(plan->to_text(), &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(again->size(), plan->size());
  EXPECT_EQ(again->to_text(), plan->to_text());
}

TEST(ChaosPlan, RejectsMalformedInput) {
  const char* bad[] = {
      "crash at 2s for 1s",                    // missing node
      "crash 1 at 2parsecs for 1s",            // bad time unit
      "partition 0,1,2 at 1s for 1s",          // missing '|'
      "pcie-corrupt 0 at 1s for 1s",           // missing rate
      "link-fault splat=0.1 at 1s for 1s",     // unknown knob
      "link-fault drop=0.1",                   // missing window
      "meteor-strike 3 at 1s for 1s",          // unknown verb
      "nic-crash at 1s for 1s",                // missing node
      "pcie-flap 0 at 1s",                     // missing duration
      "accel-fail 0 at 1s for 1s",             // missing bank clause
      "accel-fail 0 bank x at 1s for 1s",      // non-numeric bank
      "crash 1x at 1s for 1s",                 // node not a whole number
      "crash -1 at 1s for 1s",                 // negative node
      "crash 4294967297 at 1s for 1s",         // node past 32 bits
      "partition 0|-1 at 1s for 1s",           // negative group member
      "partition 0|4294967297 at 1s for 1s",   // group member past 32 bits
      "accel-fail 0 bank -1 at 1s for 1s",     // negative bank
      "accel-fail 0 bank 4294967297 at 1s for 1s",  // bank past 32 bits
      "crash 1 at -5s for 1s",                 // negative time
      "crash 1 at 1e30s for 1s",               // time past Ns
      "crash 1 at nans for 1s",                // NaN time
      "crash 1 at 1s for -1ms",                // negative duration
      "pcie-corrupt 0 rate 7 at 1s for 1s",    // rate above 1
      "pcie-corrupt 0 rate nan at 1s for 1s",  // NaN rate
      "link-fault drop=nan at 1s for 1s",      // NaN probability
      "link-fault corrupt=-0.5 at 1s for 1s",  // negative probability
      "crash 1 at 1s for 1s 2s",               // trailing token
      "link-fault drop=0.1 at 1s for 1s extra",  // trailing token
  };
  for (const char* text : bad) {
    std::string error;
    EXPECT_FALSE(netsim::FaultPlan::parse(text, &error).has_value()) << text;
    EXPECT_NE(error.find("line 1"), std::string::npos) << error;
  }
}

/// Field-for-field equality of two plans, doubles compared exactly.
::testing::AssertionResult SamePlan(const netsim::FaultPlan& p,
                                    const netsim::FaultPlan& q) {
  if (p.size() != q.size()) {
    return ::testing::AssertionFailure()
           << p.size() << " vs " << q.size() << " actions";
  }
  for (std::size_t i = 0; i < p.size(); ++i) {
    const netsim::FaultAction& a = p.actions[i];
    const netsim::FaultAction& b = q.actions[i];
    if (a.kind != b.kind || a.at != b.at || a.duration != b.duration ||
        a.node != b.node || a.rate != b.rate || a.bank != b.bank ||
        a.group_a != b.group_a || a.group_b != b.group_b ||
        a.fault.drop_prob != b.fault.drop_prob ||
        a.fault.dup_prob != b.fault.dup_prob ||
        a.fault.corrupt_prob != b.fault.corrupt_prob ||
        a.fault.reorder_jitter != b.fault.reorder_jitter) {
      return ::testing::AssertionFailure() << "action " << i << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(ChaosPlan, PrintedPlanReplaysExactly) {
  // Drawn rates and drop probabilities have all 17 significant digits;
  // the printed plan must carry every one of them.
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const netsim::FaultPlan p = verify::random_fault_plan(seed, 3, sec(30));
    std::string error;
    const auto q = netsim::FaultPlan::parse(p.to_text(), &error);
    ASSERT_TRUE(q.has_value()) << "seed " << seed << ": " << error;
    EXPECT_TRUE(SamePlan(p, *q)) << "seed " << seed << ":\n" << p.to_text();
  }
}

/// The plan section of every checked-in tests/corpus file.
std::vector<std::string> corpus_plans() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(IPIPE_CORPUS_DIR)) {
    if (entry.path().extension() == ".corpus") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  std::vector<std::string> plans;
  for (const auto& file : files) {
    std::ifstream in(file);
    std::stringstream text;
    text << in.rdbuf();
    const auto at = text.str().find("plan:\n");
    if (at != std::string::npos) plans.push_back(text.str().substr(at + 6));
  }
  return plans;
}

TEST(ChaosPlan, MutatedPlansNeverCrashAndRoundTrip) {
  std::vector<std::string> seeds = corpus_plans();
  ASSERT_FALSE(seeds.empty()) << IPIPE_CORPUS_DIR;
  seeds.push_back(kFullGrammar);
  // Single directives too, so edits reach past the first line's verb.
  for (std::size_t i = 0, n = seeds.size(); i < n; ++i) {
    std::istringstream lines(seeds[i]);
    for (std::string line; std::getline(lines, line);) seeds.push_back(line);
  }
  for (const std::string& seed_text : seeds) {
    const auto plan = netsim::FaultPlan::parse(seed_text);
    ASSERT_TRUE(plan.has_value()) << seed_text;
  }

  Rng rng(18);
  std::size_t parsed = 0;
  for (int i = 0; i < 4000; ++i) {
    const std::string text =
        fuzztest::mutate(seeds[i % seeds.size()], rng);
    std::string error;
    const auto p = netsim::FaultPlan::parse(text, &error);
    if (!p) {
      EXPECT_EQ(error.rfind("line ", 0), 0u) << text << " -> " << error;
      continue;
    }
    ++parsed;
    const std::string printed = p->to_text();
    const auto q = netsim::FaultPlan::parse(printed, &error);
    ASSERT_TRUE(q.has_value()) << text << " -> " << printed << " -> " << error;
    EXPECT_TRUE(SamePlan(*p, *q)) << text << " -> " << printed;
    EXPECT_EQ(q->to_text(), printed) << text;
  }
  // The mix must exercise both outcomes, not just the error path.
  EXPECT_GT(parsed, 400u);
  EXPECT_LT(parsed, 3600u);
}

// ------------------------------------------ fabric counters + client retry --

constexpr std::uint16_t kEchoReq = 1;
constexpr std::uint16_t kEchoRep = 2;

class EchoActor final : public Actor {
 public:
  EchoActor() : Actor("chaos-echo") {}
  void handle(ActorEnv& env, const netsim::Packet& req) override {
    env.charge(usec(2));
    env.reply(req, kEchoRep, {});
  }
};

ClientGen::MakeReq echo_to(netsim::NodeId node, ActorId actor) {
  return [node, actor](std::uint64_t, Rng&, netsim::PacketPool& pool) {
    auto pkt = pool.make();
    pkt->dst = node;
    pkt->dst_actor = actor;
    pkt->msg_type = kEchoReq;
    pkt->frame_size = 256;
    return pkt;
  };
}

TEST(ChaosNet, CorruptionIsCountedAndDiscarded) {
  ParallelCluster cluster(kTorLatency);
  auto& server = cluster.add_server(ServerSpec{});
  const ActorId echo =
      server.runtime().register_actor(std::make_unique<EchoActor>());

  netsim::FaultModel fm;
  fm.corrupt_prob = 0.2;
  cluster.net().set_fault_model(fm);

  auto& client = cluster.add_client(10.0, echo_to(0, echo));
  client.enable_retries({.timeout = msec(2), .max_retries = 20,
                         .backoff = 1.5, .cap = msec(20)});
  client.start_closed_loop(2, msec(50));
  cluster.run_until(msec(100));

  // Corrupt frames consume wire time but are FCS-discarded and counted.
  EXPECT_GT(cluster.net().frames_corrupted(), 0u);
  EXPECT_GE(cluster.net().dropped_fault(), cluster.net().frames_corrupted());
  EXPECT_GE(cluster.net().frames_dropped(), cluster.net().frames_corrupted());
  // Retries rescue every request despite the corruption.
  EXPECT_GT(client.retransmits(), 0u);
  EXPECT_EQ(client.completed(), client.sent());
}

TEST(ChaosNet, PartitionBlocksTrafficUntilHealed) {
  ParallelCluster cluster(kTorLatency);
  auto& server = cluster.add_server(ServerSpec{});
  const ActorId echo =
      server.runtime().register_actor(std::make_unique<EchoActor>());
  auto chaos = cluster.make_chaos();

  netsim::FaultPlan plan;
  plan.partition({0}, {ParallelCluster::kClientBase}, msec(10), msec(30));
  chaos->execute(plan);

  auto& client = cluster.add_client(10.0, echo_to(0, echo));
  client.enable_retries({.timeout = msec(2), .max_retries = 50,
                         .backoff = 1.5, .cap = msec(10)});
  client.start_closed_loop(2, msec(60));
  cluster.run_until(msec(100));

  EXPECT_GT(cluster.net().dropped_partition(), 0u);
  EXPECT_EQ(chaos->partitions(), 1u);
  EXPECT_EQ(chaos->heals(), 1u);
  // Traffic resumes after the heal; retries bridge the outage.
  EXPECT_EQ(client.completed(), client.sent());
  // The event log recorded both edges in order.
  const std::string log = chaos->event_log_text();
  EXPECT_NE(log.find("partition"), std::string::npos);
  EXPECT_NE(log.find("heal"), std::string::npos);
}

// ------------------------------------------------------- event-log golden --

// Every verb's fire and heal line, both skipped(down) lines and the
// dispatch counters, pinned byte for byte: the event log is the record
// chaos digests hash, so a reworded line must fail here.
TEST(ChaosController, EventLogGolden) {
  ParallelCluster cluster(kTorLatency);
  for (int i = 0; i < 3; ++i) cluster.add_server(ServerSpec{});
  const ActorId echo =
      cluster.server(0).runtime().register_actor(std::make_unique<EchoActor>());
  auto chaos = cluster.make_chaos();

  std::string error;
  const auto plan = netsim::FaultPlan::parse(
      "crash 1 at 10ms for 20ms\n"
      "crash 1 at 15ms for 5ms\n"  // inside the first window: skipped
      "partition 0|1,2,1000 at 12ms for 6ms\n"
      "pcie-corrupt 0 rate 0.0123456789 at 20ms for 10ms\n"
      "link-fault drop=0.0123456789 dup=0.02 corrupt=0.03 jitter=5us "
      "at 25ms for 10ms\n"
      "nic-crash 2 at 30ms for 20ms\n"
      "nic-reset 2 at 35ms for 5ms\n"  // NIC already down: skipped
      "pcie-flap 0 at 40ms for 2ms\n"
      "accel-fail 1 bank 2 at 45ms for 10ms\n"
      "nic-reset 1 at 50ms for 5ms\n"
      "nic-crash 1 at 22ms for 1ms\n",  // whole node down: skipped
      &error);
  ASSERT_TRUE(plan.has_value()) << error;
  chaos->execute(*plan);

  auto& client = cluster.add_client(10.0, echo_to(0, echo));
  client.enable_retries({.timeout = msec(2), .max_retries = 50,
                         .backoff = 1.5, .cap = msec(10)});
  client.start_closed_loop(2, msec(80));
  cluster.run_until(msec(100));

  EXPECT_EQ(chaos->event_log_text(),
            "t=10000000 crash node=1 down_ns=20000000\n"
            "t=12000000 partition 0|1,2,1000 heal_ns=6000000\n"
            "t=15000000 crash node=1 skipped(down)\n"
            "t=18000000 heal\n"
            "t=20000000 pcie-corrupt node=0 rate=0.0123457\n"
            "t=22000000 nic-crash node=1 skipped(down)\n"
            "t=25000000 link-fault drop=0.0123457 dup=0.02 corrupt=0.03 jitter=5000\n"
            "t=30000000 restore node=1\n"
            "t=30000000 pcie-heal node=0\n"
            "t=30000000 nic-crash node=2 down_ns=20000000\n"
            "t=35000000 link-heal\n"
            "t=35000000 nic-reset node=2 skipped(down)\n"
            "t=40000000 pcie-flap node=0 down_ns=2000000\n"
            "t=42000000 pcie-up node=0\n"
            "t=45000000 accel-fail node=1 bank=2\n"
            "t=50000000 nic-restore node=2\n"
            "t=50000000 nic-reset node=1 down_ns=5000000\n"
            "t=55000000 accel-heal node=1 bank=2\n"
            "t=55000000 nic-restore node=1\n");
  EXPECT_EQ(chaos->crashes(), 1u);
  EXPECT_EQ(chaos->restores(), 1u);
  EXPECT_EQ(chaos->partitions(), 1u);
  EXPECT_EQ(chaos->heals(), 1u);
  EXPECT_EQ(chaos->nic_crashes(), 2u);
  EXPECT_EQ(chaos->nic_restores(), 2u);
}

// ------------------------------------------------------ actor supervision --

/// Overruns the watchdog budget on the first request only.
class CrashOnceActor final : public Actor {
 public:
  CrashOnceActor() : Actor("crash-once") {}
  void handle(ActorEnv& env, const netsim::Packet& req) override {
    if (!crashed_) {
      crashed_ = true;
      env.charge(msec(5));  // blows through the watchdog limit
      return;               // request dies with us
    }
    env.charge(usec(2));
    ++served_;
    env.reply(req, kEchoRep, {});
  }
  bool crashed_ = false;
  std::uint64_t served_ = 0;
};

TEST(Supervision, RestartsKilledActorAndServiceResumes) {
  ParallelCluster cluster(kTorLatency);
  ServerSpec spec;
  spec.ipipe.watchdog_limit = usec(500);
  spec.ipipe.supervise = true;
  spec.ipipe.supervise_restart_delay = usec(500);
  spec.ipipe.supervise_quarantine_after = 3;
  auto& server = cluster.add_server(spec);

  auto* actor = new CrashOnceActor();
  const ActorId id =
      server.runtime().register_actor(std::unique_ptr<Actor>(actor));

  auto& client = cluster.add_client(10.0, echo_to(0, id));
  client.enable_retries({.timeout = msec(2), .max_retries = 30,
                         .backoff = 1.5, .cap = msec(10)});
  client.start_closed_loop(2, msec(30));
  cluster.run_until(msec(60));

  EXPECT_GE(server.runtime().watchdog_kills(), 1u);
  EXPECT_GE(server.runtime().actor_restarts(), 1u);
  EXPECT_EQ(server.runtime().actors_quarantined(), 0u);
  ASSERT_NE(server.runtime().control(id), nullptr);
  EXPECT_FALSE(server.runtime().control(id)->killed) << "not restarted";
  EXPECT_GT(actor->served_, 0u) << "service never resumed after restart";
  EXPECT_EQ(client.completed(), client.sent());
}

TEST(Supervision, QuarantinesRepeatOffender) {
  ParallelCluster cluster(kTorLatency);
  ServerSpec spec;
  spec.ipipe.watchdog_limit = usec(500);
  spec.ipipe.supervise = true;
  spec.ipipe.supervise_restart_delay = usec(200);
  spec.ipipe.supervise_quarantine_after = 2;
  auto& server = cluster.add_server(spec);

  class AlwaysBad final : public Actor {
   public:
    AlwaysBad() : Actor("always-bad") {}
    void handle(ActorEnv& env, const netsim::Packet&) override {
      env.charge(msec(5));
    }
  };
  const ActorId id =
      server.runtime().register_actor(std::make_unique<AlwaysBad>());

  auto& client = cluster.add_client(10.0, echo_to(0, id));
  // Retries keep traffic flowing so every restart gets re-poisoned.
  client.enable_retries({.timeout = msec(2), .max_retries = 100,
                         .backoff = 1.2, .cap = msec(5)});
  client.start_closed_loop(4, msec(50));
  cluster.run_until(msec(100));

  EXPECT_EQ(server.runtime().actors_quarantined(), 1u);
  EXPECT_EQ(server.runtime().actor_restarts(), 2u);  // budget then quarantine
  ASSERT_NE(server.runtime().control(id), nullptr);
  EXPECT_TRUE(server.runtime().control(id)->killed);
}

// --------------------------------------------------- RKV election (unit) --

TEST(RkvElection, StaleBallotAndDuplicateVotesRejected) {
  rkv::RkvParams params;
  params.replicas = {0, 1, 2, 3, 4};  // majority = 3
  params.self_index = 1;
  params.peer_consensus_actor = 7;
  rkv::ConsensusActor actor(params, /*memtable=*/9);
  test::FakeEnv env(/*self=*/7);

  netsim::Packet trigger;
  trigger.msg_type = rkv::ConsensusActor::kElectTrigger;
  actor.handle(env, trigger);
  EXPECT_FALSE(actor.is_leader());
  EXPECT_EQ(actor.elections_started(), 1u);
  const std::uint64_t ballot = actor.ballot();
  EXPECT_EQ(ballot % params.replicas.size(), params.self_index);

  const auto vote_from = [&](netsim::NodeId node, std::uint64_t b) {
    rkv::PromiseMsg pm;
    pm.ballot = b;
    netsim::Packet vote;
    vote.msg_type = rkv::kPaxosPromise;
    vote.src = node;
    vote.payload = pm.encode();
    actor.handle(env, vote);
  };

  // A vote for an older candidacy never counts.
  vote_from(0, ballot - params.replicas.size());
  EXPECT_FALSE(actor.is_leader());
  // First real vote: 2 of 3 needed — not yet.
  vote_from(0, ballot);
  EXPECT_FALSE(actor.is_leader());
  // The same replica voting twice still counts once.
  vote_from(0, ballot);
  EXPECT_FALSE(actor.is_leader());
  // A stale vote from a fresh replica doesn't help either.
  vote_from(2, ballot - params.replicas.size());
  EXPECT_FALSE(actor.is_leader());
  // Second distinct valid vote: majority.
  vote_from(2, ballot);
  EXPECT_TRUE(actor.is_leader());
}

// ------------------------------------------------- RKV chaos harness/e2e --


TEST(RkvFailover, LeaderCrashLosesNoAckedWrite) {
  // Compressed chaos scenario: the guaranteed backbone (leader crash,
  // partition, corrupting fabric) inside five virtual minutes.
  const auto r = run_rkv_chaos(/*seed=*/7, /*total_secs=*/300.0);
  EXPECT_EQ(r.lost, 0u);
  EXPECT_EQ(r.verified, r.acked) << "read-back sweep did not finish";
  EXPECT_GT(r.acked, 100u);
  EXPECT_GT(r.elections, 0u) << "leader crash never triggered an election";
  EXPECT_EQ(r.leaders, 1) << "cluster did not converge on one leader";
  EXPECT_GT(r.corrupted, 0u);
}

TEST(RkvFailover, SimultaneousCandidatesConvergeToOneLeader) {
  ParallelCluster cluster(kTorLatency);
  for (int i = 0; i < 3; ++i) cluster.add_server(ServerSpec{});
  const auto deps = testbed::deploy_rkv_group(
      cluster, {.replicas = {0, 1, 2},
                .enable_failover = true,
                .heartbeat_period = msec(50),
                .election_timeout_min = msec(100),
                .election_timeout_max = msec(200)});

  // Both followers stand for election in the same instant: a split vote
  // the randomized (seeded per-replica) timeouts must untangle.
  const auto trigger = [&](netsim::NodeId node) {
    auto pkt = netsim::alloc_packet();
    pkt->src = node;
    pkt->dst = node;
    pkt->dst_actor = deps[node].consensus;
    pkt->msg_type = rkv::ConsensusActor::kElectTrigger;
    pkt->frame_size = 64;
    pkt->nic_arrival = cluster.server(node).sim().now();
    cluster.server(node).nic().tm().push(std::move(pkt));
  };
  for (const netsim::NodeId node : {1u, 2u}) {
    cluster.server(node).sim().schedule_at(msec(1),
                                           [&trigger, node] { trigger(node); });
  }
  cluster.run_until(sec(3));

  int leaders = 0;
  std::uint64_t elections = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    auto* c = dynamic_cast<rkv::ConsensusActor*>(
        cluster.server(i).runtime().find_actor(deps[i].consensus));
    if (c->is_leader()) ++leaders;
    elections += c->elections_started();
  }
  EXPECT_EQ(leaders, 1);
  EXPECT_GE(elections, 2u);  // both candidacies really started
}


TEST(DtChaos, AbortsReleaseLocksOnLossyFabric) {
  // Satellite regression: abort-path unlocks are retransmitted until
  // acked, so a lossy fabric cannot leave a record locked forever.
  ParallelCluster cluster(kTorLatency);
  for (int i = 0; i < 3; ++i) cluster.add_server(ServerSpec{});
  dt::DtRecoveryParams recovery;
  recovery.enabled = true;
  recovery.cluster = {0, 1, 2};
  std::vector<dt::DtDeployment> deps;
  for (std::size_t i = 0; i < 3; ++i) {
    deps.push_back(dt::deploy_dt(cluster.server(i).runtime(),
                                 /*with_coordinator=*/i == 0, recovery));
  }

  netsim::FaultModel lossy;
  lossy.drop_prob = 0.25;
  lossy.dup_prob = 0.05;
  cluster.net().set_fault_model(lossy);
  cluster.net().sim().schedule_at(msec(600), [&] {
    cluster.net().set_fault_model(netsim::FaultModel{});
  });

  // Hammer two hot keys: concurrent transactions are guaranteed to
  // collide on locks and abort.
  auto& client = cluster.add_client(
      10.0, [&](std::uint64_t seq, Rng&, netsim::PacketPool& pool) {
        auto pkt = pool.make();
        pkt->dst = 0;
        pkt->dst_actor = deps[0].coordinator;
        pkt->msg_type = dt::kTxnRequest;
        pkt->frame_size = 512;
        dt::TxnRequest txn;
        txn.reads.push_back({1, "hot" + std::to_string(seq % 2)});
        txn.writes.push_back(
            {2, "hot" + std::to_string(seq % 2), {static_cast<std::uint8_t>(seq)}});
        pkt->payload = txn.encode();
        return pkt;
      });
  client.enable_retries({.timeout = msec(50), .max_retries = 5,
                         .backoff = 2.0, .cap = msec(400)});
  client.start_closed_loop(6, msec(500));
  cluster.run_until(sec(3));

  auto* coord = dynamic_cast<dt::CoordinatorActor*>(
      cluster.server(0).runtime().find_actor(deps[0].coordinator));
  EXPECT_GT(coord->aborted(), 0u) << "no lock conflicts provoked";
  EXPECT_GT(coord->committed(), 0u);
  EXPECT_GT(coord->retransmits(), 0u);
  EXPECT_EQ(coord->in_flight(), 0u) << "transactions stuck after drain";
  for (std::size_t i = 0; i < 3; ++i) {
    auto* part = dynamic_cast<dt::ParticipantActor*>(
        cluster.server(i).runtime().find_actor(deps[i].participant));
    EXPECT_EQ(part->locked_count(), 0u) << "dangling lock on node " << i;
  }
  auto* log = dynamic_cast<dt::LogActor*>(
      cluster.server(0).runtime().find_actor(deps[0].log));
  EXPECT_EQ(log->unresolved(), 0u);
}

TEST(DtChaos, CoordinatorRestartResolvesInDoubtTxns) {
  ParallelCluster cluster(kTorLatency);
  for (int i = 0; i < 3; ++i) cluster.add_server(ServerSpec{});
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
  plan.crash(0, msec(50), msec(100));
  chaos->execute(plan);

  // A wide closed-loop window keeps the coordinator's log/commit pipeline
  // populated, so the crash is guaranteed to strand logged-but-unresolved
  // transactions.  Mostly-disjoint keys: commits dominate over aborts.
  auto& client = cluster.add_client(
      10.0, [&](std::uint64_t seq, Rng&, netsim::PacketPool& pool) {
        auto pkt = pool.make();
        pkt->dst = 0;
        pkt->dst_actor = deps[0].coordinator;
        pkt->msg_type = dt::kTxnRequest;
        pkt->frame_size = 512;
        dt::TxnRequest txn;
        txn.writes.push_back({1, "ka" + std::to_string(seq % 128), {7}});
        txn.writes.push_back({2, "kb" + std::to_string(seq % 128), {8}});
        pkt->payload = txn.encode();
        return pkt;
      });
  client.enable_retries({.timeout = msec(50), .max_retries = 6,
                         .backoff = 2.0, .cap = msec(400)});
  client.start_closed_loop(48, msec(300));
  cluster.run_until(sec(3));

  auto* coord = dynamic_cast<dt::CoordinatorActor*>(
      cluster.server(0).runtime().find_actor(deps[0].coordinator));
  auto* log = dynamic_cast<dt::LogActor*>(
      cluster.server(0).runtime().find_actor(deps[0].log));
  // The restarted coordinator replayed its in-doubt transactions and the
  // recover-locks broadcast released every stale lock.
  EXPECT_GE(coord->recovered_txns(), 1u) << "crash hit no in-doubt txn";
  EXPECT_EQ(log->unresolved(), 0u);
  EXPECT_EQ(coord->in_flight(), 0u);
  for (std::size_t i = 0; i < 3; ++i) {
    auto* part = dynamic_cast<dt::ParticipantActor*>(
        cluster.server(i).runtime().find_actor(deps[i].participant));
    EXPECT_EQ(part->locked_count(), 0u) << "dangling lock on node " << i;
  }
  // Service recovered: commits continued after the restart.
  EXPECT_GT(coord->committed(), 0u);
}

}  // namespace
}  // namespace ipipe
