#include <gtest/gtest.h>

#include "ipipe/runtime.h"
#include "testbed/cluster.h"
#include "workloads/app_workloads.h"
#include "workloads/client.h"

namespace ipipe {
namespace {

using testbed::kTorLatency;
using testbed::ParallelCluster;
using testbed::Mode;
using testbed::ServerSpec;
using workloads::ClientGen;

constexpr std::uint16_t kEchoReq = 1;
constexpr std::uint16_t kEchoRep = 2;

/// Synthetic actor: echoes requests after charging a configurable
/// service-time distribution.
class SyntheticActor : public Actor {
 public:
  using CostFn = std::function<Ns(Rng&)>;

  SyntheticActor(std::string name, CostFn cost)
      : Actor(std::move(name)), cost_(std::move(cost)) {}

  void handle(ActorEnv& env, const netsim::Packet& req) override {
    env.charge(cost_(env.rng()));
    ++handled_;
    last_on_nic_ = env.on_nic();
    env.reply(req, kEchoRep, {});
  }

  std::uint64_t handled_ = 0;
  bool last_on_nic_ = true;

 private:
  CostFn cost_;
};

/// Actor whose state is a DMO blob — gives migrations real bytes to move.
class StatefulActor final : public Actor {
 public:
  explicit StatefulActor(std::uint32_t state_bytes, Ns cost = usec(2))
      : Actor("stateful"), state_bytes_(state_bytes), cost_(cost) {}

  void init(ActorEnv& env) override {
    obj_ = env.dmo_alloc(state_bytes_);
    env.dmo_memset(obj_, 0x5A, 0, state_bytes_);
  }

  void handle(ActorEnv& env, const netsim::Packet& req) override {
    env.charge(cost_);
    last_on_nic_ = env.on_nic();
    std::uint8_t byte = 0;
    env.dmo_read(obj_, counter_ % state_bytes_,
                 std::span<std::uint8_t>(&byte, 1));
    state_ok_ = state_ok_ && (byte == 0x5A);
    ++counter_;
    env.reply(req, kEchoRep, {});
  }

  ObjId obj_ = kInvalidObj;
  bool last_on_nic_ = true;
  std::uint32_t state_bytes_;
  Ns cost_;
  std::uint64_t counter_ = 0;
  bool state_ok_ = true;
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

TEST(Runtime, NicActorServesRequests) {
  ParallelCluster cluster(kTorLatency);
  auto& server = cluster.add_server(ServerSpec{});
  auto* actor = new SyntheticActor("echo", [](Rng&) { return usec(2); });
  const ActorId id = server.runtime().register_actor(
      std::unique_ptr<Actor>(actor));

  auto& client = cluster.add_client(10.0, to_actor(0, id));
  client.start_closed_loop(4, msec(20));
  cluster.run_until(msec(25));

  EXPECT_GT(client.completed(), 1000u);
  EXPECT_EQ(actor->handled_, client.completed());
  EXPECT_TRUE(actor->last_on_nic_);
  EXPECT_EQ(server.runtime().requests_on_host(), 0u);
  // End-to-end latency is a handful of microseconds (NIC fast path).
  EXPECT_LT(client.latencies().mean_ns(), usec(20));
}

TEST(Runtime, HostPinnedActorRunsOnHost) {
  ParallelCluster cluster(kTorLatency);
  auto& server = cluster.add_server(ServerSpec{});
  class Pinned final : public SyntheticActor {
   public:
    Pinned() : SyntheticActor("pinned", [](Rng&) { return usec(2); }) {}
    [[nodiscard]] bool host_pinned() const override { return true; }
  };
  auto* actor = new Pinned();
  const ActorId id =
      server.runtime().register_actor(std::unique_ptr<Actor>(actor));

  auto& client = cluster.add_client(10.0, to_actor(0, id));
  client.start_closed_loop(2, msec(10));
  cluster.run_until(msec(15));

  EXPECT_GT(client.completed(), 100u);
  EXPECT_FALSE(actor->last_on_nic_);
  EXPECT_GT(server.runtime().requests_on_host(), 0u);
  EXPECT_EQ(server.runtime().requests_on_nic(), 0u);
}

TEST(Runtime, DpdkModeRunsEverythingOnHost) {
  ParallelCluster cluster(kTorLatency);
  ServerSpec spec;
  spec.mode = Mode::kDpdk;
  auto& server = cluster.add_server(spec);
  auto* actor = new SyntheticActor("echo", [](Rng&) { return usec(2); });
  const ActorId id = server.runtime().register_actor(
      std::unique_ptr<Actor>(actor), server.default_loc());

  auto& client = cluster.add_client(10.0, to_actor(0, id));
  client.start_closed_loop(4, msec(10));
  cluster.run_until(msec(15));

  EXPECT_GT(client.completed(), 500u);
  EXPECT_FALSE(actor->last_on_nic_);
}

TEST(Runtime, HighDispersionActorDowngradedToDrr) {
  ParallelCluster cluster(kTorLatency);
  ServerSpec spec;
  spec.ipipe.tail_thresh = usec(40);
  spec.ipipe.enable_migration = false;  // isolate the downgrade mechanism
  auto& server = cluster.add_server(spec);

  // Bimodal service time: mostly cheap, occasionally very expensive.
  auto* actor = new SyntheticActor("bimodal", [](Rng& rng) {
    return rng.bernoulli(0.2) ? usec(120) : usec(3);
  });
  const ActorId id =
      server.runtime().register_actor(std::unique_ptr<Actor>(actor));

  auto& client = cluster.add_client(10.0, to_actor(0, id));
  client.start_closed_loop(8, msec(50));
  cluster.run_until(msec(60));

  EXPECT_GT(client.completed(), 500u);
  EXPECT_GE(server.runtime().downgrades(), 1u);
  EXPECT_GE(server.runtime().drr_cores(), 1u);
  const auto* control = server.runtime().control(id);
  ASSERT_NE(control, nullptr);
  EXPECT_TRUE(control->is_drr);
}

TEST(Runtime, OverloadTriggersPushMigrationToHost) {
  ParallelCluster cluster(kTorLatency);
  ServerSpec spec;
  spec.ipipe.mean_thresh = usec(25);
  auto& server = cluster.add_server(spec);

  // Expensive uniform cost: the wimpy NIC cores can't keep up with the
  // offered load, queueing builds, the scheduler sheds the actor.
  auto* actor = new StatefulActor(64 * 1024, usec(30));
  const ActorId id =
      server.runtime().register_actor(std::unique_ptr<Actor>(actor));

  auto& client = cluster.add_client(10.0, to_actor(0, id, 512));
  client.start_closed_loop(32, msec(80));
  cluster.run_until(msec(100));

  EXPECT_GE(server.runtime().push_migrations(), 1u);
  const auto* control = server.runtime().control(id);
  ASSERT_NE(control, nullptr);
  EXPECT_EQ(control->mig, MigState::kStable);
  // The actor genuinely served requests from the host while shed there.
  // (It may have been pulled back once the load stopped — that is the
  // scheduler doing its job.)
  EXPECT_GT(server.runtime().requests_on_host(), 100u);
  EXPECT_GT(client.completed(), 500u);
  EXPECT_TRUE(actor->state_ok_) << "DMO state corrupted by migration";
  // Phase times were recorded (Fig. 18 instrumentation).
  std::uint64_t total_phase = 0;
  for (const auto phase_ns : control->mig_phase_ns) total_phase += phase_ns;
  EXPECT_GT(total_phase, 0u);
}

TEST(Runtime, IdleNicPullsActorBack) {
  ParallelCluster cluster(kTorLatency);
  ServerSpec spec;
  spec.ipipe.mean_thresh = usec(25);
  spec.ipipe.alpha = 0.25;
  auto& server = cluster.add_server(spec);

  auto* actor = new StatefulActor(16 * 1024, usec(3));
  const ActorId id = server.runtime().register_actor(
      std::unique_ptr<Actor>(actor), ActorLoc::kHost);

  // Light load: the NIC is idle, so the scheduler pulls the actor back.
  auto& client = cluster.add_client(10.0, to_actor(0, id));
  client.start_closed_loop(1, msec(80));
  cluster.run_until(msec(100));

  EXPECT_GE(server.runtime().pull_migrations(), 1u);
  const auto* control = server.runtime().control(id);
  ASSERT_NE(control, nullptr);
  EXPECT_EQ(control->loc, ActorLoc::kNic);
  EXPECT_TRUE(actor->last_on_nic_);
  EXPECT_TRUE(actor->state_ok_);
}

TEST(Runtime, WatchdogKillsRunawayActor) {
  ParallelCluster cluster(kTorLatency);
  ServerSpec spec;
  spec.ipipe.watchdog_limit = usec(500);
  auto& server = cluster.add_server(spec);

  auto* bad = new SyntheticActor("runaway", [](Rng&) { return msec(5); });
  const ActorId bad_id =
      server.runtime().register_actor(std::unique_ptr<Actor>(bad));
  auto* good = new SyntheticActor("good", [](Rng&) { return usec(2); });
  const ActorId good_id =
      server.runtime().register_actor(std::unique_ptr<Actor>(good));

  auto& bad_client = cluster.add_client(10.0, to_actor(0, bad_id), 7);
  auto& good_client = cluster.add_client(10.0, to_actor(0, good_id), 8);
  bad_client.start_closed_loop(1, msec(20));
  good_client.start_closed_loop(2, msec(20));
  cluster.run_until(msec(25));

  EXPECT_GE(server.runtime().watchdog_kills(), 1u);
  ASSERT_NE(server.runtime().control(bad_id), nullptr);
  EXPECT_TRUE(server.runtime().control(bad_id)->killed);
  // Availability of other actors is preserved (§3.4 DoS protection).
  EXPECT_GT(good_client.completed(), 1000u);
}

TEST(Runtime, IsolationTrapKillsOffendingActor) {
  ParallelCluster cluster(kTorLatency);
  auto& server = cluster.add_server(ServerSpec{});

  // Victim allocates an object; the attacker guesses ids and pokes them.
  auto* victim = new StatefulActor(1024, usec(1));
  const ActorId victim_id =
      server.runtime().register_actor(std::unique_ptr<Actor>(victim));

  class Attacker final : public Actor {
   public:
    Attacker() : Actor("attacker") {}
    void handle(ActorEnv& env, const netsim::Packet& req) override {
      // Probe foreign object ids: every id in a fresh runtime is small.
      std::uint8_t buf = 0;
      for (ObjId id = 1; id <= 4; ++id) {
        env.dmo_read(id, 0, std::span<std::uint8_t>(&buf, 1));
      }
      env.reply(req, kEchoRep, {});
    }
  };
  auto* attacker = new Attacker();
  const ActorId attacker_id =
      server.runtime().register_actor(std::unique_ptr<Actor>(attacker));

  auto& client = cluster.add_client(10.0, to_actor(0, attacker_id));
  client.start_closed_loop(1, msec(5));
  cluster.run_until(msec(10));

  EXPECT_GE(server.runtime().isolation_kills(), 1u);
  EXPECT_TRUE(server.runtime().control(attacker_id)->killed);
  EXPECT_FALSE(server.runtime().control(victim_id)->killed);
  EXPECT_GT(server.runtime().objects().traps(), 0u);
}

TEST(Runtime, ForwardOnlyTrafficPassesThrough) {
  ParallelCluster cluster(kTorLatency);
  auto& server = cluster.add_server(ServerSpec{});
  (void)server;
  // Traffic addressed to no actor is forwarded to the host (and dropped
  // there, since no host app consumes it) without crashing the runtime.
  auto& client = cluster.add_client(
      10.0, to_actor(0, netsim::kForwardOnly));
  client.start_closed_loop(4, msec(5));
  cluster.run_until(msec(10));
  EXPECT_EQ(client.completed(), 0u);
  EXPECT_GT(server.nic().to_host_frames(), 0u);
}

TEST(Runtime, FcfsOnlyPolicyNeverDowngrades) {
  ParallelCluster cluster(kTorLatency);
  ServerSpec spec;
  spec.ipipe.policy = SchedPolicy::kFcfsOnly;
  spec.ipipe.tail_thresh = usec(10);  // would trigger constantly
  spec.ipipe.enable_migration = false;
  auto& server = cluster.add_server(spec);
  auto* actor = new SyntheticActor("bimodal", [](Rng& rng) {
    return rng.bernoulli(0.3) ? usec(80) : usec(3);
  });
  const ActorId id =
      server.runtime().register_actor(std::unique_ptr<Actor>(actor));
  auto& client = cluster.add_client(10.0, to_actor(0, id));
  client.start_closed_loop(6, msec(30));
  cluster.run_until(msec(35));
  EXPECT_EQ(server.runtime().downgrades(), 0u);
  EXPECT_EQ(server.runtime().drr_cores(), 0u);
  EXPECT_GT(client.completed(), 200u);
}

TEST(Runtime, LocalSendBetweenNicActors) {
  ParallelCluster cluster(kTorLatency);
  auto& server = cluster.add_server(ServerSpec{});

  class Sink final : public Actor {
   public:
    Sink() : Actor("sink") {}
    void handle(ActorEnv& env, const netsim::Packet& req) override {
      env.charge(usec(1));
      ++received_;
      if (req.src_actor != netsim::kForwardOnly && !req.payload.empty()) {
        last_payload_ = req.payload;
      }
    }
    std::uint64_t received_ = 0;
    std::vector<std::uint8_t> last_payload_;
  };
  class Forwarder final : public Actor {
   public:
    explicit Forwarder(ActorId sink) : Actor("fwd"), sink_(sink) {}
    void handle(ActorEnv& env, const netsim::Packet& req) override {
      env.charge(usec(1));
      env.local_send(sink_, 77, {1, 2, 3});
      env.reply(req, kEchoRep, {});
    }
    ActorId sink_;
  };

  auto* sink = new Sink();
  const ActorId sink_id =
      server.runtime().register_actor(std::unique_ptr<Actor>(sink));
  const ActorId fwd_id = server.runtime().register_actor(
      std::make_unique<Forwarder>(sink_id));

  auto& client = cluster.add_client(10.0, to_actor(0, fwd_id));
  client.start_closed_loop(2, msec(10));
  cluster.run_until(msec(15));

  EXPECT_GT(client.completed(), 100u);
  EXPECT_EQ(sink->received_, client.completed());
  EXPECT_EQ(sink->last_payload_, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(Runtime, ManualMigrationRoundTrip) {
  ParallelCluster cluster(kTorLatency);
  ServerSpec spec;
  spec.ipipe.enable_migration = false;  // only manual triggers
  auto& server = cluster.add_server(spec);
  auto* actor = new StatefulActor(256 * 1024, usec(2));
  const ActorId id =
      server.runtime().register_actor(std::unique_ptr<Actor>(actor));

  auto& client = cluster.add_client(10.0, to_actor(0, id));
  client.start_closed_loop(2, msec(200));

  server.sim().schedule(msec(20), [&] {
    EXPECT_TRUE(server.runtime().start_migration(id, ActorLoc::kHost));
  });
  server.sim().schedule(msec(100), [&] {
    EXPECT_TRUE(server.runtime().start_migration(id, ActorLoc::kNic));
  });
  cluster.run_until(msec(220));

  const auto* control = server.runtime().control(id);
  EXPECT_EQ(control->loc, ActorLoc::kNic);
  EXPECT_EQ(control->migrations, 2u);
  EXPECT_TRUE(actor->state_ok_);
  EXPECT_GT(client.completed(), 1000u);
  // The client saw every request eventually answered (nothing stuck).
  EXPECT_LT(client.sent() - client.completed(), 8u);
}

// ---- the management core wakes for its deadlines, not on a timer ----------

TEST(Runtime, IdleRuntimeSchedulesNothing) {
  ParallelCluster cluster(kTorLatency);
  auto& server = cluster.add_server(ServerSpec{});
  server.runtime().register_actor(std::make_unique<SyntheticActor>(
      "idle", [](Rng&) { return usec(2); }));
  cluster.run_until(msec(100));
  // A fixed 20 us heartbeat would run 5,000 management ticks here.
  EXPECT_LT(server.sim().executed(), 50u);
}

TEST(Runtime, SupervisedRestartLandsOnTheHeartbeatGrid) {
  ParallelCluster cluster(kTorLatency);
  ServerSpec spec;
  spec.ipipe.supervise = true;
  spec.ipipe.supervise_restart_delay = usec(500);
  auto& server = cluster.add_server(spec);
  Runtime& rt = server.runtime();
  const ActorId id = rt.register_actor(std::make_unique<SyntheticActor>(
      "victim", [](Rng&) { return usec(2); }));

  constexpr Ns kKilledAt = usec(1000) + 7;
  server.sim().schedule_at(kKilledAt, [&] { rt.kill_actor(id, false); });
  cluster.run_until(msec(5));

  // The restart delay ends at 1,500,007 ns; the management pass that acts
  // on it is the next 20 us heartbeat tick, as when core 0 polled.
  ASSERT_EQ(rt.actor_restarts(), 1u);
  EXPECT_FALSE(rt.control(id)->killed);
  EXPECT_EQ(rt.control(id)->last_revive_at, usec(1520));
}

TEST(Runtime, IdleDrrCoreIsRetiredByAutoscale) {
  ParallelCluster cluster(kTorLatency);
  auto& server = cluster.add_server(ServerSpec{});
  Runtime& rt = server.runtime();
  server.sim().schedule_at(usec(50), [&] { rt.spawn_drr_core(); });

  // The first autoscale window closes on the tick at 8 periods (160 us)
  // and finds the DRR group with nothing to run.
  cluster.run_until(usec(150));
  EXPECT_EQ(rt.drr_cores(), 1u);
  cluster.run_until(usec(170));
  EXPECT_EQ(rt.drr_cores(), 0u);
}

}  // namespace
}  // namespace ipipe
