// NIC device failure model: host-side firmware watchdog, crash-consistent
// emergency evacuation to the host, degraded-mode serving, re-offload on
// revival, accelerator-bank software fallback, and the satellite
// robustness fixes that ride along (restart-episode decay; faults
// injected mid-migration must commit or roll back without losing or
// duplicating actor state).
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <span>
#include <string>

#include "ipipe/runtime.h"
#include "netsim/chaos.h"
#include "nic/accelerator.h"
#include "testbed/cluster.h"
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

ClientGen::MakeReq echo_to(netsim::NodeId node, ActorId actor,
                           std::uint32_t frame = 256) {
  workloads::EchoWorkloadParams p;
  p.server = node;
  p.frame_size = frame;
  p.actor = actor;
  p.msg_type = kEchoReq;
  return workloads::echo_workload(p);
}

/// Echo actor whose state is a DMO blob with a known fill pattern —
/// evacuation/migration has real bytes to preserve, and every request
/// probes one byte so corruption is observed, not assumed away.
class StatefulEcho final : public Actor {
 public:
  explicit StatefulEcho(std::uint32_t state_bytes, Ns cost = usec(2))
      : Actor("stateful-echo"), state_bytes_(state_bytes), cost_(cost) {}

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
    if (byte != 0x5A) ++bad_reads_;
    ++counter_;
    ++served_;
    env.reply(req, kEchoRep, {});
  }

  ObjId obj_ = kInvalidObj;
  bool last_on_nic_ = true;
  std::uint32_t state_bytes_;
  Ns cost_;
  std::uint64_t counter_ = 0;
  std::uint64_t served_ = 0;
  std::uint64_t bad_reads_ = 0;
};

ServerSpec watchdog_spec() {
  ServerSpec spec;
  spec.ipipe.nic_watchdog = true;
  spec.ipipe.watchdog_heartbeat = usec(100);
  spec.ipipe.watchdog_miss_limit = 3;
  spec.ipipe.watchdog_probe_cap = msec(1);
  return spec;
}

// ------------------------------------------------- watchdog + evacuation --

TEST(NicFailover, CrashEvacuatesServesDegradedAndReoffloads) {
  ParallelCluster cluster(kTorLatency);
  auto& server = cluster.add_server(watchdog_spec());
  auto chaos = cluster.make_chaos();

  auto* actor = new StatefulEcho(64 * 1024);
  const ActorId id =
      server.runtime().register_actor(std::unique_ptr<Actor>(actor));

  netsim::FaultPlan plan;
  plan.nic_crash(0, msec(10), msec(20));
  chaos->execute(plan);

  auto& client = cluster.add_client(10.0, echo_to(0, id));
  client.enable_retries({.timeout = msec(2), .max_retries = 50,
                         .backoff = 1.5, .cap = msec(10)});
  client.start_closed_loop(2, msec(60));
  cluster.run_until(msec(100));

  auto& rt = server.runtime();
  // The watchdog noticed the silence and force-evacuated the actor.
  EXPECT_GE(rt.watchdog_trips(), 1u);
  EXPECT_EQ(rt.evacuations(), 1u);
  EXPECT_GE(rt.evacuated_actors(), 1u);
  EXPECT_GT(rt.evac_replayed_bytes(), 0u) << "mirror replay ran";
  EXPECT_EQ(rt.evac_lost_bytes(), 0u) << "mirror means nothing is lost";
  // Degraded mode genuinely served requests from the host.
  EXPECT_GT(rt.requests_on_host(), 0u);
  // Revival re-offloaded the actor back onto the NIC.
  EXPECT_GE(rt.reoffloads(), 1u);
  const auto* control = rt.control(id);
  ASSERT_NE(control, nullptr);
  EXPECT_EQ(control->mig, MigState::kStable);
  EXPECT_FALSE(control->evacuated);
  EXPECT_EQ(control->loc, ActorLoc::kNic) << "offload was re-established";
  EXPECT_TRUE(actor->last_on_nic_);
  // Crash-consistent: the DMO pattern survived the device loss.
  EXPECT_EQ(actor->bad_reads_, 0u);
  // Zero lost acked requests: retries bridge the outage.
  EXPECT_EQ(client.completed(), client.sent());
  // The chaos log recorded both edges.
  EXPECT_EQ(chaos->nic_crashes(), 1u);
  EXPECT_EQ(chaos->nic_restores(), 1u);
  const std::string log = chaos->event_log_text();
  EXPECT_NE(log.find("nic-crash"), std::string::npos);
  EXPECT_NE(log.find("nic-restore"), std::string::npos);
}

TEST(NicFailover, EvacuationWithoutMirrorLosesNicResidentBytes) {
  ParallelCluster cluster(kTorLatency);
  ServerSpec spec = watchdog_spec();
  spec.ipipe.dmo_host_mirror = false;
  auto& server = cluster.add_server(spec);
  auto chaos = cluster.make_chaos();

  auto* actor = new StatefulEcho(32 * 1024);
  const ActorId id =
      server.runtime().register_actor(std::unique_ptr<Actor>(actor));

  netsim::FaultPlan plan;
  plan.nic_reset(0, msec(10), msec(20));
  chaos->execute(plan);

  auto& client = cluster.add_client(10.0, echo_to(0, id));
  client.enable_retries({.timeout = msec(2), .max_retries = 50,
                         .backoff = 1.5, .cap = msec(10)});
  client.start_closed_loop(2, msec(60));
  cluster.run_until(msec(100));

  auto& rt = server.runtime();
  EXPECT_EQ(rt.evacuations(), 1u);
  EXPECT_EQ(rt.evac_replayed_bytes(), 0u);
  EXPECT_GT(rt.evac_lost_bytes(), 0u) << "no mirror: NIC bytes are gone";
  // The actor survived (zero-filled objects), service continued.
  EXPECT_GT(actor->bad_reads_, 0u) << "data loss must be observable";
  EXPECT_EQ(client.completed(), client.sent());
}

TEST(NicFailover, PcieFlapParksTrafficWithoutWatchdogTrip) {
  // A short flap heals before the watchdog's miss budget expires: the
  // channel parks and retransmits, nothing is evacuated, nothing is lost.
  ParallelCluster cluster(kTorLatency);
  ServerSpec spec = watchdog_spec();
  spec.ipipe.watchdog_miss_limit = 40;  // miss budget outlives the flap
  auto& server = cluster.add_server(spec);
  auto chaos = cluster.make_chaos();

  auto* actor = new StatefulEcho(16 * 1024);
  const ActorId id =
      server.runtime().register_actor(std::unique_ptr<Actor>(actor));

  netsim::FaultPlan plan;
  plan.pcie_flap(0, msec(10), msec(2));
  chaos->execute(plan);

  auto& client = cluster.add_client(10.0, echo_to(0, id));
  client.enable_retries({.timeout = msec(2), .max_retries = 50,
                         .backoff = 1.5, .cap = msec(10)});
  client.start_closed_loop(2, msec(40));
  cluster.run_until(msec(60));

  auto& rt = server.runtime();
  EXPECT_EQ(rt.watchdog_trips(), 0u);
  EXPECT_EQ(rt.evacuations(), 0u);
  EXPECT_EQ(client.completed(), client.sent());
  EXPECT_EQ(actor->bad_reads_, 0u);
  EXPECT_NE(chaos->event_log_text().find("pcie-flap"), std::string::npos);
}

TEST(NicFailover, LongPcieFlapTripsWatchdogThenReoffloads) {
  // The NIC is alive but unreachable: pongs cannot cross the dead link,
  // so the host must declare it failed anyway (fail-silent model), serve
  // from the host, and re-offload when the first pong crosses the healed
  // link.
  ParallelCluster cluster(kTorLatency);
  auto& server = cluster.add_server(watchdog_spec());
  auto chaos = cluster.make_chaos();

  auto* actor = new StatefulEcho(16 * 1024);
  const ActorId id =
      server.runtime().register_actor(std::unique_ptr<Actor>(actor));

  netsim::FaultPlan plan;
  plan.pcie_flap(0, msec(10), msec(15));
  chaos->execute(plan);

  auto& client = cluster.add_client(10.0, echo_to(0, id));
  client.enable_retries({.timeout = msec(2), .max_retries = 50,
                         .backoff = 1.5, .cap = msec(10)});
  client.start_closed_loop(2, msec(60));
  cluster.run_until(msec(100));

  auto& rt = server.runtime();
  EXPECT_GE(rt.watchdog_trips(), 1u);
  EXPECT_GE(rt.evacuations(), 1u);
  EXPECT_GE(rt.reoffloads(), 1u);
  const auto* control = rt.control(id);
  ASSERT_NE(control, nullptr);
  EXPECT_EQ(control->mig, MigState::kStable);
  EXPECT_EQ(control->loc, ActorLoc::kNic);
  EXPECT_EQ(client.completed(), client.sent());
  EXPECT_EQ(actor->bad_reads_, 0u);
}

// ----------------------------------------------- accelerator-bank faults --

/// Echoes after running its payload through a NIC accelerator engine.
class AccelEcho final : public Actor {
 public:
  AccelEcho() : Actor("accel-echo") {}
  void handle(ActorEnv& env, const netsim::Packet& req) override {
    env.accel(nic::AccelKind::kCrc, req.frame_size, 1);
    ++served_;
    env.reply(req, kEchoRep, {});
  }
  std::uint64_t served_ = 0;
};

TEST(NicFailover, AccelBankFailureFallsBackToSoftware) {
  ParallelCluster cluster(kTorLatency);
  auto& server = cluster.add_server(ServerSpec{});
  auto chaos = cluster.make_chaos();

  auto* actor = new AccelEcho();
  const ActorId id =
      server.runtime().register_actor(std::unique_ptr<Actor>(actor));

  netsim::FaultPlan plan;
  plan.accel_fail(0, static_cast<std::uint32_t>(nic::AccelKind::kCrc),
                  msec(5), msec(10));
  chaos->execute(plan);

  auto& client = cluster.add_client(10.0, echo_to(0, id));
  client.start_closed_loop(2, msec(30));
  cluster.run_until(msec(40));

  auto& rt = server.runtime();
  EXPECT_GT(rt.accel_fallbacks(), 0u) << "software path was exercised";
  // Correctness is non-negotiable: every request still completed.
  EXPECT_EQ(client.completed(), client.sent());
  EXPECT_FALSE(rt.nic().accel().any_failed()) << "bank healed after window";
  EXPECT_NE(chaos->event_log_text().find("accel-fail"), std::string::npos);
}

// -------------------------------------------- restart-episode decay (S2) --

/// Overruns the watchdog budget every `period`-th request, with long
/// healthy stretches in between — the repeat-offender pattern stretched
/// out over virtual hours of good behavior.
class PeriodicOffender final : public Actor {
 public:
  explicit PeriodicOffender(std::uint64_t period)
      : Actor("periodic-offender"), period_(period) {}
  void handle(ActorEnv& env, const netsim::Packet& req) override {
    if (++seen_ % period_ == 0) {
      env.charge(msec(5));  // blows through the watchdog limit
      return;
    }
    env.charge(usec(2));
    ++served_;
    env.reply(req, kEchoRep, {});
  }
  std::uint64_t seen_ = 0;
  std::uint64_t served_ = 0;

 private:
  std::uint64_t period_;
};

ServerSpec supervision_spec(Ns decay) {
  ServerSpec spec;
  spec.ipipe.watchdog_limit = usec(500);
  spec.ipipe.supervise = true;
  spec.ipipe.supervise_restart_delay = usec(200);
  spec.ipipe.supervise_quarantine_after = 2;
  spec.ipipe.supervise_restart_decay = decay;
  return spec;
}

std::uint64_t run_offender(ParallelCluster& cluster, ServerSpec spec) {
  auto& server = cluster.add_server(spec);
  const ActorId id = server.runtime().register_actor(
      std::make_unique<PeriodicOffender>(4000));
  auto& client = cluster.add_client(10.0, echo_to(0, id));
  client.enable_retries({.timeout = msec(2), .max_retries = 100,
                         .backoff = 1.2, .cap = msec(5)});
  client.start_closed_loop(4, msec(120));
  cluster.run_until(msec(150));
  return id;
}

TEST(Supervision, RestartEpisodesDecayAfterHealthyInterval) {
  // Without decay: crash episodes separated by milliseconds of healthy
  // service still accumulate, and the third one quarantines the actor
  // for good.
  ParallelCluster legacy(kTorLatency);
  run_offender(legacy, supervision_spec(0));
  EXPECT_EQ(legacy.server(0).runtime().actors_quarantined(), 1u)
      << "control run must reproduce the legacy quarantine";

  // With decay: each healthy stretch longer than the decay interval
  // resets the episode counter, so the long-lived actor is never one
  // fault away from permanent quarantine.
  ParallelCluster forgiving(kTorLatency);
  const ActorId id = run_offender(forgiving, supervision_spec(msec(3)));
  auto& rt = forgiving.server(0).runtime();
  EXPECT_GE(rt.restart_decays(), 1u);
  EXPECT_EQ(rt.actors_quarantined(), 0u);
  EXPECT_GE(rt.actor_restarts(), 3u)
      << "decay must have forgiven at least one full budget";
  const auto* control = rt.control(id);
  ASSERT_NE(control, nullptr);
  EXPECT_FALSE(control->quarantined);
}

// ------------------------------------- faults mid-migration (S3, Fig.18) --

/// Which device dies while the 4-phase migration is in flight.
enum class FaultMode { kNicCrash, kNodeCrash };

struct MigFaultCase {
  MigState trigger;  ///< fire the fault when the actor reaches this state
  FaultMode mode;
  const char* name;
};

std::string mig_case_name(const ::testing::TestParamInfo<MigFaultCase>& info) {
  return info.param.name;
}

class MigrationFault : public ::testing::TestWithParam<MigFaultCase> {};

TEST_P(MigrationFault, CompletesOrRollsBackWithoutLosingState) {
  const MigFaultCase param = GetParam();

  ParallelCluster cluster(kTorLatency);
  ServerSpec spec = watchdog_spec();
  spec.ipipe.mean_thresh = sec(1);  // suppress autonomous migrations
  spec.ipipe.tail_thresh = sec(1);
  auto& server = cluster.add_server(spec);

  auto* actor = new StatefulEcho(128 * 1024);
  const ActorId id =
      server.runtime().register_actor(std::unique_ptr<Actor>(actor));

  auto& client = cluster.add_client(10.0, echo_to(0, id));
  client.enable_retries({.timeout = msec(2), .max_retries = 80,
                         .backoff = 1.5, .cap = msec(10)});
  client.start_closed_loop(2, msec(60));

  auto& sim = server.sim();
  auto& rt = server.runtime();

  // Kick off a manual NIC->host migration once traffic is flowing.
  sim.schedule(msec(5), [&] {
    EXPECT_TRUE(rt.start_migration(id, ActorLoc::kHost));
  });

  // Poll the migration state machine at fine grain and fire the fault the
  // instant the target phase is observed.
  bool fired = false;
  bool missed = false;
  std::function<void()> poll = [&] {
    const auto* ac = rt.control(id);
    if (ac == nullptr) return;
    if (!fired && ac->mig == param.trigger) {
      fired = true;
      if (param.mode == FaultMode::kNicCrash) {
        rt.nic_crash();
        sim.schedule(msec(8), [&] { rt.nic_restore(); });
      } else {
        server.crash();
        sim.schedule(msec(8), [&] { server.restore(); });
      }
      return;
    }
    if (!fired && ac->mig == MigState::kStable && ac->migrations > 0) {
      missed = true;  // migration finished before the phase was seen
      return;
    }
    sim.schedule(100, poll);
  };
  sim.schedule(msec(5) + 100, poll);

  cluster.run_until(msec(100));

  ASSERT_TRUE(fired) << "fault never injected";
  EXPECT_FALSE(missed);
  const auto* control = rt.control(id);
  ASSERT_NE(control, nullptr);
  // The migration either committed or rolled back — never wedged.
  EXPECT_EQ(control->mig, MigState::kStable);
  EXPECT_FALSE(control->killed);
  EXPECT_TRUE(control->mig_buffer.empty())
      << "buffered requests must be re-delivered, not stranded";
  // The actor kept serving after recovery and its DMO pattern is intact
  // (a node crash wipes and re-inits; a NIC crash replays the mirror).
  EXPECT_GT(actor->served_, 0u);
  EXPECT_EQ(actor->bad_reads_, 0u);
  // Nothing acked was lost: the client's retries bridge every window.
  EXPECT_EQ(client.completed(), client.sent());
}

INSTANTIATE_TEST_SUITE_P(
    AllPhases, MigrationFault,
    ::testing::Values(
        MigFaultCase{MigState::kPrepare, FaultMode::kNicCrash,
                     "NicCrashDuringPrepare"},
        MigFaultCase{MigState::kReady, FaultMode::kNicCrash,
                     "NicCrashDuringTransfer"},
        MigFaultCase{MigState::kGone, FaultMode::kNicCrash,
                     "NicCrashDuringHandoff"},
        MigFaultCase{MigState::kClean, FaultMode::kNicCrash,
                     "NicCrashDuringForwarding"},
        MigFaultCase{MigState::kPrepare, FaultMode::kNodeCrash,
                     "NodeCrashDuringPrepare"},
        MigFaultCase{MigState::kReady, FaultMode::kNodeCrash,
                     "NodeCrashDuringTransfer"},
        MigFaultCase{MigState::kGone, FaultMode::kNodeCrash,
                     "NodeCrashDuringHandoff"},
        MigFaultCase{MigState::kClean, FaultMode::kNodeCrash,
                     "NodeCrashDuringForwarding"}),
    mig_case_name);

}  // namespace
}  // namespace ipipe
