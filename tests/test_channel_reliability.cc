// Reliability + backpressure layer of the host<->NIC message channel:
// ring-full sends park and retransmit (never drop), CRC-corrupt and
// desynced frames are redelivered, ordering survives backpressure, and
// an end-to-end fault-injection run loses zero messages.
#include <gtest/gtest.h>

#include <vector>

#include "ipipe/channel.h"
#include "ipipe/runtime.h"
#include "nic/dma_engine.h"
#include "sim/simulation.h"
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

// ---------------------------------------------------------- ring framing --

TEST(ChannelRingFraming, CorruptLenIsCountedNotFatal) {
  ChannelRing ring(4096);
  const std::vector<std::uint8_t> msg(64, 0xAA);
  ASSERT_TRUE(ring.push(msg));
  ASSERT_TRUE(ring.push(msg));
  // Trash the first frame's length field: the byte stream is desynced.
  ring.corrupt_byte(1, 0xFF);

  bool corrupt = false;
  std::size_t discarded = 0;
  const auto out = ring.pop(&corrupt, &discarded);
  EXPECT_FALSE(out.has_value());
  EXPECT_TRUE(corrupt);
  EXPECT_EQ(discarded, 2u) << "desync discards every unread frame";
  EXPECT_EQ(ring.framing_errors(), 1u);
  EXPECT_TRUE(ring.empty()) << "recovery skips all unread bytes";
  // The ring keeps working after recovery.
  ring.ack();
  ASSERT_TRUE(ring.push(msg));
  EXPECT_TRUE(ring.pop().has_value());
}

TEST(ChannelRingFraming, OversizedLenRejectedWithoutAbort) {
  ChannelRing ring(256);
  const std::vector<std::uint8_t> msg(100, 0x11);
  ASSERT_TRUE(ring.push(msg));
  // Force len far beyond capacity (high byte of the u32).
  ring.corrupt_byte(3, 0x7F);
  bool corrupt = false;
  EXPECT_FALSE(ring.pop(&corrupt).has_value());
  EXPECT_TRUE(corrupt);
  EXPECT_EQ(ring.framing_errors(), 1u);
}

// --------------------------------------------------- channel reliability --

class ChannelReliabilityTest : public ::testing::Test {
 protected:
  ChannelReliabilityTest()
      : dma(sim, nic::DmaTiming{}), chan(sim, dma, 1024) {}

  static ChannelMsg make_msg(std::uint16_t tag) {
    ChannelMsg msg;
    msg.dst_actor = 1;
    msg.msg_type = tag;
    msg.payload.assign(52, static_cast<std::uint8_t>(tag));
    return msg;
  }

  /// Drive the event loop, draining host-side deliveries, until `n`
  /// messages arrived or the simulation goes quiet.
  std::vector<ChannelMsg> drain_host(std::size_t n) {
    std::vector<ChannelMsg> got;
    for (;;) {
      while (auto msg = chan.host_poll()) {
        got.push_back(*msg);
        if (got.size() == n) return got;
      }
      if (!sim.step()) break;  // event queue empty: nothing more can arrive
    }
    return got;
  }

  sim::Simulation sim;
  nic::DmaEngine dma;
  MessageChannel chan;
};

TEST_F(ChannelReliabilityTest, RingFullSendParksAndRetransmits) {
  // ~116B frames into a 1KB ring: far more sends than fit at once.
  constexpr std::size_t kCount = 64;
  for (std::size_t i = 0; i < kCount; ++i) {
    const auto ticket = chan.send_or_queue_to_host(make_msg(
        static_cast<std::uint16_t>(i)));
    // Always accepted, never an error to handle at the call site.
    (void)ticket;
  }
  const auto& st = chan.to_host_stats();
  EXPECT_GT(st.queued, 0u) << "the ring cannot hold 64 frames at once";

  const auto got = drain_host(kCount);
  ASSERT_EQ(got.size(), kCount) << "no message may be lost";
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(got[i].msg_type, i) << "order must be preserved";
  }
  EXPECT_GT(st.drops_avoided, 0u);
  EXPECT_GT(st.backpressure_events, 0u);
  EXPECT_GT(st.backpressure_ns, 0u);
  EXPECT_GT(st.pending_high_watermark, 0u);
  EXPECT_GT(st.queue_delay.count(), 0u);
  EXPECT_EQ(st.sent, kCount);
}

TEST_F(ChannelReliabilityTest, CrcCorruptFrameIsRedelivered) {
  const std::size_t frame_start = chan.to_host_ring().write_pos();
  ASSERT_EQ(chan.send_or_queue_to_host(make_msg(7)).outcome,
            SendOutcome::kSent);
  // Flip a payload byte inside the pushed frame (8B framing + 56B header
  // + payload): the CRC check at the consumer must catch it.
  chan.to_host_ring_mut().corrupt_byte(frame_start + 8 + 60, 0xFF);

  const auto got = drain_host(1);
  ASSERT_EQ(got.size(), 1u) << "corrupt frame must be redelivered, not lost";
  EXPECT_EQ(got[0].msg_type, 7u);
  const auto& st = chan.to_host_stats();
  EXPECT_EQ(st.corrupt_frames, 1u);
  EXPECT_EQ(st.retransmits, 1u);
  EXPECT_GE(st.drops_avoided, 1u);
}

TEST_F(ChannelReliabilityTest, FramingDesyncRedeliversAllLostFrames) {
  const std::size_t frame_start = chan.to_host_ring().write_pos();
  for (std::uint16_t i = 0; i < 3; ++i) {
    ASSERT_EQ(chan.send_or_queue_to_host(make_msg(i)).outcome,
              SendOutcome::kSent);
  }
  // Corrupt the first frame's len field: the whole unread window is lost.
  chan.to_host_ring_mut().corrupt_byte(frame_start + 1, 0xFF);

  const auto got = drain_host(3);
  ASSERT_EQ(got.size(), 3u);
  for (std::uint16_t i = 0; i < 3; ++i) EXPECT_EQ(got[i].msg_type, i);
  const auto& st = chan.to_host_stats();
  EXPECT_EQ(st.framing_resyncs, 1u);
  EXPECT_EQ(st.retransmits, 3u);
}

TEST_F(ChannelReliabilityTest, OrderingUnderBackpressureAndCorruption) {
  // Random fault injection + a ring that is constantly full: messages
  // park, retransmit and reorder — the receiver must still see a strict
  // FIFO sequence with nothing lost and nothing duplicated.
  chan.set_fault_injection(0.05, /*seed=*/1234);
  constexpr std::size_t kCount = 200;
  std::size_t sent = 0;
  std::vector<ChannelMsg> got;
  while (got.size() < kCount) {
    if (sent < kCount) {
      chan.send_or_queue_to_host(make_msg(static_cast<std::uint16_t>(sent)));
      ++sent;
    }
    while (auto msg = chan.host_poll()) got.push_back(*msg);
    if (sent == kCount && !sim.step()) break;
    if (sent < kCount) sim.step();
  }
  ASSERT_EQ(got.size(), kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(got[i].msg_type, i) << "FIFO violated at " << i;
  }
  const auto& st = chan.to_host_stats();
  EXPECT_GT(st.corrupt_frames, 0u) << "fault injection should have fired";
  EXPECT_GT(st.retransmits, 0u);
  EXPECT_EQ(st.duplicates_dropped, 0u);
}

TEST_F(ChannelReliabilityTest, BothDirectionsIndependent) {
  chan.send_or_queue_to_host(make_msg(1));
  chan.send_or_queue_to_nic(make_msg(2));
  sim.run();
  const auto h = chan.host_poll();
  const auto n = chan.nic_poll();
  ASSERT_TRUE(h.has_value());
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(h->msg_type, 1u);
  EXPECT_EQ(n->msg_type, 2u);
  EXPECT_EQ(chan.to_host_stats().sent, 1u);
  EXPECT_EQ(chan.to_nic_stats().sent, 1u);
}

// ------------------------------------------------- retry backoff jitter --

/// Park a burst of sends behind a deliberately tiny ring and drain it,
/// returning the virtual finish time — a fingerprint of the exact retry
/// schedule (backoff + jitter decisions).  Also asserts the reliability
/// invariants: nothing lost, strict FIFO.
Ns run_parked_burst(ChannelTuning tuning) {
  sim::Simulation sim;
  nic::DmaEngine dma(sim, nic::DmaTiming{});
  MessageChannel chan(sim, dma, 512, tuning);
  constexpr std::size_t kCount = 64;
  for (std::size_t i = 0; i < kCount; ++i) {
    ChannelMsg msg;
    msg.dst_actor = 1;
    msg.msg_type = static_cast<std::uint16_t>(i);
    msg.payload.assign(52, static_cast<std::uint8_t>(i));
    chan.send_or_queue_to_host(msg);
  }
  std::size_t got = 0;
  for (;;) {
    while (auto m = chan.host_poll()) {
      EXPECT_EQ(m->msg_type, got) << "FIFO violated";
      ++got;
    }
    if (got == kCount || !sim.step()) break;
  }
  EXPECT_EQ(got, kCount) << "parked sends must never be lost";
  EXPECT_GT(chan.to_host_stats().queued, 0u) << "burst must actually park";
  return sim.now();
}

TEST(ChannelRetryJitter, DeterministicInSeedAndSensitiveToIt) {
  ChannelTuning tuning;
  tuning.retry_jitter = 0.5;
  tuning.jitter_seed = 42;
  const Ns a = run_parked_burst(tuning);
  const Ns b = run_parked_burst(tuning);
  EXPECT_EQ(a, b) << "same seed must replay byte-identically";

  tuning.jitter_seed = 43;
  const Ns c = run_parked_burst(tuning);
  EXPECT_NE(a, c) << "a different seed must perturb the retry schedule";
}

TEST(ChannelRetryJitter, JitterSpreadsRetriesWithoutBreakingReliability) {
  ChannelTuning plain;
  plain.retry_jitter = 0.0;
  const Ns baseline = run_parked_burst(plain);
  // jitter=0 is itself deterministic (the legacy schedule).
  EXPECT_EQ(baseline, run_parked_burst(plain));

  ChannelTuning jittered;
  jittered.retry_jitter = 0.5;
  const Ns spread = run_parked_burst(jittered);
  // Jitter only ever *adds* delay to a retry, so the jittered schedule
  // runs pointwise no earlier than the legacy one — and not identical.
  EXPECT_NE(spread, baseline);
  EXPECT_GE(spread, baseline);
}

TEST(ChannelRetryJitter, CapBoundsRetryLatencyAfterConsumerStall) {
  // A stalled consumer lets the backoff double all the way up; the cap
  // decides how long the first post-stall retry can lag.  A tight cap
  // must drain the backlog sooner than a loose one.
  const auto run = [](Ns cap) {
    sim::Simulation sim;
    nic::DmaEngine dma(sim, nic::DmaTiming{});
    ChannelTuning tuning;
    tuning.retry_cap = cap;
    tuning.retry_jitter = 0.25;
    MessageChannel chan(sim, dma, 256, tuning);
    for (std::size_t i = 0; i < 24; ++i) {
      ChannelMsg msg;
      msg.dst_actor = 1;
      msg.msg_type = static_cast<std::uint16_t>(i);
      msg.payload.assign(52, 0xCD);
      chan.send_or_queue_to_nic(msg);
    }
    // Stall: nobody polls while retries back off toward the cap.
    while (sim.now() < usec(300) && sim.step()) {
    }
    std::size_t got = 0;
    for (;;) {
      while (chan.nic_poll()) ++got;
      if (got == 24 || !sim.step()) break;
    }
    EXPECT_EQ(got, 24u);
    return sim.now();
  };
  EXPECT_LT(run(usec(8)), run(usec(512)));
}

// ------------------------------------------------------------ end-to-end --

/// Echo actor with a fixed service time; optionally host-pinned so every
/// request crosses the NIC->host channel.
class EchoActor : public Actor {
 public:
  explicit EchoActor(bool pinned, Ns cost = usec(2))
      : Actor("echo"), pinned_(pinned), cost_(cost) {}

  void handle(ActorEnv& env, const netsim::Packet& req) override {
    env.charge(cost_);
    ++handled_;
    env.reply(req, kEchoRep, {});
  }
  [[nodiscard]] bool host_pinned() const override { return pinned_; }

  std::uint64_t handled_ = 0;

 private:
  bool pinned_;
  Ns cost_;
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

// Acceptance: >=1% CRC corruption on a 4KB ring must lose zero messages
// end-to-end — every request eventually executes — with the recovery
// visible in the runtime's channel counters.
TEST(ChannelReliabilityE2E, FaultInjectionLosesNothing) {
  ParallelCluster cluster(kTorLatency);
  ServerSpec spec;
  spec.ipipe.channel_bytes = 4096;
  auto& server = cluster.add_server(spec);
  server.runtime().set_channel_fault(0.02);  // 2% of frames corrupted
  auto* actor = new EchoActor(/*pinned=*/true);
  const ActorId id =
      server.runtime().register_actor(std::unique_ptr<Actor>(actor));

  auto& client = cluster.add_client(10.0, to_actor(0, id));
  client.start_closed_loop(16, msec(30));
  // Generous drain window: backoff-delayed retransmits must all land.
  cluster.run_until(msec(60));

  EXPECT_GT(client.completed(), 1000u);
  EXPECT_EQ(client.completed(), client.sent())
      << "a request was lost despite the reliability layer";
  EXPECT_EQ(actor->handled_, client.sent());

  const auto& to_host = server.runtime().chan_to_host_stats();
  EXPECT_GT(to_host.corrupt_frames, 0u) << "fault injection never fired";
  EXPECT_GT(to_host.retransmits, 0u);
  EXPECT_GT(to_host.drops_avoided, 0u);
  EXPECT_GT(to_host.ring_high_watermark, 0u);
}

// Migration phase 4 forwards buffered requests over the channel; with a
// tiny ring under load the forwards hit ring-full and must park inside
// the channel instead of being dropped or stalling the migration.
TEST(ChannelReliabilityE2E, MigrationPhase4SurvivesFullRing) {
  ParallelCluster cluster(kTorLatency);
  ServerSpec spec;
  spec.ipipe.channel_bytes = 4096;
  spec.ipipe.enable_migration = false;  // only the manual migration below
  auto& server = cluster.add_server(spec);
  auto* actor = new EchoActor(/*pinned=*/false, usec(4));
  const ActorId id =
      server.runtime().register_actor(std::unique_ptr<Actor>(actor));

  auto& client = cluster.add_client(10.0, to_actor(0, id));
  client.start_closed_loop(32, msec(30));
  // Kick the migration mid-load so requests pile into the migration
  // buffer and phase 4 has real forwarding to do over the tiny ring.
  server.sim().schedule(msec(5), [&] {
    ASSERT_TRUE(server.runtime().start_migration(id, ActorLoc::kHost));
  });
  cluster.run_until(msec(60));

  const auto* control = server.runtime().control(id);
  ASSERT_NE(control, nullptr);
  EXPECT_EQ(control->mig, MigState::kStable) << "migration must complete";
  EXPECT_EQ(control->loc, ActorLoc::kHost);
  EXPECT_EQ(client.completed(), client.sent())
      << "phase-4 forwarding lost a request";
  EXPECT_GT(server.runtime().requests_on_host(), 0u);
}

// ------------------------------------------------- scheduler regressions --

// Retiring the last DRR core while DRR mailboxes still hold requests
// would strand them forever (FCFS cores never scan DRR mailboxes).
TEST(AutoscaleRegression, LastDrrCoreNotRetiredWithPendingWork) {
  ParallelCluster cluster(kTorLatency);
  ServerSpec spec;
  spec.ipipe.policy = SchedPolicy::kDrrOnly;
  auto& server = cluster.add_server(spec);
  auto* actor = new EchoActor(/*pinned=*/false);
  const ActorId id =
      server.runtime().register_actor(std::unique_ptr<Actor>(actor));
  auto& rt = server.runtime();
  ASSERT_EQ(rt.drr_cores(), 1u);

  // Park a request in the DRR mailbox by hand and try to retire.
  auto* control = rt.control(id);
  ASSERT_NE(control, nullptr);
  ASSERT_TRUE(control->is_drr);
  auto pkt = netsim::alloc_packet();
  pkt->dst_actor = id;
  pkt->msg_type = kEchoReq;
  control->mailbox.push_back(std::move(pkt));
  ASSERT_TRUE(rt.drr_work_pending());

  rt.retire_drr_core();
  EXPECT_EQ(rt.drr_cores(), 1u)
      << "must refuse to retire the last DRR core with pending mailboxes";

  // Once the mailbox drains, retiring is allowed again.
  control->mailbox.clear();
  EXPECT_FALSE(rt.drr_work_pending());
  rt.retire_drr_core();
  EXPECT_EQ(rt.drr_cores(), 0u);
}

// Forwarding-path stats must record the per-packet cost delta, not the
// cumulative slice time: forward-only traffic response estimates stay in
// the forwarding-cost ballpark even when a core handles a whole batch of
// packets within one slice.
TEST(SchedulerStatsRegression, ForwardOnlyResponseStaysBounded) {
  ParallelCluster cluster(kTorLatency);
  auto& server = cluster.add_server(ServerSpec{});
  workloads::EchoWorkloadParams p;
  p.server = 0;
  p.frame_size = 512;
  p.actor = netsim::kForwardOnly;
  p.msg_type = kEchoReq;
  // Open loop (forward-only traffic never generates replies, so a closed
  // loop would stall after one window): a dense burst forces multi-packet
  // core slices, which is where cumulative accounting inflated the stats.
  auto& client = cluster.add_client(10.0, workloads::echo_workload(p));
  client.start_open_loop(1e6, msec(2), /*poisson=*/false);
  cluster.run_until(msec(5));

  ASSERT_GT(server.runtime().fcfs_samples(), 100u);
  // Per-packet forwarding on the NIC costs a few microseconds; the old
  // cumulative-slice accounting summed every earlier packet in the batch
  // into each sample, inflating the mean by the batch length.
  EXPECT_LT(server.runtime().fcfs_stats().mean(),
            static_cast<double>(usec(20)));
}

}  // namespace
}  // namespace ipipe
