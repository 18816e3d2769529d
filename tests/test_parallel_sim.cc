// Unit tests for the conservative parallel event engine (sim/parallel.h):
// window safety, cross-domain handoff ordering and cancellation, the
// rejection of zero-lookahead edges, pinned engine counters, and
// PeriodicTask ownership migrating across domains.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/parallel.h"
#include "sim/simulation.h"

namespace ipipe::sim {
namespace {

// FNV-1a step, for digesting engine counters.
std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(ParallelSim, SetupPostUsesFastPathAndRuns) {
  ParallelSimulation ps;
  const DomainId a = ps.add_domain();
  const DomainId b = ps.add_domain();
  ps.set_lookahead(a, b, 100);
  ps.set_lookahead(b, a, 100);

  int ran = 0;
  // Outside run(): post is a plain schedule_at, not cancellable.
  const HandoffId h = ps.post(b, 50, [&] { ++ran; });
  EXPECT_FALSE(h.valid());
  ps.domain(a).schedule_at(10, [&] { ++ran; });

  EXPECT_EQ(ps.run(1000), 1000u);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(ps.executed(), 2u);
  EXPECT_EQ(ps.domain(a).now(), 1000u);
  EXPECT_EQ(ps.domain(b).now(), 1000u);
}

TEST(ParallelSim, CrossDomainHandoffDeliversAtRequestedTime) {
  ParallelSimulation ps;
  const DomainId a = ps.add_domain();
  const DomainId b = ps.add_domain();
  ps.set_lookahead(a, b, 100);
  ps.set_lookahead(b, a, 100);

  Ns delivered_at = 0;
  ps.domain(a).schedule_at(500, [&] {
    EXPECT_EQ(ps.current_domain(), a);
    ps.post(b, 650, [&] {
      EXPECT_EQ(ps.current_domain(), b);
      delivered_at = ps.domain(b).now();
    });
  });
  EXPECT_EQ(ps.current_domain(), kNoDomain);
  ps.run(10'000);
  EXPECT_EQ(ps.current_domain(), kNoDomain);
  EXPECT_EQ(delivered_at, 650u);
  EXPECT_EQ(ps.stats(a).handoffs_out, 1u);
  EXPECT_EQ(ps.stats(b).handoffs_in, 1u);
  EXPECT_EQ(ps.stats(b).effective_lookahead, 100u);
}

TEST(ParallelSim, CancelInFlightHandoffBeforeDrain) {
  ParallelSimulation ps;
  // c has the lowest id, so it executes first in a round: its handoff to
  // b is already in b's inbox when a posts and cancels its own.
  const DomainId c = ps.add_domain();
  const DomainId a = ps.add_domain();
  const DomainId b = ps.add_domain();
  // Wide windows: every event below lands in the same round, so the
  // cancel reaches b's inbox before the drain empties it.
  for (const DomainId s : {a, c}) {
    ps.set_lookahead(s, b, 10'000);
    ps.set_lookahead(b, s, 10'000);
  }

  bool fired = false;
  Ns other_at = 0;
  HandoffId h;
  HandoffId other;
  ps.domain(c).schedule_at(150, [&] {
    other = ps.post(b, 10'150, [&] { other_at = ps.domain(b).now(); });
  });
  ps.domain(a).schedule_at(100, [&] {
    h = ps.post(b, 10'100, [&] { fired = true; });
    EXPECT_TRUE(h.valid());
  });
  ps.domain(a).schedule_at(200, [&] { EXPECT_TRUE(ps.cancel_handoff(h)); });
  ps.run(20'000);
  EXPECT_FALSE(fired);
  EXPECT_EQ(other_at, 10'150u);
  // Sequences count per destination: c's handoff took b's first.
  EXPECT_EQ(other.seq, 0u);
  EXPECT_EQ(h.seq, 1u);
  EXPECT_EQ(ps.stats(a).handoffs_cancelled, 1u);
  EXPECT_EQ(ps.stats(c).handoffs_cancelled, 0u);
  EXPECT_EQ(ps.stats(b).handoffs_in, 1u);
  EXPECT_EQ(ps.stats(b).ring_high_watermark, 2u);
}

TEST(ParallelSim, CancelAfterDrainFailsLikeAPacketOnTheWire) {
  ParallelSimulation ps;
  const DomainId a = ps.add_domain();
  const DomainId b = ps.add_domain();
  // Narrow windows: b ticks every 50ns, so a's post at t=100 is drained
  // at a barrier well before a's cancel at t=400 executes.
  ps.set_lookahead(a, b, 50);
  ps.set_lookahead(b, a, 50);

  int b_ticks = 0;
  struct Ticker {
    Simulation& s;
    int* count;
    void tick() {
      ++*count;
      if (s.now() < 1000) s.schedule(50, [this] { tick(); });
    }
  } ticker{ps.domain(b), &b_ticks};
  ps.domain(b).schedule_at(0, [&] { ticker.tick(); });

  bool fired = false;
  bool cancel_result = true;
  HandoffId h;
  ps.domain(a).schedule_at(100, [&] {
    h = ps.post(b, 150, [&] { fired = true; });
  });
  ps.domain(a).schedule_at(400, [&] { cancel_result = ps.cancel_handoff(h); });
  ps.run(2000);
  EXPECT_TRUE(fired);
  EXPECT_FALSE(cancel_result);
  EXPECT_EQ(ps.stats(a).handoffs_cancelled, 0u);
  EXPECT_GT(b_ticks, 10);
}

TEST(ParallelSim, SameTimestampCrossDomainOrderIsSourceIdOrder) {
  // Two producers hand an event to the same consumer at the identical
  // timestamp; the drain sorts by (when, src, seq), so execution order is
  // by source domain id.
  ParallelSimulation ps;
  const DomainId a = ps.add_domain();
  const DomainId b = ps.add_domain();
  const DomainId c = ps.add_domain();
  for (DomainId s : {a, b}) {
    ps.set_lookahead(s, c, 100);
    ps.set_lookahead(c, s, 100);
  }
  ps.set_lookahead(a, b, 100);
  ps.set_lookahead(b, a, 100);

  std::vector<int> order;
  ps.domain(b).schedule_at(500, [&] {
    ps.post(c, 1000, [&] { order.push_back(1); });
    ps.post(c, 1000, [&] { order.push_back(11); });
  });
  ps.domain(a).schedule_at(500, [&] {
    ps.post(c, 1000, [&] { order.push_back(0); });
  });
  ps.run(5000);
  ASSERT_EQ(order.size(), 3u);
  // src a (id 0) before src b (id 1); b's two posts keep their seq order.
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(order[2], 11);
}

// Delivery order when sources on both sides of the 64-domain bitmap word
// boundary (0, 63 | 64, 70) post into one destination in the same round.
std::vector<std::pair<DomainId, int>> run_wide_fan_in() {
  constexpr DomainId kD = 72;
  constexpr DomainId kDst = 71;
  ParallelSimulation ps;
  for (DomainId d = 0; d < kD; ++d) ps.add_domain();
  const std::vector<DomainId> sources = {70, 64, 63, 0};
  for (const DomainId s : sources) {
    ps.set_lookahead(s, kDst, 1000);
    ps.set_lookahead(kDst, s, 1000);
  }

  std::vector<std::pair<DomainId, int>> order;
  auto post = [&](DomainId src, Ns when, int tag) {
    ps.post(kDst, when, [&order, src, tag] { order.push_back({src, tag}); });
  };
  // Registered in descending source order so that scheduling order cannot
  // produce the expected result by accident.
  ps.domain(70).schedule_at(500, [&] {
    post(70, 2000, 0);
    post(70, 2000, 1);
  });
  ps.domain(64).schedule_at(500, [&] {
    post(64, 2000, 0);
    post(64, 1800, 1);
  });
  ps.domain(63).schedule_at(500, [&] { post(63, 2000, 0); });
  ps.domain(0).schedule_at(500, [&] {
    post(0, 2100, 0);
    post(0, 2000, 1);
  });
  ps.run(5000);
  EXPECT_EQ(ps.stats(kDst).handoffs_in, 7u);
  EXPECT_EQ(ps.stats(kDst).ring_high_watermark, 7u);
  return order;
}

TEST(ParallelSim, FanInAcrossInboxWordBoundaryIsCanonical) {
  // (timestamp, source domain, seq): 64's 1800 first, then the 2000
  // batch by source id with each source's posts in seq order.
  const std::vector<std::pair<DomainId, int>> expected = {
      {64, 1}, {0, 1}, {63, 0}, {64, 0}, {70, 0}, {70, 1}, {0, 0}};
  EXPECT_EQ(run_wide_fan_in(), expected);
}

TEST(ParallelSim, RingWithOnlyCancelledItemsIsClearedAndReusable) {
  ParallelSimulation ps;
  const DomainId a = ps.add_domain();
  const DomainId b = ps.add_domain();
  ps.set_lookahead(a, b, 10'000);
  ps.set_lookahead(b, a, 10'000);

  std::vector<Ns> fired;
  HandoffId first;
  bool late_cancel = true;
  // Same round: post, then cancel the inbox's only item before the drain.
  ps.domain(a).schedule_at(100, [&] {
    first = ps.post(b, 10'100, [&] { fired.push_back(ps.domain(b).now()); });
  });
  ps.domain(a).schedule_at(200, [&] { EXPECT_TRUE(ps.cancel_handoff(first)); });
  // A later round: the emptied inbox must carry the next post normally,
  // and the drained cancel handle stays dead.
  ps.domain(a).schedule_at(30'000, [&] {
    late_cancel = ps.cancel_handoff(first);
    ps.post(b, 40'500, [&] { fired.push_back(ps.domain(b).now()); });
  });
  ps.run(60'000);
  EXPECT_EQ(fired, std::vector<Ns>{40'500});
  EXPECT_FALSE(late_cancel);
  EXPECT_EQ(ps.stats(a).handoffs_out, 2u);
  EXPECT_EQ(ps.stats(a).handoffs_cancelled, 1u);
  EXPECT_EQ(ps.stats(b).handoffs_in, 1u);
  // The cancelled item still occupied the inbox at the first drain.
  EXPECT_EQ(ps.stats(b).ring_high_watermark, 1u);
}

TEST(ParallelSim, IdleDomainWokenOnlyByHandoffRunsOnTime) {
  // b has no events of its own for hundreds of rounds; a handoff alone
  // must wake it, and b's follow-up and reply must run on time too.  The
  // run is split across two run() calls.
  ParallelSimulation ps;
  const DomainId a = ps.add_domain();
  const DomainId b = ps.add_domain();
  ps.add_domain();
  ps.set_lookahead(a, b, 20);
  ps.set_lookahead(b, a, 20);

  struct Ticker {
    Simulation& s;
    void tick() {
      if (s.now() < 8000) s.schedule(10, [this] { tick(); });
    }
  } ticker{ps.domain(a)};
  ps.domain(a).schedule_at(0, [&] { ticker.tick(); });

  Ns woke = 0;
  Ns follow_up = 0;
  Ns reply = 0;
  ps.domain(a).schedule_at(6000, [&] {
    ps.post(b, 6100, [&] {
      woke = ps.domain(b).now();
      ps.domain(b).schedule(50, [&] {
        follow_up = ps.domain(b).now();
        ps.post(a, 6200, [&] { reply = ps.domain(a).now(); });
      });
    });
  });
  ps.run(3000);
  const std::uint64_t rounds_idle = ps.rounds();
  ps.run(10'000);
  EXPECT_GT(rounds_idle, 50u);
  EXPECT_EQ(woke, 6100u);
  EXPECT_EQ(follow_up, 6150u);
  EXPECT_EQ(reply, 6200u);
  EXPECT_EQ(ps.stats(b).events, 2u);
  EXPECT_EQ(ps.stats(b).handoffs_in, 1u);
  EXPECT_EQ(ps.stats(a).handoffs_in, 1u);
}

TEST(ParallelSim, ZeroLookaheadEdgeIsRejected) {
  // A zero-lookahead edge admits no safe window: it is refused when
  // declared, and the edge set stays as it was.
  ParallelSimulation ps;
  const DomainId a = ps.add_domain();
  const DomainId b = ps.add_domain();
  ps.set_lookahead(a, b, 50);
  EXPECT_THROW(ps.set_lookahead(a, b, 0), std::invalid_argument);
  EXPECT_THROW(ps.set_lookahead(b, a, 0), std::invalid_argument);
  EXPECT_EQ(ps.lookahead(a, b), 50u);
  EXPECT_EQ(ps.lookahead(b, a), ~Ns{0});

  ps.set_lookahead(b, a, 50);
  bool fired = false;
  ps.domain(a).schedule_at(10, [&] {
    ps.post(b, 60, [&] { fired = true; });
  });
  ps.run(100);
  EXPECT_TRUE(fired);
  EXPECT_EQ(ps.stats(b).effective_lookahead, 50u);
}

TEST(ParallelSim, OneNanosecondLookaheadRunsWindowed) {
  // The smallest legal edge: a handoff posted at t lands at t + 1 behind
  // the destination's own event at t, and a cancel in the posting
  // event wins because the inbox is only drained at the end of the round.
  ParallelSimulation ps;
  const DomainId a = ps.add_domain();
  const DomainId b = ps.add_domain();
  ps.set_lookahead(a, b, 1);
  ps.set_lookahead(b, a, 1);

  std::vector<std::pair<Ns, int>> at_b;  // touched only by b's events
  bool cancelled_fired = false;
  bool cancel_result = false;
  ps.domain(a).schedule_at(10, [&] {
    ps.post(b, 11, [&] { at_b.emplace_back(ps.domain(b).now(), 1); });
    const HandoffId h = ps.post(b, 500, [&] { cancelled_fired = true; });
    cancel_result = ps.cancel_handoff(h);
  });
  ps.domain(b).schedule_at(10, [&] {
    at_b.emplace_back(ps.domain(b).now(), 0);
  });
  ps.run(1000);
  const std::vector<std::pair<Ns, int>> want = {{10, 0}, {11, 1}};
  EXPECT_EQ(at_b, want);
  EXPECT_TRUE(cancel_result);
  EXPECT_FALSE(cancelled_fired);
  EXPECT_EQ(ps.executed(), 3u);
  EXPECT_EQ(ps.stats(b).handoffs_in, 1u);
}

TEST(ParallelSim, StallCounterSeesWaitingDomain) {
  ParallelSimulation ps;
  const DomainId a = ps.add_domain();
  const DomainId b = ps.add_domain();
  ps.set_lookahead(a, b, 10);
  ps.set_lookahead(b, a, 10);
  // a ticks densely; b has one far-future event it cannot reach until
  // a's clock catches up 10ns at a time.
  struct Ticker {
    Simulation& s;
    void tick() {
      if (s.now() < 500) s.schedule(5, [this] { tick(); });
    }
  } ticker{ps.domain(a)};
  ps.domain(a).schedule_at(0, [&] { ticker.tick(); });
  bool fired = false;
  ps.domain(b).schedule_at(400, [&] { fired = true; });
  ps.run(1000);
  EXPECT_TRUE(fired);
  EXPECT_GT(ps.stats(b).stalled_windows, 0u);
  EXPECT_GT(ps.rounds(), 0u);
}

TEST(ParallelSim, PeriodicTaskMigratesAcrossDomains) {
  // An actor owning a PeriodicTask migrates from domain a to domain b:
  // the task is stopped on a, ownership crosses via a handoff, and a new
  // task resumes on b.  Tick counts must be exact.
  ParallelSimulation ps;
  const DomainId a = ps.add_domain();
  const DomainId b = ps.add_domain();
  ps.set_lookahead(a, b, 100);
  ps.set_lookahead(b, a, 100);

  int ticks_a = 0;
  int ticks_b = 0;
  auto task = std::make_unique<PeriodicTask>(ps.domain(a), 50,
                                             [&] { ++ticks_a; });
  task->start();
  // Keep b's clock moving so a's windows stay bounded (and vice versa).
  struct Ticker {
    Simulation& s;
    void tick() {
      if (s.now() < 2000) s.schedule(50, [this] { tick(); });
    }
  } ticker_b{ps.domain(b)};
  ps.domain(b).schedule_at(0, [&] { ticker_b.tick(); });

  ps.domain(a).schedule_at(501, [&] {
    task->stop();  // destructor semantics: no callback left behind
    task.reset();
    ps.post(b, 601, [&] {
      task = std::make_unique<PeriodicTask>(ps.domain(b), 50,
                                            [&] { ++ticks_b; });
      task->start();
    });
  });
  ps.domain(b).schedule_at(1101, [&] { task->stop(); });
  ps.run(3000);
  EXPECT_EQ(ticks_a, 10);  // 50..500
  EXPECT_EQ(ticks_b, 9);   // 651..1051
}

// Engine counters of one run of a seeded random topology.  `per_domain`
// digests every domain's (windows, stalled_windows, handoffs_in,
// handoffs_out), so a single moved counter changes it.
struct EngineCounters {
  std::uint64_t rounds = 0;
  std::uint64_t executed = 0;
  std::uint64_t stalled = 0;    ///< summed over domains
  std::uint64_t handoffs = 0;   ///< summed handoffs_in
  std::uint64_t cancelled = 0;  ///< summed handoffs_cancelled
  std::uint64_t per_domain = 0;
};

std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// A 97-domain star (hub 0; the last leaf has no in-edge, so nothing can
// wake it) or a 40-domain random mesh, with per-edge lookaheads drawn
// from [50, 800) ns.  Every third star leaf and every fourth mesh domain
// stays idle unless a message reaches it.  Active domains tick at random
// intervals and send to a random out-neighbour; a receiver forwards up
// to three hops.  One send in eight is cancelled in the posting event,
// one in eight from a later local event, which may lose the race with
// the drain.  Each domain draws from its own generator, so the run is a
// pure function of (seed, topology).  The run is split in two to carry
// the counters across run() calls.
EngineCounters run_random_topology(std::uint64_t seed, bool mesh) {
  const DomainId kD = mesh ? 40 : 97;
  constexpr Ns kHorizon = 200'000;
  ParallelSimulation ps;
  for (DomainId d = 0; d < kD; ++d) ps.add_domain();
  std::uint64_t g = seed;
  std::vector<std::vector<DomainId>> out(kD);
  std::vector<Ns> la(std::size_t{kD} * kD, ~Ns{0});
  auto edge = [&](DomainId s, DomainId d) {
    const Ns l = 50 + splitmix64(g) % 750;
    ps.set_lookahead(s, d, l);
    la[s * kD + d] = std::min(la[s * kD + d], l);
    out[s].push_back(d);
  };
  if (mesh) {
    for (DomainId s = 0; s < kD; ++s) {
      for (int k = 0; k < 3; ++k) {
        const auto d = static_cast<DomainId>(
            (s + 1 + splitmix64(g) % (kD - 1)) % kD);
        edge(s, d);
      }
    }
  } else {
    for (DomainId leaf = 1; leaf < kD; ++leaf) {
      edge(leaf, 0);
      if (leaf + 1 < kD) edge(0, leaf);
    }
  }

  struct Node {
    ParallelSimulation& ps;
    const std::vector<std::vector<DomainId>>& out;
    const std::vector<Ns>& la;
    const std::vector<std::unique_ptr<Node>>& nodes;
    DomainId d;
    DomainId domains;
    std::uint64_t rng;
    std::uint64_t next() { return splitmix64(rng); }
    void send(int hops) {
      const std::vector<DomainId>& to = out[d];
      if (to.empty()) return;
      Simulation& s = ps.domain(d);
      const DomainId dst = to[next() % to.size()];
      const Ns when = s.now() + la[d * domains + dst] + next() % 400;
      Node* peer = nodes[dst].get();
      const HandoffId h =
          ps.post(dst, when, [peer, hops] { peer->receive(hops); });
      switch (next() % 8) {
        case 0:
          ps.cancel_handoff(h);
          break;
        case 1:
          s.schedule(next() % 600, [this, h] { ps.cancel_handoff(h); });
          break;
        default:
          break;
      }
    }
    void receive(int hops) {
      if (hops > 0 && next() % 4 != 0) send(hops - 1);
    }
    void tick() {
      Simulation& s = ps.domain(d);
      if (s.now() >= kHorizon) return;
      send(3);
      s.schedule(200 + next() % 3000, [this] { tick(); });
    }
  };
  std::vector<std::unique_ptr<Node>> nodes;
  for (DomainId d = 0; d < kD; ++d) {
    nodes.push_back(std::make_unique<Node>(
        Node{ps, out, la, nodes, d, kD, seed * 1000 + d}));
  }
  for (DomainId d = 0; d < kD; ++d) {
    const bool idle = mesh ? d % 4 == 0 : d == 0 || d % 3 == 0;
    if (idle) continue;
    Node* n = nodes[d].get();
    ps.domain(d).schedule_at(n->next() % 1000, [n] { n->tick(); });
  }
  ps.run(kHorizon / 2);
  ps.run(kHorizon + 5000);

  EngineCounters c;
  c.rounds = ps.rounds();
  c.executed = ps.executed();
  c.per_domain = 1469598103934665603ULL;
  for (DomainId d = 0; d < kD; ++d) {
    const DomainStats s = ps.stats(d);
    c.stalled += s.stalled_windows;
    c.handoffs += s.handoffs_in;
    c.cancelled += s.handoffs_cancelled;
    for (const std::uint64_t v :
         {s.windows, s.stalled_windows, s.handoffs_in, s.handoffs_out}) {
      c.per_domain = fnv1a(c.per_domain, v);
    }
  }
  return c;
}

TEST(ParallelSim, RandomTopologyCountersArePinned) {
  // Rounds, events and every per-domain counter, pinned to values
  // measured with a round loop that visits every domain in every round;
  // skipping idle domains must not move them.
  struct Case {
    bool mesh;
    EngineCounters want;
  };
  const Case cases[] = {
      {false, {1031, 24664, 55249, 14909, 2516, 0x9d2ab9aa7ab85d3eULL}},
      {true, {819, 11443, 17192, 6904, 1213, 0x6c7ff5f3a59641c4ULL}},
  };
  for (const Case& k : cases) {
    const EngineCounters got = run_random_topology(23, k.mesh);
    const std::string where = k.mesh ? "mesh" : "star";
    EXPECT_EQ(got.rounds, k.want.rounds) << where;
    EXPECT_EQ(got.executed, k.want.executed) << where;
    EXPECT_EQ(got.stalled, k.want.stalled) << where;
    EXPECT_EQ(got.handoffs, k.want.handoffs) << where;
    EXPECT_EQ(got.cancelled, k.want.cancelled) << where;
    EXPECT_EQ(got.per_domain, k.want.per_domain) << where;
  }
}

TEST(ParallelSim, RepeatedLookaheadKeepsMinimum) {
  ParallelSimulation ps;
  const DomainId a = ps.add_domain();
  const DomainId b = ps.add_domain();
  ps.set_lookahead(a, b, 500);
  ps.set_lookahead(a, b, 200);
  ps.set_lookahead(a, b, 900);
  EXPECT_EQ(ps.lookahead(a, b), 200u);
}

}  // namespace
}  // namespace ipipe::sim
