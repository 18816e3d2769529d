// Unit tests for the conservative parallel event engine (sim/parallel.h):
// window safety, cross-domain handoff ordering and cancellation, the
// rejection of zero-lookahead edges, thread-count-invariant determinism,
// and PeriodicTask ownership migrating across domains.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/parallel.h"
#include "sim/simulation.h"

namespace ipipe::sim {
namespace {

// FNV-1a over (domain, timestamp) execution records; an order digest that
// must be identical for every thread count.
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
  // Outside run(): post is a plain schedule_at, not ring-cancellable.
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
    EXPECT_EQ(ParallelSimulation::current_domain(), a);
    ps.post(b, 650, [&] {
      EXPECT_EQ(ParallelSimulation::current_domain(), b);
      delivered_at = ps.domain(b).now();
    });
  });
  ps.run(10'000);
  EXPECT_EQ(delivered_at, 650u);
  EXPECT_EQ(ps.stats(a).handoffs_out, 1u);
  EXPECT_EQ(ps.stats(b).handoffs_in, 1u);
  EXPECT_EQ(ps.stats(b).effective_lookahead, 100u);
}

TEST(ParallelSim, CancelInFlightHandoffBeforeDrain) {
  ParallelSimulation ps;
  const DomainId a = ps.add_domain();
  const DomainId b = ps.add_domain();
  // Wide windows: both of a's events land in the same round, so the
  // cancel reaches the ring before the barrier drains it.
  ps.set_lookahead(a, b, 10'000);
  ps.set_lookahead(b, a, 10'000);

  bool fired = false;
  HandoffId h;
  ps.domain(a).schedule_at(100, [&] {
    h = ps.post(b, 10'100, [&] { fired = true; });
    EXPECT_TRUE(h.valid());
  });
  ps.domain(a).schedule_at(200, [&] { EXPECT_TRUE(ps.cancel_handoff(h)); });
  ps.run(20'000);
  EXPECT_FALSE(fired);
  EXPECT_EQ(ps.stats(a).handoffs_cancelled, 1u);
  EXPECT_EQ(ps.stats(b).handoffs_in, 0u);
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
  // by source domain id regardless of thread schedule.
  for (const unsigned threads : {1u, 2u, 4u}) {
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
    ps.set_threads(threads);

    std::vector<int> order;
    ps.domain(b).schedule_at(500, [&] {
      ps.post(c, 1000, [&] { order.push_back(1); });
      ps.post(c, 1000, [&] { order.push_back(11); });
    });
    ps.domain(a).schedule_at(500, [&] {
      ps.post(c, 1000, [&] { order.push_back(0); });
    });
    ps.run(5000);
    ASSERT_EQ(order.size(), 3u) << "threads=" << threads;
    // src a (id 0) before src b (id 1); b's two posts keep their seq order.
    EXPECT_EQ(order[0], 0) << "threads=" << threads;
    EXPECT_EQ(order[1], 1) << "threads=" << threads;
    EXPECT_EQ(order[2], 11) << "threads=" << threads;
  }
}

// Delivery order when sources on both sides of the 64-domain inbox word
// boundary (0, 63 | 64, 70) post into one destination in the same round.
std::vector<std::pair<DomainId, int>> run_wide_fan_in(unsigned threads) {
  constexpr DomainId kD = 72;
  constexpr DomainId kDst = 71;
  ParallelSimulation ps;
  for (DomainId d = 0; d < kD; ++d) ps.add_domain();
  const std::vector<DomainId> sources = {70, 64, 63, 0};
  for (const DomainId s : sources) {
    ps.set_lookahead(s, kDst, 1000);
    ps.set_lookahead(kDst, s, 1000);
  }
  ps.set_threads(threads);

  std::vector<std::pair<DomainId, int>> order;
  auto post = [&](DomainId src, Ns when, int tag) {
    ps.post(kDst, when, [&order, src, tag] { order.push_back({src, tag}); });
  };
  // Registered in descending source order so that neither scheduling nor
  // worker order can produce the expected result by accident.
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
  EXPECT_EQ(ps.stats(kDst).handoffs_in, 7u) << "threads=" << threads;
  EXPECT_EQ(ps.stats(kDst).ring_high_watermark, 7u) << "threads=" << threads;
  return order;
}

TEST(ParallelSim, FanInAcrossInboxWordBoundaryIsCanonical) {
  // (timestamp, source domain, per-pair seq): 64's 1800 first, then the
  // 2000 batch by source id with each source's posts in seq order.
  const std::vector<std::pair<DomainId, int>> expected = {
      {64, 1}, {0, 1}, {63, 0}, {64, 0}, {70, 0}, {70, 1}, {0, 0}};
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    EXPECT_EQ(run_wide_fan_in(threads), expected) << "threads=" << threads;
  }
}

TEST(ParallelSim, RingWithOnlyCancelledItemsIsClearedAndReusable) {
  for (const unsigned threads : {1u, 2u}) {
    ParallelSimulation ps;
    const DomainId a = ps.add_domain();
    const DomainId b = ps.add_domain();
    ps.set_lookahead(a, b, 10'000);
    ps.set_lookahead(b, a, 10'000);
    ps.set_threads(threads);

    std::vector<Ns> fired;
    HandoffId first;
    bool late_cancel = true;
    // Same round: post, then cancel the ring's only item before the drain.
    ps.domain(a).schedule_at(100, [&] {
      first = ps.post(b, 10'100, [&] { fired.push_back(ps.domain(b).now()); });
    });
    ps.domain(a).schedule_at(200, [&] { EXPECT_TRUE(ps.cancel_handoff(first)); });
    // A later round: the emptied ring must carry the next post normally,
    // and the drained cancel handle stays dead.
    ps.domain(a).schedule_at(30'000, [&] {
      late_cancel = ps.cancel_handoff(first);
      ps.post(b, 40'500, [&] { fired.push_back(ps.domain(b).now()); });
    });
    ps.run(60'000);
    EXPECT_EQ(fired, std::vector<Ns>{40'500}) << "threads=" << threads;
    EXPECT_FALSE(late_cancel) << "threads=" << threads;
    EXPECT_EQ(ps.stats(a).handoffs_out, 2u) << "threads=" << threads;
    EXPECT_EQ(ps.stats(a).handoffs_cancelled, 1u) << "threads=" << threads;
    EXPECT_EQ(ps.stats(b).handoffs_in, 1u) << "threads=" << threads;
    // The cancelled item still occupied its ring at the first drain.
    EXPECT_EQ(ps.stats(b).ring_high_watermark, 1u) << "threads=" << threads;
  }
}

TEST(ParallelSim, IdleDomainWokenOnlyByHandoffRunsOnTime) {
  // b has no events of its own for hundreds of rounds; a handoff alone
  // must wake it, and b's follow-up and reply must run on time too.  The
  // run is split so the second half starts from a fresh worker count.
  for (const unsigned threads : {1u, 2u, 4u}) {
    ParallelSimulation ps;
    const DomainId a = ps.add_domain();
    const DomainId b = ps.add_domain();
    ps.add_domain();
    ps.set_lookahead(a, b, 20);
    ps.set_lookahead(b, a, 20);
    ps.set_threads(threads);

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
    ps.set_threads(threads == 1 ? 2 : 1);
    ps.run(10'000);
    EXPECT_GT(rounds_idle, 50u) << "threads=" << threads;
    EXPECT_EQ(woke, 6100u) << "threads=" << threads;
    EXPECT_EQ(follow_up, 6150u) << "threads=" << threads;
    EXPECT_EQ(reply, 6200u) << "threads=" << threads;
    EXPECT_EQ(ps.stats(b).events, 2u) << "threads=" << threads;
    EXPECT_EQ(ps.stats(b).handoffs_in, 1u) << "threads=" << threads;
    EXPECT_EQ(ps.stats(a).handoffs_in, 1u) << "threads=" << threads;
  }
}

// A ring of domains each running a local ticker that periodically hands
// work to the next domain; records every execution into a per-domain
// trace.  The merged digest must be identical for any thread count.
std::uint64_t run_ring_digest(unsigned threads, std::uint64_t* executed,
                              DomainStats* engine = nullptr) {
  constexpr DomainId kD = 8;
  constexpr Ns kHorizon = 300'000;
  ParallelSimulation ps;
  for (DomainId d = 0; d < kD; ++d) ps.add_domain();
  for (DomainId s = 0; s < kD; ++s) {
    for (DomainId d = 0; d < kD; ++d) {
      if (s != d) ps.set_lookahead(s, d, 300);
    }
  }
  ps.set_threads(threads);

  std::vector<std::vector<std::pair<DomainId, Ns>>> traces(kD);
  struct Node {
    ParallelSimulation& ps;
    std::vector<std::vector<std::pair<DomainId, Ns>>>& traces;
    DomainId d;
    void tick() {
      Simulation& s = ps.domain(d);
      traces[d].push_back({d, s.now()});
      if (s.now() >= kHorizon) return;
      // Hand one event to the next domain, staying >= the 300ns bound.
      const DomainId nxt = (d + 1) % kD;
      ps.post(nxt, s.now() + 301 + (s.now() % 7), [this, nxt] {
        traces[nxt].push_back({nxt, ps.domain(nxt).now()});
      });
      s.schedule(37 + d, [this] { tick(); });
    }
  };
  std::vector<std::unique_ptr<Node>> nodes;
  for (DomainId d = 0; d < kD; ++d) {
    nodes.push_back(std::make_unique<Node>(Node{ps, traces, d}));
    Node* n = nodes.back().get();
    ps.domain(d).schedule_at(d * 11, [n] { n->tick(); });
  }
  ps.run(kHorizon + 1000);
  if (executed != nullptr) *executed = ps.executed();
  if (engine != nullptr) *engine = ps.stats(0);

  // Merge the per-domain traces in (ts, domain, per-domain index) order —
  // the engine's canonical total order — and digest.
  std::vector<std::pair<Ns, DomainId>> merged;
  for (const auto& t : traces) {
    for (const auto& rec : t) merged.push_back({rec.second, rec.first});
  }
  std::sort(merged.begin(), merged.end());
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& [ts, d] : merged) h = fnv1a(fnv1a(h, ts), d);
  return h;
}

// Whether this host can run a pool epoch at all.
bool host_has_two_threads() {
  return std::thread::hardware_concurrency() >= 2;
}

TEST(ParallelSim, RingWorkloadIsThreadCountInvariant) {
  std::uint64_t e1 = 0;
  DomainStats s1;
  const std::uint64_t d1 = run_ring_digest(1, &e1, &s1);
  EXPECT_GT(e1, 1000u);
  EXPECT_EQ(s1.pool_rounds, 0u);
  EXPECT_EQ(s1.inline_rounds, s1.windows);
  // Long enough for the policy to cross several epoch boundaries.
  EXPECT_GT(s1.windows, 3 * EpochPolicy::kEpochRounds);
  for (const unsigned threads : {2u, 4u, 8u}) {
    std::uint64_t en = 0;
    DomainStats sn;
    EXPECT_EQ(run_ring_digest(threads, &en, &sn), d1) << "threads=" << threads;
    EXPECT_EQ(en, e1) << "threads=" << threads;
    EXPECT_EQ(sn.windows, s1.windows) << "threads=" << threads;
    EXPECT_EQ(sn.pool_rounds + sn.inline_rounds, sn.windows);
    if (host_has_two_threads()) {
      // The first epoch runs on the pool and the second inline, whatever
      // the measurements say.
      EXPECT_GT(sn.pool_rounds, 0u) << "threads=" << threads;
      EXPECT_GT(sn.inline_rounds, 0u) << "threads=" << threads;
    }
  }
}

// A ring of `domains` ticking domains run to `horizon` on at most
// `threads` workers; returns domain 0's stats.
DomainStats run_ticking_ring(DomainId domains, unsigned threads, Ns horizon) {
  ParallelSimulation ps;
  for (DomainId d = 0; d < domains; ++d) ps.add_domain();
  for (DomainId d = 0; d < domains; ++d) {
    ps.set_lookahead(d, (d + 1) % domains, 100);
  }
  ps.set_threads(threads);
  struct Node {
    ParallelSimulation& ps;
    DomainId d;
    DomainId next;
    Ns horizon;
    void tick() {
      Simulation& s = ps.domain(d);
      if (s.now() >= horizon) return;
      ps.post(next, s.now() + 100, [] {});
      s.schedule(30, [this] { tick(); });
    }
  };
  std::vector<std::unique_ptr<Node>> nodes;
  for (DomainId d = 0; d < domains; ++d) {
    nodes.push_back(std::make_unique<Node>(
        Node{ps, d, static_cast<DomainId>((d + 1) % domains), horizon}));
    Node* n = nodes.back().get();
    ps.domain(d).schedule_at(d, [n] { n->tick(); });
  }
  ps.run(horizon + 1000);
  return ps.stats(0);
}

TEST(ParallelSim, WorkerCapIsBoundedByHardwareThreadsAndDomains) {
  // A cap one above the host's hardware threads, over more domains than
  // that: no epoch may run more workers than the host has.  The first
  // epoch always runs on the pool, so pool_workers shows the count.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const DomainStats wide = run_ticking_ring(hw + 2, hw + 1, 60'000);
  EXPECT_GT(wide.windows, EpochPolicy::kEpochRounds);
  EXPECT_LE(wide.pool_workers, hw);
  if (hw >= 2) {
    EXPECT_EQ(wide.pool_workers, hw);
    EXPECT_GT(wide.pool_rounds, 0u);
  } else {
    EXPECT_EQ(wide.pool_rounds, 0u);
  }
  // Three domains bound a cap of eight to three workers.
  const DomainStats narrow = run_ticking_ring(3, 8, 60'000);
  EXPECT_LE(narrow.pool_workers, std::min(hw, 3u));
  // A cap of one never starts the pool.
  const DomainStats one = run_ticking_ring(4, 1, 60'000);
  EXPECT_EQ(one.pool_rounds, 0u);
  EXPECT_EQ(one.pool_workers, 0u);
  EXPECT_EQ(one.inline_rounds, one.windows);
}

// Drives `policy` for `epochs` epochs, charging each epoch with
// `cost(epoch, pool)` ns per event; returns the epochs that ran on the
// pool.
template <typename Cost>
std::vector<int> pool_epochs(EpochPolicy& policy, int epochs, Cost cost) {
  std::vector<int> on_pool;
  for (int e = 0; e < epochs; ++e) {
    const bool pool = policy.pool();
    if (pool) on_pool.push_back(e);
    policy.next(cost(e, pool));
  }
  return on_pool;
}

TEST(EpochPolicy, NearTieIsProbedAtDoublingGaps) {
  // The pool costs 5% more than an inline epoch throughout: after the
  // opening pool epoch and inline probe, each lost probe doubles the
  // number of inline epochs before the next.
  EpochPolicy policy;
  const std::vector<int> pool = pool_epochs(
      policy, 40, [](int, bool on_pool) { return on_pool ? 10.5 : 10.0; });
  EXPECT_EQ(pool, (std::vector<int>{0, 3, 6, 11, 20, 37}));
  EXPECT_EQ(policy.gap(), 32.0);
}

TEST(EpochPolicy, CostlyLoserIsProbedRarely) {
  // The pool costs ten times an inline epoch: each lost probe stretches
  // the gap to at least (10 - 1) * kProbeSpread * 16 / 256 = 36 epochs,
  // and the probes' extra cost stays within 1/kProbeSpread of the run.
  EpochPolicy policy;
  double run = 0, extra = 0;
  const std::vector<int> pool =
      pool_epochs(policy, 2000, [&](int, bool on_pool) {
        const auto rounds = static_cast<double>(policy.rounds());
        run += rounds * (on_pool ? 100.0 : 10.0);
        if (on_pool) extra += rounds * 90.0;
        return on_pool ? 100.0 : 10.0;
      });
  EXPECT_EQ(pool, (std::vector<int>{0, 3, 40, 113, 258, 547, 1124}));
  EXPECT_LE(extra, run / EpochPolicy::kProbeSpread);
}

TEST(EpochPolicy, ProbesAndTheFirstEpochAreShort) {
  EpochPolicy policy;
  // The opening pool epoch, then the inline probe against it.
  EXPECT_TRUE(policy.pool());
  EXPECT_EQ(policy.rounds(), EpochPolicy::kProbeRounds);
  EXPECT_FALSE(policy.next(100));
  EXPECT_EQ(policy.rounds(), EpochPolicy::kProbeRounds);
  // Inline won: it runs a whole epoch, then the pool is probed briefly.
  EXPECT_FALSE(policy.next(10));
  EXPECT_EQ(policy.rounds(), EpochPolicy::kEpochRounds);
  EXPECT_TRUE(policy.next(10));
  EXPECT_EQ(policy.rounds(), EpochPolicy::kProbeRounds);
  EXPECT_FALSE(policy.next(100));
  EXPECT_EQ(policy.rounds(), EpochPolicy::kEpochRounds);
}

TEST(EpochPolicy, CostlyFirstPoolEpochDoesNotLockThePoolOut) {
  // The first pool epoch reads a thousand times the inline cost (a
  // one-time set-up cost, say) while the pool's steady cost is half the
  // inline one: a won probe resets the gap, so the pool is probed again
  // two epochs later, wins, and runs from then on, bar inline probes.
  EpochPolicy policy;
  const std::vector<int> pool =
      pool_epochs(policy, 16, [](int e, bool on_pool) {
        if (!on_pool) return 10.0;
        return e == 0 ? 10'000.0 : 5.0;
      });
  EXPECT_EQ(pool,
            (std::vector<int>{0, 3, 4, 6, 7, 8, 9, 11, 12, 13, 14, 15}));
  EXPECT_TRUE(policy.pool());
}

TEST(EpochPolicy, PhaseChangeFlipsTheChoice) {
  // Inline wins for 100 epochs, then the pool becomes the cheaper mode:
  // the next probe of the pool flips the choice, and from then on the
  // pool runs all but the inline probes.
  EpochPolicy policy;
  const std::vector<int> pool =
      pool_epochs(policy, 160, [](int e, bool on_pool) {
        if (e < 100) return on_pool ? 30.0 : 10.0;
        return on_pool ? 5.0 : 10.0;
      });
  // Probes before the change at 0, 3, 12, 29, 62; the next falls at
  // 62 + 64 + 1 = 127, which the pool wins.
  const std::vector<int> before = {0, 3, 12, 29, 62};
  ASSERT_GT(pool.size(), before.size() + 1);
  EXPECT_TRUE(std::equal(before.begin(), before.end(), pool.begin()));
  EXPECT_EQ(pool[before.size()], 127);
  EXPECT_EQ(pool[before.size() + 1], 128);
  // Epochs 127..159, less inline probes at 129, 134 and 143.
  EXPECT_EQ(pool.size() - before.size(), 30u);
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
  // event wins because the ring is only drained at the barrier.
  ParallelSimulation ps;
  const DomainId a = ps.add_domain();
  const DomainId b = ps.add_domain();
  ps.set_lookahead(a, b, 1);
  ps.set_lookahead(b, a, 1);
  ps.set_threads(2);

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
  // task resumes on b.  Tick counts must be exact and thread-invariant.
  for (const unsigned threads : {1u, 4u}) {
    ParallelSimulation ps;
    const DomainId a = ps.add_domain();
    const DomainId b = ps.add_domain();
    ps.set_lookahead(a, b, 100);
    ps.set_lookahead(b, a, 100);
    ps.set_threads(threads);

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
    EXPECT_EQ(ticks_a, 10) << "threads=" << threads;  // 50..500
    EXPECT_EQ(ticks_b, 9) << "threads=" << threads;   // 651..1051
  }
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
  std::uint64_t pool_rounds = 0;    ///< not pinned: depends on the host
  std::uint64_t inline_rounds = 0;  ///< likewise
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
// pure function of (seed, topology) at any thread count.  The run is
// split in two to carry the counters across run() calls.
EngineCounters run_random_topology(std::uint64_t seed, bool mesh,
                                   unsigned threads) {
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
  ps.set_threads(threads);

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
  c.pool_rounds = ps.stats(0).pool_rounds;
  c.inline_rounds = ps.stats(0).inline_rounds;
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
  // skipping idle domains must not move them, at any thread count.  Both
  // runs cross at least three epoch boundaries, so at 2 and 4 threads
  // the worker count changes between rounds without moving them either.
  struct Case {
    bool mesh;
    EngineCounters want;
  };
  const Case cases[] = {
      {false, {1031, 24664, 55249, 14909, 2516, 0x9d2ab9aa7ab85d3eULL}},
      {true, {819, 11443, 17192, 6904, 1213, 0x6c7ff5f3a59641c4ULL}},
  };
  for (const Case& k : cases) {
    for (const unsigned threads : {1u, 2u, 4u}) {
      const EngineCounters got = run_random_topology(23, k.mesh, threads);
      const std::string where = std::string(k.mesh ? "mesh" : "star") +
                                " threads=" + std::to_string(threads);
      EXPECT_EQ(got.rounds, k.want.rounds) << where;
      EXPECT_EQ(got.executed, k.want.executed) << where;
      EXPECT_EQ(got.stalled, k.want.stalled) << where;
      EXPECT_EQ(got.handoffs, k.want.handoffs) << where;
      EXPECT_EQ(got.cancelled, k.want.cancelled) << where;
      EXPECT_EQ(got.per_domain, k.want.per_domain) << where;
      EXPECT_GT(got.rounds, 3 * EpochPolicy::kEpochRounds) << where;
      EXPECT_EQ(got.pool_rounds + got.inline_rounds, got.rounds) << where;
      if (threads == 1) {
        EXPECT_EQ(got.pool_rounds, 0u) << where;
      } else if (host_has_two_threads()) {
        EXPECT_GT(got.pool_rounds, 0u) << where;
        EXPECT_GT(got.inline_rounds, 0u) << where;
      }
    }
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
