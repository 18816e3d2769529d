// google-benchmark microbenchmarks of the simulator itself: event-queue
// throughput (schedule-heavy and cancel-heavy churn), event-capture cost
// around the inline-callable small-buffer boundary, packet-pool recycling,
// parallel-engine rounds (dense churn and a sparse many-domain star),
// and end-to-end simulated-seconds-per-wallclock-second for a loaded
// node — documents the cost of running the reproduction.
#include <benchmark/benchmark.h>

#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "harness/bench_util.h"
#include "ipipe/runtime.h"
#include "netsim/packet.h"
#include "sim/parallel.h"
#include "sim/simulation.h"
#include "testbed/cluster.h"
#include "workloads/app_workloads.h"

namespace ipipe {
namespace {

// ---- Event queue -------------------------------------------------------

void BM_EventQueueChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    for (int i = 0; i < 10'000; ++i) {
      sim.schedule(static_cast<Ns>(i % 97), [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.executed());
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_EventQueueChurn);

// Timer-style workload: most scheduled events are cancelled before they
// fire (retransmit timers, deadline guards).  Exercises the tombstone /
// compaction path rather than the execute path.
void BM_EventQueueCancelChurn(benchmark::State& state) {
  constexpr int kBatch = 10'000;
  std::vector<sim::EventId> ids(kBatch);
  for (auto _ : state) {
    sim::Simulation sim;
    for (int i = 0; i < kBatch; ++i) {
      ids[static_cast<std::size_t>(i)] =
          sim.schedule(static_cast<Ns>(i % 97), [] {});
    }
    // Cancel 9 of every 10 events, scattered across timestamps.
    for (int i = 0; i < kBatch; ++i) {
      if (i % 10 != 0) sim.cancel(ids[static_cast<std::size_t>(i)]);
    }
    sim.run();
    benchmark::DoNotOptimize(sim.executed());
    benchmark::DoNotOptimize(sim.cancelled());
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_EventQueueCancelChurn);

// Schedule cost as a function of capture size: below the inline-callable
// small-buffer bound (48B) the event engine never touches the heap
// allocator; above it, every schedule pays an allocation ("spill").
template <std::size_t kCaptureBytes>
void BM_EventCaptureSize(benchmark::State& state) {
  struct Payload {
    unsigned char bytes[kCaptureBytes];
  };
  Payload payload{};
  std::memset(payload.bytes, 0x5a, sizeof(payload.bytes));
  for (auto _ : state) {
    sim::Simulation sim;
    for (int i = 0; i < 10'000; ++i) {
      sim.schedule(static_cast<Ns>(i % 97), [payload] {
        benchmark::DoNotOptimize(&payload);
      });
    }
    sim.run();
    benchmark::DoNotOptimize(sim.executed());
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
  state.SetLabel(kCaptureBytes <= 48 ? "inline" : "spilled");
}
BENCHMARK_TEMPLATE(BM_EventCaptureSize, 16);
BENCHMARK_TEMPLATE(BM_EventCaptureSize, 48);
BENCHMARK_TEMPLATE(BM_EventCaptureSize, 64);
BENCHMARK_TEMPLATE(BM_EventCaptureSize, 128);

// ---- Packet pool -------------------------------------------------------

// Steady-state packet alloc/free cycle through the freelist.  After the
// first window every make() is a recycle; the reported hit rate should
// approach 1.
void BM_PacketPoolRoundTrip(benchmark::State& state) {
  const std::size_t window = static_cast<std::size_t>(state.range(0));
  netsim::PacketPool pool;
  std::vector<netsim::PacketPtr> live;
  live.reserve(window);
  for (auto _ : state) {
    for (std::size_t i = 0; i < window; ++i) {
      auto p = pool.make();
      p->payload.assign(512, 0xab);
      live.push_back(std::move(p));
    }
    live.clear();  // recycles the whole window
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(window));
  state.counters["hit_rate"] = pool.hit_rate();
}
BENCHMARK(BM_PacketPoolRoundTrip)->Arg(8)->Arg(64)->Arg(1024);

// The same cycle against the plain heap — the cost pool recycling avoids.
void BM_PacketHeapRoundTrip(benchmark::State& state) {
  const std::size_t window = static_cast<std::size_t>(state.range(0));
  std::vector<netsim::PacketPtr> live;
  live.reserve(window);
  for (auto _ : state) {
    for (std::size_t i = 0; i < window; ++i) {
      auto p = netsim::alloc_packet();
      p->payload.assign(512, 0xab);
      live.push_back(std::move(p));
    }
    live.clear();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(window));
}
BENCHMARK(BM_PacketHeapRoundTrip)->Arg(64);

// ---- Parallel engine ---------------------------------------------------

// Conservative windowed execution over a 16-domain mesh: every domain
// runs a local ticker and hands one event per tick to the next domain in
// the ring, 1.2us ahead (inside the 1us-lookahead safety bound).  The
// thread sweep documents how the windowed protocol scales; the executed
// event count is identical for every thread count by construction.
constexpr std::uint32_t kChurnDomains = 16;
constexpr Ns kChurnHorizon = usec(200);
constexpr Ns kChurnLookahead = usec(1);

struct ChurnTicker {
  sim::ParallelSimulation& ps;
  std::uint32_t d;
  void tick() {
    auto& s = ps.domain(d);
    if (s.now() >= kChurnHorizon) return;
    ps.post((d + 1) % kChurnDomains, s.now() + kChurnLookahead + 200, [] {});
    s.schedule(97, [this] { tick(); });
  }
};

void BM_MultiDomainChurn(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::ParallelSimulation psim;
    for (std::uint32_t d = 0; d < kChurnDomains; ++d) {
      psim.add_domain();
    }
    for (std::uint32_t s = 0; s < kChurnDomains; ++s) {
      for (std::uint32_t t = 0; t < kChurnDomains; ++t) {
        if (s != t) psim.set_lookahead(s, t, kChurnLookahead);
      }
    }
    psim.set_threads(static_cast<unsigned>(state.range(0)));
    std::vector<std::unique_ptr<ChurnTicker>> tickers;
    tickers.reserve(kChurnDomains);
    for (std::uint32_t d = 0; d < kChurnDomains; ++d) {
      tickers.push_back(std::make_unique<ChurnTicker>(ChurnTicker{psim, d}));
      ChurnTicker* t = tickers.back().get();
      psim.domain(d).schedule_at(0, [t] { t->tick(); });
    }
    psim.run(kChurnHorizon + usec(5));
    events += psim.executed();
    benchmark::DoNotOptimize(psim.executed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_MultiDomainChurn)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// A star of state.range(0) domains (96, 512), the shape of a sharded
// cluster behind one switch: four leaves spread over the star tick and
// send to the hub, the hub forwards each message to the next active leaf,
// and the other leaves stay idle.  Every round moves a handful of
// handoffs, so the engine's per-round bookkeeping, not the events, sets
// the rate: an all-sources drain makes it O(D^2) per round, a full scan
// of the domains O(D).  One thread: the rate is pure per-round cost, no
// barrier.
constexpr std::uint32_t kSparseHub = 0;
constexpr Ns kSparseHorizon = usec(200);
constexpr Ns kSparseLookahead = usec(1);

struct SparseLeaf {
  sim::ParallelSimulation& ps;
  std::uint32_t d;
  std::uint32_t next;  ///< the active leaf the hub forwards this one to
  void tick() {
    auto& s = ps.domain(d);
    if (s.now() >= kSparseHorizon) return;
    ps.post(kSparseHub, s.now() + kSparseLookahead, [this] {
      ps.post(next, ps.domain(kSparseHub).now() + kSparseLookahead, [] {});
    });
    s.schedule(250, [this] { tick(); });
  }
};

void BM_SparseManyDomains(benchmark::State& state) {
  const auto domains = static_cast<std::uint32_t>(state.range(0));
  // Leaves 1, D/3, 2D/3 and D-1: 1, 32, 64 and 95 at D = 96.
  const std::uint32_t active[] = {1, domains / 3, 2 * domains / 3,
                                  domains - 1};
  constexpr std::size_t kActive = std::size(active);
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::ParallelSimulation psim;
    for (std::uint32_t d = 0; d < domains; ++d) {
      psim.add_domain();
    }
    for (std::uint32_t d = 0; d < domains; ++d) {
      if (d == kSparseHub) continue;
      psim.set_lookahead(d, kSparseHub, kSparseLookahead);
      psim.set_lookahead(kSparseHub, d, kSparseLookahead);
    }
    std::vector<std::unique_ptr<SparseLeaf>> leaves;
    for (std::size_t i = 0; i < kActive; ++i) {
      leaves.push_back(std::make_unique<SparseLeaf>(
          SparseLeaf{psim, active[i], active[(i + 1) % kActive]}));
      SparseLeaf* leaf = leaves.back().get();
      psim.domain(leaf->d).schedule_at(i * 61, [leaf] { leaf->tick(); });
    }
    psim.run(kSparseHorizon + usec(5));
    events += psim.executed();
    benchmark::DoNotOptimize(psim.executed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_SparseManyDomains)->Arg(96)->Arg(512);

// ---- End-to-end --------------------------------------------------------

void BM_EchoNodeSimulatedMillisecond(benchmark::State& state) {
  std::uint64_t completed = 0;
  for (auto _ : state) {
    testbed::ParallelCluster cluster(testbed::kTorLatency);
    auto& server = cluster.add_server(testbed::ServerSpec{});
    const ActorId id =
        server.runtime().register_actor(std::make_unique<bench::EchoActor>());
    workloads::EchoWorkloadParams wl;
    wl.server = 0;
    wl.actor = id;
    wl.msg_type = 1;
    wl.frame_size = 512;
    auto& client = cluster.add_client(10.0, workloads::echo_workload(wl));
    client.start_closed_loop(8, msec(1));
    cluster.run_until(msec(2));
    completed += client.completed();
    benchmark::DoNotOptimize(client.completed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(completed));
}
BENCHMARK(BM_EchoNodeSimulatedMillisecond)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ipipe

BENCHMARK_MAIN();
