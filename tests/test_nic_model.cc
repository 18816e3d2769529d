#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <type_traits>

#include "hostsim/host_model.h"
#include "nic/accelerator.h"
#include "nic/cache_model.h"
#include "nic/dma_engine.h"
#include "nic/nic_config.h"
#include "nic/nic_model.h"
#include "sim/simulation.h"
#include "testbed/cluster.h"
#include "testbed/echo_firmware.h"
#include "workloads/app_workloads.h"
#include "workloads/client.h"

namespace ipipe {
namespace {

/// Echo goodput for a given card / frame size / active cores.
double echo_goodput_gbps(const nic::NicConfig& cfg, std::uint32_t frame,
                         unsigned cores, double client_gbps = 100.0) {
  testbed::BareFabric fabric;
  sim::Simulation& sim = fabric.sim();
  netsim::Network& net = fabric.net;
  nic::NicModel nic(sim, cfg, net, /*node=*/0);
  nic.set_active_cores(cores);
  // The echo server runs entirely on NIC cores; for off-path cards the
  // NIC switch steers the echo flow to the cores.
  nic.set_steer_to_nic([](const netsim::Packet&) { return true; });
  testbed::EchoFirmware echo;
  nic.set_firmware(&echo);

  workloads::EchoWorkloadParams params;
  params.server = 0;
  params.frame_size = frame;
  workloads::ClientGen client(sim, net, 1000, client_gbps,
                              workloads::echo_workload(params));
  const Ns duration = msec(10);
  // Open loop at (beyond) line rate of the NIC's link.
  const double rate = line_rate_pps(frame, cfg.link_gbps);
  client.set_warmup(msec(2));
  client.start_open_loop(rate * 1.05, duration, /*poisson=*/false);
  fabric.run(duration + msec(1));

  const double measured_window =
      to_sec(client.last_completion() - client.first_measured_completion());
  if (measured_window <= 0.0) return 0.0;
  const double pps =
      static_cast<double>(client.completed_after_warmup()) / measured_window;
  return goodput_gbps(pps, frame);
}

// Figure 2: cores needed for line rate on the 10GbE CN2350.
struct CoreReq {
  std::uint32_t frame;
  unsigned enough;  // cores that reach line rate
  unsigned not_enough;
};

class Fig2Calibration : public ::testing::TestWithParam<CoreReq> {};

TEST_P(Fig2Calibration, LiquidIoCoreCounts) {
  const auto cfg = nic::liquidio_cn2350();
  const auto [frame, enough, not_enough] = GetParam();
  const double line = goodput_gbps(line_rate_pps(frame, 10.0), frame);
  EXPECT_GT(echo_goodput_gbps(cfg, frame, enough), 0.95 * line)
      << frame << "B with " << enough << " cores should reach line rate";
  EXPECT_LT(echo_goodput_gbps(cfg, frame, not_enough), 0.97 * line)
      << frame << "B with " << not_enough << " cores should fall short";
}

INSTANTIATE_TEST_SUITE_P(PaperFigure2, Fig2Calibration,
                         ::testing::Values(CoreReq{256, 10, 9},
                                           CoreReq{512, 6, 5},
                                           CoreReq{1024, 4, 3},
                                           CoreReq{1500, 3, 2}));

TEST(Fig2Calibration, SmallFramesCannotReachLineRateEvenWithAllCores) {
  const auto cfg = nic::liquidio_cn2350();
  EXPECT_LT(echo_goodput_gbps(cfg, 64, 12),
            0.9 * goodput_gbps(line_rate_pps(64, 10.0), 64));
  EXPECT_LT(echo_goodput_gbps(cfg, 128, 12),
            0.9 * goodput_gbps(line_rate_pps(128, 10.0), 128));
}

// Figure 3: Stingray core counts.
class Fig3Calibration : public ::testing::TestWithParam<CoreReq> {};

TEST_P(Fig3Calibration, StingrayCoreCounts) {
  const auto cfg = nic::stingray_ps225();
  const auto [frame, enough, not_enough] = GetParam();
  const double line = goodput_gbps(line_rate_pps(frame, 25.0), frame);
  EXPECT_GT(echo_goodput_gbps(cfg, frame, enough), 0.95 * line);
  EXPECT_LT(echo_goodput_gbps(cfg, frame, not_enough), 0.97 * line);
}

INSTANTIATE_TEST_SUITE_P(PaperFigure3, Fig3Calibration,
                         ::testing::Values(CoreReq{256, 3, 2},
                                           CoreReq{512, 2, 1},
                                           CoreReq{1024, 1, 0}));

TEST(Fig3Calibration, Stingray128BLimitedByPacketRateCeiling) {
  const auto cfg = nic::stingray_ps225();
  // 8 cores have enough compute for 128B line rate, but the NIC-wide
  // packet-rate ceiling gates it (Fig. 3).
  EXPECT_LT(echo_goodput_gbps(cfg, 128, 8),
            0.92 * goodput_gbps(line_rate_pps(128, 25.0), 128));
}

TEST(CacheModel, Table2PointerChaseLatencies) {
  // Working sets entirely inside one level must report that level's
  // latency (Table 2).
  auto check = [](const nic::NicConfig& cfg, double l1, double l2, double dram) {
    nic::CacheModel cache = nic::CacheModel::for_nic(cfg);
    EXPECT_NEAR(cache.expected_access_ns(16 * KiB), l1, 0.01);
    // Working set of half L2: mostly L2 latency with an L1 fraction.
    const double mid = cache.expected_access_ns(cfg.l2.capacity_bytes / 2);
    EXPECT_GT(mid, l1);
    EXPECT_LE(mid, l2);
    // Huge working set: approaches DRAM latency.
    EXPECT_NEAR(cache.expected_access_ns(2 * GiB), dram, dram * 0.05);
  };
  check(nic::liquidio_cn2350(), 8.3, 55.8, 115.0);
  check(nic::bluefield_1m332a(), 5.0, 25.6, 132.0);
  check(nic::stingray_ps225(), 1.3, 25.1, 85.3);
}

TEST(CacheModel, HostHierarchyFasterThanNics) {
  auto host = nic::CacheModel::intel_host();
  auto liquidio = nic::CacheModel::for_nic(nic::liquidio_cn2350());
  for (const std::uint64_t ws : {16 * KiB, 1 * MiB, 64 * MiB}) {
    EXPECT_LT(host.expected_access_ns(ws), liquidio.expected_access_ns(ws));
  }
}

TEST(CacheModel, StochasticAccessMatchesExpectation) {
  auto cache = nic::CacheModel::for_nic(nic::liquidio_cn2350());
  Rng rng(3);
  const std::uint64_t ws = 16 * MiB;
  double total = 0.0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) {
    total += static_cast<double>(cache.access(rng, ws));
  }
  EXPECT_NEAR(total / n, cache.expected_access_ns(ws), 1.0);
  EXPECT_EQ(cache.accesses(), static_cast<std::uint64_t>(n));
  EXPECT_GT(cache.llc_misses(), 0u);
}

TEST(Accelerator, Table3BatchLatenciesReproduced) {
  const nic::AcceleratorBank bank;
  struct Row {
    nic::AccelKind kind;
    double b1, b8, b32;  // µs per item at 1KB, from Table 3
  };
  const Row rows[] = {
      {nic::AccelKind::kCrc, 2.6, 0.7, 0.3},
      {nic::AccelKind::kMd5, 5.0, 3.1, 3.0},
      {nic::AccelKind::kSha1, 3.5, 1.2, 0.9},
      {nic::AccelKind::kTripleDes, 3.4, 1.3, 1.1},
      {nic::AccelKind::kAes, 2.7, 1.0, 0.8},
      {nic::AccelKind::kKasumi, 2.7, 1.1, 0.9},
      {nic::AccelKind::kSms4, 3.5, 1.4, 1.2},
      {nic::AccelKind::kSnow3g, 2.3, 0.9, 0.8},
      {nic::AccelKind::kDfa, 9.2, 7.5, 7.3},
  };
  for (const auto& row : rows) {
    EXPECT_NEAR(bank.per_item_us(row.kind, 1024, 1), row.b1, 0.01)
        << accel_name(row.kind);
    EXPECT_NEAR(bank.per_item_us(row.kind, 1024, 8), row.b8, 0.3)
        << accel_name(row.kind);
    EXPECT_NEAR(bank.per_item_us(row.kind, 1024, 32), row.b32, 0.01)
        << accel_name(row.kind);
  }
  // ZIP: 190.9µs, not batchable.
  EXPECT_NEAR(bank.per_item_us(nic::AccelKind::kZip, 1024, 1), 190.9, 0.1);
}

TEST(Accelerator, CostScalesWithBytes) {
  const nic::AcceleratorBank bank;
  const auto at_1k = bank.batch_cost(nic::AccelKind::kAes, 1024, 1);
  const auto at_4k = bank.batch_cost(nic::AccelKind::kAes, 4096, 1);
  EXPECT_GT(at_4k, at_1k);
  EXPECT_LT(at_4k, 4 * at_1k);  // invocation overhead amortizes
}

TEST(DmaEngine, BlockingLatencyShape) {
  sim::Simulation sim;
  nic::DmaEngine dma(sim, nic::DmaTiming{});
  // Small ops dominated by the fixed base; large ops by the transfer.
  const Ns small_read = dma.blocking_read_latency(4);
  const Ns big_read = dma.blocking_read_latency(2048);
  EXPECT_NEAR(static_cast<double>(small_read), 900.0, 20.0);
  EXPECT_GT(big_read, small_read + 300);
  // Writes are faster than reads (no completion payload).
  EXPECT_LT(dma.blocking_write_latency(2048), big_read);
}

TEST(DmaEngine, NonBlockingPostIsFlat) {
  sim::Simulation sim;
  nic::DmaEngine dma(sim, nic::DmaTiming{});
  const Ns post_small = dma.nonblocking_write(4, nullptr);
  const Ns post_big = dma.nonblocking_write(2048, nullptr);
  EXPECT_EQ(post_small, post_big);  // queue not saturated
  sim.run();
}

TEST(DmaEngine, CompletionCallbacksFireInOrder) {
  sim::Simulation sim;
  nic::DmaEngine dma(sim, nic::DmaTiming{});
  std::vector<int> order;
  dma.nonblocking_write(64, [&] { order.push_back(1); });
  dma.nonblocking_write(64, [&] { order.push_back(2); });
  dma.nonblocking_read(64, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(dma.ops_issued(), 3u);
  EXPECT_EQ(dma.outstanding(), 0u);
}

TEST(DmaEngine, QueueBackpressureRaisesPostCost) {
  sim::Simulation sim;
  nic::DmaTiming timing;
  timing.queue_depth = 4;
  nic::DmaEngine dma(sim, timing);
  Ns last_post = 0;
  for (int i = 0; i < 16; ++i) last_post = dma.nonblocking_write(2048, nullptr);
  EXPECT_GT(last_post, timing.nonblocking_post);
  sim.run();
}

TEST(RdmaModel, RoughlyDoublesBlockingDmaLatency) {
  sim::Simulation sim;
  const auto cfg = nic::bluefield_1m332a();
  nic::DmaEngine dma(sim, cfg.dma);
  nic::RdmaModel rdma(cfg.rdma);
  // §2.2.5: RDMA verbs nearly double the blocking-DMA latency.
  const double ratio =
      static_cast<double>(rdma.read_latency(64)) /
      static_cast<double>(dma.blocking_read_latency(64));
  EXPECT_GT(ratio, 1.7);
  EXPECT_LT(ratio, 3.0);
}

TEST(NicModel, DumbNicDeliversToHost) {
  testbed::BareFabric fabric;
  sim::Simulation& sim = fabric.sim();
  netsim::Network& net = fabric.net;
  nic::NicModel nic(sim, nic::intel_xl710(), net, 0);
  std::vector<netsim::PacketPtr> host_rx;
  nic.set_host_rx([&](netsim::PacketPtr p) { host_rx.push_back(std::move(p)); });

  auto pkt = netsim::alloc_packet();
  pkt->src = 1;
  pkt->dst = 0;
  pkt->frame_size = 256;
  // Use a second endpoint to inject.
  class Null : public netsim::Endpoint {
    void receive(netsim::PacketPtr) override {}
  } null_ep;
  net.attach(1, null_ep, 10.0);
  net.send(std::move(pkt));
  fabric.run();
  ASSERT_EQ(host_rx.size(), 1u);
  EXPECT_EQ(nic.to_host_frames(), 1u);
}

TEST(NicModel, AdmissionPacingEnforcesMaxPps) {
  testbed::BareFabric fabric;
  sim::Simulation& sim = fabric.sim();
  netsim::Network& net = fabric.net;
  auto cfg = nic::liquidio_cn2350();
  cfg.max_pps = 1e6;  // 1us gap
  nic::NicModel nic(sim, cfg, net, 0);
  testbed::EchoFirmware echo;
  nic.set_firmware(&echo);

  workloads::EchoWorkloadParams params;
  params.server = 0;
  params.frame_size = 64;
  workloads::ClientGen client(sim, net, 1000, 100.0,
                              workloads::echo_workload(params));
  client.start_open_loop(5e6, msec(5), false);
  fabric.run(msec(6));
  // Admission paced at ~1Mpps over the 6ms simulated window.
  EXPECT_LE(echo.echoed(), 6300u);
  EXPECT_GT(echo.echoed(), 5000u);
}


// ---- the core execution protocol, on both devices --------------------------

/// Counts the frames the fabric delivers to node 1.
class FrameSink final : public netsim::Endpoint {
 public:
  void receive(netsim::PacketPtr) override { ++frames; }
  std::uint64_t frames = 0;
};

/// One NIC on node 0 with its host RX ring counted, and a frame sink on
/// node 1.
struct CoreRig {
  CoreRig() {
    nic.set_host_rx([this](netsim::PacketPtr) { ++host_deliveries; });
    fabric.net.attach(1, sink, 10.0);
  }
  static netsim::PacketPtr frame_to_sink() {
    auto pkt = netsim::alloc_packet();
    pkt->dst = 1;
    pkt->frame_size = 64;
    return pkt;
  }

  testbed::BareFabric fabric;
  nic::NicModel nic{fabric.sim(), nic::liquidio_cn2350(), fabric.net, 0};
  FrameSink sink;
  std::uint64_t host_deliveries = 0;
};

/// The NIC cores under test: firmware programs, `tx` goes to the wire.
struct NicCores : CoreRig {
  using Context = nic::NicExecContext;
  using Program = nic::NicFirmware;
  nic::NicModel& device() { return nic; }
  void install(Program* program) { nic.set_firmware(program); }
  /// Queue one item for the cores (a traffic-manager push) / take one.
  void enqueue(netsim::PacketPtr pkt) { nic.tm().push(std::move(pkt)); }
  static netsim::PacketPtr take(Context& ctx) { return ctx.nic().tm().pop(); }
};

/// The host cores under test: host runtimes, `tx` goes through the NIC
/// (which has no firmware, so straight to the wire).
struct HostCores : CoreRig {
  using Context = hostsim::HostExecContext;
  using Program = hostsim::HostRuntime;
  hostsim::HostModel& device() { return host; }
  void install(Program* program) { host.set_runtime(program); }
  /// Queue one item for the cores (a host RX ring push) / take one.
  void enqueue(netsim::PacketPtr pkt) { host.rx_push(std::move(pkt)); }
  static netsim::PacketPtr take(Context& ctx) { return ctx.host().rx_pop(); }

  // Constructed after the base, so the host takes over the RX ring.
  hostsim::HostModel host{fabric.sim(), hostsim::HostConfig{}, nic};
};

/// A program whose work item is a test-supplied function of the call
/// index on its core.
template <class Side>
class ScriptedProgram final : public Side::Program {
 public:
  using Step = std::function<bool(typename Side::Context&, unsigned call)>;
  explicit ScriptedProgram(Step step) : step_(std::move(step)) {}

  bool run_once(typename Side::Context& ctx, unsigned core) override {
    if (core >= calls.size()) calls.resize(core + 1, 0);
    return step_(ctx, calls[core]++);
  }
  std::vector<unsigned> calls;  ///< run_once calls per core

 private:
  Step step_;
};

template <class Side>
class CoreProtocol : public ::testing::Test {
 protected:
  Side side;
};

using Sides = ::testing::Types<NicCores, HostCores>;
TYPED_TEST_SUITE(CoreProtocol, Sides);

TYPED_TEST(CoreProtocol, ReusedContextReplaysNothing) {
  auto& side = this->side;
  unsigned deferred = 0;
  ScriptedProgram<TypeParam> program([&](auto& ctx, unsigned call) {
    if (ctx.core() != 0 || call >= 3) return false;
    if (call == 0) {
      ctx.tx(CoreRig::frame_to_sink());
      if constexpr (requires { ctx.to_host(CoreRig::frame_to_sink()); }) {
        ctx.to_host(CoreRig::frame_to_sink());
      }
      ctx.defer([&] { ++deferred; });
    }
    ctx.charge(100);
    return true;
  });
  side.install(&program);
  side.fabric.run();

  EXPECT_EQ(program.calls[0], 4u);  // three work items, then park
  EXPECT_EQ(side.sink.frames, 1u);
  EXPECT_EQ(deferred, 1u);
  constexpr bool kHasToHost = std::is_same_v<TypeParam, NicCores>;
  EXPECT_EQ(side.host_deliveries, kHasToHost ? 1u : 0u);
  EXPECT_EQ(side.device().core_busy_ns(0), 300u);
}

TYPED_TEST(CoreProtocol, DeferredSelfWakeDoesNotRunTheCoreTwice) {
  auto& side = this->side;
  Ns busy_until = 0;
  ScriptedProgram<TypeParam> program([&](auto& ctx, unsigned call) {
    if (ctx.core() != 0) return false;
    // No work item may start while the previous one is in flight.
    EXPECT_GE(ctx.now(), busy_until) << "call " << call;
    if (call >= 2) return false;
    if (call == 0) {
      ctx.defer([&side] { side.device().wake_core(0); });
    }
    ctx.charge(100);
    busy_until = ctx.now() + 100;
    return true;
  });
  side.install(&program);
  side.fabric.run();

  // Two work items and one idle call that parks the core.
  EXPECT_EQ(program.calls[0], 3u);
  EXPECT_EQ(side.device().core_busy_ns(0), 200u);
}

TYPED_TEST(CoreProtocol, PerCoreBusyTimeSumsToTotal) {
  auto& side = this->side;
  // Core c runs c + 1 work items of (c + 1) * 10 ns each.
  ScriptedProgram<TypeParam> program([&](auto& ctx, unsigned call) {
    const unsigned items = ctx.core() + 1;
    if (call >= items) return false;
    ctx.charge(static_cast<Ns>(items) * 10);
    return true;
  });
  side.install(&program);
  side.fabric.run();

  const unsigned cores = side.device().active_cores();
  ASSERT_GT(cores, 1u);
  Ns sum = 0;
  Ns expected = 0;
  for (unsigned c = 0; c < cores; ++c) {
    const Ns items = c + 1;
    EXPECT_EQ(side.device().core_busy_ns(c), items * items * 10) << "core " << c;
    sum += side.device().core_busy_ns(c);
    expected += items * items * 10;
  }
  EXPECT_EQ(sum, side.device().total_busy_ns());
  EXPECT_EQ(sum, expected);
}

TYPED_TEST(CoreProtocol, CoreWithoutProgramParksAndStaysParked) {
  auto& side = this->side;
  side.device().wake_all();
  side.device().wake_core_at(0, usec(5));
  side.fabric.run();  // drains: a parked core schedules nothing further
  EXPECT_EQ(side.device().total_busy_ns(), 0u);

  // The cores really parked (rather than staying woken): installing a
  // program wakes every one of them.
  ScriptedProgram<TypeParam> program(
      [](auto& /*ctx*/, unsigned /*call*/) { return false; });
  side.install(&program);
  side.fabric.engine.run();  // the lookahead is already installed
  ASSERT_EQ(program.calls.size(), side.device().active_cores());
  for (const unsigned calls : program.calls) EXPECT_EQ(calls, 1u);
}

// ---- wake-one: an enqueued item wakes one parked core --------------------

/// A program that takes one queued item per call (100 ns each) on every
/// core except those `declines` says to skip, recording which core took
/// what and when.
template <class Side>
struct TakeItems {
  explicit TakeItems(std::function<bool(unsigned core)> declines =
                         [](unsigned) { return false; })
      : program([this, declines](auto& ctx, unsigned /*call*/) {
          if (declines(ctx.core())) return false;
          auto pkt = Side::take(ctx);
          if (!pkt) return false;
          ++taken[ctx.core()];
          taken_at.push_back(ctx.now());
          ctx.charge(100);
          return true;
        }) {}

  ScriptedProgram<Side> program;
  std::map<unsigned, unsigned> taken;  ///< items per core that took any
  std::vector<Ns> taken_at;
};

/// Install `program` and let every core park after its idle first call.
template <class Side>
std::vector<unsigned> park_all(Side& side, ScriptedProgram<Side>& program) {
  side.install(&program);
  side.fabric.run();
  EXPECT_EQ(program.calls.size(), side.device().active_cores());
  return program.calls;
}

// On the host side the item is an rx_push into the host RX ring.
TYPED_TEST(CoreProtocol, OneQueuedItemWakesOneParkedCore) {
  auto& side = this->side;
  TakeItems<TypeParam> work;
  const auto parked = park_all(side, work.program);

  side.enqueue(CoreRig::frame_to_sink());
  side.fabric.engine.run();

  // Core 0 runs the item and then once more to park; no other core runs.
  EXPECT_EQ(work.taken, (std::map<unsigned, unsigned>{{0, 1}}));
  EXPECT_EQ(work.program.calls[0], parked[0] + 2);
  for (unsigned c = 1; c < parked.size(); ++c) {
    EXPECT_EQ(work.program.calls[c], parked[c]) << "core " << c;
  }
}

TYPED_TEST(CoreProtocol, TwoItemsAtOneInstantWakeTwoCores) {
  auto& side = this->side;
  TakeItems<TypeParam> work;
  const auto parked = park_all(side, work.program);

  side.enqueue(CoreRig::frame_to_sink());
  side.enqueue(CoreRig::frame_to_sink());
  side.fabric.engine.run();

  EXPECT_EQ(work.taken, (std::map<unsigned, unsigned>{{0, 1}, {1, 1}}));
  ASSERT_EQ(work.taken_at.size(), 2u);
  EXPECT_EQ(work.taken_at[0], work.taken_at[1]);  // in parallel, not queued
  for (unsigned c = 2; c < parked.size(); ++c) {
    EXPECT_EQ(work.program.calls[c], parked[c]) << "core " << c;
  }
}

TYPED_TEST(CoreProtocol, DecliningCoreHandsTheWakeOn) {
  auto& side = this->side;
  // Core 0 never takes queued items (like a DRR core with no run queue).
  TakeItems<TypeParam> work([](unsigned core) { return core == 0; });
  const auto parked = park_all(side, work.program);

  side.enqueue(CoreRig::frame_to_sink());
  side.fabric.engine.run();

  // Core 0 was woken, declined, and passed the wake to core 1: nothing
  // is stranded, and no core beyond the taker ran.
  EXPECT_EQ(work.taken, (std::map<unsigned, unsigned>{{1, 1}}));
  EXPECT_EQ(work.program.calls[0], parked[0] + 1);
  EXPECT_EQ(work.program.calls[1], parked[1] + 2);
  for (unsigned c = 2; c < parked.size(); ++c) {
    EXPECT_EQ(work.program.calls[c], parked[c]) << "core " << c;
  }
  EXPECT_FALSE(side.device().work_pending());
}

TYPED_TEST(CoreProtocol, CoreBusyWithOtherWorkHandsTheWakeOn) {
  auto& side = this->side;
  // Core 0's next call does 10 us of its own work instead of the item
  // (like the management core advancing a migration).
  bool other_work = false;
  std::vector<Ns> taken_at;
  ScriptedProgram<TypeParam> program([&](auto& ctx, unsigned /*call*/) {
    if (ctx.core() == 0 && other_work) {
      other_work = false;
      ctx.charge(usec(10));
      return true;
    }
    if (ctx.core() == 0) return false;
    auto pkt = TypeParam::take(ctx);
    if (!pkt) return false;
    taken_at.push_back(ctx.now());
    ctx.charge(100);
    return true;
  });
  park_all(side, program);

  other_work = true;
  const Ns pushed = side.fabric.sim().now();
  side.enqueue(CoreRig::frame_to_sink());
  side.fabric.engine.run();

  // Another core took the item at once, not after core 0's 10 us.
  ASSERT_EQ(taken_at.size(), 1u);
  EXPECT_EQ(taken_at[0], pushed);
}

}  // namespace
}  // namespace ipipe
