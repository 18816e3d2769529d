// NF pipeline runtime tests: the spec parser, the ten adapter stages
// under a test StageCtx (golden verdict sequences + determinism), the
// satellite NF regressions (leaky-bucket oversized wedge, Maglev
// non-prime table), NicPool placement, and end-to-end cluster pipelines
// with cross-stage packet-order preservation.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "apps/nf/count_min.h"
#include "apps/nf/leaky_bucket.h"
#include "apps/nf/maglev.h"
#include "common/rng.h"
#include "common/units.h"
#include "netsim/packet.h"
#include "nfp/nic_pool.h"
#include "nfp/pipeline.h"
#include "nfp/spec.h"
#include "nfp/stage.h"
#include "testbed/cluster.h"
#include "text_mutator.h"

namespace ipipe {
namespace {

// ---------------------------------------------------------------------------
// Satellite regression: LeakyBucket oversized packets must be rejected at
// offer() — the old code queued them, wedging the FIFO head forever.

TEST(LeakyBucket, OversizedPacketIsDroppedNotQueued) {
  nf::LeakyBucket lb(/*rate_bps=*/8192, /*burst_bytes=*/1024,
                     /*queue_cap=*/4);
  EXPECT_FALSE(lb.offer(0, 2048));  // larger than the bucket depth
  EXPECT_EQ(lb.dropped(), 1u);
  EXPECT_EQ(lb.oversized(), 1u);
  EXPECT_EQ(lb.queued(), 0u);  // old code: queued()==1 and wedged

  // The head is not wedged: conforming traffic still flows.
  EXPECT_TRUE(lb.offer(0, 512));
  EXPECT_FALSE(lb.offer(0, 1024));  // queued (tokens exhausted)
  EXPECT_EQ(lb.queued(), 1u);
  EXPECT_EQ(lb.drain(sec(2)), 1u);  // ...and is releasable
  EXPECT_EQ(lb.queued(), 0u);
}

TEST(LeakyBucket, ExactBurstBoundaryPasses) {
  nf::LeakyBucket lb(8192, 1024, 4);
  EXPECT_TRUE(lb.offer(0, 1024));  // bytes == burst conforms
  EXPECT_EQ(lb.passed(), 1u);
  EXPECT_EQ(lb.oversized(), 0u);
}

TEST(LeakyBucket, AccountingInvariantHolds) {
  // passed + dropped + queued == total offers, at every step, across a
  // mixed random sequence of offers and drains.
  nf::LeakyBucket lb(1e6, 4096, 8);
  Rng rng(99);
  std::uint64_t offers = 0;
  Ns now = 0;
  for (int i = 0; i < 2000; ++i) {
    now += rng.uniform_u64(usec(20));
    if (rng.bernoulli(0.2)) {
      lb.drain(now);
    } else {
      // Mix of conforming, queueable and oversized sizes.
      const std::uint32_t bytes =
          static_cast<std::uint32_t>(64 + rng.uniform_u64(8192));
      lb.offer(now, bytes);
      ++offers;
    }
    ASSERT_EQ(lb.passed() + lb.dropped() + lb.queued(), offers);
  }
  EXPECT_GT(lb.passed(), 0u);
  EXPECT_GT(lb.dropped(), 0u);
  EXPECT_GT(lb.oversized(), 0u);
}

// ---------------------------------------------------------------------------
// Satellite regression: Maglev with a composite table size.  The old
// population loop required a prime size to terminate; construction with
// 4096 would spin forever.  All-dead tables must degrade to kNoBackend
// lookups instead of asserting.

bool is_prime(std::size_t n) {
  if (n < 2) return false;
  for (std::size_t d = 2; d * d <= n; ++d) {
    if (n % d == 0) return false;
  }
  return true;
}

TEST(Maglev, CompositeTableSizeRoundsUpToPrimeAndTerminates) {
  const std::vector<std::string> backends = {"a", "b", "c", "d"};
  nf::MaglevTable t(backends, 4096);  // old code: infinite loop here
  EXPECT_GE(t.table_size(), 4096u);
  EXPECT_TRUE(is_prime(t.table_size()));
  // Every slot is populated with a live backend.
  std::size_t assigned = 0;
  for (const std::size_t n : t.load_distribution()) assigned += n;
  EXPECT_EQ(assigned, t.table_size());
}

TEST(Maglev, RemoveUntilEmptyDegradesToNoBackend) {
  nf::MaglevTable t({"a", "b", "c"}, 101);
  const double d0 = t.remove_backend(0);
  EXPECT_GT(d0, 0.0);
  EXPECT_LE(d0, 1.0);
  EXPECT_EQ(t.remove_backend(0), 0.0);  // already dead: no-op
  (void)t.remove_backend(1);
  (void)t.remove_backend(2);  // old code: assert / UB on the last removal
  EXPECT_EQ(t.alive_count(), 0u);
  for (std::uint64_t h = 0; h < 64; ++h) {
    EXPECT_EQ(t.lookup(h), nf::MaglevTable::kNoBackend);
  }
  EXPECT_EQ(t.remove_backend(99), 0.0);  // unknown index: no-op
}

// ---------------------------------------------------------------------------
// Satellite: count-min sketch under saturation — a deliberately tiny
// sketch hammered far past its capacity must keep the one-sided error
// guarantee (never underestimate) and exact totals.

TEST(CountMin, SaturatedSketchNeverUnderestimates) {
  nf::CountMinSketch sketch(64, 2);
  std::map<std::uint64_t, std::uint64_t> truth;
  Rng rng(5);
  for (int i = 0; i < 100'000; ++i) {
    const std::uint64_t key = rng.uniform_u64(1024);
    sketch.add(key);
    ++truth[key];
  }
  EXPECT_EQ(sketch.total(), 100'000u);
  for (const auto& [key, count] : truth) {
    ASSERT_GE(sketch.estimate(key), count);
  }
  // Large per-add counts do not wrap.
  nf::CountMinSketch big(64, 2);
  big.add(1, std::uint64_t{1} << 40);
  big.add(1, std::uint64_t{1} << 40);
  EXPECT_GE(big.estimate(1), std::uint64_t{2} << 40);
}

// ---------------------------------------------------------------------------
// Spec parser.

TEST(PipelineSpec, ParsesStagesArgsAndUnits) {
  const auto spec = nfp::parse_pipeline(
      "firewall | ratelimit(1Gbps) | maglev(8) | counter");
  ASSERT_EQ(spec.depth(), 4u);
  EXPECT_EQ(spec.stages[0].kind, "firewall");
  EXPECT_EQ(spec.stages[1].kind, "ratelimit");
  ASSERT_EQ(spec.stages[1].args.size(), 1u);
  EXPECT_DOUBLE_EQ(spec.stages[1].args[0], 1e9);
  EXPECT_DOUBLE_EQ(spec.stages[2].args[0], 8.0);
  EXPECT_EQ(spec.stages[3].kind, "counter");
}

TEST(PipelineSpec, ParsesKeyValueArgs) {
  const auto spec =
      nfp::parse_pipeline("ratelimit(rate=500Mbps, burst=32K, cap=128)");
  ASSERT_EQ(spec.depth(), 1u);
  EXPECT_DOUBLE_EQ(spec.stages[0].kv.at("rate"), 5e8);
  EXPECT_DOUBLE_EQ(spec.stages[0].kv.at("burst"), 32.0 * 1024);
  EXPECT_DOUBLE_EQ(spec.stages[0].kv.at("cap"), 128.0);
  // param(): kv beats positional beats fallback.
  EXPECT_DOUBLE_EQ(spec.stages[0].param(0, "rate", 1.0), 5e8);
  EXPECT_DOUBLE_EQ(spec.stages[0].param(0, "missing", 7.0), 7.0);
}

TEST(PipelineSpec, ParseNumberUnits) {
  EXPECT_DOUBLE_EQ(nfp::parse_number("10"), 10.0);
  EXPECT_DOUBLE_EQ(nfp::parse_number("2.5Mbps"), 2.5e6);
  EXPECT_DOUBLE_EQ(nfp::parse_number("1Gbps"), 1e9);
  EXPECT_DOUBLE_EQ(nfp::parse_number("3Kbps"), 3e3);
  EXPECT_DOUBLE_EQ(nfp::parse_number("64K"), 65536.0);
  EXPECT_DOUBLE_EQ(nfp::parse_number("2M"), 2.0 * 1024 * 1024);
  EXPECT_THROW((void)nfp::parse_number("12xyz"), std::invalid_argument);
  EXPECT_THROW((void)nfp::parse_number(""), std::invalid_argument);
}

TEST(PipelineSpec, RejectsMalformedPipelines) {
  EXPECT_THROW((void)nfp::parse_pipeline(""), std::invalid_argument);
  EXPECT_THROW((void)nfp::parse_pipeline("   "), std::invalid_argument);
  EXPECT_THROW((void)nfp::parse_pipeline("firewall |"), std::invalid_argument);
  EXPECT_THROW((void)nfp::parse_pipeline("| firewall"), std::invalid_argument);
  EXPECT_THROW((void)nfp::parse_pipeline("maglev(8"), std::invalid_argument);
  EXPECT_THROW((void)nfp::parse_pipeline("maglev(8,)"), std::invalid_argument);
  EXPECT_THROW((void)nfp::parse_pipeline("ratelimit(rate=)"),
               std::invalid_argument);
  // Unknown kinds parse (the grammar is open) but fail instantiation.
  const auto spec = nfp::parse_pipeline("warpdrive(9)");
  EXPECT_THROW((void)nfp::make_stage(spec.stages[0]), std::invalid_argument);
}

/// Parse `text` expecting a spec error; returns the message for
/// content checks (every parser error is position-annotated).
std::string parse_error_of(const std::string& text) {
  try {
    (void)nfp::parse_pipeline(text);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected spec error for: " << text;
  return {};
}

TEST(PipelineSpec, RejectsDuplicateNamedArgs) {
  // Regression: `rate=1Gbps, rate=2Gbps` used to silently keep the last
  // binding.  Now it is a spec error carrying the offending offset.
  const std::string msg =
      parse_error_of("ratelimit(rate=1Gbps, rate=2Gbps)");
  EXPECT_NE(msg.find("duplicate parameter 'rate'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("at offset"), std::string::npos) << msg;
}

TEST(PipelineSpec, RejectsNamedArgCollidingWithPositional) {
  // `maglev(8, backends=16)` binds `backends` twice: positionally (the
  // 8) and by name.  The old parser let the name win silently.
  const std::string msg = parse_error_of("maglev(8, backends=16)");
  EXPECT_NE(msg.find("'backends' already bound positionally"),
            std::string::npos)
      << msg;
  // ...whereas naming a *different* parameter after a positional is the
  // documented mixed style and still parses.
  const auto ok = nfp::parse_pipeline("maglev(8, table=17)");
  EXPECT_EQ(ok.stages[0].args.size(), 1u);
  EXPECT_EQ(ok.stages[0].kv.count("table"), 1u);
}

TEST(PipelineSpec, RejectsPositionalAfterNamed) {
  const std::string msg = parse_error_of("counter(width=2048, 4)");
  EXPECT_NE(msg.find("positional argument after named argument"),
            std::string::npos)
      << msg;
}

TEST(PipelineSpec, RejectsUnknownAndOverflowingParams) {
  EXPECT_NE(parse_error_of("ratelimit(frobnicate=1)")
                .find("unknown parameter 'frobnicate'"),
            std::string::npos);
  EXPECT_NE(parse_error_of("maglev(8, 17, 99)")
                .find("too many positional arguments"),
            std::string::npos);
}

TEST(Stages, CounterRejectsZeroDimensions) {
  // Regression: counter(0) built a CountMinSketch with width 0 — a
  // mod-by-zero in index() (UB).  The spec/factory layer rejects it.
  for (const char* bad :
       {"counter(0)", "counter(width=0)", "counter(2048, 0)",
        "counter(depth=0)"}) {
    const auto spec = nfp::parse_pipeline(bad);
    EXPECT_THROW((void)nfp::make_stage(spec.stages[0]), std::invalid_argument)
        << bad;
  }
  // Zero stays legal where it is meaningful (catch-all firewall).
  const auto fw = nfp::parse_pipeline("firewall(0)");
  EXPECT_NE(nfp::make_stage(fw.stages[0]), nullptr);
}

TEST(PipelineSpec, NormalizedTextRoundTrips) {
  // Values of seven significant digits must print in full, not as
  // 1e+06 / 1.23457e+06.
  for (const char* text :
       {"  firewall( rules = 64 )|ratelimit(1Gbps,cap=32)  | counter",
        "maglev(1000003)", "ratelimit(1234567)"}) {
    const auto a = nfp::parse_pipeline(text);
    const auto b = nfp::parse_pipeline(a.text);
    EXPECT_EQ(a.text, b.text);
    ASSERT_EQ(a.depth(), b.depth());
    for (std::size_t i = 0; i < a.depth(); ++i) {
      EXPECT_EQ(a.stages[i].kind, b.stages[i].kind);
      EXPECT_EQ(a.stages[i].args, b.stages[i].args) << text;
      EXPECT_EQ(a.stages[i].kv, b.stages[i].kv);
    }
  }
}

TEST(PipelineSpec, MutatedSpecsNeverCrashAndRoundTrip) {
  // The specs the nf benches run, plus this file's parser inputs.
  const std::vector<std::string> seeds = {
      "firewall(128) | ratelimit(2Gbps) | maglev(8) | counter",
      "firewall(128) | counter",
      "firewall(128) | ratelimit(500Mbps) | maglev(8) | "
      "pfabric(cap=256,quantum=8) | classify | counter",
      "firewall(128) | ipsec | maglev(8) | counter",
      "ratelimit(rate=500Mbps, burst=32K, cap=128)",
      "  firewall( rules = 64 )|ratelimit(1Gbps,cap=32)  | counter",
      "maglev(8, table=17)",
  };
  Rng rng(18);
  std::size_t parsed = 0;
  for (int i = 0; i < 4000; ++i) {
    const std::string text = fuzztest::mutate(seeds[i % seeds.size()], rng);
    nfp::PipelineSpec a;
    try {
      a = nfp::parse_pipeline(text);
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("at offset"), std::string::npos)
          << text << " -> " << e.what();
      continue;
    }
    ++parsed;
    nfp::PipelineSpec b;
    try {
      b = nfp::parse_pipeline(a.text);
    } catch (const std::invalid_argument& e) {
      ADD_FAILURE() << text << " -> " << a.text << " -> " << e.what();
      continue;
    }
    EXPECT_EQ(b.text, a.text) << text;
    ASSERT_EQ(a.depth(), b.depth()) << text;
    for (std::size_t s = 0; s < a.depth(); ++s) {
      EXPECT_EQ(a.stages[s].kind, b.stages[s].kind) << text;
      EXPECT_EQ(a.stages[s].args, b.stages[s].args) << text;
      EXPECT_EQ(a.stages[s].kv, b.stages[s].kv) << text;
    }
  }
  // The mix must exercise both outcomes, not just the error path.
  EXPECT_GT(parsed, 400u);
  EXPECT_LT(parsed, 3600u);
}

TEST(PipelineSpec, EveryKnownKindInstantiates) {
  for (const auto& kind : nfp::stage_kinds()) {
    nfp::StageSpec spec;
    spec.kind = kind;
    const auto stage = nfp::make_stage(spec, 7);
    ASSERT_NE(stage, nullptr);
    EXPECT_EQ(stage->name(), kind);
  }
}

// ---------------------------------------------------------------------------
// Per-stage golden tests under a test StageCtx.

class TestCtx final : public nfp::StageCtx {
 public:
  TestCtx() : rng_(7) {}

  [[nodiscard]] Ns now() const override { return now_; }
  [[nodiscard]] Rng& rng() override { return rng_; }
  void charge(Ns t) override { charged += t; }
  void compute(double units) override { charged += static_cast<Ns>(units); }
  void mem(std::uint64_t, std::uint64_t n) override {
    charged += static_cast<Ns>(n);
  }
  void accel(nic::AccelKind, std::uint32_t, std::uint32_t) override {
    charged += 1;
  }
  [[nodiscard]] netsim::PacketPtr clone(const netsim::Packet& src) override {
    return netsim::PacketPtr(new netsim::Packet(src),
                             netsim::PacketDeleter{nullptr});
  }

  void advance(Ns d) { now_ += d; }

  std::vector<std::uint64_t> emitted;  ///< primary emissions, in order
  std::vector<std::uint64_t> bonus;    ///< fan-out copies, in order
  std::vector<std::uint64_t> dropped;  ///< terminal drops, in order
  std::vector<netsim::Packet> emitted_pkts;
  Ns charged = 0;

 protected:
  void do_emit(netsim::PacketPtr pkt) override {
    if (pkt->msg_type == nfp::kNfBonus) {
      bonus.push_back(pkt->request_id);
    } else {
      emitted.push_back(pkt->request_id);
      emitted_pkts.push_back(*pkt);
    }
  }
  void do_drop(netsim::PacketPtr pkt) override {
    dropped.push_back(pkt->request_id);
  }

 private:
  Rng rng_;
  Ns now_ = 0;
};

netsim::PacketPtr mk_pkt(std::uint64_t seq, std::uint32_t flow,
                         std::uint32_t frame = 512) {
  auto p = netsim::alloc_packet();
  p->src = 1000;
  p->src_actor = 7;
  p->dst = 0;
  p->msg_type = nfp::kNfData;
  p->flow = flow;
  p->request_id = seq;
  p->frame_size = frame;
  p->payload.assign(32, static_cast<std::uint8_t>(seq));
  return p;
}

std::unique_ptr<nfp::Stage> mk_stage(
    const std::string& kind, std::vector<double> args = {},
    std::map<std::string, double> kv = {}, std::uint64_t seed = 42) {
  nfp::StageSpec spec;
  spec.kind = kind;
  spec.args = std::move(args);
  spec.kv = std::move(kv);
  auto stage = nfp::make_stage(spec, seed);
  return stage;
}

TEST(Stages, FirewallCatchAllAcceptsEverythingInOrder) {
  auto stage = mk_stage("firewall", {0});  // no rules, non-strict
  TestCtx ctx;
  ctx.set_stats(&stage->stats());
  for (std::uint64_t s = 1; s <= 32; ++s) {
    ++stage->stats().in;
    stage->process(ctx, mk_pkt(s, static_cast<std::uint32_t>(s % 8)));
  }
  std::vector<std::uint64_t> want(32);
  for (std::uint64_t s = 0; s < 32; ++s) want[s] = s + 1;
  EXPECT_EQ(ctx.emitted, want);
  EXPECT_TRUE(ctx.dropped.empty());
  EXPECT_EQ(stage->stats().out, 32u);
  EXPECT_EQ(stage->stats().held(), 0u);
  EXPECT_GT(ctx.charged, 0);
}

TEST(Stages, StrictFirewallWithNoRulesDropsEverything) {
  auto stage = mk_stage("firewall", {0, 1});  // strict, no rules
  TestCtx ctx;
  ctx.set_stats(&stage->stats());
  for (std::uint64_t s = 1; s <= 8; ++s) {
    ++stage->stats().in;
    stage->process(ctx, mk_pkt(s, 3));
  }
  EXPECT_TRUE(ctx.emitted.empty());
  EXPECT_EQ(ctx.dropped.size(), 8u);
  EXPECT_EQ(stage->stats().dropped, 8u);
}

TEST(Stages, IpsecEncapsulatesAndGrowsFrame) {
  auto stage = mk_stage("ipsec");
  TestCtx ctx;
  ctx.set_stats(&stage->stats());
  ++stage->stats().in;
  stage->process(ctx, mk_pkt(1, 4, 512));
  ASSERT_EQ(ctx.emitted_pkts.size(), 1u);
  const auto& out = ctx.emitted_pkts[0];
  EXPECT_EQ(out.frame_size, 512u + 30u);  // ESP overhead
  EXPECT_FALSE(out.payload.empty());
  const std::vector<std::uint8_t> original(32, 1);
  EXPECT_NE(out.payload, original);  // real ciphertext, not a passthrough
  EXPECT_EQ(out.request_id, 1u);
}

TEST(Stages, RatelimitHoldsInArrivalOrderAndTailDrops) {
  // 1024 bytes/sec, burst 1024B, queue cap 4, all 512B frames at t=0:
  // two pass on tokens, four queue, the rest tail-drop; each elapsed
  // second of tick() releases exactly two more in FIFO order.
  auto stage =
      mk_stage("ratelimit", {8192}, {{"burst", 1024}, {"cap", 4}});
  TestCtx ctx;
  ctx.set_stats(&stage->stats());
  for (std::uint64_t s = 1; s <= 8; ++s) {
    ++stage->stats().in;
    stage->process(ctx, mk_pkt(s, 1, 512));
  }
  EXPECT_EQ(ctx.emitted, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(ctx.dropped, (std::vector<std::uint64_t>{7, 8}));
  EXPECT_EQ(stage->stats().held(), 4u);

  ctx.advance(sec(1));
  stage->tick(ctx);
  EXPECT_EQ(ctx.emitted, (std::vector<std::uint64_t>{1, 2, 3, 4}));

  ctx.advance(sec(1));
  stage->tick(ctx);
  EXPECT_EQ(ctx.emitted, (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(stage->stats().held(), 0u);
}

TEST(Stages, RatelimitOversizedFrameIsATerminalDrop) {
  auto stage = mk_stage("ratelimit", {8192}, {{"burst", 1024}, {"cap", 4}});
  TestCtx ctx;
  ctx.set_stats(&stage->stats());
  ++stage->stats().in;
  stage->process(ctx, mk_pkt(1, 1, 2048));  // frame > burst: can't conform
  EXPECT_EQ(ctx.dropped, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(stage->stats().held(), 0u);  // old bucket would wedge it
  ++stage->stats().in;
  stage->process(ctx, mk_pkt(2, 1, 512));
  EXPECT_EQ(ctx.emitted, (std::vector<std::uint64_t>{2}));
}

TEST(Stages, MaglevTagsBackendIntoFlowHighByte) {
  auto stage = mk_stage("maglev", {8});
  TestCtx ctx;
  ctx.set_stats(&stage->stats());
  for (std::uint64_t s = 1; s <= 32; ++s) {
    ++stage->stats().in;
    stage->process(ctx, mk_pkt(s, static_cast<std::uint32_t>(s % 4)));
  }
  ASSERT_EQ(ctx.emitted_pkts.size(), 32u);
  std::map<std::uint32_t, std::uint32_t> tag_of;  // low flow -> backend tag
  for (const auto& p : ctx.emitted_pkts) {
    const std::uint32_t low = p.flow & 0x00FF'FFFFu;
    const std::uint32_t tag = p.flow >> 24;
    const auto [it, fresh] = tag_of.emplace(low, tag);
    // Same connection always lands on the same backend.
    if (!fresh) EXPECT_EQ(it->second, tag);
  }
  EXPECT_EQ(tag_of.size(), 4u);
}

TEST(Stages, CounterCountsBytesAndPassesThrough) {
  auto stage = mk_stage("counter");
  TestCtx ctx;
  ctx.set_stats(&stage->stats());
  for (std::uint64_t s = 1; s <= 16; ++s) {
    ++stage->stats().in;
    stage->process(ctx, mk_pkt(s, 2, 512));
  }
  EXPECT_EQ(ctx.emitted.size(), 16u);
  EXPECT_EQ(stage->stats().out, 16u);
}

TEST(Stages, ChainReplEmitsReplicaFanout) {
  auto stage = mk_stage("chainrepl", {2});
  TestCtx ctx;
  ctx.set_stats(&stage->stats());
  for (std::uint64_t s = 1; s <= 4; ++s) {
    ++stage->stats().in;
    stage->process(ctx, mk_pkt(s, 1));
  }
  EXPECT_EQ(ctx.emitted, (std::vector<std::uint64_t>{1, 2, 3, 4}));
  EXPECT_EQ(ctx.bonus, (std::vector<std::uint64_t>{1, 1, 2, 2, 3, 3, 4, 4}));
  EXPECT_EQ(stage->stats().bonus, 8u);
  EXPECT_EQ(stage->stats().held(), 0u);
}

TEST(Stages, LpmDefaultRouteVsUnroutable) {
  auto with_default = mk_stage("lpm", {0, 1});
  TestCtx a;
  a.set_stats(&with_default->stats());
  for (std::uint64_t s = 1; s <= 8; ++s) {
    ++with_default->stats().in;
    with_default->process(a, mk_pkt(s, static_cast<std::uint32_t>(s)));
  }
  EXPECT_EQ(a.emitted.size(), 8u);

  auto no_default = mk_stage("lpm", {0, 0});
  TestCtx b;
  b.set_stats(&no_default->stats());
  for (std::uint64_t s = 1; s <= 8; ++s) {
    ++no_default->stats().in;
    no_default->process(b, mk_pkt(s, static_cast<std::uint32_t>(s)));
  }
  EXPECT_TRUE(b.emitted.empty());
  EXPECT_EQ(b.dropped.size(), 8u);
}

TEST(Stages, PfabricCapsQueueAndDrainsOnTicks) {
  auto stage = mk_stage("pfabric", {4, 2});  // cap 4, quantum 2
  TestCtx ctx;
  ctx.set_stats(&stage->stats());
  for (std::uint64_t s = 1; s <= 8; ++s) {
    ++stage->stats().in;
    stage->process(ctx, mk_pkt(s, static_cast<std::uint32_t>(s)));
  }
  EXPECT_EQ(ctx.dropped.size(), 4u);  // overload rule: lowest priority out
  EXPECT_EQ(stage->stats().held(), 4u);
  stage->tick(ctx);
  EXPECT_EQ(ctx.emitted.size(), 2u);
  stage->tick(ctx);
  EXPECT_EQ(ctx.emitted.size(), 4u);
  EXPECT_EQ(stage->stats().held(), 0u);
  // Conservation: every packet got exactly one verdict.
  EXPECT_EQ(ctx.emitted.size() + ctx.dropped.size(), 8u);
}

TEST(Stages, VerdictSequencesAreDeterministicAcrossInstances) {
  // Two fresh instances of every stage kind, same seed, same packet
  // stream -> byte-identical verdict sequences and cost.  This is the
  // property that makes NicPool's offline cost measurement trustworthy.
  for (const auto& kind : nfp::stage_kinds()) {
    nfp::StageSpec spec;
    spec.kind = kind;
    auto run = [&](TestCtx& ctx) {
      auto stage = nfp::make_stage(spec, 42);
      ctx.set_stats(&stage->stats());
      for (std::uint64_t s = 1; s <= 64; ++s) {
        ctx.advance(usec(1));
        ++stage->stats().in;
        stage->process(ctx,
                       mk_pkt(s, static_cast<std::uint32_t>(s % 16),
                              s % 4 == 0 ? 1500 : 512));
      }
      if (stage->tick_period() > 0) stage->tick(ctx);
    };
    TestCtx a;
    TestCtx b;
    run(a);
    run(b);
    EXPECT_EQ(a.emitted, b.emitted) << kind;
    EXPECT_EQ(a.bonus, b.bonus) << kind;
    EXPECT_EQ(a.dropped, b.dropped) << kind;
    EXPECT_EQ(a.charged, b.charged) << kind;
  }
}

// ---------------------------------------------------------------------------
// NicPool placement.

TEST(NicPool, CostIsDeterministicAndTracksCoreSpeed) {
  const auto spec = nfp::parse_pipeline(
      "firewall(128) | ratelimit(1Gbps) | maglev(8) | counter");
  const auto slow = nfp::measure_pipeline_cost(spec, nic::liquidio_cn2350());
  const auto slow2 = nfp::measure_pipeline_cost(spec, nic::liquidio_cn2350());
  const auto fast = nfp::measure_pipeline_cost(spec, nic::stingray_ps225());
  ASSERT_EQ(slow.stages.size(), 4u);
  EXPECT_DOUBLE_EQ(slow.total_ns_per_pkt, slow2.total_ns_per_pkt);
  // The same chain is cheaper per packet on 3GHz A72s than 1.2GHz cnMIPS.
  EXPECT_LT(fast.total_ns_per_pkt, slow.total_ns_per_pkt);
  for (const auto& st : slow.stages) EXPECT_GT(st.ns_per_pkt, 0.0) << st.name;
  EXPECT_GT(slow.state_bytes, 0u);
}

TEST(NicPool, PlacesUnderSaturationAndBalances) {
  const auto spec = nfp::parse_pipeline("firewall(128) | counter");
  nfp::NicPool pool(0.85);
  pool.add_nic("cn2350", nic::liquidio_cn2350());
  pool.add_nic("stingray", nic::stingray_ps225());
  const auto p1 = pool.place(spec, /*offered_pps=*/50'000.0);
  EXPECT_FALSE(p1.spilled);
  EXPECT_LE(pool.nics()[p1.nic].utilization, 0.85);
  EXPECT_GT(p1.utilization_added, 0.0);
  // Repeated placements spread over the pool rather than stacking on one
  // card past its threshold.
  bool used_both = false;
  for (int i = 0; i < 8; ++i) {
    const auto p = pool.place(spec, 50'000.0);
    if (p.nic != p1.nic) used_both = true;
    if (p.spilled) break;
  }
  double total_pipelines = 0;
  for (const auto& n : pool.nics()) total_pipelines += n.pipelines;
  EXPECT_GE(total_pipelines, 2.0);
  (void)used_both;
}

TEST(NicPool, SpillsOverWhenEveryCardWouldSaturate) {
  const auto spec = nfp::parse_pipeline("firewall(2048) | ipsec | counter");
  nfp::NicPool pool(0.85);
  pool.add_nic("cn2350", nic::liquidio_cn2350());
  const auto p = pool.place(spec, /*offered_pps=*/50e6);  // absurd load
  EXPECT_TRUE(p.spilled);
  EXPECT_GT(pool.nics()[0].utilization, 0.85);
  EXPECT_EQ(p.nic, 0u);
}

TEST(NicPool, EmptyPoolThrows) {
  nfp::NicPool pool;
  const auto spec = nfp::parse_pipeline("counter");
  EXPECT_THROW((void)pool.place(spec, 1000.0), std::logic_error);
}

// ---------------------------------------------------------------------------
// NicPool device failure / revival.

TEST(NicPool, FailNicReplacesResidentsOnSurvivors) {
  const auto spec = nfp::parse_pipeline("firewall(128) | counter");
  nfp::NicPool pool(0.85);
  const auto cn = pool.add_nic("cn2350", nic::liquidio_cn2350());
  const auto sg = pool.add_nic("stingray", nic::stingray_ps225());
  for (int i = 0; i < 4; ++i) (void)pool.place(spec, 50'000.0);
  const double cn_before = pool.nics()[cn].utilization;
  const double sg_before = pool.nics()[sg].utilization;
  ASSERT_GT(cn_before + sg_before, 0.0);

  const auto report = pool.fail_nic(cn);
  EXPECT_TRUE(pool.nic_failed(cn));
  EXPECT_EQ(report.to_host, 0u) << "a live NIC remains; no host fallback";
  // The dead card holds no committed capacity and no pipelines.
  EXPECT_DOUBLE_EQ(pool.nics()[cn].utilization, 0.0);
  EXPECT_EQ(pool.nics()[cn].pipelines, 0u);
  // Every pipeline now lives on the survivor.
  for (const auto& p : pool.placed()) {
    EXPECT_FALSE(p.on_host);
    EXPECT_EQ(p.nic, sg);
  }
  EXPECT_EQ(pool.nics()[sg].pipelines, pool.placed().size());
  // New placements skip the dead card.
  const auto fresh = pool.place(spec, 50'000.0);
  EXPECT_EQ(fresh.nic, sg);
}

TEST(NicPool, AllNicsDeadFallsBackToHostDegraded) {
  const auto spec = nfp::parse_pipeline("firewall(128) | counter");
  nfp::NicPool pool(0.85);
  const auto cn = pool.add_nic("cn2350", nic::liquidio_cn2350());
  (void)pool.place(spec, 50'000.0);
  (void)pool.place(spec, 50'000.0);

  const auto report = pool.fail_nic(cn);
  EXPECT_EQ(report.to_host, 2u);
  EXPECT_EQ(report.degraded, 2u);
  EXPECT_EQ(pool.degraded_count(), 2u);
  for (const auto& p : pool.placed()) {
    EXPECT_TRUE(p.on_host);
    EXPECT_TRUE(p.degraded);
  }
  // Placing while every card is dead also lands on the host, flagged.
  const auto fresh = pool.place(spec, 50'000.0);
  EXPECT_TRUE(fresh.on_host);
  EXPECT_TRUE(fresh.spilled);
}

TEST(NicPool, ReviveBringsPipelinesHomeHostFirst) {
  const auto heavy = nfp::parse_pipeline("firewall(2048) | ipsec | counter");
  const auto light = nfp::parse_pipeline("counter");
  nfp::NicPool pool(0.85);
  const auto cn = pool.add_nic("cn2350", nic::liquidio_cn2350());
  (void)pool.place(heavy, 100'000.0);
  (void)pool.place(light, 100'000.0);

  (void)pool.fail_nic(cn);
  ASSERT_EQ(pool.degraded_count(), 2u);

  const std::size_t moved = pool.revive_nic(cn);
  EXPECT_FALSE(pool.nic_failed(cn));
  EXPECT_EQ(moved, 2u);
  EXPECT_EQ(pool.degraded_count(), 0u);
  for (const auto& p : pool.placed()) {
    EXPECT_FALSE(p.on_host);
    EXPECT_FALSE(p.degraded);
    EXPECT_EQ(p.nic, cn);
  }
  EXPECT_GT(pool.nics()[cn].utilization, 0.0);
  // Reviving an already-live card is a no-op.
  EXPECT_EQ(pool.revive_nic(cn), 0u);
}

TEST(NicPool, FailoverConservesCommittedUtilization) {
  // Util accounting must survive a full fail/revive cycle: the pool ends
  // where it started, with no leaked or double-counted capacity.
  const auto spec = nfp::parse_pipeline("firewall(128) | maglev(8) | counter");
  nfp::NicPool pool(0.85);
  const auto cn = pool.add_nic("cn2350", nic::liquidio_cn2350());
  const auto sg = pool.add_nic("stingray", nic::stingray_ps225());
  pool.set_tenant_quota(7, 0.5);
  for (int i = 0; i < 3; ++i) (void)pool.place(spec, 40'000.0, 42, 7);
  const double before = pool.nics()[cn].utilization +
                        pool.nics()[sg].utilization;
  const double tenant_before =
      pool.tenant_utilization(cn, 7) + pool.tenant_utilization(sg, 7);

  (void)pool.fail_nic(cn);
  (void)pool.revive_nic(cn);

  const double after = pool.nics()[cn].utilization +
                       pool.nics()[sg].utilization;
  const double tenant_after =
      pool.tenant_utilization(cn, 7) + pool.tenant_utilization(sg, 7);
  EXPECT_NEAR(after, before, 1e-9);
  EXPECT_NEAR(tenant_after, tenant_before, 1e-9);
  std::size_t committed = 0;
  for (const auto& n : pool.nics()) committed += n.pipelines;
  EXPECT_EQ(committed, pool.placed().size());
}

// ---------------------------------------------------------------------------
// End-to-end pipelines on a cluster.

TEST(PipelineE2E, PreservesIngressOrderThroughReorderingStages) {
  // The chain holds (pfabric), drops (ratelimit tail/oversized) and
  // reorders; the egress must still release every source's sequence
  // monotonically, with drops accounted as tombstones.
  testbed::ParallelCluster cluster(testbed::kTorLatency);
  auto& server = cluster.add_server(testbed::ServerSpec{});
  const auto spec = nfp::parse_pipeline(
      "firewall(64) | ratelimit(50Mbps,cap=16) | "
      "pfabric(cap=256,quantum=8) | counter");
  nfp::PipelineRunner runner(server.runtime(), spec);
  ASSERT_EQ(runner.depth(), 4u);

  std::vector<std::uint64_t> reply_ids;
  auto& client = cluster.add_client(
      10.0,
      [&](std::uint64_t, Rng&, netsim::PacketPool& pool) {
        auto pkt = pool.make();
        pkt->dst = 0;
        pkt->dst_actor = runner.ingress();
        pkt->msg_type = nfp::kNfData;
        pkt->frame_size = 512;
        pkt->payload.assign(16, 0xAB);
        return pkt;
      });
  client.add_on_reply([&](const netsim::Packet& pkt) {
    reply_ids.push_back(pkt.request_id);
  });
  std::uint64_t issued = 0;
  client.set_on_issue([&](const netsim::Packet& pkt) {
    // ClientGen request ids encode (node << 40) | seq with seq 1,2,3,...
    // — the pipeline does NOT rely on this (it stamps its own pipe_seq),
    // but monotonic issue order is what makes the reply-order assertion
    // below meaningful.
    EXPECT_EQ(pkt.request_id & ((std::uint64_t{1} << 40) - 1), ++issued);
  });
  client.start_open_loop(/*rate_rps=*/100'000.0, msec(10), /*poisson=*/true);
  cluster.run_until(msec(20));

  const auto eg = runner.egress_stats();
  EXPECT_EQ(eg.order_violations, 0u);
  EXPECT_GT(eg.delivered, 0u);
  EXPECT_GT(eg.tombstones, 0u);  // the rate limiter is far oversubscribed
  ASSERT_GT(reply_ids.size(), 0u);
  for (std::size_t i = 1; i < reply_ids.size(); ++i) {
    ASSERT_GT(reply_ids[i], reply_ids[i - 1])
        << "reply " << i << " released out of order";
  }
  // Every stage saw traffic; verdicts conserve packets.
  for (const auto& snap : runner.stage_snapshots()) {
    EXPECT_GT(snap.stats.in, 0u) << snap.name;
    EXPECT_EQ(snap.stats.in, snap.stats.out + snap.stats.dropped +
                                 snap.stats.held())
        << snap.name;
  }
}

TEST(PipelineE2E, FanoutStagesDoNotDisturbSequencing) {
  testbed::ParallelCluster cluster(testbed::kTorLatency);
  auto& server = cluster.add_server(testbed::ServerSpec{});
  const auto spec =
      nfp::parse_pipeline("chainrepl(2) | maglev(4) | counter");
  nfp::PipelineRunner runner(server.runtime(), spec);

  auto& client = cluster.add_client(
      10.0, [&](std::uint64_t, Rng&, netsim::PacketPool& pool) {
        auto pkt = pool.make();
        pkt->dst = 0;
        pkt->dst_actor = runner.ingress();
        pkt->msg_type = nfp::kNfData;
        pkt->frame_size = 256;
        pkt->payload.assign(8, 0x11);
        return pkt;
      });
  client.start_closed_loop(/*outstanding=*/8, msec(10));
  cluster.run_until(msec(20));

  const auto eg = runner.egress_stats();
  EXPECT_EQ(eg.order_violations, 0u);
  EXPECT_GT(eg.delivered, 0u);
  EXPECT_GT(eg.bonus, 0u);  // replicas reached the egress and were absorbed
  EXPECT_EQ(eg.delivered, client.completed());
}

TEST(PipelineE2E, GroupMigrationMovesWholePipelineAndKeepsOrder) {
  testbed::ParallelCluster cluster(testbed::kTorLatency);
  auto& server = cluster.add_server(testbed::ServerSpec{});
  const auto spec = nfp::parse_pipeline("counter | kvcache");
  nfp::PipelineRunner runner(server.runtime(), spec);

  const auto members = server.runtime().group_members(runner.group());
  ASSERT_EQ(members.size(), 3u);  // 2 stages + egress
  for (const ActorId id : members) {
    EXPECT_EQ(server.runtime().control(id)->loc, ActorLoc::kNic);
  }

  auto& client = cluster.add_client(
      10.0, [&](std::uint64_t, Rng&, netsim::PacketPool& pool) {
        auto pkt = pool.make();
        pkt->dst = 0;
        pkt->dst_actor = runner.ingress();
        pkt->msg_type = nfp::kNfData;
        pkt->frame_size = 128;
        pkt->payload.assign(8, 0x22);
        return pkt;
      });
  client.start_closed_loop(4, msec(30));
  cluster.run_until(msec(5));
  const std::uint64_t before = client.completed();
  EXPECT_GT(before, 0u);

  EXPECT_EQ(runner.migrate(ActorLoc::kHost), 3u);
  cluster.run_until(msec(40));

  for (const ActorId id : members) {
    EXPECT_EQ(server.runtime().control(id)->loc, ActorLoc::kHost)
        << "actor " << id << " did not migrate with its group";
  }
  EXPECT_GT(client.completed(), before);  // pipeline kept serving
  EXPECT_EQ(runner.egress_stats().order_violations, 0u);
}

TEST(PipelineE2E, TwoClientsGetIndependentSequenceSpaces) {
  testbed::ParallelCluster cluster(testbed::kTorLatency);
  auto& server = cluster.add_server(testbed::ServerSpec{});
  const auto spec = nfp::parse_pipeline("firewall(0) | counter");
  nfp::PipelineRunner runner(server.runtime(), spec);

  auto make = [&](std::uint64_t, Rng&, netsim::PacketPool& pool) {
    auto pkt = pool.make();
    pkt->dst = 0;
    pkt->dst_actor = runner.ingress();
    pkt->msg_type = nfp::kNfData;
    pkt->frame_size = 256;
    pkt->payload.assign(8, 0x33);
    return pkt;
  };
  auto& c1 = cluster.add_client(10.0, make, /*seed=*/1);
  auto& c2 = cluster.add_client(10.0, make, /*seed=*/2);
  c1.start_closed_loop(4, msec(10));
  c2.start_closed_loop(4, msec(10));
  cluster.run_until(msec(20));

  const auto eg = runner.egress_stats();
  EXPECT_EQ(eg.order_violations, 0u);
  EXPECT_GT(c1.completed(), 0u);
  EXPECT_GT(c2.completed(), 0u);
  EXPECT_EQ(eg.delivered, c1.completed() + c2.completed());
}

}  // namespace
}  // namespace ipipe
