// Tests for the ipipe::trace observability subsystem: tracer ring
// semantics, metrics cadence, exporter output, and the runtime's hooks
// end-to-end through a small cluster run.
#include <gtest/gtest.h>

#include <sstream>
#include <string_view>

#include "common/trace.h"
#include "testbed/cluster.h"
#include "workloads/app_workloads.h"

namespace ipipe {
namespace {

using trace::Arg;
using trace::Cat;
using trace::Event;
using trace::MetricsRegistry;
using trace::Snapshot;
using trace::Tracer;

TEST(TracerTest, DisabledRecordsNothing) {
  Tracer t;
  EXPECT_FALSE(t.enabled());
  t.instant(Cat::kSched, "demote_to_drr", 0);
  t.span(Cat::kExec, "fcfs_handle", 0, 10, 20);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.total_recorded(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(TracerTest, RingEvictsOldestAndCountsDrops) {
  Tracer t;
  t.enable(/*capacity=*/16);  // 16 is the tracer's minimum ring size
  std::uint64_t clock = 0;
  t.set_clock(Clock(&clock));
  for (std::uint64_t i = 0; i < 20; ++i) {
    clock = i;
    t.instant(Cat::kSched, "tick", 0, /*actor=*/i);
  }
  EXPECT_EQ(t.size(), 16u);
  EXPECT_EQ(t.total_recorded(), 20u);
  EXPECT_EQ(t.dropped(), 4u);
  // Oldest-first visit of the retained suffix (events 4..19).
  std::vector<std::uint64_t> actors;
  t.for_each([&](const Event& e) { actors.push_back(e.actor); });
  ASSERT_EQ(actors.size(), 16u);
  for (std::size_t i = 0; i < actors.size(); ++i) {
    EXPECT_EQ(actors[i], 4 + i);
  }
}

TEST(TracerTest, ClockStampsInstantsAndSpansKeepExplicitTimes) {
  Tracer t;
  t.enable(16);
  std::uint64_t clock = 0;
  t.set_clock(Clock(&clock));
  clock = 1234;
  t.instant(Cat::kChannel, "chan_nack", trace::tid::kChanToHost, 0,
            Arg{"seq", 7.0});
  t.span(Cat::kMig, "mig_phase2_drain", 3, 100, 250, /*actor=*/2);
  std::vector<Event> events;
  t.for_each([&](const Event& e) { events.push_back(e); });
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].ts, 1234u);
  EXPECT_EQ(events[0].dur, 0u);
  EXPECT_STREQ(events[0].a0.name, "seq");
  EXPECT_EQ(events[0].a0.value, 7.0);
  EXPECT_EQ(events[1].ts, 100u);
  EXPECT_EQ(events[1].dur, 150u);
  EXPECT_EQ(events[1].actor, 2u);
}

TEST(TracerTest, ClearResetsButKeepsEnabled) {
  Tracer t;
  t.enable(4);
  t.instant(Cat::kDmo, "dmo_trap", trace::tid::kDmo);
  ASSERT_EQ(t.size(), 1u);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.total_recorded(), 0u);
  EXPECT_TRUE(t.enabled());
}

TEST(MetricsRegistryTest, DueFollowsVirtualTimePeriod) {
  MetricsRegistry m;
  EXPECT_FALSE(m.due(1'000'000));  // period 0 => never due
  m.set_period(100);
  EXPECT_TRUE(m.due(0));  // first snapshot always owed
  Snapshot s;
  s.ts = 0;
  m.record(s);
  EXPECT_FALSE(m.due(99));
  EXPECT_TRUE(m.due(100));
  s.ts = 100;
  m.record(std::move(s));
  EXPECT_FALSE(m.due(150));
  ASSERT_EQ(m.snapshots().size(), 2u);
}

TEST(TraceExportTest, ChromeJsonContainsEventsAndCounters) {
  Tracer t;
  t.enable(64);
  t.instant(Cat::kSched, "demote_to_drr", 0, 3, Arg{"mu_us", 41.5},
            Arg{"sigma_us", 12.0});
  t.span(Cat::kExec, "fcfs_handle", 1, 1000, 5000, 3, Arg{"queue_us", 2.5});

  MetricsRegistry m;
  Snapshot s;
  s.ts = 2000;
  s.fcfs_cores = 3;
  s.drr_cores = 1;
  trace::ActorSample a;
  a.actor = 3;
  a.name = "dist";
  a.lat_mean_ns = 42000.0;
  s.actors.push_back(a);
  m.record(std::move(s));

  std::ostringstream os;
  trace::export_chrome_json(os, t, &m, /*pid=*/7);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("demote_to_drr"), std::string::npos);
  EXPECT_NE(json.find("fcfs_handle"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);  // counters
  EXPECT_NE(json.find("\"pid\":7"), std::string::npos);
  EXPECT_NE(json.find("mu_us"), std::string::npos);
  // Balanced outer document: last non-whitespace char closes the object.
  const auto last = json.find_last_not_of(" \n\t");
  ASSERT_NE(last, std::string::npos);
  EXPECT_EQ(json[last], '}');
}

TEST(TraceExportTest, TextDumpListsEventsAndSnapshots) {
  Tracer t;
  t.enable(8);
  t.instant(Cat::kMig, "migration_start", 0, 5);
  MetricsRegistry m;
  Snapshot s;
  s.ts = 500;
  m.record(std::move(s));
  std::ostringstream os;
  trace::export_text(os, t, &m);
  const std::string text = os.str();
  EXPECT_NE(text.find("migration_start"), std::string::npos);
  EXPECT_NE(text.find("snapshot"), std::string::npos);
}

// End-to-end: a traced cluster run must produce exec spans, scheduler
// bookkeeping counters and periodic metrics snapshots — and an untraced
// run must produce byte-identical virtual-time results (zero cost).
class TraceRuntimeTest : public ::testing::Test {
 protected:
  struct Outcome {
    std::uint64_t completed = 0;
    Ns p99 = 0;
  };

  Outcome run(bool traced, Runtime** out_rt = nullptr,
              testbed::ParallelCluster* cluster_storage = nullptr) {
    testbed::ParallelCluster local(testbed::kTorLatency);
    testbed::ParallelCluster& cluster =
        cluster_storage ? *cluster_storage : local;
    testbed::ServerSpec spec;
    auto& server = cluster.add_server(spec);
    if (traced) {
      server.runtime().enable_tracing(trace::Tracer::kDefaultCapacity,
                                      usec(200));
    }

    class Burn final : public Actor {
     public:
      Burn() : Actor("burn") {}
      void handle(ActorEnv& env, const netsim::Packet& req) override {
        env.charge(usec(10));
        env.reply(req, 2, {});
      }
    };
    const ActorId id =
        server.runtime().register_actor(std::make_unique<Burn>());
    workloads::EchoWorkloadParams wl;
    wl.server = 0;
    wl.actor = id;
    wl.msg_type = 1;
    auto& client = cluster.add_client(10.0, workloads::echo_workload(wl));
    client.start_closed_loop(4, msec(10));
    cluster.run_until(msec(12));
    if (out_rt) *out_rt = &server.runtime();
    return {client.completed(), client.latencies().p99()};
  }
};

TEST_F(TraceRuntimeTest, RuntimeHooksRecordExecSpansAndSnapshots) {
  testbed::ParallelCluster cluster(testbed::kTorLatency);
  Runtime* rt = nullptr;
  const Outcome out = run(/*traced=*/true, &rt, &cluster);
  ASSERT_NE(rt, nullptr);
  EXPECT_GT(out.completed, 100u);

  ASSERT_TRUE(rt->tracer().enabled());
  EXPECT_GT(rt->tracer().total_recorded(), 0u);
  bool saw_exec_span = false;
  rt->tracer().for_each([&](const Event& e) {
    if (e.cat == Cat::kExec && e.dur > 0 &&
        std::string_view(e.name) == "fcfs_handle") {
      saw_exec_span = true;
    }
  });
  EXPECT_TRUE(saw_exec_span);

  // 10ms run / 200us cadence => tens of snapshots, each covering the actor.
  const auto& snaps = rt->metrics().snapshots();
  ASSERT_GT(snaps.size(), 10u);
  ASSERT_EQ(snaps.back().actors.size(), 1u);
  EXPECT_EQ(snaps.back().actors[0].name, "burn");
  EXPECT_GT(snaps.back().actors[0].requests, 0u);
  EXPECT_GT(snaps.back().fcfs_cores, 0u);
}

TEST_F(TraceRuntimeTest, TracingIsZeroCostInVirtualTime) {
  const Outcome off = run(false);
  const Outcome on = run(true);
  EXPECT_EQ(off.completed, on.completed);
  EXPECT_EQ(off.p99, on.p99);
}

}  // namespace
}  // namespace ipipe
