#include <gtest/gtest.h>

#include <vector>

#include "netsim/network.h"
#include "testbed/cluster.h"

namespace ipipe::netsim {
namespace {

class Sink : public Endpoint {
 public:
  void receive(PacketPtr pkt) override { received.push_back(std::move(pkt)); }
  std::vector<PacketPtr> received;
};

PacketPtr make_pkt(NodeId src, NodeId dst, std::uint32_t frame = 512) {
  auto pkt = alloc_packet();
  pkt->src = src;
  pkt->dst = dst;
  pkt->frame_size = frame;
  return pkt;
}

using testbed::BareFabric;

TEST(Network, DeliversBetweenEndpoints) {
  BareFabric f(300);
  Network& net = f.net;
  Sink a;
  Sink b;
  net.attach(1, a, 10.0);
  net.attach(2, b, 10.0);
  net.send(make_pkt(1, 2));
  f.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0]->src, 1u);
  EXPECT_EQ(b.received[0]->nic_arrival, f.sim().now());
}

TEST(Network, TimingMatchesStoreAndForward) {
  BareFabric f(300);
  Network& net = f.net;
  Sink a;
  Sink b;
  net.attach(1, a, 10.0);
  net.attach(2, b, 10.0);
  net.send(make_pkt(1, 2, 512));
  f.run();
  // 2x serialization of (512+24)B at 10Gbps = 2 * 428.8ns + 300ns switch.
  const Ns expected = 2 * wire_time(512, 10.0) + 300;
  EXPECT_EQ(f.sim().now(), expected);
}

TEST(Network, UplinkContentionSerializes) {
  BareFabric f(300);
  Network& net = f.net;
  Sink a;
  Sink b;
  net.attach(1, a, 10.0);
  net.attach(2, b, 10.0);
  const int n = 10;
  for (int i = 0; i < n; ++i) net.send(make_pkt(1, 2, 1500));
  f.run();
  ASSERT_EQ(b.received.size(), static_cast<std::size_t>(n));
  // Last delivery = n serializations on the uplink + 300ns switch + 1
  // on the downlink.
  const Ns expected =
      n * wire_time(1500, 10.0) + 300 + wire_time(1500, 10.0);
  EXPECT_EQ(f.sim().now(), expected);
}

TEST(Network, UnknownDestinationDropped) {
  BareFabric f(300);
  Network& net = f.net;
  Sink a;
  net.attach(1, a, 10.0);
  net.send(make_pkt(1, 99));
  f.run();
  EXPECT_EQ(net.frames_dropped(), 1u);
  EXPECT_EQ(net.frames_delivered(), 0u);
}

TEST(Network, DropInjection) {
  BareFabric f(300);
  Network& net = f.net;
  Sink a;
  Sink b;
  net.attach(1, a, 10.0);
  net.attach(2, b, 10.0);
  FaultModel fm;
  fm.drop_prob = 0.5;
  net.set_fault_model(fm);
  for (int i = 0; i < 1000; ++i) net.send(make_pkt(1, 2, 64));
  f.run();
  EXPECT_GT(net.frames_dropped(), 350u);
  EXPECT_LT(net.frames_dropped(), 650u);
  EXPECT_EQ(net.frames_dropped() + b.received.size(), 1000u);
}

TEST(Network, DuplicateInjection) {
  BareFabric f(300);
  Network& net = f.net;
  Sink a;
  Sink b;
  net.attach(1, a, 10.0);
  net.attach(2, b, 10.0);
  FaultModel fm;
  fm.dup_prob = 1.0;
  net.set_fault_model(fm);
  for (int i = 0; i < 10; ++i) net.send(make_pkt(1, 2, 64));
  f.run();
  EXPECT_EQ(b.received.size(), 20u);
}

TEST(Network, DetachLosesInFlight) {
  BareFabric f(300);
  Network& net = f.net;
  Sink a;
  Sink b;
  net.attach(1, a, 10.0);
  net.attach(2, b, 10.0);
  net.send(make_pkt(1, 2));
  net.detach(2);
  f.run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net.frames_dropped(), 1u);
}

// The destination's downlink serves frames in switch-arrival order, not
// send order: a large frame sent first over a slow uplink reaches the
// switch after a small frame sent later over a fast one, so the small
// frame is delivered first and pays no queueing behind the large one.
TEST(Network, DownlinkServesSwitchArrivalOrder) {
  BareFabric f(300);
  Network& net = f.net;
  Sink a;
  Sink b;
  Sink c;
  net.attach(1, a, 1.0);
  net.attach(2, b, 100.0);
  net.attach(3, c, 10.0);
  net.send(make_pkt(1, 3, 1500));
  const Ns b_sent = 1000;
  f.sim().schedule_at(b_sent, [&net] { net.send(make_pkt(2, 3, 64)); });
  f.run();
  ASSERT_EQ(c.received.size(), 2u);
  EXPECT_EQ(c.received[0]->src, 2u);
  EXPECT_EQ(c.received[1]->src, 1u);
  EXPECT_EQ(c.received[0]->nic_arrival,
            b_sent + wire_time(64, 100.0) + 300 + wire_time(64, 10.0));
  EXPECT_EQ(c.received[1]->nic_arrival,
            wire_time(1500, 1.0) + 300 + wire_time(1500, 10.0));
}

TEST(WireTime, LineRateHelpers) {
  // 10Gbps, 1500B frame -> (1500+24)*8 bits / 10 bits-per-ns = 1219ns.
  EXPECT_EQ(wire_time(1500, 10.0), 1219u);
  EXPECT_NEAR(line_rate_pps(1500, 10.0), 820'210.0, 10.0);
  EXPECT_NEAR(goodput_gbps(line_rate_pps(1500, 10.0), 1500), 9.84, 0.01);
}

}  // namespace
}  // namespace ipipe::netsim
