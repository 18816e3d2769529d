#include <gtest/gtest.h>

#include "ipipe/channel.h"
#include "nic/dma_engine.h"
#include "sim/simulation.h"

namespace ipipe {
namespace {

TEST(ChannelRing, PushPopRoundTrip) {
  ChannelRing ring(4096);
  const std::vector<std::uint8_t> msg{1, 2, 3, 4, 5};
  EXPECT_TRUE(ring.push(msg));
  const auto out = ring.pop();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, msg);
  EXPECT_FALSE(ring.pop().has_value());
}

TEST(ChannelRing, WrapAroundPreservesContent) {
  ChannelRing ring(256);
  // Push/pop repeatedly so the positions wrap several times.
  for (int round = 0; round < 50; ++round) {
    std::vector<std::uint8_t> msg(100);
    for (std::size_t i = 0; i < msg.size(); ++i) {
      msg[i] = static_cast<std::uint8_t>(round + i);
    }
    ASSERT_TRUE(ring.push(msg));
    ring.ack();  // keep producer view fresh for this test
    const auto out = ring.pop();
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, msg);
    ring.ack();
  }
  EXPECT_GT(ring.write_pos(), 256u);  // wrapped
}

TEST(ChannelRing, LazyAckThrottlesProducer) {
  ChannelRing ring(1024);
  const std::vector<std::uint8_t> msg(120, 0x55);  // 128B frames
  // Fill the ring: 8 x 128 = 1024.
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(ring.push(msg));
  EXPECT_FALSE(ring.push(msg));  // producer view: full
  // Consumer drains everything but hasn't acked.
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(ring.pop().has_value());
  EXPECT_FALSE(ring.push(msg)) << "producer must still see a full ring";
  ring.ack();
  EXPECT_TRUE(ring.push(msg));
}

TEST(ChannelRing, CorruptionDetectedByCrc) {
  ChannelRing ring(4096);
  const std::vector<std::uint8_t> msg(64, 0xAA);
  ASSERT_TRUE(ring.push(msg));
  ring.corrupt_byte(12, 0xFF);  // flip bits inside the body
  bool corrupt = false;
  const auto out = ring.pop(&corrupt);
  EXPECT_FALSE(out.has_value());
  EXPECT_TRUE(corrupt);
  EXPECT_EQ(ring.crc_failures(), 1u);
}

TEST(ChannelRing, HeaderStraddlingTheWrapPoint) {
  ChannelRing ring(64);
  // A 61-byte first frame leaves 3 bytes before the end of the buffer, so
  // the next frame's 8-byte [len][crc] header splits 3 + 5 across the wrap.
  const std::vector<std::uint8_t> first(53, 0x11);
  ASSERT_TRUE(ring.push(first));
  ASSERT_TRUE(ring.pop().has_value());
  ring.ack();
  std::vector<std::uint8_t> msg(20);
  for (std::size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<std::uint8_t>(0xA0 + i);
  }
  ASSERT_EQ(ring.write_pos(), 61u);
  ASSERT_TRUE(ring.push(msg));
  const auto out = ring.pop();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, msg);
  EXPECT_EQ(ring.crc_failures(), 0u);
}

TEST(ChannelRing, CorruptByteJustPastTheWrapIsRejected) {
  ChannelRing ring(64);
  const std::vector<std::uint8_t> first(32, 0x22);  // 40-byte frame
  ASSERT_TRUE(ring.push(first));
  ASSERT_TRUE(ring.pop().has_value());
  ring.ack();
  // The next header is 40..47 and its body 48..77, which wraps at 64.
  ASSERT_EQ(ring.write_pos(), 40u);
  const std::vector<std::uint8_t> msg(30, 0x5A);
  ASSERT_TRUE(ring.push(msg));
  ring.corrupt_byte(64, 0x01);  // the first body byte past the wrap
  bool corrupt = false;
  EXPECT_FALSE(ring.pop(&corrupt).has_value());
  EXPECT_TRUE(corrupt);
  EXPECT_EQ(ring.crc_failures(), 1u);
}

TEST(ChannelMsgCodec, RoundTrip) {
  ChannelMsg msg;
  msg.dst_actor = 7;
  msg.src_actor = 9;
  msg.msg_type = 42;
  msg.src_node = 1;
  msg.dst_node = 2;
  msg.flow = 0xabcd;
  msg.request_id = 0x123456789ULL;
  msg.created_at = 777;
  msg.frame_size = 512;
  msg.payload = {10, 20, 30};
  const auto bytes = serialize(msg);
  const auto parsed = parse_msg(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dst_actor, 7u);
  EXPECT_EQ(parsed->src_actor, 9u);
  EXPECT_EQ(parsed->msg_type, 42u);
  EXPECT_EQ(parsed->request_id, 0x123456789ULL);
  EXPECT_EQ(parsed->payload, msg.payload);
}

TEST(ChannelMsgCodec, TruncatedInputRejected) {
  ChannelMsg msg;
  msg.payload = {1, 2, 3, 4};
  auto bytes = serialize(msg);
  bytes.resize(bytes.size() - 2);
  EXPECT_FALSE(parse_msg(bytes).has_value());
}

TEST(ChannelMsgCodec, PacketConversionRoundTrip) {
  netsim::Packet pkt;
  pkt.src = 3;
  pkt.dst = 4;
  pkt.dst_actor = 11;
  pkt.src_actor = 12;
  pkt.msg_type = 99;
  pkt.request_id = 555;
  pkt.frame_size = 256;
  pkt.payload = {7, 7, 7};
  const auto msg = ChannelMsg::from_packet(pkt);
  const auto back = msg.to_packet(netsim::PacketPool::local());
  EXPECT_EQ(back->src, 3u);
  EXPECT_EQ(back->dst_actor, 11u);
  EXPECT_EQ(back->src_actor, 12u);
  EXPECT_EQ(back->payload, pkt.payload);
}

class MessageChannelTest : public ::testing::Test {
 protected:
  MessageChannelTest() : dma(sim, nic::DmaTiming{}), chan(sim, dma, 64 * 1024) {}
  sim::Simulation sim;
  nic::DmaEngine dma;
  MessageChannel chan;
};

TEST_F(MessageChannelTest, MessageVisibleOnlyAfterDmaDelay) {
  ChannelMsg msg;
  msg.payload = {1, 2, 3};
  const SendTicket ticket = chan.send_or_queue_to_host(msg);
  ASSERT_EQ(ticket.outcome, SendOutcome::kSent);
  EXPECT_GT(ticket.cost, 0u);
  // Not visible immediately.
  EXPECT_FALSE(chan.host_poll().has_value());
  sim.run();
  const auto out = chan.host_poll();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->payload, msg.payload);
}

TEST_F(MessageChannelTest, BidirectionalOrderPreserved) {
  for (std::uint16_t i = 0; i < 10; ++i) {
    ChannelMsg msg;
    msg.msg_type = i;
    ASSERT_EQ(chan.send_or_queue_to_host(msg).outcome, SendOutcome::kSent);
    ASSERT_EQ(chan.send_or_queue_to_nic(msg).outcome, SendOutcome::kSent);
  }
  sim.run();
  for (std::uint16_t i = 0; i < 10; ++i) {
    const auto h = chan.host_poll();
    const auto n = chan.nic_poll();
    ASSERT_TRUE(h && n);
    EXPECT_EQ(h->msg_type, i);
    EXPECT_EQ(n->msg_type, i);
  }
}

TEST_F(MessageChannelTest, RingFullFailsSend) {
  sim::Simulation local_sim;
  nic::DmaEngine local_dma(local_sim, nic::DmaTiming{});
  MessageChannel small(local_sim, local_dma, 256);
  ChannelMsg msg;
  msg.payload.assign(100, 0xCC);
  ASSERT_EQ(small.send_or_queue_to_host(msg).outcome, SendOutcome::kSent);
  // The ring cannot take a second frame: the send fails into the pending
  // queue instead of the ring, and is delivered once the consumer drains.
  EXPECT_EQ(small.send_or_queue_to_host(msg).outcome, SendOutcome::kQueued);
  EXPECT_EQ(small.to_host_stats().sent, 1u);
  EXPECT_EQ(small.to_host_stats().queued, 1u);
  // Bounded runs: the parked send keeps a retry timer armed.
  local_sim.run(msec(1));
  ASSERT_TRUE(small.host_poll().has_value());
  local_sim.run(msec(2));
  ASSERT_TRUE(small.host_poll().has_value());
  EXPECT_EQ(small.to_host_stats().sent, 2u);
}

TEST_F(MessageChannelTest, NotifyFiresWhenVisible) {
  int notified = 0;
  chan.set_host_notify([&] { ++notified; });
  ChannelMsg msg;
  chan.send_or_queue_to_host(msg);
  EXPECT_EQ(notified, 0);
  sim.run();
  EXPECT_EQ(notified, 1);
}

}  // namespace
}  // namespace ipipe
