#include <gtest/gtest.h>

#include <cstring>

#include "crypto/crc32.h"
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

// The frame body as the channel wrote it before it encoded headers in
// place: kept as the reference the in-place encoder and parser are held
// to.
std::vector<std::uint8_t> reference_body(const ChannelMsg& msg) {
  std::vector<std::uint8_t> out;
  const auto put = [&out](auto value) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
    out.insert(out.end(), p, p + sizeof(value));
  };
  put(msg.dst_actor);
  put(msg.src_actor);
  put(msg.msg_type);
  put(msg.flags);
  put(msg.src_node);
  put(msg.dst_node);
  put(msg.flow);
  put(msg.request_id);
  put(msg.created_at);
  put(msg.frame_size);
  put(msg.seq);
  put(static_cast<std::uint32_t>(msg.payload.size()));
  out.insert(out.end(), msg.payload.begin(), msg.payload.end());
  return out;
}

/// [len][crc][body], the bytes one push leaves in the ring.
std::vector<std::uint8_t> reference_frame(const ChannelMsg& msg) {
  const auto body = reference_body(msg);
  const auto len = static_cast<std::uint32_t>(body.size());
  const std::uint32_t crc = crypto::detail::crc32_portable(body);
  std::vector<std::uint8_t> out(8);
  std::memcpy(out.data(), &len, 4);
  std::memcpy(out.data() + 4, &crc, 4);
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

ChannelMsg sample_msg(std::size_t payload_bytes, std::uint32_t tag) {
  ChannelMsg msg;
  msg.dst_actor = 7 + tag;
  msg.src_actor = 9;
  msg.msg_type = static_cast<std::uint16_t>(42 + tag);
  msg.flags = 0x8001;
  msg.src_node = 1;
  msg.dst_node = 2 + tag;
  msg.flow = 0xabcd;
  msg.request_id = 0x123456789ULL + tag;
  msg.created_at = 777 + tag;
  msg.frame_size = 512;
  msg.seq = 0xFEEDULL << 20;
  msg.payload.resize(payload_bytes);
  for (std::size_t i = 0; i < payload_bytes; ++i) {
    msg.payload[i] = static_cast<std::uint8_t>(i * 31 + tag);
  }
  return msg;
}

void expect_same_msg(const ChannelMsg& got, const ChannelMsg& want) {
  EXPECT_EQ(got.dst_actor, want.dst_actor);
  EXPECT_EQ(got.src_actor, want.src_actor);
  EXPECT_EQ(got.msg_type, want.msg_type);
  EXPECT_EQ(got.flags, want.flags);
  EXPECT_EQ(got.src_node, want.src_node);
  EXPECT_EQ(got.dst_node, want.dst_node);
  EXPECT_EQ(got.flow, want.flow);
  EXPECT_EQ(got.request_id, want.request_id);
  EXPECT_EQ(got.created_at, want.created_at);
  EXPECT_EQ(got.frame_size, want.frame_size);
  EXPECT_EQ(got.seq, want.seq);
  EXPECT_EQ(got.payload, want.payload);
}

/// `bytes` as a ring would hand it out if its storage ended after `split`.
FrameView split_at(const std::vector<std::uint8_t>& bytes, std::size_t split) {
  const std::span<const std::uint8_t> all(bytes);
  return {all.first(split), all.subspan(split)};
}

TEST(ChannelMsgCodec, RoundTrip) {
  const ChannelMsg msg = sample_msg(3, 0);
  const auto bytes = reference_body(msg);
  // However the body splits across the ring's wrap point.
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    const auto parsed = parse_frame(split_at(bytes, split));
    ASSERT_TRUE(parsed.has_value()) << "split=" << split;
    expect_same_msg(*parsed, msg);
  }
}

TEST(ChannelMsgCodec, TruncatedInputRejected) {
  const auto bytes = reference_body(sample_msg(4, 0));
  // A short payload, a header one byte short, and nothing at all.
  for (const std::size_t keep : {bytes.size() - 2,
                                 std::size_t{ChannelMsg::kHeaderBytes - 1},
                                 std::size_t{0}}) {
    const std::vector<std::uint8_t> cut(
        bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(keep));
    for (std::size_t split = 0; split <= cut.size(); ++split) {
      EXPECT_FALSE(parse_frame(split_at(cut, split)).has_value())
          << "keep=" << keep << " split=" << split;
    }
  }
  // Trailing bytes past the declared payload are ignored.
  auto longer = bytes;
  longer.push_back(0xEE);
  const auto parsed = parse_frame(split_at(longer, 10));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->payload, (std::vector<std::uint8_t>{0, 31, 62, 93}));
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
  auto msg = ChannelMsg::from_packet(pkt);
  const auto back = std::move(msg).to_packet(netsim::PacketPool::local());
  EXPECT_EQ(back->src, 3u);
  EXPECT_EQ(back->dst_actor, 11u);
  EXPECT_EQ(back->src_actor, 12u);
  EXPECT_EQ(back->payload, pkt.payload);
}

// Every push leaves exactly the bytes the serialize-then-push channel
// left: empty and one-byte payloads, a memtable-flush-sized one, a
// payload and a message header straddling the wrap point.  Each message
// then polls back whole.
TEST(ChannelGoldenFrame, PushLeavesReferenceBytes) {
  constexpr std::size_t kRing = 256 * 1024;
  sim::Simulation sim;
  nic::DmaEngine dma(sim, nic::DmaTiming{});
  MessageChannel chan(sim, dma, kRing);
  const ChannelRing& ring = chan.to_host_ring();

  // Frames are 64 B + payload.  The fourth wraps inside its payload; the
  // fifth ends 20 B short of the second wrap, so the sixth's message
  // header straddles it.
  const std::size_t before_fifth = 64 + 65 + (64 + 214'000) + (64 + 100'000);
  const std::size_t fifth = 2 * kRing - 20 - before_fifth - 64;
  const std::size_t payloads[] = {0, 1, 214'000, 100'000, fifth, 5};
  bool wrapped_payload = false;
  bool wrapped_header = false;
  std::uint64_t seq = 0;
  for (const std::size_t bytes : payloads) {
    ChannelMsg msg = sample_msg(bytes, static_cast<std::uint32_t>(seq));
    const std::size_t start = ring.write_pos();
    const std::size_t end = start + 64 + bytes;
    wrapped_payload |= start / kRing != end / kRing && start % kRing < kRing - 64;
    wrapped_header |= start % kRing > kRing - 64;
    ASSERT_EQ(chan.send_or_queue_to_host(msg).outcome, SendOutcome::kSent);

    msg.seq = seq++;  // stamped by the channel
    const auto want = reference_frame(msg);
    ASSERT_EQ(ring.write_pos() - start, want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(ring.byte_at(start + i), want[i])
          << "payload=" << bytes << " byte " << i;
    }

    sim.run();
    const auto got = chan.host_poll();
    ASSERT_TRUE(got.has_value()) << "payload=" << bytes;
    expect_same_msg(*got, msg);
    chan.to_host_ring_mut().ack();  // keep the producer's view fresh
  }
  EXPECT_TRUE(wrapped_payload);
  EXPECT_TRUE(wrapped_header);
  EXPECT_EQ(ring.crc_failures(), 0u);
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

// A NACK armed before a power-fail reset names a sequence number the
// fresh channel reuses.  Firing while the new frame is still in flight, it
// parks a duplicate behind a full ring (`msg` fills a 256 B ring alone).
void park_stale_duplicate(sim::Simulation& sim, MessageChannel& chan,
                          const ChannelMsg& msg) {
  ASSERT_EQ(chan.send_or_queue_to_nic(msg).outcome, SendOutcome::kSent);
  chan.to_nic_ring_mut().corrupt_byte(8 + 60, 0xFF);
  sim.run(sim.now() + usec(1));
  ASSERT_TRUE(chan.nic_has_data());
  ASSERT_FALSE(chan.nic_poll().has_value());  // CRC failure: NACK armed
  chan.reset();
  ASSERT_EQ(chan.send_or_queue_to_nic(msg).outcome, SendOutcome::kSent);
  sim.run(sim.now() + usec(3));
  ASSERT_EQ(chan.to_nic_stats().pending_high_watermark, 1u);
}

// The original is delivered while the duplicate is parked.  The NIC-failure
// fence must not hand back the delivered message, and without a fence the
// duplicate still goes out once the consumer acknowledges, and is dropped.
TEST(ChannelStaleNack, ParkedDuplicateOutlivesDeliveryNotTheFence) {
  ChannelMsg msg;
  msg.payload.assign(100, 0x5A);  // 164 B frames
  {
    sim::Simulation sim;
    nic::DmaEngine dma(sim, nic::DmaTiming{});
    MessageChannel chan(sim, dma, 256);
    park_stale_duplicate(sim, chan, msg);
    const auto got = chan.nic_poll();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->payload, msg.payload);
    EXPECT_TRUE(chan.fence_for_nic_failure().empty());
  }
  {
    sim::Simulation sim;
    nic::DmaEngine dma(sim, nic::DmaTiming{});
    MessageChannel chan(sim, dma, 256);
    park_stale_duplicate(sim, chan, msg);
    ASSERT_TRUE(chan.nic_poll().has_value());
    sim.run(sim.now() + msec(1));
    EXPECT_FALSE(chan.nic_poll().has_value());
    EXPECT_EQ(chan.to_nic_stats().retransmits, 1u);
    EXPECT_EQ(chan.to_nic_stats().duplicates_dropped, 1u);
    EXPECT_TRUE(chan.fence_for_nic_failure().empty());
  }
}

}  // namespace
}  // namespace ipipe
