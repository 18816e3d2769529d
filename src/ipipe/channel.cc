#include "ipipe/channel.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "crypto/crc32.h"

namespace ipipe {
namespace {

template <typename T>
void put(std::vector<std::uint8_t>& out, T value) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
  out.insert(out.end(), p, p + sizeof(T));
}

template <typename T>
[[nodiscard]] bool get(std::span<const std::uint8_t> in, std::size_t& off,
                       T& value) {
  if (off + sizeof(T) > in.size()) return false;
  std::memcpy(&value, in.data() + off, sizeof(T));
  off += sizeof(T);
  return true;
}

}  // namespace

ChannelMsg ChannelMsg::from_packet(const netsim::Packet& pkt) {
  ChannelMsg msg;
  msg.dst_actor = pkt.dst_actor;
  msg.src_actor = pkt.src_actor;
  msg.msg_type = pkt.msg_type;
  msg.src_node = pkt.src;
  msg.dst_node = pkt.dst;
  msg.flow = pkt.flow;
  msg.request_id = pkt.request_id;
  msg.created_at = pkt.created_at;
  msg.frame_size = pkt.frame_size;
  msg.payload = pkt.payload;
  return msg;
}

netsim::PacketPtr ChannelMsg::to_packet(netsim::PacketPool& pool) const {
  auto pkt = pool.make();
  pkt->dst_actor = dst_actor;
  pkt->src_actor = src_actor;
  pkt->msg_type = msg_type;
  pkt->src = src_node;
  pkt->dst = dst_node;
  pkt->flow = flow;
  pkt->request_id = request_id;
  pkt->created_at = created_at;
  pkt->frame_size = frame_size;
  pkt->payload = payload;
  return pkt;
}

std::vector<std::uint8_t> serialize(const ChannelMsg& msg) {
  std::vector<std::uint8_t> out;
  out.reserve(ChannelMsg::kHeaderBytes + msg.payload.size());
  put(out, msg.dst_actor);
  put(out, msg.src_actor);
  put(out, msg.msg_type);
  put(out, msg.flags);
  put(out, msg.src_node);
  put(out, msg.dst_node);
  put(out, msg.flow);
  put(out, msg.request_id);
  put(out, msg.created_at);
  put(out, msg.frame_size);
  put(out, msg.seq);
  put(out, static_cast<std::uint32_t>(msg.payload.size()));
  out.insert(out.end(), msg.payload.begin(), msg.payload.end());
  return out;
}

std::optional<ChannelMsg> parse_msg(std::span<const std::uint8_t> bytes) {
  ChannelMsg msg;
  std::size_t off = 0;
  std::uint32_t payload_len = 0;
  if (!get(bytes, off, msg.dst_actor) || !get(bytes, off, msg.src_actor) ||
      !get(bytes, off, msg.msg_type) ||
      !get(bytes, off, msg.flags) || !get(bytes, off, msg.src_node) ||
      !get(bytes, off, msg.dst_node) || !get(bytes, off, msg.flow) ||
      !get(bytes, off, msg.request_id) || !get(bytes, off, msg.created_at) ||
      !get(bytes, off, msg.frame_size) || !get(bytes, off, msg.seq) ||
      !get(bytes, off, payload_len)) {
    return std::nullopt;
  }
  if (off + payload_len > bytes.size()) return std::nullopt;
  msg.payload.assign(bytes.begin() + static_cast<std::ptrdiff_t>(off),
                     bytes.begin() + static_cast<std::ptrdiff_t>(off + payload_len));
  return msg;
}

ChannelRing::ChannelRing(std::size_t capacity) : buf_(capacity, 0) {}

std::size_t ChannelRing::producer_free() const noexcept {
  return buf_.size() - (write_pos_ - acked_read_pos_);
}

// Callers never move more than the ring holds, so a copy wraps at most
// once: one segment up to the end of the buffer, one from its start.
void ChannelRing::write_bytes(std::span<const std::uint8_t> bytes) {
  if (bytes.empty()) return;  // an empty span may carry no pointer
  const std::size_t at = write_pos_ % buf_.size();
  const std::size_t head = std::min(bytes.size(), buf_.size() - at);
  std::memcpy(buf_.data() + at, bytes.data(), head);
  std::memcpy(buf_.data(), bytes.data() + head, bytes.size() - head);
  write_pos_ += bytes.size();
}

void ChannelRing::read_bytes(std::span<std::uint8_t> out) {
  if (out.empty()) return;  // an empty span may carry no pointer
  const std::size_t at = read_pos_ % buf_.size();
  const std::size_t head = std::min(out.size(), buf_.size() - at);
  std::memcpy(out.data(), buf_.data() + at, head);
  std::memcpy(out.data() + head, buf_.data(), out.size() - head);
  read_pos_ += out.size();
}

bool ChannelRing::push(std::span<const std::uint8_t> body) {
  const std::size_t frame = 8 + body.size();  // [len u32][crc u32][body]
  if (frame > producer_free()) return false;

  const std::uint32_t len = static_cast<std::uint32_t>(body.size());
  const std::uint32_t crc = crypto::crc32(body);
  std::uint8_t hdr[8];
  std::memcpy(hdr, &len, 4);
  std::memcpy(hdr + 4, &crc, 4);
  write_bytes(hdr);
  write_bytes(body);
  ++pushed_;
  ++in_ring_;
  return true;
}

std::optional<std::vector<std::uint8_t>> ChannelRing::pop(
    bool* corrupt, std::size_t* discarded) {
  if (corrupt) *corrupt = false;
  if (discarded) *discarded = 0;
  const std::size_t avail = write_pos_ - read_pos_;
  if (avail < 8) return std::nullopt;

  std::uint8_t hdr[8];
  read_bytes(hdr);
  std::uint32_t len;
  std::uint32_t crc;
  std::memcpy(&len, hdr, 4);
  std::memcpy(&crc, hdr + 4, 4);

  // A corrupt `len` desyncs the byte stream: frame boundaries after it
  // cannot be trusted.  Recover by discarding every unread byte; the
  // reliability layer redelivers the lost frames.
  if (len > avail - 8 || len + 8 > buf_.size()) {
    const std::uint64_t lost = in_ring_;
    ++framing_errors_;
    popped_ += lost;
    in_ring_ = 0;
    consumed_unacked_ += avail;
    read_pos_ = write_pos_;
    if (corrupt) *corrupt = true;
    if (discarded) *discarded = static_cast<std::size_t>(lost);
    return std::nullopt;
  }

  std::vector<std::uint8_t> body(len);
  read_bytes(body);
  consumed_unacked_ += 8 + len;
  ++popped_;
  if (in_ring_ > 0) --in_ring_;

  if (crypto::crc32(body) != crc) {
    ++crc_failures_;
    if (corrupt) *corrupt = true;
    if (discarded) *discarded = 1;
    return std::nullopt;
  }
  return body;
}

void ChannelRing::ack() {
  acked_read_pos_ = read_pos_;
  consumed_unacked_ = 0;
}

MessageChannel::MessageChannel(sim::Simulation& sim, nic::DmaEngine& dma,
                               std::size_t ring_bytes, ChannelTuning tuning)
    : sim_(sim),
      dma_(dma),
      tuning_(tuning),
      to_host_(ring_bytes),
      to_nic_(ring_bytes),
      retry_rng_(tuning.jitter_seed) {}

void MessageChannel::maybe_inject_fault(Dir& dir, std::size_t frame_start,
                                        std::size_t body_len) {
  if (fault_rate_ <= 0.0 || body_len == 0) return;
  if (!fault_rng_.bernoulli(fault_rate_)) return;
  // Flip a byte somewhere inside the just-written body; the consumer's
  // CRC check will catch it and the reliability layer must recover.
  const std::size_t off = 8 + fault_rng_.uniform_u64(body_len);
  dir.ring.corrupt_byte(frame_start + off, 0xFF);
}

std::optional<Ns> MessageChannel::try_push(Dir& dir, const ChannelMsg& msg) {
  if (link_down_) return std::nullopt;  // PCIe flap: nothing crosses
  const auto body = serialize(msg);
  const std::size_t frame_start = dir.ring.write_pos();
  if (!dir.ring.push(body)) return std::nullopt;
  maybe_inject_fault(dir, frame_start, body.size());

  dir.stats.ring_high_watermark =
      std::max(dir.stats.ring_high_watermark, dir.ring.occupied());

  // The message body crosses PCIe as one non-blocking DMA write; it is
  // only poppable on the far side once the transfer completes.
  const Ns post = dma_.nonblocking_write(
      static_cast<std::uint32_t>(body.size() + 8), nullptr);
  const Ns visible = sim_.now() + dma_.blocking_write_latency(
                                      static_cast<std::uint32_t>(body.size() + 8));
  dir.vis.push_back(Pending{visible, msg.seq});
  // Always schedule the visibility edge so pollers (and tests) running the
  // event loop observe the message without an external timer.
  auto* notify = notify_of(dir);
  sim_.schedule_at(visible, [notify] {
    if (notify != nullptr && *notify) (*notify)();
  });
  return post;
}

void MessageChannel::note_backpressure_start(Dir& dir) {
  if (dir.backpressure_active || !dir.pending.empty()) return;
  dir.backpressure_active = true;
  dir.backpressure_since = sim_.now();
  ++dir.stats.backpressure_events;
  if (tracing()) {
    tracer_->instant(trace::Cat::kChannel, "chan_backpressure_start",
                     tid_of(dir), 0,
                     {"pending", static_cast<double>(dir.pending.size())});
  }
}

void MessageChannel::note_backpressure_end(Dir& dir) {
  if (!dir.backpressure_active) return;
  dir.stats.backpressure_ns += sim_.now() - dir.backpressure_since;
  if (tracing()) {
    tracer_->span(trace::Cat::kChannel, "backpressure", tid_of(dir),
                  dir.backpressure_since, sim_.now());
  }
  dir.backpressure_active = false;
  dir.backpressure_since = 0;
}

void MessageChannel::arm_retry(Dir& dir) {
  if (dir.retry_armed) return;
  dir.retry_armed = true;
  dir.backoff = dir.backoff == 0
                    ? tuning_.retry_base
                    : std::min(dir.backoff * 2, tuning_.retry_cap);
  // Deterministic seeded jitter on top of the capped exponential backoff:
  // after a long outage heals, channels that parked frames at the same
  // time would otherwise all retry at the same instant.
  Ns delay = dir.backoff;
  if (tuning_.retry_jitter > 0.0) {
    const auto span =
        static_cast<std::uint64_t>(static_cast<double>(dir.backoff) *
                                   tuning_.retry_jitter);
    if (span > 0) delay += static_cast<Ns>(retry_rng_.uniform_u64(span));
  }
  sim_.schedule(delay, [this, &dir] {
    dir.retry_armed = false;
    flush_pending(dir);
  });
}

void MessageChannel::flush_pending(Dir& dir) {
  bool progressed = false;
  while (!dir.pending.empty()) {
    Parked& head = dir.pending.front();
    if (!try_push(dir, head.msg)) break;
    progressed = true;
    ++dir.stats.sent;
    if (head.is_retransmit) {
      ++dir.stats.retransmits;
      if (tracing()) {
        tracer_->instant(trace::Cat::kChannel, "chan_retransmit", tid_of(dir),
                         head.msg.dst_actor,
                         {"seq", static_cast<double>(head.seq)});
      }
    }
    dir.stats.queue_delay.add(sim_.now() - head.queued_at);
    dir.pending.pop_front();
  }
  if (dir.pending.empty()) {
    dir.backoff = 0;
    note_backpressure_end(dir);
  } else {
    if (progressed) dir.backoff = 0;  // the ring is draining again
    arm_retry(dir);
  }
}

void MessageChannel::schedule_retransmit(Dir& dir, std::uint64_t seq) {
  ++dir.stats.drops_avoided;
  if (tracing()) {
    tracer_->instant(trace::Cat::kChannel, "chan_nack", tid_of(dir), 0,
                     {"seq", static_cast<double>(seq)});
  }
  // Model the consumer->producer NACK crossing PCIe before the producer
  // can react.
  sim_.schedule(tuning_.nack_delay, [this, &dir, seq] {
    if (seq < dir.next_deliver) return;            // delivered meanwhile
    if (dir.reorder.count(seq) != 0) return;       // already received
    for (const Parked& p : dir.pending) {
      if (p.seq == seq) return;                    // already queued
    }
    for (const Retained& r : dir.retained) {
      if (r.seq != seq) continue;
      // Jump the queue: the receiver is head-of-line blocked on this seq
      // (the reorder buffer fixes up delivery order regardless).
      note_backpressure_start(dir);
      dir.pending.push_front(Parked{seq, r.msg, sim_.now(), true});
      dir.stats.pending_high_watermark =
          std::max(dir.stats.pending_high_watermark, dir.pending.size());
      flush_pending(dir);
      return;
    }
  });
}

void MessageChannel::release_retained(Dir& dir) {
  while (!dir.retained.empty() && dir.retained.front().seq < dir.next_deliver) {
    dir.retained.pop_front();
  }
}

SendTicket MessageChannel::send_or_queue(Dir& dir, ChannelMsg msg) {
  msg.seq = dir.next_seq++;
  dir.retained.push_back(Retained{msg.seq, msg});

  if (dir.pending.empty()) {
    if (const auto cost = try_push(dir, msg)) {
      ++dir.stats.sent;
      return SendTicket{SendOutcome::kSent, *cost};
    }
  }
  // Ring full (or earlier messages already parked): preserve FIFO order
  // by appending to the pending queue — never drop.
  if (tracing()) {
    tracer_->instant(trace::Cat::kChannel, "chan_queued", tid_of(dir),
                     msg.dst_actor,
                     {"pending", static_cast<double>(dir.pending.size() + 1)},
                     {"seq", static_cast<double>(msg.seq)});
  }
  ++dir.stats.queued;
  ++dir.stats.drops_avoided;
  note_backpressure_start(dir);
  dir.pending.push_back(Parked{msg.seq, std::move(msg), sim_.now(), false});
  dir.stats.pending_high_watermark =
      std::max(dir.stats.pending_high_watermark, dir.pending.size());
  arm_retry(dir);
  const bool over_cap = dir.pending.size() > tuning_.pending_cap;
  return SendTicket{over_cap ? SendOutcome::kBackpressured : SendOutcome::kQueued,
                    0};
}

std::optional<ChannelMsg> MessageChannel::poll(Dir& dir) {
  // In-order redeliveries waiting in the reorder buffer go first.
  auto it = dir.reorder.begin();
  if (it != dir.reorder.end() && it->first == dir.next_deliver) {
    ChannelMsg msg = std::move(it->second);
    dir.reorder.erase(it);
    ++dir.next_deliver;
    release_retained(dir);
    return msg;
  }

  if (dir.vis.empty() || dir.vis.front().visible_at > sim_.now()) {
    return std::nullopt;
  }

  bool corrupt = false;
  std::size_t discarded = 0;
  auto body = dir.ring.pop(&corrupt, &discarded);
  // Lazy header-pointer sync back to the producer.
  if (dir.ring.unacked() > dir.ring.capacity() / 2) dir.ring.ack();

  if (!body) {
    if (corrupt) {
      ++dir.stats.corrupt_frames;
      if (tracing()) {
        tracer_->instant(trace::Cat::kChannel, "chan_corrupt", tid_of(dir), 0,
                         {"discarded", static_cast<double>(discarded)});
      }
      if (discarded > 1) ++dir.stats.framing_resyncs;
      // Every discarded frame is identified by its FIFO position: request
      // redelivery for each lost sequence number.
      for (std::size_t i = 0; i < discarded && !dir.vis.empty(); ++i) {
        schedule_retransmit(dir, dir.vis.front().seq);
        dir.vis.pop_front();
      }
    } else if (dir.ring.empty()) {
      // Visibility edges whose bytes no longer exist in the ring: a reset
      // or framing resync raced the DMA.  The frames are gone for good —
      // request redelivery for each and stop reporting phantom data, or
      // has_data() stays true forever and the polling core livelocks.
      ++dir.stats.framing_resyncs;
      while (!dir.vis.empty() && dir.vis.front().visible_at <= sim_.now()) {
        schedule_retransmit(dir, dir.vis.front().seq);
        dir.vis.pop_front();
      }
    }
    return std::nullopt;
  }
  const std::uint64_t frame_seq = dir.vis.front().seq;
  dir.vis.pop_front();

  auto msg = parse_msg(*body);
  if (!msg) {
    // CRC-clean but unparseable should not happen; treat as corrupt so
    // the message is still redelivered rather than lost.
    ++dir.stats.corrupt_frames;
    schedule_retransmit(dir, frame_seq);
    return std::nullopt;
  }

  if (msg->seq == dir.next_deliver) {
    ++dir.next_deliver;
    release_retained(dir);
    return msg;
  }
  if (msg->seq > dir.next_deliver) {
    // A retransmit for an earlier loss is still in flight: hold this one.
    dir.reorder.emplace(msg->seq, std::move(*msg));
    return std::nullopt;
  }
  ++dir.stats.duplicates_dropped;
  return std::nullopt;
}

bool MessageChannel::has_data(const Dir& dir) const noexcept {
  const auto it = dir.reorder.begin();
  if (it != dir.reorder.end() && it->first == dir.next_deliver) return true;
  return !dir.vis.empty() && dir.vis.front().visible_at <= sim_.now();
}

SendTicket MessageChannel::send_or_queue_to_host(const ChannelMsg& msg) {
  return send_or_queue(to_host_, msg);
}

SendTicket MessageChannel::send_or_queue_to_nic(const ChannelMsg& msg) {
  return send_or_queue(to_nic_, msg);
}

std::optional<ChannelMsg> MessageChannel::host_poll() { return poll(to_host_); }

std::optional<ChannelMsg> MessageChannel::nic_poll() { return poll(to_nic_); }

bool MessageChannel::host_has_data() const noexcept { return has_data(to_host_); }

bool MessageChannel::nic_has_data() const noexcept { return has_data(to_nic_); }

void MessageChannel::reset() {
  for (Dir* dir : {&to_host_, &to_nic_}) {
    dir->ring.reset();
    dir->vis.clear();
    dir->next_seq = 0;
    dir->pending.clear();
    dir->retained.clear();
    dir->backoff = 0;
    // retry_armed stays as-is: an already-scheduled flush fires against an
    // empty pending queue and no-ops.
    note_backpressure_end(*dir);
    dir->next_deliver = 0;
    dir->reorder.clear();
  }
  // link_down_ survives a reset on purpose: fencing the channel during a
  // pcie-flap must not declare the link healthy — only the flap's heal
  // event (set_link_down(false)) does that.
}

std::vector<ChannelMsg> MessageChannel::fence_for_nic_failure() {
  // Retained copies are exactly the host->NIC messages the NIC never
  // consumed (release_retained prunes them the moment delivery
  // progresses), already in sequence order.  Out-of-order redeliveries
  // sitting in the NIC-side reorder buffer were never handed to an actor
  // either, but each still has its retained copy, so the retained queue
  // alone is the complete undelivered set.
  std::vector<ChannelMsg> undelivered;
  undelivered.reserve(to_nic_.retained.size());
  for (Retained& r : to_nic_.retained) {
    undelivered.push_back(std::move(r.msg));
  }
  reset();
  return undelivered;
}

void MessageChannel::set_link_down(bool down) {
  if (link_down_ == down) return;
  link_down_ = down;
  if (tracing()) {
    tracer_->instant(trace::Cat::kChannel,
                     down ? "chan_link_down" : "chan_link_up",
                     trace::tid::kChanToNic, 0, {"down", down ? 1.0 : 0.0});
  }
  if (down) return;
  // Link restored: drain whatever parked during the outage (jittered
  // backoff keeps concurrent channels from bursting in lockstep).
  flush_pending(to_host_);
  flush_pending(to_nic_);
}

}  // namespace ipipe
