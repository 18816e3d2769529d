#include "ipipe/channel.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "crypto/crc32.h"

namespace ipipe {
namespace {

using Header = std::array<std::uint8_t, ChannelMsg::kHeaderBytes>;

template <typename T>
void put(std::uint8_t*& out, T value) {
  std::memcpy(out, &value, sizeof(T));
  out += sizeof(T);
}

template <typename T>
void get(const std::uint8_t*& in, T& value) {
  std::memcpy(&value, in, sizeof(T));
  in += sizeof(T);
}

void encode_header(const ChannelMsg& msg, Header& hdr) {
  std::uint8_t* out = hdr.data();
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
}

}  // namespace

ChannelMsg ChannelMsg::from_packet(netsim::Packet pkt) {
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
  msg.payload = std::move(pkt.payload);
  return msg;
}

netsim::PacketPtr ChannelMsg::to_packet(netsim::PacketPool& pool) && {
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
  pkt->payload = std::move(payload);
  return pkt;
}

FrameView FrameView::sub(std::size_t off, std::size_t len) const noexcept {
  if (off >= head.size()) return {tail.subspan(off - head.size(), len), {}};
  const std::size_t in_head = std::min(len, head.size() - off);
  return {head.subspan(off, in_head), tail.first(len - in_head)};
}

void FrameView::append_to(std::vector<std::uint8_t>& out) const {
  out.reserve(out.size() + size());
  out.insert(out.end(), head.begin(), head.end());
  out.insert(out.end(), tail.begin(), tail.end());
}

bool operator==(const FrameView& view,
                std::span<const std::uint8_t> bytes) noexcept {
  const auto tail_at =
      bytes.begin() + static_cast<std::ptrdiff_t>(view.head.size());
  return view.size() == bytes.size() &&
         std::equal(view.head.begin(), view.head.end(), bytes.begin()) &&
         std::equal(view.tail.begin(), view.tail.end(), tail_at);
}

std::optional<ChannelMsg> parse_frame(const FrameView& body) {
  if (body.size() < ChannelMsg::kHeaderBytes) return std::nullopt;
  Header hdr;
  const FrameView fields = body.sub(0, hdr.size());
  std::copy(fields.head.begin(), fields.head.end(), hdr.begin());
  std::copy(fields.tail.begin(), fields.tail.end(),
            hdr.begin() + static_cast<std::ptrdiff_t>(fields.head.size()));

  ChannelMsg msg;
  std::uint32_t payload_len = 0;
  const std::uint8_t* in = hdr.data();
  get(in, msg.dst_actor);
  get(in, msg.src_actor);
  get(in, msg.msg_type);
  get(in, msg.flags);
  get(in, msg.src_node);
  get(in, msg.dst_node);
  get(in, msg.flow);
  get(in, msg.request_id);
  get(in, msg.created_at);
  get(in, msg.frame_size);
  get(in, msg.seq);
  get(in, payload_len);
  if (payload_len > body.size() - hdr.size()) return std::nullopt;
  body.sub(hdr.size(), payload_len).append_to(msg.payload);
  return msg;
}

ChannelRing::ChannelRing(std::size_t capacity)
    : capacity_(capacity),
      buf_(std::make_unique_for_overwrite<std::uint8_t[]>(capacity)) {}

std::size_t ChannelRing::producer_free() const noexcept {
  return capacity_ - (write_pos_ - acked_read_pos_);
}

// Callers never move more than the ring holds, so a copy wraps at most
// once: one segment up to the end of the buffer, one from its start.
void ChannelRing::write_bytes(std::span<const std::uint8_t> bytes) {
  if (bytes.empty()) return;  // an empty span may carry no pointer
  const std::size_t at = write_pos_ % capacity_;
  const std::size_t head = std::min(bytes.size(), capacity_ - at);
  std::memcpy(buf_.get() + at, bytes.data(), head);
  std::memcpy(buf_.get(), bytes.data() + head, bytes.size() - head);
  write_pos_ += bytes.size();
}

void ChannelRing::read_bytes(std::span<std::uint8_t> out) {
  const std::size_t at = read_pos_ % capacity_;
  const std::size_t head = std::min(out.size(), capacity_ - at);
  std::memcpy(out.data(), buf_.get() + at, head);
  std::memcpy(out.data() + head, buf_.get(), out.size() - head);
  read_pos_ += out.size();
}

bool ChannelRing::push(std::span<const std::uint8_t> body,
                       std::span<const std::uint8_t> more) {
  const std::size_t len = body.size() + more.size();
  const std::size_t frame = 8 + len;  // [len u32][crc u32][body][more]
  if (frame > producer_free()) return false;

  const std::uint32_t len32 = static_cast<std::uint32_t>(len);
  const std::uint32_t crc = crypto::crc32(more, crypto::crc32(body));
  std::uint8_t hdr[8];
  std::memcpy(hdr, &len32, 4);
  std::memcpy(hdr + 4, &crc, 4);
  write_bytes(hdr);
  write_bytes(body);
  write_bytes(more);
  ++pushed_;
  ++in_ring_;
  return true;
}

std::optional<FrameView> ChannelRing::pop(bool* corrupt,
                                          std::size_t* discarded) {
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
  if (len > avail - 8 || len + 8 > capacity_) {
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

  const std::size_t at = read_pos_ % capacity_;
  const std::size_t head = std::min<std::size_t>(len, capacity_ - at);
  const FrameView body{{buf_.get() + at, head}, {buf_.get(), len - head}};
  read_pos_ += len;
  consumed_unacked_ += 8 + len;
  ++popped_;
  if (in_ring_ > 0) --in_ring_;

  if (crypto::crc32(body.tail, crypto::crc32(body.head)) != crc) {
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
  Header hdr;
  encode_header(msg, hdr);
  const std::size_t body_len = hdr.size() + msg.payload.size();
  const std::size_t frame_start = dir.ring.write_pos();
  if (!dir.ring.push(hdr, msg.payload)) return std::nullopt;
  maybe_inject_fault(dir, frame_start, body_len);

  dir.stats.ring_high_watermark =
      std::max(dir.stats.ring_high_watermark, dir.ring.occupied());

  // The message body crosses PCIe as one non-blocking DMA write; it is
  // only poppable on the far side once the transfer completes.
  const auto frame_bytes = static_cast<std::uint32_t>(body_len + 8);
  const Ns post = dma_.nonblocking_write(frame_bytes, nullptr);
  const Ns visible = sim_.now() + dma_.blocking_write_latency(frame_bytes);
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
                    ? kChanRetryBase
                    : std::min(dir.backoff * 2, tuning_.retry_cap);
  // Deterministic seeded jitter on top of the capped exponential backoff.
  // Every channel with the same jitter_seed draws the same sequence, so
  // this spreads one direction's retries but not those of channels that
  // parked frames during the same outage.
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
    const Parked& head = dir.pending.front();
    Retained& copy = *retained_of(dir, head.seq);
    if (!try_push(dir, copy.msg)) break;
    progressed = true;
    copy.parked = false;
    ++dir.stats.sent;
    if (head.is_retransmit) {
      ++dir.stats.retransmits;
      if (tracing()) {
        tracer_->instant(trace::Cat::kChannel, "chan_retransmit", tid_of(dir),
                         copy.msg.dst_actor,
                         {"seq", static_cast<double>(head.seq)});
      }
    }
    dir.stats.queue_delay.add(sim_.now() - head.queued_at);
    dir.pending.pop_front();
  }
  // A retransmit can outlive its message's delivery (a duplicate); the
  // copy it held back goes now.
  if (progressed) release_retained(dir);
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
  sim_.schedule(kChanNackDelay, [this, &dir, seq] {
    if (seq < dir.next_deliver) return;            // delivered meanwhile
    if (dir.reorder.count(seq) != 0) return;       // already received
    Retained* copy = retained_of(dir, seq);
    if (copy == nullptr) return;
    if (copy->parked) return;                      // already queued
    // Jump the queue: the receiver is head-of-line blocked on this seq
    // (the reorder buffer fixes up delivery order regardless).
    note_backpressure_start(dir);
    copy->parked = true;
    dir.pending.push_front(Parked{seq, sim_.now(), true});
    dir.stats.pending_high_watermark =
        std::max(dir.stats.pending_high_watermark, dir.pending.size());
    flush_pending(dir);
  });
}

MessageChannel::Retained* MessageChannel::retained_of(
    Dir& dir, std::uint64_t seq) noexcept {
  if (dir.retained.empty()) return nullptr;
  const std::uint64_t first = dir.retained.front().msg.seq;
  if (seq < first || seq - first >= dir.retained.size()) return nullptr;
  return &dir.retained[static_cast<std::size_t>(seq - first)];
}

void MessageChannel::release_retained(Dir& dir) {
  while (!dir.retained.empty() &&
         dir.retained.front().msg.seq < dir.next_deliver &&
         !dir.retained.front().parked) {
    dir.retained.pop_front();
  }
}

SendTicket MessageChannel::send_or_queue(Dir& dir, ChannelMsg msg) {
  msg.seq = dir.next_seq++;
  dir.retained.push_back(Retained{std::move(msg)});
  Retained& copy = dir.retained.back();

  if (dir.pending.empty()) {
    if (const auto cost = try_push(dir, copy.msg)) {
      ++dir.stats.sent;
      return SendTicket{SendOutcome::kSent, *cost};
    }
  }
  // Ring full (or earlier messages already parked): preserve FIFO order
  // by appending to the pending queue — never drop.
  const std::uint64_t seq = copy.msg.seq;
  if (tracing()) {
    tracer_->instant(trace::Cat::kChannel, "chan_queued", tid_of(dir),
                     copy.msg.dst_actor,
                     {"pending", static_cast<double>(dir.pending.size() + 1)},
                     {"seq", static_cast<double>(seq)});
  }
  ++dir.stats.queued;
  ++dir.stats.drops_avoided;
  note_backpressure_start(dir);
  copy.parked = true;
  dir.pending.push_back(Parked{seq, sim_.now(), false});
  dir.stats.pending_high_watermark =
      std::max(dir.stats.pending_high_watermark, dir.pending.size());
  arm_retry(dir);
  const bool over_cap = dir.pending.size() > kChanPendingCap;
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
  // The body is a view into the ring, parsed below before anything can
  // push over it.
  const auto body = dir.ring.pop(&corrupt, &discarded);
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

  auto msg = parse_frame(*body);
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

SendTicket MessageChannel::send_or_queue_to_host(ChannelMsg msg) {
  return send_or_queue(to_host_, std::move(msg));
}

SendTicket MessageChannel::send_or_queue_to_nic(ChannelMsg msg) {
  return send_or_queue(to_nic_, std::move(msg));
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
  // Retained copies from next_deliver on are exactly the host->NIC
  // messages the NIC never consumed (release_retained prunes the others
  // as delivery progresses, unless a parked duplicate still needs one),
  // already in sequence order.  Out-of-order redeliveries sitting in the
  // NIC-side reorder buffer were never handed to an actor either, but
  // each still has its retained copy, so the retained queue alone is the
  // complete undelivered set.
  std::vector<ChannelMsg> undelivered;
  undelivered.reserve(to_nic_.retained.size());
  for (Retained& r : to_nic_.retained) {
    if (r.msg.seq < to_nic_.next_deliver) continue;
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
