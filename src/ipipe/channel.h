// Host <-> NIC message passing (§3.5).
//
// iPipe creates I/O channels of two unidirectional circular buffers that
// live in host memory.  The NIC writes its ring with batched non-blocking
// DMA; the host polls.  Because the DMA engine does not write message
// contents in a monotonic byte order, every message carries a 4-byte
// checksum validated before delivery.  The consumer acknowledges progress
// lazily — one dedicated message after consuming half the buffer — so the
// producer's free-space view trails reality (the FaRM-style lazy update).
//
// On top of the raw rings sits a reliability + backpressure layer: every
// message is stamped with a per-direction sequence number and retained by
// the sender until delivered.  A ring-full send parks the message in a
// bounded pending queue (flushed with capped exponential backoff); a
// CRC-corrupt or desynced frame triggers a NACK-driven retransmit.  The
// receiver reorders out-of-sequence redeliveries, so `send_or_queue`
// never loses a message and per-destination ordering is preserved.
//
// This implementation is real: bytes are written into an actual ring,
// wrap-around and checksum verification happen on real data (tests inject
// corruption), and only the *timing* (PCIe transfer, poll intervals) is
// simulated.
//
// Copy rule: a message's payload is copied twice on its way across, once
// into the ring (straight after its header, no staging buffer) and once
// out of it, into the message the receiver polls.  Everything else moves
// it: a sent packet's payload moves into the channel, the sender's
// retransmission copy is the one owned copy until delivery, and a polled
// message's payload moves into the packet the runtime dispatches.  The
// ring's storage is not zero-filled, so a ring costs memory only for the
// bytes its producer has reached.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/trace.h"
#include "common/units.h"
#include "netsim/packet.h"
#include "nic/dma_engine.h"
#include "sim/simulation.h"

namespace ipipe {

/// A message crossing the PCIe channel.
struct ChannelMsg {
  netsim::ActorId dst_actor = 0;
  netsim::ActorId src_actor = netsim::kForwardOnly;
  std::uint16_t msg_type = 0;
  std::uint16_t flags = 0;
  netsim::NodeId src_node = 0;
  netsim::NodeId dst_node = 0;
  std::uint32_t flow = 0;
  std::uint64_t request_id = 0;
  Ns created_at = 0;
  std::uint32_t frame_size = 0;
  /// Per-direction sequence number, stamped by the channel at send time.
  std::uint64_t seq = 0;
  std::vector<std::uint8_t> payload;

  /// The message carrying `pkt`; the payload moves in.
  [[nodiscard]] static ChannelMsg from_packet(netsim::Packet pkt);
  /// Rebuild a Packet from this message, drawing from `pool`; the payload
  /// moves out.
  [[nodiscard]] netsim::PacketPtr to_packet(netsim::PacketPool& pool) &&;

  /// Serialized wire size (header + payload), for DMA cost accounting.
  [[nodiscard]] std::uint32_t wire_bytes() const noexcept {
    return kHeaderBytes + static_cast<std::uint32_t>(payload.size());
  }
  static constexpr std::uint32_t kHeaderBytes = 56;
};

/// A frame body where it lies in a ChannelRing: `head`, then `tail` when
/// the body wraps past the end of the ring's storage (empty otherwise).
/// The bytes stay valid until the ring's next push.
struct FrameView {
  std::span<const std::uint8_t> head;
  std::span<const std::uint8_t> tail;

  [[nodiscard]] std::size_t size() const noexcept {
    return head.size() + tail.size();
  }
  /// Body bytes [off, off + len); the range must lie within size().
  [[nodiscard]] FrameView sub(std::size_t off, std::size_t len) const noexcept;
  /// Append the body's bytes to `out`.
  void append_to(std::vector<std::uint8_t>& out) const;

  friend bool operator==(const FrameView& view,
                         std::span<const std::uint8_t> bytes) noexcept;
};

/// Parse a frame body in place: the header fields, then one copy of the
/// payload.  nullopt on malformed input.  The body is the message's
/// ChannelMsg::kHeaderBytes header (its fields in declaration order, then
/// the payload length, in host byte order) followed by the payload.
[[nodiscard]] std::optional<ChannelMsg> parse_frame(const FrameView& body);

/// Unidirectional SPSC ring with framing ([len][crc][body]) and lazy
/// consumer-progress acknowledgement.
class ChannelRing {
 public:
  explicit ChannelRing(std::size_t capacity);

  /// Producer: append one framed message whose body is `body` followed by
  /// `more`.  Fails (false) when the producer's *conservative* free-space
  /// view cannot fit it.
  bool push(std::span<const std::uint8_t> body,
            std::span<const std::uint8_t> more = {});

  /// Consumer: pop the next message; verifies the checksum.  Returns
  /// nullopt when empty.  `corrupt` is set when one or more frames were
  /// consumed and discarded; `discarded` (optional) receives how many.
  /// A corrupt `len` field desyncs the byte stream — the ring recovers by
  /// skipping every unread byte and reporting all skipped frames lost.
  /// The returned view points into the ring (see FrameView).
  std::optional<FrameView> pop(bool* corrupt = nullptr,
                               std::size_t* discarded = nullptr);

  /// Consumer-side: bytes consumed since the last ack.  The channel sends
  /// an ack message once this exceeds capacity/2 (§3.5).
  [[nodiscard]] std::size_t unacked() const noexcept { return consumed_unacked_; }
  /// Producer learns of consumer progress (the lazy header update).
  void ack();

  /// Forget every buffered byte (node power-fail); lifetime counters
  /// survive, positions restart from zero.
  void reset() noexcept {
    write_pos_ = read_pos_ = acked_read_pos_ = 0;
    consumed_unacked_ = 0;
    in_ring_ = 0;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Producer's conservative view of free bytes.
  [[nodiscard]] std::size_t producer_free() const noexcept;
  /// Bytes actually occupied (written, not yet read).
  [[nodiscard]] std::size_t occupied() const noexcept {
    return write_pos_ - read_pos_;
  }
  [[nodiscard]] bool empty() const noexcept { return write_pos_ == read_pos_; }
  [[nodiscard]] std::uint64_t pushed() const noexcept { return pushed_; }
  [[nodiscard]] std::uint64_t popped() const noexcept { return popped_; }
  [[nodiscard]] std::uint64_t crc_failures() const noexcept { return crc_failures_; }
  [[nodiscard]] std::uint64_t framing_errors() const noexcept {
    return framing_errors_;
  }

  /// Test hooks: flip a bit inside the ring storage / read a stored byte
  /// (positions are logical, reduced mod capacity).
  void corrupt_byte(std::size_t pos, std::uint8_t xor_mask) {
    buf_[pos % capacity_] ^= xor_mask;
  }
  [[nodiscard]] std::uint8_t byte_at(std::size_t pos) const {
    return buf_[pos % capacity_];
  }
  [[nodiscard]] std::size_t write_pos() const noexcept { return write_pos_; }
  [[nodiscard]] std::size_t read_pos() const noexcept { return read_pos_; }

 private:
  void write_bytes(std::span<const std::uint8_t> bytes);
  void read_bytes(std::span<std::uint8_t> out);

  std::size_t capacity_;
  /// Not zero-filled: untouched pages cost no memory (see the file
  /// header).  Only written bytes are ever read.
  std::unique_ptr<std::uint8_t[]> buf_;
  // Logical (monotonically increasing) positions, reduced mod capacity.
  std::size_t write_pos_ = 0;       // producer
  std::size_t read_pos_ = 0;        // consumer
  std::size_t acked_read_pos_ = 0;  // producer's stale view of read_pos_
  std::size_t consumed_unacked_ = 0;
  std::uint64_t pushed_ = 0;
  std::uint64_t popped_ = 0;
  // Frames currently buffered (unlike pushed_/popped_, zeroed on reset so
  // the framing-error recovery path reports an accurate loss count).
  std::uint64_t in_ring_ = 0;
  std::uint64_t crc_failures_ = 0;
  std::uint64_t framing_errors_ = 0;
};

/// First pending-queue flush backoff.
inline constexpr Ns kChanRetryBase = usec(2);
/// Simulated consumer->producer NACK latency.
inline constexpr Ns kChanNackDelay = usec(2);
/// Pending-queue length past which the direction reports backpressure
/// high-watermark pressure (sends are still accepted — never dropped).
inline constexpr std::size_t kChanPendingCap = 256;

/// Tuning for the channel reliability layer.
struct ChannelTuning {
  Ns retry_cap = usec(128);  ///< exponential backoff ceiling
  /// Fraction of the current backoff added as deterministic seeded
  /// jitter to each retry delay, so one direction's retries do not land
  /// on exact doublings of kChanRetryBase.  The draws depend on
  /// `jitter_seed` alone: channels built with the same seed (every
  /// Runtime builds its channel with the default) draw the same
  /// sequence, so their retries are not de-correlated from each other.
  double retry_jitter = 0.25;
  std::uint64_t jitter_seed = 0xB0FF5EEDULL;
};

/// Outcome of a reliable send: the message is always accepted.
enum class SendOutcome : std::uint8_t {
  kSent,    ///< pushed straight into the ring
  kQueued,  ///< ring full — parked for scheduled retransmit
  /// Parked and the pending queue exceeds its cap: the sender should
  /// slow down (the runtime charges a stall penalty).
  kBackpressured,
};

struct SendTicket {
  SendOutcome outcome = SendOutcome::kSent;
  Ns cost = 0;  ///< core-side cost to charge (command post / queue insert)
};

/// Bidirectional channel with simulated PCIe timing.  Messages pushed on
/// one side become poppable on the other only after the (batched,
/// non-blocking) DMA completes.
class MessageChannel {
 public:
  MessageChannel(sim::Simulation& sim, nic::DmaEngine& dma,
                 std::size_t ring_bytes = 1 << 20,
                 ChannelTuning tuning = {});

  // ---- the only send interface ------------------------------------------
  /// NIC -> host / host -> NIC.  Never loses the message: a full ring
  /// parks it in the pending queue and a scheduled retry redelivers.
  SendTicket send_or_queue_to_host(ChannelMsg msg);
  SendTicket send_or_queue_to_nic(ChannelMsg msg);

  /// Receive sides (nullopt when nothing is visible yet).  Sequence
  /// numbers are enforced: out-of-order redeliveries are buffered and
  /// released in order; duplicates are dropped.
  std::optional<ChannelMsg> host_poll();
  std::optional<ChannelMsg> nic_poll();

  [[nodiscard]] bool host_has_data() const noexcept;
  [[nodiscard]] bool nic_has_data() const noexcept;

  [[nodiscard]] const ChannelRing& to_host_ring() const noexcept {
    return to_host_.ring;
  }
  [[nodiscard]] const ChannelRing& to_nic_ring() const noexcept {
    return to_nic_.ring;
  }

  /// Reliability/backpressure counters, per direction.
  [[nodiscard]] const ChannelDirStats& to_host_stats() const noexcept {
    return to_host_.stats;
  }
  [[nodiscard]] const ChannelDirStats& to_nic_stats() const noexcept {
    return to_nic_.stats;
  }

  /// Node power-fail: wipe rings, in-flight frames, pending/retained
  /// queues and sequence state in both directions.  Armed retry/NACK
  /// events that fire afterwards find empty queues and no-op.
  void reset();

  /// NIC firmware death: collect every host->NIC message that was sent
  /// but never consumed by the NIC (retained copies, sequence order),
  /// then wipe both directions like reset().  The caller redelivers the
  /// returned messages to the host-side fallback path, so no undelivered
  /// send is lost to the fence.  NIC->host frames still in flight over
  /// PCIe died with the DMA and are dropped (never acked — peers retry).
  [[nodiscard]] std::vector<ChannelMsg> fence_for_nic_failure();

  /// PCIe link flap: while down, nothing crosses the link — sends park in
  /// the pending queues and retry with (jittered) backoff.  Bringing the
  /// link back up flushes both directions.
  void set_link_down(bool down);
  [[nodiscard]] bool link_down() const noexcept { return link_down_; }

  /// Fault injection (tests): corrupt a random byte of each pushed frame
  /// body with probability `rate`.  Deterministic for a given seed.
  void set_fault_injection(double rate, std::uint64_t seed = 0x5EEDULL) {
    fault_rate_ = rate;
    fault_rng_ = Rng(seed);
  }
  /// Test hooks: mutable ring access for targeted corruption.
  [[nodiscard]] ChannelRing& to_host_ring_mut() noexcept { return to_host_.ring; }
  [[nodiscard]] ChannelRing& to_nic_ring_mut() noexcept { return to_nic_.ring; }

  /// Callbacks fired (via the event queue) when a message becomes visible
  /// on the respective side — used to wake parked poller cores.
  void set_host_notify(std::function<void()> fn) { host_notify_ = std::move(fn); }
  void set_nic_notify(std::function<void()> fn) { nic_notify_ = std::move(fn); }

  /// Optional event tracer (send/retransmit/backpressure land on the
  /// chan-to-host / chan-to-nic tracks).
  void set_tracer(trace::Tracer* tracer) noexcept { tracer_ = tracer; }

 private:
  /// One ring frame that has been pushed but not yet popped.
  struct Pending {
    Ns visible_at;
    std::uint64_t seq;
  };
  /// A frame waiting for ring space; its bytes are its Retained entry's.
  struct Parked {
    std::uint64_t seq;
    Ns queued_at;
    bool is_retransmit;
  };
  /// The sender's copy of a sent message (msg.seq is its sequence
  /// number).  Pruned once delivered, except that an entry a Parked frame
  /// still needs stays until that frame is pushed.
  struct Retained {
    ChannelMsg msg;
    bool parked = false;
  };

  /// All state for one direction (producer + consumer + reliability).
  struct Dir {
    explicit Dir(std::size_t ring_bytes) : ring(ring_bytes) {}

    ChannelRing ring;
    std::deque<Pending> vis;  ///< in-flight frames, push (FIFO) order

    // Producer-side reliability state.
    std::uint64_t next_seq = 0;
    std::deque<Parked> pending;     ///< waiting for ring space
    /// Sent, not yet delivered (see Retained): consecutive sequence
    /// numbers, so a seq indexes it (retained_of).
    std::deque<Retained> retained;
    Ns backoff = 0;
    bool retry_armed = false;
    bool backpressure_active = false;
    Ns backpressure_since = 0;

    // Consumer-side reliability state.
    std::uint64_t next_deliver = 0;
    std::map<std::uint64_t, ChannelMsg> reorder;

    ChannelDirStats stats;
  };

  [[nodiscard]] std::function<void()>* notify_of(Dir& dir) noexcept {
    return &dir == &to_host_ ? &host_notify_ : &nic_notify_;
  }
  [[nodiscard]] std::uint32_t tid_of(const Dir& dir) const noexcept {
    return &dir == &to_host_ ? trace::tid::kChanToHost : trace::tid::kChanToNic;
  }
  [[nodiscard]] bool tracing() const noexcept {
    return tracer_ != nullptr && tracer_->enabled();
  }

  /// Push one framed message into `dir`'s ring; wires up visibility and
  /// the wake notification.  Returns the core-side post cost, nullopt if
  /// the ring cannot take the frame.
  std::optional<Ns> try_push(Dir& dir, const ChannelMsg& msg);
  /// `dir`'s retained entry for `seq`, nullptr when there is none.
  [[nodiscard]] static Retained* retained_of(Dir& dir,
                                             std::uint64_t seq) noexcept;
  SendTicket send_or_queue(Dir& dir, ChannelMsg msg);
  std::optional<ChannelMsg> poll(Dir& dir);
  [[nodiscard]] bool has_data(const Dir& dir) const noexcept;

  void arm_retry(Dir& dir);
  void flush_pending(Dir& dir);
  /// A frame carrying `seq` was consumed corrupt: schedule its redelivery
  /// after the simulated NACK round trip.
  void schedule_retransmit(Dir& dir, std::uint64_t seq);
  void note_backpressure_start(Dir& dir);
  void note_backpressure_end(Dir& dir);
  /// Consumer progressed to `next_deliver`: release retained copies no
  /// parked frame needs.
  void release_retained(Dir& dir);
  void maybe_inject_fault(Dir& dir, std::size_t frame_start,
                          std::size_t body_len);

  sim::Simulation& sim_;
  nic::DmaEngine& dma_;
  ChannelTuning tuning_;
  Dir to_host_;
  Dir to_nic_;
  std::function<void()> host_notify_;
  std::function<void()> nic_notify_;
  double fault_rate_ = 0.0;
  Rng fault_rng_{0x5EEDULL};
  Rng retry_rng_{0xB0FF5EEDULL};  ///< re-seeded from tuning in the ctor
  bool link_down_ = false;
  trace::Tracer* tracer_ = nullptr;
};

}  // namespace ipipe
