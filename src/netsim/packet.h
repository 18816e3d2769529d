// Simulated network packet.
//
// A Packet models one Ethernet frame carrying an application request or
// response.  `frame_size` is the full L2 frame length used for wire-time
// and NIC-cost computations (the paper's "packet size"); `payload` holds
// the real application bytes (which may be smaller than the frame when an
// experiment pads frames to a target size).
//
// Packets are pooled: `PacketPool::make()` recycles retired Packet
// objects together with their payload buffers (the capacity survives a
// round trip through the freelist), so the simulation's hottest
// allocation — one frame plus one payload vector per simulated packet —
// normally touches the allocator only during warm-up.  PacketPtr carries
// the owning pool in its deleter; a null pool falls back to `delete`.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/units.h"

namespace ipipe::netsim {

using NodeId = std::uint32_t;
constexpr NodeId kInvalidNode = ~NodeId{0};

/// Logical addressing inside a node: which actor (service) handles this
/// packet.  Actor ids are application-assigned; kForwardOnly marks plain
/// forwarded traffic with no offloaded handler.
using ActorId = std::uint32_t;
constexpr ActorId kForwardOnly = ~ActorId{0};

struct Packet {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  ActorId dst_actor = kForwardOnly;
  ActorId src_actor = kForwardOnly;  ///< sender actor (for replies)

  /// Application-defined message type tag (e.g. Paxos ACCEPT, TXN_COMMIT).
  std::uint16_t msg_type = 0;
  /// Flow identifier used for steering/statistics.
  std::uint32_t flow = 0;
  /// End-to-end request correlation id (latency accounting).
  std::uint64_t request_id = 0;

  /// Full L2 frame size in bytes (headers + payload [+ padding]).
  std::uint32_t frame_size = 64;

  /// Real application payload bytes.
  std::vector<std::uint8_t> payload;

  /// True when the frame was handed to the NIC by its own host (transmit
  /// path) rather than arriving from the wire.
  bool from_host = false;

  /// True for an actor-to-actor hop within one node (ActorEnv::forward):
  /// the frame re-enters the work queue without re-paying the wire RX
  /// forwarding tax.  Original source fields stay intact for replies.
  bool local_hop = false;

  /// Tenant (virtual function) the ingress classifier attributed this
  /// frame to; 0 = untenanted / physical-function traffic.  Stamped at
  /// TM admission so drops and queueing damage stay attributable.
  std::uint16_t tenant = 0;

  /// Per-source ingress sequence stamped by an NF pipeline's head stage
  /// (1, 2, 3, ... in arrival order); preserved hop to hop so the egress
  /// reorder point can restore ingress order.  0 = unsequenced.
  std::uint64_t pipe_seq = 0;

  /// Timestamp when the originating client created the request.
  Ns created_at = 0;
  /// Timestamp when this frame entered the current NIC (for forwarding
  /// latency accounting).
  Ns nic_arrival = 0;
};

class PacketPool;

struct PacketDeleter {
  PacketPool* pool = nullptr;
  void operator()(Packet* p) const noexcept;
};

using PacketPtr = std::unique_ptr<Packet, PacketDeleter>;

/// Freelist of retired packets.  By default not thread-safe: one pool
/// serves one simulation (the thread-local `local()` pool is the default
/// arena, so sweep workers each recycle independently).  A parallel
/// cluster shares one pool across its engine workers and flips it to
/// `set_concurrent(true)`, which guards make()/recycle() with a spinlock
/// (uncontended in practice: a domain usually recycles what it made).
/// In concurrent mode `hit_rate()` depends on wall-clock interleaving,
/// so deterministic output must not print it.  A pool must outlive every
/// packet it produced; `local()` trivially satisfies this.
class PacketPool {
 public:
  PacketPool() = default;
  ~PacketPool();
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  /// The calling thread's pool — the allocation arena for the simulation
  /// currently running on this thread.
  [[nodiscard]] static PacketPool& local();

  /// A fresh default-initialized packet (recycled when possible; the
  /// payload buffer keeps its capacity across reuse).
  [[nodiscard]] PacketPtr make();
  /// A field-for-field copy of `src` (duplicate-delivery fault path).
  [[nodiscard]] PacketPtr make(const Packet& src);

  void recycle(Packet* p) noexcept;

  /// Total make() calls / ones served from the freelist.
  [[nodiscard]] std::uint64_t allocations() const noexcept { return allocs_; }
  [[nodiscard]] std::uint64_t reused() const noexcept {
    return allocs_ - fresh_;
  }
  [[nodiscard]] double hit_rate() const noexcept {
    return allocs_ == 0
               ? 0.0
               : static_cast<double>(reused()) / static_cast<double>(allocs_);
  }
  [[nodiscard]] std::size_t free_size() const noexcept { return free_.size(); }

  /// Serialize make()/recycle() with a spinlock so the pool may be shared
  /// by the parallel engine's workers.  Flip before the workers start.
  void set_concurrent(bool on) noexcept { concurrent_ = on; }
  [[nodiscard]] bool concurrent() const noexcept { return concurrent_; }

 private:
  void lock() noexcept {
    while (lock_.test_and_set(std::memory_order_acquire)) {
    }
  }
  void unlock() noexcept { lock_.clear(std::memory_order_release); }

  /// Freelist bound: frames recycled past it are deleted.
  static constexpr std::size_t kMaxFree = 8192;

  std::vector<Packet*> free_;
  std::uint64_t allocs_ = 0;
  std::uint64_t fresh_ = 0;
  bool concurrent_ = false;
  std::atomic_flag lock_ = ATOMIC_FLAG_INIT;
};

inline void PacketDeleter::operator()(Packet* p) const noexcept {
  if (pool != nullptr) {
    pool->recycle(p);
  } else {
    delete p;
  }
}

/// Pool-less heap packet, for tests and tools without a pool at hand.
[[nodiscard]] inline PacketPtr alloc_packet() {
  return PacketPtr(new Packet, PacketDeleter{nullptr});
}

/// Minimum Ethernet frame size; frames below this are padded on the wire.
constexpr std::uint32_t kMinFrameSize = 64;
/// Standard MTU frame (paper uses 1500B as "MTU" packets).
constexpr std::uint32_t kMtuFrameSize = 1500;

/// L2+L3+L4 header bytes our packet format reserves inside the frame.
constexpr std::uint32_t kHeaderBytes = 42;  // 14 eth + 20 ip + 8 udp

[[nodiscard]] inline std::uint32_t frame_for_payload(std::size_t payload_bytes) noexcept {
  const auto raw = static_cast<std::uint32_t>(payload_bytes) + kHeaderBytes;
  return raw < kMinFrameSize ? kMinFrameSize : raw;
}

}  // namespace ipipe::netsim
