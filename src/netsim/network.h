// Network fabric: endpoints attached to a single ToR switch via
// full-duplex links, with store-and-forward timing and optional fault
// injection (drop / duplicate / reorder / corrupt) for protocol
// robustness tests.
//
// Timing model for a frame from A to B:
//   serialize on A's uplink (contended) -> switch latency ->
//   serialize on B's downlink (contended) -> deliver.
// Each link direction has independent busy-until bookkeeping, so incast
// on a receiver's downlink queues realistically.
//
// Failure semantics:
//  * corrupt_prob flips a random payload bit in flight.  The corrupted
//    frame still occupies both links for its full wire time, but the
//    destination port's FCS check discards it on arrival (as a real NIC
//    MAC does) — upper layers observe corruption as loss and must
//    retransmit.
//  * blocked pairs (chaos partitions) silently eat frames at the switch.
//  * frames in flight to a node that detaches before delivery are lost.
// Every drop is counted under its reason; `frames_dropped()` stays the
// grand total.
//
// Execution model: the fabric runs on a `sim::ParallelSimulation` and is
// the only cross-domain surface in the system.  The switch is its own
// domain — it owns the partition set, the fault RNG, and the fault
// model — and the switch latency splits into an ingress and an egress
// half that become the lookahead on the node→switch and switch→node
// edges.  A frame takes three hops: tx serialization on the source's
// domain (the source port's tx state is source-owned), a switch event
// (partition/fault decisions, deterministic because handoffs drain in
// canonical order), and an arrival event on the destination's domain (rx
// serialization and the up/down check are destination-owned).  The
// destination's downlink therefore serves frames in switch-arrival
// order.  The port map is frozen during a run: detach marks the port
// down instead of erasing, attach on an existing node updates in place,
// and the frame counters are relaxed atomics (their sums are
// order-invariant, so deterministic output may print them).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "netsim/packet.h"
#include "sim/parallel.h"
#include "sim/simulation.h"

namespace ipipe::netsim {

/// Anything that can be attached to the fabric and receive frames.
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  /// Called when a frame has fully arrived at this endpoint's port.
  virtual void receive(PacketPtr pkt) = 0;
};

/// Fault-injection knobs, all off by default.
struct FaultModel {
  double drop_prob = 0.0;     ///< iid frame loss
  double dup_prob = 0.0;      ///< iid frame duplication
  double corrupt_prob = 0.0;  ///< iid payload bit-flip (FCS-discarded)
  Ns reorder_jitter = 0;      ///< uniform extra delay in [0, jitter]
};

class Network {
 public:
  /// `switch_domain` must be a dedicated domain (it runs the switch
  /// events and owns the fault state).  `switch_latency` must be >= 2 ns
  /// so both half-latencies (the edge lookaheads) are nonzero; a smaller
  /// value throws std::invalid_argument.  A rack-scale value in the
  /// microseconds gives the engine wide safe windows.
  Network(sim::ParallelSimulation& psim, sim::DomainId switch_domain,
          Ns switch_latency = 300 /*ns*/)
      : sim_(psim.domain(switch_domain)),
        psim_(psim),
        switch_domain_(switch_domain),
        pool_(PacketPool::local()),
        switch_in_(switch_latency / 2),
        switch_out_(switch_latency - switch_latency / 2),
        rng_(0xFAB51Cull) {
    if (switch_in_ == 0) {
      throw std::invalid_argument(
          "Network: switch latency below 2 ns leaves a zero lookahead");
    }
  }

  /// Attach `ep` as `node` with a full-duplex link of `gbps`.  `domain`
  /// names the engine domain that owns the endpoint (rx state and
  /// delivery run there); defaulted, a new port takes the current attach
  /// domain (`set_attach_domain`) and a known node keeps its domain — so
  /// components that re-attach on restore (ServerNode) need no domain
  /// plumbing.  Re-attaching updates the port in place and marks it back
  /// up.
  void attach(NodeId node, Endpoint& ep, double gbps,
              sim::DomainId domain = sim::kNoDomain);

  /// Domain assigned to subsequently attached new ports (the cluster
  /// sets this before constructing each node's components, which
  /// self-attach without knowing about domains).
  void set_attach_domain(sim::DomainId d) noexcept { attach_domain_ = d; }

  /// Detach (e.g. simulate node failure); in-flight frames to it are
  /// lost.  The port is marked down, not erased (the port map is frozen
  /// while workers run).
  void detach(NodeId node);
  [[nodiscard]] bool attached(NodeId node) const {
    const auto it = ports_.find(node);
    return it != ports_.end() && it->second.up;
  }

  /// Block / unblock frames between `a` and `b` in both directions
  /// (chaos partitions).  Blocks nest: a pair stays blocked until every
  /// block has been matched by an unblock.
  void block_pair(NodeId a, NodeId b);
  void unblock_pair(NodeId a, NodeId b);
  [[nodiscard]] bool pair_blocked(NodeId a, NodeId b) const;

  /// Inject a frame into the fabric from `pkt->src`.  Takes ownership.
  void send(PacketPtr pkt);

  void set_fault_model(const FaultModel& fm) noexcept { faults_ = fm; }
  [[nodiscard]] const FaultModel& fault_model() const noexcept { return faults_; }

  [[nodiscard]] std::uint64_t frames_sent() const noexcept { return frames_sent_; }
  /// Total frames lost for any reason.
  [[nodiscard]] std::uint64_t frames_dropped() const noexcept {
    return dropped_unknown_endpoint_ + dropped_fault_ + dropped_corrupt_ +
           dropped_partition_ + dropped_node_down_;
  }
  /// Send-time drops: src or dst was never attached (config error).
  [[nodiscard]] std::uint64_t dropped_unknown_endpoint() const noexcept {
    return dropped_unknown_endpoint_;
  }
  /// Injected-fault drops (loss + corruption + partition + node-down).
  [[nodiscard]] std::uint64_t dropped_fault() const noexcept {
    return dropped_fault_ + dropped_corrupt_ + dropped_partition_ +
           dropped_node_down_;
  }
  /// Frames whose payload was bit-flipped and FCS-discarded on arrival.
  [[nodiscard]] std::uint64_t frames_corrupted() const noexcept {
    return dropped_corrupt_;
  }
  [[nodiscard]] std::uint64_t dropped_partition() const noexcept {
    return dropped_partition_;
  }
  /// Frames in flight to a port that detached before delivery.
  [[nodiscard]] std::uint64_t dropped_node_down() const noexcept {
    return dropped_node_down_;
  }
  [[nodiscard]] std::uint64_t frames_delivered() const noexcept {
    return frames_delivered_;
  }
  /// The switch domain's queue.
  [[nodiscard]] sim::Simulation& sim() noexcept { return sim_; }
  /// Packet arena shared by this fabric's endpoints (workload clients
  /// draw their request frames from here).
  [[nodiscard]] PacketPool& pool() noexcept { return pool_; }

  [[nodiscard]] sim::ParallelSimulation& engine() noexcept { return psim_; }
  [[nodiscard]] sim::DomainId switch_domain() const noexcept {
    return switch_domain_;
  }
  /// Domain owning `node`'s endpoint (kNoDomain when unattached).
  [[nodiscard]] sim::DomainId node_domain(NodeId node) const {
    const auto it = ports_.find(node);
    return it == ports_.end() ? sim::kNoDomain : it->second.domain;
  }
  /// Declare the node<->switch lookahead edges on the engine.  Call once
  /// after every attach(), before the first run().
  void install_lookahead();

 private:
  struct PortState {
    Endpoint* ep = nullptr;
    double gbps = 10.0;
    Ns tx_busy_until = 0;  // uplink (endpoint -> switch): src-domain-owned
    Ns rx_busy_until = 0;  // downlink (switch -> endpoint): dst-domain-owned
    sim::DomainId domain = 0;
    bool up = true;  // dst-domain-owned; detach flips instead of erasing
  };

  [[nodiscard]] static std::uint64_t pair_key(NodeId a, NodeId b) noexcept {
    const NodeId lo = a < b ? a : b;
    const NodeId hi = a < b ? b : a;
    return (static_cast<std::uint64_t>(lo) << 32) | hi;
  }

  /// Flip one random payload bit (corrupt_prob fault path).
  void corrupt_payload(Packet& pkt);
  /// Hops 2 and 3 (hop 1 is send(); see file header).  `dst` is the
  /// frame's destination port, looked up once by send().
  void switch_hop(PacketPtr pkt, PortState& dst);
  void post_to_dst(PacketPtr pkt, PortState& dst, Ns jitter, bool corrupt);
  void arrive(PacketPtr pkt, PortState& port, bool corrupt);

  sim::Simulation& sim_;  ///< the switch domain's queue
  sim::ParallelSimulation& psim_;
  sim::DomainId switch_domain_;
  PacketPool& pool_;
  Ns switch_in_;   ///< ingress half: node->switch edge lookahead
  Ns switch_out_;  ///< egress half: switch->node edge lookahead
  Rng rng_;        ///< switch-domain-owned
  sim::DomainId attach_domain_ = 0;
  FaultModel faults_;
  std::unordered_map<NodeId, PortState> ports_;
  std::unordered_map<std::uint64_t, int> blocked_pairs_;  ///< switch-owned
  // Relaxed atomics: bumped from several domains, sums order-invariant.
  std::atomic<std::uint64_t> frames_sent_{0};
  std::atomic<std::uint64_t> frames_delivered_{0};
  std::atomic<std::uint64_t> dropped_unknown_endpoint_{0};
  std::atomic<std::uint64_t> dropped_fault_{0};
  std::atomic<std::uint64_t> dropped_corrupt_{0};
  std::atomic<std::uint64_t> dropped_partition_{0};
  std::atomic<std::uint64_t> dropped_node_down_{0};
};

}  // namespace ipipe::netsim
