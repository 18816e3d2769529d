#include "netsim/network.h"

#include <cassert>

#include "common/logging.h"

namespace ipipe::netsim {

void Network::attach(NodeId node, Endpoint& ep, double gbps,
                     sim::DomainId domain) {
  const bool existing = ports_.count(node) != 0;
  auto& port = ports_[node];
  port.ep = &ep;
  port.gbps = gbps;
  port.up = true;
  if (domain != sim::kNoDomain) {
    port.domain = domain;
  } else if (!existing) {
    port.domain = attach_domain_;
  }
}

void Network::detach(NodeId node) {
  // The port map is frozen while engine workers run; mark the port down
  // in place (the flag is owned by the node's own domain, which is where
  // crash events execute).
  const auto it = ports_.find(node);
  if (it != ports_.end()) it->second.up = false;
}

void Network::install_lookahead() {
  for (const auto& [node, port] : ports_) {
    if (port.domain == switch_domain_) continue;
    psim_.set_lookahead(port.domain, switch_domain_, switch_in_);
    psim_.set_lookahead(switch_domain_, port.domain, switch_out_);
  }
}

void Network::block_pair(NodeId a, NodeId b) { ++blocked_pairs_[pair_key(a, b)]; }

void Network::unblock_pair(NodeId a, NodeId b) {
  const auto it = blocked_pairs_.find(pair_key(a, b));
  if (it == blocked_pairs_.end()) return;
  if (--it->second <= 0) blocked_pairs_.erase(it);
}

bool Network::pair_blocked(NodeId a, NodeId b) const {
  return !blocked_pairs_.empty() &&
         blocked_pairs_.count(pair_key(a, b)) != 0;
}

void Network::corrupt_payload(Packet& pkt) {
  if (pkt.payload.empty()) return;
  const std::size_t byte = rng_.uniform_u64(pkt.payload.size());
  const std::uint8_t bit = static_cast<std::uint8_t>(rng_.uniform_u64(8));
  pkt.payload[byte] ^= static_cast<std::uint8_t>(1u << bit);
}

// ---------------------------------------------------------------------------
// The frame takes three hops, each owned by one domain.  send() looks both
// ports up once; the destination's entry rides along with the frame
// (ports are never erased, and unordered_map entries never move).
// ---------------------------------------------------------------------------

// Hop 1, on the source's domain: serialize on the uplink (the source
// port's tx state belongs to the sender), then hand off to the switch
// domain after the ingress half-latency.
void Network::send(PacketPtr pkt) {
  assert(pkt != nullptr);
  frames_sent_.fetch_add(1, std::memory_order_relaxed);
  const auto src_it = ports_.find(pkt->src);
  const auto dst_it = ports_.find(pkt->dst);
  if (src_it == ports_.end() || dst_it == ports_.end()) {
    dropped_unknown_endpoint_.fetch_add(1, std::memory_order_relaxed);
    LOG_DEBUG("drop: unknown endpoint %u -> %u", pkt->src, pkt->dst);
    return;
  }
  PortState& src_port = src_it->second;
  const Ns now = psim_.domain(src_port.domain).now();
  const Ns tx_start = std::max(now, src_port.tx_busy_until);
  const Ns tx_done = tx_start + wire_time(pkt->frame_size, src_port.gbps);
  src_port.tx_busy_until = tx_done;
  auto hop = [this, dst = &dst_it->second, p = std::move(pkt)]() mutable {
    switch_hop(std::move(p), *dst);
  };
  static_assert(sizeof(hop) <= InlineFn::kInlineBytes);
  psim_.post(switch_domain_, tx_done + switch_in_, std::move(hop));
}

// Hop 2, on the switch domain: partition and fault decisions.  All fault
// randomness draws from the switch-owned RNG here; the canonical handoff
// drain order makes the draw sequence — and so every fault outcome — a
// pure function of the workload, independent of thread count.
void Network::switch_hop(PacketPtr pkt, PortState& dst) {
  if (pair_blocked(pkt->src, pkt->dst)) {
    dropped_partition_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (faults_.drop_prob > 0.0 && rng_.bernoulli(faults_.drop_prob)) {
    dropped_fault_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const bool duplicate =
      faults_.dup_prob > 0.0 && rng_.bernoulli(faults_.dup_prob);
  Ns jitter = 0;
  if (faults_.reorder_jitter > 0) {
    jitter = rng_.uniform_u64(faults_.reorder_jitter + 1);
  }
  if (duplicate) {
    auto copy = pool_.make(*pkt);
    const bool corrupt_dup =
        faults_.corrupt_prob > 0.0 && rng_.bernoulli(faults_.corrupt_prob);
    if (corrupt_dup) corrupt_payload(*copy);
    post_to_dst(std::move(copy), dst, jitter, corrupt_dup);
  }
  const bool corrupt =
      faults_.corrupt_prob > 0.0 && rng_.bernoulli(faults_.corrupt_prob);
  if (corrupt) corrupt_payload(*pkt);
  post_to_dst(std::move(pkt), dst, jitter, corrupt);
}

void Network::post_to_dst(PacketPtr pkt, PortState& dst, Ns jitter,
                          bool corrupt) {
  auto hop = [this, &dst, corrupt, p = std::move(pkt)]() mutable {
    arrive(std::move(p), dst, corrupt);
  };
  static_assert(sizeof(hop) <= InlineFn::kInlineBytes);
  psim_.post(dst.domain, sim_.now() + switch_out_ + jitter, std::move(hop));
}

// Hop 3, on the destination's domain: the up/down check and rx
// serialization use destination-owned state, then the frame delivers (or
// the FCS check eats a corrupted one) once its downlink time is paid.
void Network::arrive(PacketPtr pkt, PortState& port, bool corrupt) {
  if (!port.up || port.ep == nullptr) {
    dropped_node_down_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  sim::Simulation& dsim = psim_.domain(port.domain);
  const Ns now = dsim.now();
  const Ns rx_start = std::max(now, port.rx_busy_until);
  const Ns rx_done = rx_start + wire_time(pkt->frame_size, port.gbps);
  port.rx_busy_until = rx_done;
  auto deliver = [this, &port, corrupt, p = std::move(pkt)]() mutable {
    if (!port.up || port.ep == nullptr) {
      dropped_node_down_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (corrupt) {
      dropped_corrupt_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    frames_delivered_.fetch_add(1, std::memory_order_relaxed);
    p->nic_arrival = psim_.domain(port.domain).now();
    port.ep->receive(std::move(p));
  };
  static_assert(sizeof(deliver) <= InlineFn::kInlineBytes);
  dsim.schedule_at(rx_done, std::move(deliver));
}

}  // namespace ipipe::netsim
