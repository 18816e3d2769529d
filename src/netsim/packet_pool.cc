#include "netsim/packet.h"

namespace ipipe::netsim {

namespace {

/// Reset every field to its default while keeping the payload buffer's
/// capacity (the whole point of recycling).
void reset_packet(Packet& p) noexcept {
  p.src = kInvalidNode;
  p.dst = kInvalidNode;
  p.dst_actor = kForwardOnly;
  p.src_actor = kForwardOnly;
  p.msg_type = 0;
  p.flow = 0;
  p.request_id = 0;
  p.frame_size = 64;
  p.payload.clear();
  p.from_host = false;
  p.local_hop = false;
  p.tenant = 0;
  p.pipe_seq = 0;
  p.created_at = 0;
  p.nic_arrival = 0;
}

}  // namespace

PacketPool::~PacketPool() {
  for (Packet* p : free_) delete p;
}

PacketPool& PacketPool::local() {
  thread_local PacketPool pool;
  return pool;
}

PacketPtr PacketPool::make() {
  ++allocs_;
  Packet* p;
  if (free_.empty()) {
    ++fresh_;
    p = new Packet;
  } else {
    p = free_.back();
    free_.pop_back();
    reset_packet(*p);
  }
  return PacketPtr(p, PacketDeleter{this});
}

PacketPtr PacketPool::make(const Packet& src) {
  PacketPtr p = make();
  Packet* raw = p.get();
  raw->src = src.src;
  raw->dst = src.dst;
  raw->dst_actor = src.dst_actor;
  raw->src_actor = src.src_actor;
  raw->msg_type = src.msg_type;
  raw->flow = src.flow;
  raw->request_id = src.request_id;
  raw->frame_size = src.frame_size;
  raw->payload.assign(src.payload.begin(), src.payload.end());
  raw->from_host = src.from_host;
  raw->local_hop = src.local_hop;
  raw->tenant = src.tenant;
  raw->pipe_seq = src.pipe_seq;
  raw->created_at = src.created_at;
  raw->nic_arrival = src.nic_arrival;
  return p;
}

void PacketPool::recycle(Packet* p) noexcept {
  if (p == nullptr) return;
  if (free_.size() >= kMaxFree) {
    delete p;
    return;
  }
  free_.push_back(p);
}

}  // namespace ipipe::netsim
