#include "ipipe/env.h"

#include <algorithm>

namespace ipipe {

void EnvBase::charge_dmo(std::uint64_t bytes) {
  const auto& cfg = rt_.config();
  charge(cfg.dmo_translate_ns);
  const std::uint64_t ws = std::max<std::uint64_t>(working_set(), 64);
  mem(ws, 1);
  if (bytes > 64) stream(ws, bytes);
}

bool EnvBase::check(DmoStatus status) {
  switch (status) {
    case DmoStatus::kOk:
      return true;
    case DmoStatus::kWrongOwner:
    case DmoStatus::kOutOfBounds:
      // Isolation trap (§3.4): the runtime deregisters the offender.
      rt_.kill_actor(ac_.id, /*isolation_trap=*/true);
      return false;
    case DmoStatus::kWrongSide:
      // Not a fault: the object lives across PCIe.  charge_remote already
      // billed the DMA round trip and the access was retried unchecked.
      return false;
    default:
      return false;
  }
}

void EnvBase::charge_remote(std::uint64_t bytes, bool is_write) {
  // Remote DMO access: a blocking DMA to the far side of PCIe.  Before
  // kWrongSide was enforced, these accesses were billed at *local* memory
  // cost, flattering actors with split or stale residency.
  const auto& dma = rt_.nic().dma();
  const auto sz = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(bytes, 0xFFFFFFFFULL));
  charge(is_write ? dma.blocking_write_latency(sz)
                  : dma.blocking_read_latency(sz));
}

ObjId EnvBase::dmo_alloc(std::uint32_t size) {
  charge(rt_.config().dmo_translate_ns * 4);  // allocator + table insert
  ObjId id = kInvalidObj;
  const auto status = rt_.objects().alloc(ac_.id, size, side(), id);
  if (status == DmoStatus::kQuotaExceeded) {
    // Policy denial, not a trap: the actor sees a failed alloc (like
    // kNoMemory), and the tenant's ledger records who was denied.
    rt_.note_dmo_denied(ac_.id);
  }
  return status == DmoStatus::kOk ? id : kInvalidObj;
}

bool EnvBase::dmo_free(ObjId id) {
  charge(rt_.config().dmo_translate_ns * 2);
  return check(rt_.objects().free(ac_.id, id));
}

bool EnvBase::dmo_read(ObjId id, std::uint32_t off,
                       std::span<std::uint8_t> out) {
  charge_dmo(out.size());
  const auto status = rt_.objects().read(ac_.id, id, off, out, side());
  if (status == DmoStatus::kWrongSide) {
    charge_remote(out.size(), /*is_write=*/false);
    return check(rt_.objects().read(ac_.id, id, off, out));
  }
  return check(status);
}

bool EnvBase::dmo_write(ObjId id, std::uint32_t off,
                        std::span<const std::uint8_t> in) {
  charge_dmo(in.size());
  const auto status = rt_.objects().write(ac_.id, id, off, in, side());
  if (status == DmoStatus::kWrongSide) {
    charge_remote(in.size(), /*is_write=*/true);
    return check(rt_.objects().write(ac_.id, id, off, in));
  }
  return check(status);
}

bool EnvBase::dmo_memset(ObjId id, std::uint8_t value, std::uint32_t off,
                         std::uint32_t len) {
  charge_dmo(len);
  const auto status = rt_.objects().memset(ac_.id, id, value, off, len, side());
  if (status == DmoStatus::kWrongSide) {
    charge_remote(len, /*is_write=*/true);
    return check(rt_.objects().memset(ac_.id, id, value, off, len));
  }
  return check(status);
}

std::uint32_t EnvBase::dmo_size(ObjId id) const {
  const DmoRecord* rec = rt_.objects().find(id);
  return rec != nullptr && rec->owner == ac_.id ? rec->size : 0;
}

std::uint64_t EnvBase::working_set() const {
  if (region_ == nullptr) region_ = rt_.objects().region(ac_.id);
  return region_ != nullptr ? region_->working_set() : 0;
}

netsim::PacketPtr EnvBase::make_packet(NodeId dst, ActorId dst_actor,
                                       std::uint16_t type,
                                       std::vector<std::uint8_t> payload,
                                       std::uint32_t frame_size) {
  auto pkt = rt_.pool().make();
  pkt->src = node();
  pkt->dst = dst;
  pkt->dst_actor = dst_actor;
  pkt->src_actor = ac_.id;
  pkt->msg_type = type;
  pkt->flow = dst_actor;
  pkt->created_at = now();
  pkt->frame_size = frame_size != 0
                        ? frame_size
                        : netsim::frame_for_payload(payload.size());
  pkt->payload = std::move(payload);
  return pkt;
}

// --------------------------------------------------------------- CoreEnv --

namespace {

/// The per-frame send cost: the NIC's hardware-assisted nstack primitive,
/// or the host's DPDK-style transmit.
void charge_send(nic::NicExecContext& ctx, std::uint32_t frame_size) {
  ctx.charge_nstack(frame_size);
}
void charge_send(hostsim::HostExecContext& ctx, std::uint32_t frame_size) {
  ctx.charge_tx(frame_size);
}

}  // namespace

template <class Context>
void CoreEnv<Context>::transmit(netsim::PacketPtr pkt) {
  charge_send(ctx_, pkt->frame_size);
  ctx_.tx(std::move(pkt));
}

template <class Context>
void CoreEnv<Context>::send(NodeId dst_node, ActorId dst_actor,
                            std::uint16_t type,
                            std::vector<std::uint8_t> payload,
                            std::uint32_t frame_size) {
  transmit(make_packet(dst_node, dst_actor, type, std::move(payload),
                       frame_size));
}

template <class Context>
void CoreEnv<Context>::reply(const netsim::Packet& req, std::uint16_t type,
                             std::vector<std::uint8_t> payload,
                             std::uint32_t frame_size) {
  auto pkt = make_packet(req.src, req.src_actor, type, std::move(payload),
                         frame_size);
  pkt->request_id = req.request_id;
  pkt->created_at = req.created_at;
  transmit(std::move(pkt));
}

template <class Context>
void CoreEnv<Context>::local_send(ActorId dst_actor, std::uint16_t type,
                                  std::vector<std::uint8_t> payload) {
  hop_local(make_packet(node(), dst_actor, type, std::move(payload), 0));
}

template <class Context>
void CoreEnv<Context>::forward(ActorId dst_actor, netsim::PacketPtr pkt) {
  // The packet keeps every field the sender saw (flow, request_id,
  // created_at, payload) — only the destination actor changes.
  pkt->dst = node();
  pkt->dst_actor = dst_actor;
  pkt->local_hop = true;
  hop_local(std::move(pkt));
}

template <class Context>
void CoreEnv<Context>::hop_local(netsim::PacketPtr pkt) {
  // Same-side delivery is a cheap queue insert; crossing PCIe pays the
  // full per-message channel handling cost (the send itself happens in
  // deliver_local once this slice retires).
  const auto* dst = rt_.control(pkt->dst_actor);
  const ActorLoc here = on_nic() ? ActorLoc::kNic : ActorLoc::kHost;
  const bool crosses = dst != nullptr && dst->loc != here;
  charge(crosses ? rt_.config().channel_handling_ns
                 : rt_.config().channel_handling_ns / 2);
  Runtime& rt = rt_;
  ctx_.defer([&rt, from = side(), p = std::move(pkt)]() mutable {
    const ActorId dst = p->dst_actor;
    rt.deliver_local(dst, std::move(p), from);
  });
}

template class CoreEnv<nic::NicExecContext>;
template class CoreEnv<hostsim::HostExecContext>;

// ---------------------------------------------------------------- NicEnv --

void NicEnv::compute(double units) {
  const auto& nic_cfg = rt_.nic().config();
  ctx_.charge(static_cast<Ns>(units / (kNicIpc * nic_cfg.freq_ghz)));
}

void NicEnv::accel(nic::AccelKind kind, std::uint32_t bytes,
                   std::uint32_t batch) {
  nic::AcceleratorBank& bank = rt_.nic().accel();
  if (!bank.failed(kind)) {
    ctx_.accel(kind, bytes, batch);
    return;
  }
  // Failed engine (chaos accel-fail): the computation still happens —
  // correctness is non-negotiable — but on a software path run by this
  // wimpy NIC core: the host software slowdown scaled up by the hosts'
  // IPC advantage, with no engine invocation to amortize.
  const Ns hw_cost = bank.batch_cost(kind, bytes, batch);
  const double slow = kHostAccelSlowdown[static_cast<std::size_t>(kind)] *
                      (kHostIpc / kNicIpc);
  ctx_.charge(static_cast<Ns>(static_cast<double>(hw_cost) * slow));
  rt_.note_accel_fallback();
}

// --------------------------------------------------------------- HostEnv --

void HostEnv::compute(double units) {
  const auto& host_cfg = rt_.host().config();
  ctx_.charge(static_cast<Ns>(units / (kHostIpc * host_cfg.freq_ghz)));
}

void HostEnv::accel(nic::AccelKind kind, std::uint32_t bytes,
                    std::uint32_t batch) {
  // No engine on the host: software fallback, slower by the per-engine
  // factor from §2.2.3 (but no invocation overhead amortization games).
  const Ns hw_cost = rt_.nic().accel().batch_cost(kind, bytes, batch);
  const double slow = kHostAccelSlowdown[static_cast<std::size_t>(kind)];
  ctx_.charge(static_cast<Ns>(static_cast<double>(hw_cost) * slow));
}

}  // namespace ipipe
