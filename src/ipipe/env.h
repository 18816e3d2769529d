// ActorEnv implementations for NIC-side and host-side execution.
//
// These adapt the generic ActorEnv service interface onto the concrete
// execution contexts of NicModel / HostModel: cost hooks resolve against
// the local clock, IPC and cache hierarchy, and messaging routes through
// the wire, the PCIe channel or the local work queues as appropriate.
// Cross-PCIe local_send goes through the runtime's reliable
// send_or_queue path and charges the full per-message channel handling
// cost; same-side delivery charges half (a plain queue insert).
#pragma once

#include <array>

#include "hostsim/host_model.h"
#include "ipipe/actor.h"
#include "ipipe/runtime.h"
#include "nic/nic_model.h"

namespace ipipe {

/// Achieved IPC that turns compute() units into time on each core type.
inline constexpr double kNicIpc = 1.2;   ///< cnMIPS 2-way in-order
inline constexpr double kHostIpc = 3.0;  ///< Xeon out-of-order

/// Host software fallback slowdown vs the NIC accelerator, per engine
/// (§2.2.3: MD5 engine 7.0x, AES 2.5x faster than host).
inline constexpr std::array<double, nic::kNumAccelKinds> kHostAccelSlowdown = {
    3.0,  // CRC
    7.0,  // MD5
    5.0,  // SHA-1
    4.0,  // 3DES
    2.5,  // AES
    4.0,  // KASUMI
    4.0,  // SMS4
    4.0,  // SNOW3G
    0.5,  // FAU: plain atomics are faster on the host
    2.0,  // ZIP
    3.0,  // DFA
};

/// Shared DMO plumbing (owner checks, translation cost, traps).
class EnvBase : public ActorEnv {
 public:
  EnvBase(Runtime& rt, ActorControl& ac) : rt_(rt), ac_(ac) {}

  [[nodiscard]] ActorId self() const override { return ac_.id; }
  [[nodiscard]] NodeId node() const override { return rt_.nic().node(); }
  [[nodiscard]] Rng& rng() override { return rt_.rng(); }

  [[nodiscard]] ObjId dmo_alloc(std::uint32_t size) override;
  bool dmo_free(ObjId id) override;
  [[nodiscard]] bool dmo_read(ObjId id, std::uint32_t off,
                              std::span<std::uint8_t> out) override;
  bool dmo_write(ObjId id, std::uint32_t off,
                 std::span<const std::uint8_t> in) override;
  bool dmo_memset(ObjId id, std::uint8_t value, std::uint32_t off,
                  std::uint32_t len) override;
  [[nodiscard]] std::uint32_t dmo_size(ObjId id) const override;
  [[nodiscard]] std::uint64_t working_set() const override;

  void schedule_self(Ns delay, std::uint16_t type,
                     std::vector<std::uint8_t> payload = {}) override {
    rt_.schedule_actor_msg(ac_.id, delay, type, std::move(payload));
  }

  [[nodiscard]] netsim::PacketPtr clone_packet(
      const netsim::Packet& src) override {
    return rt_.pool().make(src);
  }

 protected:
  /// Charge the DMO translation + memory cost for touching `bytes`.
  void charge_dmo(std::uint64_t bytes);
  /// Charge a blocking PCIe DMA for a remote-residency (kWrongSide) DMO
  /// access, then the caller retries the access unchecked.
  void charge_remote(std::uint64_t bytes, bool is_write);
  bool check(DmoStatus status);
  [[nodiscard]] netsim::PacketPtr make_packet(NodeId dst, ActorId dst_actor,
                                              std::uint16_t type,
                                              std::vector<std::uint8_t> payload,
                                              std::uint32_t frame_size);
  [[nodiscard]] MemSide side() const {
    return on_nic() ? MemSide::kNic : MemSide::kHost;
  }

  Runtime& rt_;
  ActorControl& ac_;

 private:
  /// The actor's DMO region, resolved on first use: every DMO access
  /// charges against its working set.
  mutable const ObjectTable::Region* region_ = nullptr;
};

/// What NIC-side and host-side execution share: cost hooks forward to
/// the core's execution context, frames leave when the work item
/// retires, and same-node messages are delivered by a deferred action.
template <class Context>
class CoreEnv : public EnvBase {
 public:
  CoreEnv(Runtime& rt, ActorControl& ac, Context& ctx)
      : EnvBase(rt, ac), ctx_(ctx) {}

  [[nodiscard]] Ns now() const override { return ctx_.now(); }
  void charge(Ns t) override { ctx_.charge(t); }
  void mem(std::uint64_t ws, std::uint64_t n) override { ctx_.mem(ws, n); }
  void stream(std::uint64_t ws, std::uint64_t bytes) override {
    ctx_.stream(ws, bytes);
  }

  void send(NodeId dst_node, ActorId dst_actor, std::uint16_t type,
            std::vector<std::uint8_t> payload,
            std::uint32_t frame_size) override;
  void reply(const netsim::Packet& req, std::uint16_t type,
             std::vector<std::uint8_t> payload,
             std::uint32_t frame_size) override;
  void local_send(ActorId dst_actor, std::uint16_t type,
                  std::vector<std::uint8_t> payload) override;
  void forward(ActorId dst_actor, netsim::PacketPtr pkt) override;

 protected:
  Context& ctx_;

 private:
  /// Charge the per-frame send cost and transmit at retirement.
  void transmit(netsim::PacketPtr pkt);
  /// Charge a same-node hop to `pkt->dst_actor` and deliver it at
  /// retirement.
  void hop_local(netsim::PacketPtr pkt);
};

class NicEnv final : public CoreEnv<nic::NicExecContext> {
 public:
  using CoreEnv::CoreEnv;

  [[nodiscard]] bool on_nic() const override { return true; }
  void compute(double units) override;
  void accel(nic::AccelKind kind, std::uint32_t bytes,
             std::uint32_t batch) override;
};

class HostEnv final : public CoreEnv<hostsim::HostExecContext> {
 public:
  using CoreEnv::CoreEnv;

  [[nodiscard]] bool on_nic() const override { return false; }
  void compute(double units) override;
  void accel(nic::AccelKind kind, std::uint32_t bytes,
             std::uint32_t batch) override;
};

}  // namespace ipipe
