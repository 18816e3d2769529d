// Actor programming model (§3.1).
//
// An actor is a computation agent with self-contained private state
// (held in DMOs) and a mailbox of asynchronous messages.  Application
// code subclasses Actor and implements init()/handle() against the
// ActorEnv service interface, which works identically whether the actor
// is currently placed on the SmartNIC or on the host — placement is the
// scheduler's business, not the application's.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/units.h"
#include "ipipe/dmo.h"
#include "ipipe/tenant.h"
#include "netsim/packet.h"
#include "nic/accelerator.h"

namespace ipipe {

using netsim::ActorId;
using netsim::NodeId;

/// Actor-group handle (pipeline co-placement).  Actors registered under
/// the same group are placed and migrated as a unit and are exempt from
/// the scheduler's autonomous migration policies.
using GroupId = std::uint32_t;
constexpr GroupId kNoGroup = 0;

class ActorEnv;

/// Base class for application actors.
class Actor {
 public:
  explicit Actor(std::string name) : name_(std::move(name)) {}
  virtual ~Actor() = default;

  Actor(const Actor&) = delete;
  Actor& operator=(const Actor&) = delete;

  /// State initialization (the paper's init_handler).  Runs once at
  /// registration, on the actor's initial side.
  virtual void init(ActorEnv& /*env*/) {}

  /// Message execution (the paper's exec_handler).  Run-to-completion;
  /// all cost must be charged through `env`.
  virtual void handle(ActorEnv& env, const netsim::Packet& req) = 0;

  /// Drop volatile state before a supervised restart or node reboot.
  /// Default: keep everything (correct for stateless actors and for
  /// host-pinned actors whose state models persistent storage).  After
  /// reset() the runtime calls init() again.
  virtual void reset(ActorEnv& /*env*/) {}

  /// NIC firmware crash notification, delivered to NIC-resident actors
  /// at the crash instant (before emergency evacuation moves them to
  /// the host).  Anything the actor models as living in NIC SRAM —
  /// caches, in-flight fills, leases — died with the firmware and must
  /// be dropped here; the runtime wipes the mailbox at the same moment,
  /// so an actor that keeps derived state past this point can observe
  /// updates that were lost with it.  Default: keep everything.
  virtual void on_nic_fault() {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] ActorId id() const noexcept { return id_; }

  /// Hint: bytes of private state to reserve as the DMO region
  /// (the runtime creates "large equal-sized chunks" per actor, §3.3).
  [[nodiscard]] virtual std::uint64_t region_bytes() const { return 8 * MiB; }

  /// Pin this actor to the host (e.g. actors needing persistent storage:
  /// SSTable reader/compactor, transaction logger).
  [[nodiscard]] virtual bool host_pinned() const { return false; }

 private:
  friend class Runtime;
  std::string name_;
  ActorId id_ = 0;
};

/// Services available to a running actor handler.  Implementations exist
/// for NIC-side and host-side execution; cost hooks resolve against the
/// local memory hierarchy / clock of wherever the actor currently runs.
class ActorEnv {
 public:
  virtual ~ActorEnv() = default;

  // ---- placement & time -------------------------------------------------
  [[nodiscard]] virtual Ns now() const = 0;
  [[nodiscard]] virtual bool on_nic() const = 0;
  [[nodiscard]] virtual ActorId self() const = 0;
  [[nodiscard]] virtual NodeId node() const = 0;
  [[nodiscard]] virtual Rng& rng() = 0;

  // ---- cost charging ------------------------------------------------------
  /// Raw simulated time.
  virtual void charge(Ns t) = 0;
  /// Abstract compute work; converted by the local core model (a wimpy
  /// NIC core is ~5x slower per unit than a beefy host core).
  virtual void compute(double units) = 0;
  /// `n` dependent random accesses within a working set of `ws` bytes.
  virtual void mem(std::uint64_t ws, std::uint64_t n) = 0;
  /// Sequential touch of `bytes` within a working set.
  virtual void stream(std::uint64_t ws, std::uint64_t bytes) = 0;
  /// Domain-specific accelerator batch; on the host this falls back to a
  /// (slower) software implementation.
  virtual void accel(nic::AccelKind kind, std::uint32_t bytes,
                     std::uint32_t batch) = 0;

  // ---- messaging -----------------------------------------------------------
  /// Send a message to an actor on another node (through the wire).
  virtual void send(NodeId dst_node, ActorId dst_actor, std::uint16_t type,
                    std::vector<std::uint8_t> payload,
                    std::uint32_t frame_size = 0) = 0;
  /// Reply to the client/peer that sent `req`.
  virtual void reply(const netsim::Packet& req, std::uint16_t type,
                     std::vector<std::uint8_t> payload,
                     std::uint32_t frame_size = 0) = 0;
  /// Asynchronous message to an actor on this node (possibly across PCIe).
  virtual void local_send(ActorId dst_actor, std::uint16_t type,
                          std::vector<std::uint8_t> payload) = 0;
  /// Hand a whole packet to another actor on this node, preserving every
  /// field (flow, request_id, frame_size, created_at, ...).  Unlike
  /// local_send — which builds a *fresh* message — this is the pipeline
  /// primitive: downstream stages see the exact packet, so end-to-end
  /// correlation ids and timestamps survive multi-stage paths.  Default:
  /// the packet is dropped (environments without a delivery path).
  virtual void forward(ActorId dst_actor, netsim::PacketPtr pkt) {
    (void)dst_actor;
    pkt.reset();
  }
  /// Field-for-field packet copy from this environment's arena (fan-out,
  /// or promoting a borrowed `const Packet&` into an owned packet).
  [[nodiscard]] virtual netsim::PacketPtr clone_packet(
      const netsim::Packet& src) {
    return netsim::PacketPtr(new netsim::Packet(src),
                             netsim::PacketDeleter{nullptr});
  }
  /// Deliver `type` back to this actor after `delay` of virtual time
  /// (heartbeats, election timeouts, retransmit sweeps).  The timer is
  /// silently dropped if the actor is killed/crashed before it fires;
  /// re-arm from init() to survive restarts.
  virtual void schedule_self(Ns delay, std::uint16_t type,
                             std::vector<std::uint8_t> payload = {}) = 0;

  // ---- distributed memory objects ------------------------------------------
  /// All DMO calls are owner-checked against self() and charge memory
  /// cost automatically.  Failed checks trap (§3.4) and return failure.
  [[nodiscard]] virtual ObjId dmo_alloc(std::uint32_t size) = 0;
  virtual bool dmo_free(ObjId id) = 0;
  [[nodiscard]] virtual bool dmo_read(ObjId id, std::uint32_t off,
                                      std::span<std::uint8_t> out) = 0;
  virtual bool dmo_write(ObjId id, std::uint32_t off,
                         std::span<const std::uint8_t> in) = 0;
  virtual bool dmo_memset(ObjId id, std::uint8_t value, std::uint32_t off,
                          std::uint32_t len) = 0;
  [[nodiscard]] virtual std::uint32_t dmo_size(ObjId id) const = 0;
  /// Current working set of this actor's live objects.
  [[nodiscard]] virtual std::uint64_t working_set() const = 0;

  // ---- typed DMO convenience helpers -------------------------------------
  template <typename T>
  [[nodiscard]] bool dmo_get(ObjId id, T& out) {
    return dmo_read(id, 0, std::span<std::uint8_t>(
                               reinterpret_cast<std::uint8_t*>(&out), sizeof(T)));
  }
  template <typename T>
  bool dmo_put(ObjId id, const T& value) {
    return dmo_write(id, 0,
                     std::span<const std::uint8_t>(
                         reinterpret_cast<const std::uint8_t*>(&value), sizeof(T)));
  }
};

/// Runtime-side control block for a registered actor (scheduler state,
/// §3.2 bookkeeping).
enum class ActorLoc : std::uint8_t { kNic, kHost };

enum class MigState : std::uint8_t {
  kStable,
  kPrepare,  ///< removed from dispatch; requests buffered
  kReady,    ///< drained current executions/mailbox
  kGone,     ///< objects moved; peer side owns the actor
  kClean,    ///< buffered requests forwarded; migration complete
};

struct ActorControl {
  Actor* actor = nullptr;
  ActorId id = 0;
  ActorLoc loc = ActorLoc::kNic;
  GroupId group = kNoGroup;  ///< pipeline co-placement unit (kNoGroup = free)
  TenantId tenant = kNoTenant;  ///< owning virtual function (kNoTenant = PF)
  bool is_drr = false;
  std::uint32_t demotions = 0;  ///< FCFS->DRR downgrades (hysteresis scaling)
  bool killed = false;
  bool quarantined = false;  ///< supervision gave up on this actor
  Ns killed_at = 0;          ///< when `killed` was set (restart delay base)
  std::uint32_t restarts = 0;
  Ns last_revive_at = 0;  ///< healthy-since base for restart-episode decay
  bool evacuated = false;  ///< forced to host by NIC failure; re-offload target

  std::deque<netsim::PacketPtr> mailbox;  ///< DRR mailbox / host queue
  double deficit_ns = 0.0;                ///< DRR deficit counter

  EwmaMeanStd latency;    ///< request latency incl. queueing (µi, σi)
  EwmaMeanStd exec_cost;  ///< pure execution cost (DRR eligibility, load)
  Ewma req_size{0.2};
  Ewma interarrival_ns{0.2};  ///< for invocation-frequency estimates
  Ns last_arrival = 0;
  std::uint64_t requests = 0;

  MigState mig = MigState::kStable;
  std::deque<netsim::PacketPtr> mig_buffer;  ///< buffered during migration
  Ns mig_phase_started = 0;
  std::array<Ns, 4> mig_phase_ns{};  ///< per-phase elapsed (Fig. 18)
  std::uint64_t migrations = 0;

  /// Dispersion measure used for downgrade/upgrade decisions (§3.2.3).
  [[nodiscard]] double dispersion() const noexcept { return latency.tail(); }
  /// Load = mean execution latency scaled by invocation frequency.
  [[nodiscard]] double load() const noexcept {
    const double gap = interarrival_ns.seeded() ? interarrival_ns.value() : 1e9;
    return exec_cost.mean() / std::max(gap, 1.0);
  }
};

}  // namespace ipipe
