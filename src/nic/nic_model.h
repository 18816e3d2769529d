// NicModel: the simulated Multicore SoC SmartNIC.
//
// The device owns the traffic manager, the core pool, the DMA/RDMA
// engines, the accelerator bank and the memory model.  What the cores
// *do* is pluggable firmware: the echo server of the characterization
// experiments, the iPipe NIC runtime, or a pass-through for dumb NICs.
//
// The cores run the shared core execution protocol (nic/core_engine.h):
// the firmware performs one run-to-completion work item per call,
// charging time through the core's NicExecContext, and the frames it
// buffered go to the wire or to the host when the work item retires.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/units.h"
#include "netsim/network.h"
#include "netsim/packet.h"
#include "nic/accelerator.h"
#include "nic/cache_model.h"
#include "nic/core_engine.h"
#include "nic/dma_engine.h"
#include "nic/nic_config.h"
#include "nic/traffic_manager.h"
#include "sim/simulation.h"

namespace ipipe::nic {

class NicModel;
class NicFirmware;

/// NIC-core execution context: the shared charges plus the NIC's
/// accelerator, DMA, forwarding and nstack costs, and host delivery.
class NicExecContext : public ExecContext {
 public:
  NicExecContext(NicModel& nic, unsigned core);

  [[nodiscard]] NicModel& nic() noexcept { return nic_; }

  /// Charge core cycles at the NIC core clock.
  void charge_cycles(double cycles) noexcept;
  /// Charge a blocking accelerator batch.
  void accel(AccelKind kind, std::uint32_t bytes, std::uint32_t batch) noexcept;
  /// Charge the standard per-frame forwarding cost (RX+TX tax).
  void charge_forwarding(std::uint32_t frame_size) noexcept;
  /// Charge the NIC-side hardware-assisted send/recv primitive (Fig. 6).
  void charge_nstack(std::uint32_t frame_size) noexcept;

  /// Deliver a frame to the host (DMA write + host RX ring) at retirement.
  void to_host(netsim::PacketPtr pkt) { host_queue_.push_back(std::move(pkt)); }

 private:
  friend class CoreEngine<NicFirmware, NicExecContext>;
  void reset() noexcept {
    ExecContext::reset();
    host_queue_.clear();
  }
  /// Retirement: wire TX, then host DMA.
  void flush();

  NicModel& nic_;
  std::vector<netsim::PacketPtr> host_queue_;
};

/// Pluggable NIC-core program.
class NicFirmware {
 public:
  virtual ~NicFirmware() = default;
  /// Perform at most one unit of work on `core`.  Return false if there
  /// is nothing to do (the core parks until woken).
  virtual bool run_once(NicExecContext& ctx, unsigned core) = 0;
  /// Called once when installed on a device.
  virtual void attached(NicModel& /*nic*/) {}
};

class NicModel : public netsim::Endpoint {
 public:
  NicModel(sim::Simulation& sim, NicConfig cfg, netsim::Network& net,
           netsim::NodeId node);

  NicModel(const NicModel&) = delete;
  NicModel& operator=(const NicModel&) = delete;

  // -- wiring ---------------------------------------------------------
  void set_firmware(NicFirmware* fw);
  /// Restrict the device to its first `n` cores (Fig. 2/3 sweeps).
  void set_active_cores(unsigned n) noexcept { cores_.set_active_cores(n); }
  /// Host RX ring sink: frames DMAed to the host land here.
  void set_host_rx(std::function<void(netsim::PacketPtr)> sink) {
    host_rx_ = std::move(sink);
  }
  /// Off-path steering predicate: true = give the frame to NIC cores,
  /// false = bypass to host (NIC-switch rules, Fig. 1-c).
  void set_steer_to_nic(std::function<bool(const netsim::Packet&)> pred) {
    steer_to_nic_ = std::move(pred);
  }
  /// Work the firmware queues outside the traffic manager (the iPipe
  /// runtime's host->NIC channel): counted by work_pending().
  void set_work_pending(std::function<bool()> pred) {
    work_pending_ = std::move(pred);
  }

  // -- datapath -------------------------------------------------------
  void receive(netsim::PacketPtr pkt) override;  // from the wire
  /// Host hands a frame to the NIC for transmission (transmit path).
  void host_tx(netsim::PacketPtr pkt);
  /// Put a frame on the wire immediately (called at work-item retirement).
  void wire_tx(netsim::PacketPtr pkt);
  /// DMA a frame to the host RX ring (async; models PCIe write).
  void deliver_to_host(netsim::PacketPtr pkt);

  // -- core scheduling --------------------------------------------------
  void wake_core(unsigned core) { cores_.wake_core(core); }
  /// One item was queued for the cores: wake one parked core.
  void wake_one() { cores_.wake_one(); }
  void wake_all() { cores_.wake_all(); }
  /// True while the device holds items some core should take: a
  /// non-empty traffic manager, or firmware-queued work.
  [[nodiscard]] bool work_pending() const {
    return !tm_.empty() || (work_pending_ && work_pending_());
  }
  /// Arrange for `wake_core(core)` at an absolute time (DRR timers etc).
  void wake_core_at(unsigned core, Ns when) { cores_.wake_core_at(core, when); }

  // -- components -------------------------------------------------------
  [[nodiscard]] const NicConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] TrafficManager& tm() noexcept { return tm_; }
  [[nodiscard]] DmaEngine& dma() noexcept { return dma_; }
  [[nodiscard]] AcceleratorBank& accel() noexcept { return accel_; }
  [[nodiscard]] CacheModel& cache() noexcept { return cache_; }
  [[nodiscard]] sim::Simulation& sim() noexcept { return sim_; }
  [[nodiscard]] netsim::NodeId node() const noexcept { return node_; }
  [[nodiscard]] unsigned active_cores() const noexcept {
    return cores_.active_cores();
  }

  // -- statistics -------------------------------------------------------
  [[nodiscard]] std::uint64_t rx_frames() const noexcept { return rx_frames_; }
  [[nodiscard]] std::uint64_t tx_frames() const noexcept { return tx_frames_; }
  [[nodiscard]] std::uint64_t to_host_frames() const noexcept {
    return to_host_frames_;
  }
  /// Cumulative busy time of `core` (for utilization measurements).
  [[nodiscard]] Ns core_busy_ns(unsigned core) const {
    return cores_.core_busy_ns(core);
  }
  [[nodiscard]] Ns total_busy_ns() const noexcept {
    return cores_.total_busy_ns();
  }

 private:
  void admit(netsim::PacketPtr pkt);

  sim::Simulation& sim_;
  NicConfig cfg_;
  netsim::Network& net_;
  netsim::NodeId node_;

  TrafficManager tm_;
  DmaEngine dma_;
  AcceleratorBank accel_;
  CacheModel cache_;

  CoreEngine<NicFirmware, NicExecContext> cores_;

  std::function<void(netsim::PacketPtr)> host_rx_;
  std::function<bool(const netsim::Packet&)> steer_to_nic_;
  std::function<bool()> work_pending_;

  Ns next_admit_ = 0;  // NIC-wide max_pps admission pacing
  std::uint64_t rx_frames_ = 0;
  std::uint64_t tx_frames_ = 0;
  std::uint64_t to_host_frames_ = 0;
};

}  // namespace ipipe::nic
