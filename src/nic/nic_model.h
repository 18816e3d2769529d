// NicModel: the simulated Multicore SoC SmartNIC.
//
// The device owns the traffic manager, the core pool, the DMA/RDMA
// engines, the accelerator bank and the memory model.  What the cores
// *do* is pluggable firmware: the echo server of the characterization
// experiments, the iPipe NIC runtime, or a pass-through for dumb NICs.
//
// Core execution protocol: whenever a core is free the device calls
// `firmware->run_once(ctx, core)`.  The firmware performs at most one
// run-to-completion unit of work, charging simulated time through the
// NicExecContext; the core is then busy for the accumulated cost and any
// buffered transmissions / host deliveries happen at completion time.
// Returning false parks the core until `wake_core`/`wake_all`.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/units.h"
#include "netsim/network.h"
#include "netsim/packet.h"
#include "nic/accelerator.h"
#include "nic/cache_model.h"
#include "nic/dma_engine.h"
#include "nic/nic_config.h"
#include "nic/traffic_manager.h"
#include "sim/simulation.h"

namespace ipipe::nic {

class NicModel;

/// Per-work-item execution context: accumulates simulated cost and
/// buffers externally visible effects until the work item retires.
class NicExecContext {
 public:
  NicExecContext(NicModel& nic, unsigned core) : nic_(nic), core_(core) {}

  [[nodiscard]] Ns now() const noexcept;
  [[nodiscard]] unsigned core() const noexcept { return core_; }
  [[nodiscard]] NicModel& nic() noexcept { return nic_; }

  /// Charge raw simulated time / core cycles.
  void charge(Ns t) noexcept { consumed_ += t; }
  void charge_cycles(double cycles) noexcept;

  /// Charge `n` dependent random accesses within a working set.
  void mem(std::uint64_t working_set, std::uint64_t n) noexcept;
  /// Charge a sequential touch of `bytes` within a working set.
  void stream(std::uint64_t working_set, std::uint64_t bytes) noexcept;
  /// Charge a blocking accelerator batch.
  void accel(AccelKind kind, std::uint32_t bytes, std::uint32_t batch) noexcept;
  /// Charge the standard per-frame forwarding cost (RX+TX tax).
  void charge_forwarding(std::uint32_t frame_size) noexcept;
  /// Charge the NIC-side hardware-assisted send/recv primitive (Fig. 6).
  void charge_nstack(std::uint32_t frame_size) noexcept;
  /// Charge a blocking DMA read/write of `bytes` to/from host memory.
  void dma_read_blocking(std::uint32_t bytes) noexcept;
  void dma_write_blocking(std::uint32_t bytes) noexcept;

  /// Transmit a frame onto the wire when this work item retires.
  void tx(netsim::PacketPtr pkt) { tx_queue_.push_back(std::move(pkt)); }
  /// Deliver a frame to the host (DMA write + host RX ring) at retirement.
  void to_host(netsim::PacketPtr pkt) { host_queue_.push_back(std::move(pkt)); }
  /// Run an arbitrary action at retirement (after tx/host deliveries).
  /// InlineFn: move-only captures (e.g. a PacketPtr) ride inline.
  void defer(InlineFn fn) { deferred_.push_back(std::move(fn)); }

  [[nodiscard]] Ns consumed() const noexcept { return consumed_; }

 private:
  friend class NicModel;
  NicModel& nic_;
  unsigned core_;
  Ns consumed_ = 0;
  std::vector<netsim::PacketPtr> tx_queue_;
  std::vector<netsim::PacketPtr> host_queue_;
  std::vector<InlineFn> deferred_;
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
  void set_active_cores(unsigned n) noexcept;
  /// Host RX ring sink: frames DMAed to the host land here.
  void set_host_rx(std::function<void(netsim::PacketPtr)> sink) {
    host_rx_ = std::move(sink);
  }
  /// Off-path steering predicate: true = give the frame to NIC cores,
  /// false = bypass to host (NIC-switch rules, Fig. 1-c).
  void set_steer_to_nic(std::function<bool(const netsim::Packet&)> pred) {
    steer_to_nic_ = std::move(pred);
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
  void wake_core(unsigned core);
  void wake_all();
  /// Arrange for `wake_core(core)` at an absolute time (DRR timers etc).
  void wake_core_at(unsigned core, Ns when);

  // -- components -------------------------------------------------------
  [[nodiscard]] const NicConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] TrafficManager& tm() noexcept { return tm_; }
  [[nodiscard]] DmaEngine& dma() noexcept { return dma_; }
  [[nodiscard]] AcceleratorBank& accel() noexcept { return accel_; }
  [[nodiscard]] CacheModel& cache() noexcept { return cache_; }
  [[nodiscard]] sim::Simulation& sim() noexcept { return sim_; }
  [[nodiscard]] netsim::NodeId node() const noexcept { return node_; }
  [[nodiscard]] unsigned active_cores() const noexcept { return active_cores_; }

  // -- statistics -------------------------------------------------------
  [[nodiscard]] std::uint64_t rx_frames() const noexcept { return rx_frames_; }
  [[nodiscard]] std::uint64_t tx_frames() const noexcept { return tx_frames_; }
  [[nodiscard]] std::uint64_t to_host_frames() const noexcept {
    return to_host_frames_;
  }
  /// Cumulative busy time of `core` (for utilization measurements).
  [[nodiscard]] Ns core_busy_ns(unsigned core) const {
    return cores_[core].busy_total;
  }
  [[nodiscard]] Ns total_busy_ns() const noexcept;

 private:
  struct CoreState {
    bool parked = true;      // no work; waiting for wake
    bool executing = false;  // currently inside a work item
    Ns busy_total = 0;
  };

  void run_core(unsigned core);
  void retire(unsigned core, std::unique_ptr<NicExecContext> ctx);
  void admit(netsim::PacketPtr pkt);

  sim::Simulation& sim_;
  NicConfig cfg_;
  netsim::Network& net_;
  netsim::NodeId node_;

  TrafficManager tm_;
  DmaEngine dma_;
  AcceleratorBank accel_;
  CacheModel cache_;

  NicFirmware* firmware_ = nullptr;
  unsigned active_cores_;
  std::vector<CoreState> cores_;

  std::function<void(netsim::PacketPtr)> host_rx_;
  std::function<bool(const netsim::Packet&)> steer_to_nic_;

  Ns next_admit_ = 0;  // NIC-wide max_pps admission pacing
  std::uint64_t rx_frames_ = 0;
  std::uint64_t tx_frames_ = 0;
  std::uint64_t to_host_frames_ = 0;
};

}  // namespace ipipe::nic
