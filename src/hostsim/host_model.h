// Simulated host server: a pool of beefy cores running a poll-mode
// runtime (a DPDK-style application loop or the iPipe host runtime).
//
// The host cores run the same core execution protocol as the NIC
// (nic/core_engine.h): the installed HostRuntime performs one
// run-to-completion work item per call, charging time through the core's
// HostExecContext, and the frames it buffered go to the host's NIC when
// the work item retires.  Per-core busy time gives the "host CPU cores
// used" metric of Figures 13 and 17.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "common/units.h"
#include "netsim/packet.h"
#include "nic/cache_model.h"
#include "nic/core_engine.h"
#include "nic/nic_model.h"
#include "sim/simulation.h"

namespace ipipe::hostsim {

struct HostConfig {
  unsigned cores = 12;       ///< E5-2680 v3: 12 cores @2.5GHz (paper §2.2.1)
  double freq_ghz = 2.5;
  /// Kernel-bypass (DPDK) per-frame receive cost on a host core,
  /// calibrated against the paper's Fig. 6 DPDK measurements.
  double rx_base_ns = 1450.0;
  double rx_per_byte_ns = 0.30;
  /// Per-frame transmit cost (descriptor + doorbell + copy).
  double tx_base_ns = 1250.0;
  double tx_per_byte_ns = 0.25;
};

class HostModel;
class HostRuntime;

/// Host-core execution context: the shared charges plus the DPDK-style
/// per-frame receive/transmit costs.
class HostExecContext : public nic::ExecContext {
 public:
  HostExecContext(HostModel& host, unsigned core);

  [[nodiscard]] HostModel& host() noexcept { return host_; }

  /// Charge core cycles at the host clock.
  void charge_cycles(double cycles) noexcept;
  void charge_rx(std::uint32_t frame_size) noexcept;
  void charge_tx(std::uint32_t frame_size) noexcept;

 private:
  friend class nic::CoreEngine<HostRuntime, HostExecContext>;
  /// Retirement: hand the buffered frames to the NIC's transmit path.
  void flush();

  HostModel& host_;
};

class HostRuntime {
 public:
  virtual ~HostRuntime() = default;
  virtual bool run_once(HostExecContext& ctx, unsigned core) = 0;
  virtual void attached(HostModel& /*host*/) {}
};

class HostModel {
 public:
  HostModel(sim::Simulation& sim, HostConfig cfg, nic::NicModel& nic);

  HostModel(const HostModel&) = delete;
  HostModel& operator=(const HostModel&) = delete;

  void set_runtime(HostRuntime* rt);
  /// Work the runtime queues outside the RX ring (the NIC->host channel,
  /// host-local mailboxes): counted by work_pending().
  void set_work_pending(std::function<bool()> pred) {
    work_pending_ = std::move(pred);
  }

  /// Frames DMAed up from the NIC land here (wired in the constructor).
  void rx_push(netsim::PacketPtr pkt);
  [[nodiscard]] netsim::PacketPtr rx_pop();
  [[nodiscard]] std::size_t rx_depth() const noexcept { return rx_ring_.size(); }
  /// Drop every buffered rx frame (node power-fail).
  void rx_clear() noexcept { rx_ring_.clear(); }

  void wake_core(unsigned core) { cores_.wake_core(core); }
  /// One item was queued for the cores: wake one parked core.
  void wake_one() { cores_.wake_one(); }
  void wake_all() { cores_.wake_all(); }
  /// True while the host holds items some core should take.
  [[nodiscard]] bool work_pending() const {
    return !rx_ring_.empty() || (work_pending_ && work_pending_());
  }
  void wake_core_at(unsigned core, Ns when) { cores_.wake_core_at(core, when); }

  [[nodiscard]] const HostConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] nic::NicModel& nic() noexcept { return nic_; }
  [[nodiscard]] nic::CacheModel& cache() noexcept { return cache_; }
  [[nodiscard]] sim::Simulation& sim() noexcept { return sim_; }
  [[nodiscard]] unsigned active_cores() const noexcept {
    return cores_.active_cores();
  }

  [[nodiscard]] Ns core_busy_ns(unsigned core) const {
    return cores_.core_busy_ns(core);
  }
  [[nodiscard]] Ns total_busy_ns() const noexcept {
    return cores_.total_busy_ns();
  }
  [[nodiscard]] std::uint64_t rx_frames() const noexcept { return rx_frames_; }

 private:
  sim::Simulation& sim_;
  HostConfig cfg_;
  nic::NicModel& nic_;
  nic::CacheModel cache_;
  nic::CoreEngine<HostRuntime, HostExecContext> cores_;
  std::deque<netsim::PacketPtr> rx_ring_;
  std::function<bool()> work_pending_;
  std::uint64_t rx_frames_ = 0;
};

}  // namespace ipipe::hostsim
