// Simulated host server: a pool of beefy cores running a poll-mode
// runtime (a DPDK-style application loop or the iPipe host runtime).
//
// The host mirrors the NicModel execution protocol: when a core is free
// the installed HostRuntime is asked to perform one run-to-completion
// unit of work, charging time through a HostExecContext.  Per-core busy
// time gives the "host CPU cores used" metric of Figures 13 and 17.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/units.h"
#include "netsim/packet.h"
#include "nic/cache_model.h"
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

class HostExecContext {
 public:
  HostExecContext(HostModel& host, unsigned core) : host_(host), core_(core) {}

  [[nodiscard]] Ns now() const noexcept;
  [[nodiscard]] unsigned core() const noexcept { return core_; }
  [[nodiscard]] HostModel& host() noexcept { return host_; }

  void charge(Ns t) noexcept { consumed_ += t; }
  void charge_cycles(double cycles) noexcept;
  /// `n` dependent random accesses within a working set (host hierarchy).
  void mem(std::uint64_t working_set, std::uint64_t n) noexcept;
  void stream(std::uint64_t working_set, std::uint64_t bytes) noexcept;
  void charge_rx(std::uint32_t frame_size) noexcept;
  void charge_tx(std::uint32_t frame_size) noexcept;

  /// Transmit through this host's NIC when the work item retires.
  void tx(netsim::PacketPtr pkt) { tx_queue_.push_back(std::move(pkt)); }
  /// Run an action at retirement; InlineFn, so move-only captures (e.g. a
  /// PacketPtr) ride inline.
  void defer(InlineFn fn) { deferred_.push_back(std::move(fn)); }

  [[nodiscard]] Ns consumed() const noexcept { return consumed_; }

 private:
  friend class HostModel;
  HostModel& host_;
  unsigned core_;
  Ns consumed_ = 0;
  std::vector<netsim::PacketPtr> tx_queue_;
  std::vector<InlineFn> deferred_;
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
  void set_active_cores(unsigned n) noexcept { active_cores_ = n; }

  /// Frames DMAed up from the NIC land here (wired in the constructor).
  void rx_push(netsim::PacketPtr pkt);
  [[nodiscard]] netsim::PacketPtr rx_pop();
  [[nodiscard]] std::size_t rx_depth() const noexcept { return rx_ring_.size(); }
  /// Drop every buffered rx frame (node power-fail).
  void rx_clear() noexcept { rx_ring_.clear(); }

  void wake_core(unsigned core);
  void wake_all();
  void wake_core_at(unsigned core, Ns when);

  [[nodiscard]] const HostConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] nic::NicModel& nic() noexcept { return nic_; }
  [[nodiscard]] nic::CacheModel& cache() noexcept { return cache_; }
  [[nodiscard]] sim::Simulation& sim() noexcept { return sim_; }
  [[nodiscard]] unsigned active_cores() const noexcept { return active_cores_; }

  [[nodiscard]] Ns core_busy_ns(unsigned core) const {
    return cores_[core].busy_total;
  }
  [[nodiscard]] Ns total_busy_ns() const noexcept;
  [[nodiscard]] std::uint64_t rx_frames() const noexcept { return rx_frames_; }

 private:
  struct CoreState {
    bool parked = true;
    bool executing = false;
    Ns busy_total = 0;
  };

  void run_core(unsigned core);
  void retire(unsigned core, std::unique_ptr<HostExecContext> ctx);

  sim::Simulation& sim_;
  HostConfig cfg_;
  nic::NicModel& nic_;
  nic::CacheModel cache_;
  HostRuntime* runtime_ = nullptr;
  unsigned active_cores_;
  std::vector<CoreState> cores_;
  std::deque<netsim::PacketPtr> rx_ring_;
  std::uint64_t rx_frames_ = 0;
};

}  // namespace ipipe::hostsim
