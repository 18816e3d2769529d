// The core execution protocol, shared by the SmartNIC and the host (an
// actor runs to completion on either side, §3.2):
//
//   park -> wake -> run_once -> charge -> retire -> re-run
//
// A woken core asks its program (NicFirmware or HostRuntime) to perform
// at most one run-to-completion work item, charging simulated time
// through the core's context.  The core is busy for that cost; the
// buffered effects happen when the item retires, and the core runs again
// at once.  A program that finds no work parks the core until a wake.
// Each core owns one context, reset before every call, so the hot loop
// never allocates.
//
// Wake-one: each item the device enqueues wakes only the lowest-indexed
// parked core (`wake_one`).  A core whose run leaves the device holding
// work while no other wake is in flight — it declined the item (a DRR
// core with no run queue) or did other work instead (the management core
// advancing a migration) — passes the wake on to the next parked core
// above it, so an item is never stranded behind a core that will not
// take it.  "Holding work" is the device's own `work_pending()`.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/inline_fn.h"
#include "common/units.h"
#include "netsim/packet.h"
#include "nic/cache_model.h"
#include "sim/simulation.h"

namespace ipipe::nic {

template <class Program, class Context>
class CoreEngine;

/// What a work item may do on any core: accumulate simulated cost and
/// buffer externally visible effects until the work item retires.  The
/// NIC and host contexts extend it with their device-specific charges;
/// each keeps its own `charge_cycles` (clock rates differ).
class ExecContext {
 public:
  [[nodiscard]] Ns now() const noexcept { return sim_.now(); }
  [[nodiscard]] unsigned core() const noexcept { return core_; }

  /// Charge raw simulated time.
  void charge(Ns t) noexcept { consumed_ += t; }
  /// Charge `n` dependent random accesses within a working set.
  void mem(std::uint64_t working_set, std::uint64_t n) noexcept {
    consumed_ += cache_.chase_ns(working_set, n);
  }
  /// Charge a sequential touch of `bytes` within a working set.
  void stream(std::uint64_t working_set, std::uint64_t bytes) noexcept {
    consumed_ += cache_.stream_ns(working_set, bytes);
  }

  /// Transmit a frame when this work item retires (NIC: onto the wire;
  /// host: through the host's NIC).
  void tx(netsim::PacketPtr pkt) { tx_queue_.push_back(std::move(pkt)); }
  /// Run an arbitrary action at retirement, after the buffered frames.
  /// InlineFn: move-only captures (e.g. a PacketPtr) ride inline.
  void defer(InlineFn fn) { deferred_.push_back(std::move(fn)); }

  [[nodiscard]] Ns consumed() const noexcept { return consumed_; }

 protected:
  ExecContext(sim::Simulation& sim, const CacheModel& cache, unsigned core)
      : sim_(sim), cache_(cache), core_(core) {}

  /// Forget the previous work item (called before every run_once).
  void reset() noexcept {
    consumed_ = 0;
    tx_queue_.clear();
    deferred_.clear();
  }
  void run_deferred() {
    for (auto& fn : deferred_) fn();
  }

  std::vector<netsim::PacketPtr> tx_queue_;

 private:
  template <class Program, class Context>
  friend class CoreEngine;

  sim::Simulation& sim_;
  const CacheModel& cache_;
  unsigned core_;
  Ns consumed_ = 0;
  std::vector<InlineFn> deferred_;
};

/// The per-core state machine plus one pooled context per core.
/// `Context` derives from ExecContext, is constructed as
/// `Context(device, core)`, and provides `flush()`, which performs its
/// device's buffered frame effects (the engine then runs the deferred
/// actions); a Context with buffers of its own also hides `reset()`.
/// `Device` provides `work_pending()`: true while it holds queued items
/// that some core should take.
template <class Program, class Context>
class CoreEngine {
 public:
  template <class Device>
  CoreEngine(sim::Simulation& sim, Device& device, unsigned cores)
      : sim_(sim),
        device_(&device),
        work_pending_([](const void* d) {
          return static_cast<const Device*>(d)->work_pending();
        }),
        active_cores_(cores) {
    cores_.reserve(cores);
    for (unsigned i = 0; i < cores; ++i) {
      cores_.push_back(CoreState{Context(device, i)});
    }
  }
  // Scheduled runs and retirements hold `this`.
  CoreEngine(const CoreEngine&) = delete;
  CoreEngine& operator=(const CoreEngine&) = delete;

  void set_program(Program* program) noexcept { program_ = program; }
  [[nodiscard]] Program* program() const noexcept { return program_; }

  /// Restrict the device to its first `n` cores.
  void set_active_cores(unsigned n) noexcept {
    assert(n <= cores_.size());
    active_cores_ = n;
  }
  [[nodiscard]] unsigned active_cores() const noexcept { return active_cores_; }

  /// Schedule a run of a parked core; a woken or executing core ignores
  /// the call (an executing core re-runs by itself when it retires).
  void wake_core(unsigned core) {
    if (core >= active_cores_) return;
    CoreState& st = cores_[core];
    if (st.phase != Phase::kParked) return;
    st.phase = Phase::kWoken;
    ++wakes_in_flight_;
    sim_.schedule(0, [this, core] {
      --wakes_in_flight_;
      run_core(core);
    });
  }
  /// One item was enqueued: wake the lowest-indexed parked core (none
  /// when every core is busy — a busy core re-runs when it retires).
  void wake_one() { wake_parked_from(0); }
  /// Wake every parked core (program install, revival, evacuation).
  void wake_all() {
    for (unsigned i = 0; i < active_cores_; ++i) wake_core(i);
  }
  /// Arrange for `wake_core(core)` at an absolute time (DRR timers etc).
  void wake_core_at(unsigned core, Ns when) {
    sim_.schedule_at(when, [this, core] { wake_core(core); });
  }

  /// Cumulative busy time of `core` (for utilization measurements).
  [[nodiscard]] Ns core_busy_ns(unsigned core) const {
    return cores_[core].busy_total;
  }
  [[nodiscard]] Ns total_busy_ns() const noexcept {
    Ns total = 0;
    for (const auto& st : cores_) total += st.busy_total;
    return total;
  }

 private:
  enum class Phase : std::uint8_t {
    kParked,     ///< no work; waiting for a wake
    kWoken,      ///< a run is scheduled or in progress
    kExecuting,  ///< a work item is in flight until it retires
  };
  struct CoreState {
    Context ctx;
    Phase phase = Phase::kParked;
    Ns busy_total = 0;
  };

  void run_core(unsigned core) {
    CoreState& st = cores_[core];
    if (core >= active_cores_ || program_ == nullptr) {
      st.phase = Phase::kParked;
      return;
    }
    st.ctx.reset();
    const bool ran = program_->run_once(st.ctx, core);
    st.phase = ran ? Phase::kExecuting : Phase::kParked;
    if (wakes_in_flight_ == 0 && work_pending_(device_)) {
      wake_parked_from(core + 1);  // pass the wake on
    }
    if (!ran) return;
    const Ns cost = st.ctx.consumed();
    st.busy_total += cost;
    sim_.schedule(cost, [this, core] { retire(core); });
  }

  void wake_parked_from(unsigned first) {
    for (unsigned i = first; i < active_cores_; ++i) {
      if (cores_[i].phase == Phase::kParked) {
        wake_core(i);
        return;
      }
    }
  }

  void retire(unsigned core) {
    CoreState& st = cores_[core];
    st.ctx.flush();
    st.ctx.run_deferred();
    st.phase = Phase::kWoken;
    run_core(core);
  }

  sim::Simulation& sim_;
  const void* device_;
  bool (*work_pending_)(const void* device);
  Program* program_ = nullptr;
  unsigned active_cores_;
  std::vector<CoreState> cores_;
  unsigned wakes_in_flight_ = 0;  ///< scheduled runs not yet started
};

}  // namespace ipipe::nic
