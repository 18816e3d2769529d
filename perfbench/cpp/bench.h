// Shared pieces of the repo benchmark: options, the per-run outcome a
// workload hands back, and the probes a traced run installs around the
// public entry points of each module.
//
// Probes time the benchmark's own calls into the library from outside:
// a wrapping nic::NicFirmware and hostsim::HostRuntime that delegate to
// Runtime::nic_run_once / host_run_once, the ClientGen request closure,
// each run_until slice and each set-up step.  They schedule no events,
// so a traced run executes exactly the event sequence of an untraced one.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/units.h"
#include "hostsim/host_model.h"
#include "ipipe/runtime.h"
#include "netsim/chaos.h"
#include "nic/nic_model.h"
#include "testbed/cluster.h"
#include "workloads/client.h"

namespace perfbench {

using ipipe::Ns;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Host-speed calibration.  On a shared machine other tenants slow whole
/// stretches of a run, by up to 90%, and CPU time slows with wall time
/// (the loss is contention for the core and its caches, not
/// preemption).  So a fixed piece of work that does not depend on the
/// program runs next to every timed interval, and the interval is scaled
/// by how much slower than on an undisturbed machine that work ran.
/// Returns the wall seconds of one run of that work: a chain of
/// dependent multiplies and random read-modify-writes over a 4 MiB
/// table.  Between two simulation steps the table has mostly left the
/// caches, so the work largely measures refilling them (about 1.4 ms
/// then, 0.4 ms warm).  Of the kernels tried (a 256 KiB table, an 8 MiB
/// pointer chase, an L1-resident multi-stream loop) this one tracked the
/// simulator's slowdowns best.
[[nodiscard]] double calibration_s();
/// calibration_s() between steps on an undisturbed machine: the unit of
/// calibrated time.
inline constexpr double kCalibrationRefS = 1.3e-3;

/// `wall_s` measured between calibrations `before` and `after`, scaled by
/// the square root of the calibration's slowdown.  Scaling by the whole
/// slowdown over-corrected `shard_rkv` and `rkv_write` and under-corrected
/// `nf_chain` in measured sets; the square root kept every workload's
/// spread and its drift between sets smallest (perfbench/README.md).
[[nodiscard]] inline double calibrated(double wall_s, double before,
                                       double after) {
  return wall_s * std::sqrt(kCalibrationRefS / (0.5 * (before + after)));
}

struct Options {
  std::uint64_t seed = 1;
  /// shard_rkv only: run the bench/sharded_rkv acceptance scenario
  /// (seeded chaos and the mid-run rebalance) instead of the benchmark.
  bool acceptance = false;
};

/// Host time and call counts of one wrapped entry point.
struct CallStats {
  std::uint64_t calls = 0;
  std::uint64_t idle = 0;  ///< calls that found no work
  double wall_s = 0.0;
};

/// Wraps the iPipe NIC firmware: counts and times every core iteration.
class NicFwProbe final : public ipipe::nic::NicFirmware {
 public:
  explicit NicFwProbe(ipipe::Runtime& rt) : rt_(rt) {}
  bool run_once(ipipe::nic::NicExecContext& ctx, unsigned core) override {
    const auto t0 = Clock::now();
    const bool did = rt_.nic_run_once(ctx, core);
    stats.wall_s += seconds_since(t0);
    ++stats.calls;
    if (!did) ++stats.idle;
    return did;
  }
  CallStats stats;

 private:
  ipipe::Runtime& rt_;
};

/// Wraps the iPipe host runtime the same way.
class HostRtProbe final : public ipipe::hostsim::HostRuntime {
 public:
  explicit HostRtProbe(ipipe::Runtime& rt) : rt_(rt) {}
  bool run_once(ipipe::hostsim::HostExecContext& ctx, unsigned core) override {
    const auto t0 = Clock::now();
    const bool did = rt_.host_run_once(ctx, core);
    stats.wall_s += seconds_since(t0);
    ++stats.calls;
    if (!did) ++stats.idle;
    return did;
  }
  CallStats stats;

 private:
  ipipe::Runtime& rt_;
};

/// One host-time interval recorded by a traced run.
struct Span {
  std::string name;
  double start_s = 0.0;  ///< since the probe was created
  double end_s = 0.0;
};

/// Everything a traced run records.  Each server gets its own firmware
/// and host-runtime wrapper; a server's domain runs on one engine thread
/// at a time, so the per-server accumulators need no locking and their
/// sum is thread-seconds.
class Probe {
 public:
  Probe() : origin_(Clock::now()) {}

  /// Wrap every server of `cluster` (call after deployment, before the
  /// first run_until: the runtime has just woken every core, so the
  /// re-install schedules nothing).
  void install(ipipe::testbed::ParallelCluster& cluster);
  /// Replace the cluster's chaos hooks with copies that put the firmware
  /// wrapper back after a node or NIC restore (Runtime re-installs its
  /// own firmware there).  Call before ChaosController::execute.
  void rewire_chaos(ipipe::testbed::ParallelCluster& cluster,
                    ipipe::netsim::ChaosController& chaos);
  /// Time every call of a ClientGen request closure.
  [[nodiscard]] ipipe::workloads::ClientGen::MakeReq wrap(
      ipipe::workloads::ClientGen::MakeReq make);

  /// Run `fn` as a named span.
  template <typename Fn>
  void span(const char* name, Fn&& fn) {
    const double start = seconds_since(origin_);
    fn();
    spans_.push_back({name, start, seconds_since(origin_)});
  }

  /// Freeze the call totals at the end of the timed part, so that what
  /// runs after it (rkv_write's read-back audit) is not charged to it.
  void end_timed();
  /// Call totals of the timed part (valid after end_timed).
  [[nodiscard]] const CallStats& nic_total() const noexcept { return nic_timed_; }
  [[nodiscard]] const CallStats& host_total() const noexcept { return host_timed_; }
  [[nodiscard]] const CallStats& make_stats() const noexcept { return make_timed_; }
  [[nodiscard]] double span_total(const std::string& name) const;

 private:
  /// Runtime re-installs only its NIC firmware on a restore; the host
  /// runtime wrapper stays in place.
  void reinstall_nic(std::size_t server);

  Clock::time_point origin_;
  ipipe::testbed::ParallelCluster* cluster_ = nullptr;
  std::vector<std::unique_ptr<NicFwProbe>> nic_;
  std::vector<std::unique_ptr<HostRtProbe>> host_;
  CallStats make_;
  CallStats nic_timed_;
  CallStats host_timed_;
  CallStats make_timed_;
  std::vector<Span> spans_;
};

/// Runs `fn` as a span when tracing, plainly otherwise.
template <typename Fn>
void maybe_span(Probe* probe, const char* name, Fn&& fn) {
  if (probe != nullptr) {
    probe->span(name, fn);
  } else {
    fn();
  }
}

/// Timed runs are cut into this many steps of simulated time, so that
/// repetitions can be compared step by step (see main.cc).
inline constexpr Ns kTimedSteps = 50;

struct Outcome;

/// Advances the cluster to each requested time in steps that end on
/// multiples of `step` simulated ns (0: one step per call), each step a
/// span when tracing, and records the wall seconds of every step, raw and
/// calibrated (a calibration runs before the first step and after each).
class Slicer {
 public:
  Slicer(ipipe::testbed::ParallelCluster& cluster, Probe* probe, Ns step)
      : cluster_(cluster), probe_(probe), step_(step) {}
  void operator()(Ns until) {
    while (now_ < until) {
      const Ns next =
          step_ > 0 ? std::min(until, (now_ / step_ + 1) * step_) : until;
      if (wall_s_.empty()) last_cal_s_ = calibration_s();
      const auto t0 = Clock::now();
      maybe_span(probe_, "sim.run_until", [&] { cluster_.run_until(next); });
      const double wall = seconds_since(t0);
      const double cal = calibration_s();
      wall_s_.push_back(wall);
      ref_s_.push_back(calibrated(wall, last_cal_s_, cal));
      last_cal_s_ = cal;
      now_ = next;
    }
  }
  /// Ends the timed part of the run: hands the step times to `out` and
  /// freezes the probe's call totals.
  void finish(Outcome& out);

 private:
  std::vector<double> wall_s_;
  std::vector<double> ref_s_;
  double last_cal_s_ = 0.0;
  ipipe::testbed::ParallelCluster& cluster_;
  Probe* probe_;
  Ns step_;
  Ns now_ = 0;
};

/// What one run of a workload produced.  Everything except the host-time
/// fields is virtual-time and a pure function of (workload, seed).
struct Outcome {
  /// Wall seconds of each step of the timed part of the run, raw and
  /// calibrated (host time: the only fields that are not
  /// a pure function of workload and seed).
  std::vector<double> step_wall_s;
  std::vector<double> step_ref_s;
  double sim_s = 0.0;     ///< simulated seconds the timed part covers
  double window_s = 0.0;  ///< measured window (simulated seconds)
  std::vector<Ns> latencies;  ///< client-observed, measured window
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;    ///< failed, abandoned or unanswered
  std::uint64_t completed = 0;  ///< completed inside the window
  /// Ops whose result was wrong (stale read, lost acked write, order
  /// violation, failed read-back).  Any nonzero count fails the run.
  std::uint64_t violations = 0;
  double busy_cores = 0.0;  ///< NIC + host cores busy, summed over servers
  std::uint64_t events = 0;
  std::uint64_t ops = 0;  ///< client ops for per-op ratios
  /// Per-layer counts read from public accessors (virtual-time).
  std::map<std::string, double> layer;
  std::map<std::string, std::string> digests;
  std::vector<std::pair<std::string, bool>> checks;

  void check(const std::string& name, bool ok) { checks.emplace_back(name, ok); }
};

/// Client-observed latency of every op first sent inside [from, to):
/// issue time from the generator's on_issue hook, completion at the
/// first final reply.  Lives on the clients' engine domain.
class LatencyRecorder {
 public:
  LatencyRecorder(ipipe::sim::Simulation& clients, Ns from, Ns to)
      : clients_(clients), from_(from), to_(to) {}

  void issued(const ipipe::netsim::Packet& pkt);
  /// `final` = the reply ends the op; `ok` = it ends it successfully.
  void replied(const ipipe::netsim::Packet& pkt, bool final, bool ok);
  /// Fills latencies, attempted, failed, completed and ops.  An op fails
  /// when it errored or had no final answer when the window closed.
  void finish(Outcome& out) const;

 private:
  ipipe::sim::Simulation& clients_;
  Ns from_;
  Ns to_;
  std::unordered_map<std::uint64_t, Ns> open_;  ///< request id -> issue time
  std::vector<Ns> latencies_;
  std::uint64_t attempted_ = 0;
  std::uint64_t errors_ = 0;
  std::uint64_t late_ = 0;         ///< final answer after the window closed
  std::uint64_t in_window_ = 0;    ///< final answers inside the window
};

/// A workload: build once with `setup`, then `run` the measured
/// simulation and read the outcome.  One object per repetition.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup(Probe* probe) = 0;
  virtual Outcome run(Probe* probe) = 0;
  /// Engine worker threads the workload runs with.
  [[nodiscard]] virtual unsigned threads() const = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_shard_rkv(const Options& opts);
[[nodiscard]] std::unique_ptr<Workload> make_nf_chain(const Options& opts);
[[nodiscard]] std::unique_ptr<Workload> make_rkv_write(const Options& opts);

/// Engine, fabric and per-server counts shared by every workload.
/// Reads `out.ops` for the per-op ratios.
void read_common_layers(ipipe::testbed::ParallelCluster& cluster,
                        Outcome& out);

/// Core-time busy shares over the measured window: `begin` at the
/// window start, `end` at its close (fills busy_cores and the busy
/// shares of both sides).
class BusyWindow {
 public:
  void begin(ipipe::testbed::ParallelCluster& cluster, Ns now);
  void end(ipipe::testbed::ParallelCluster& cluster, Ns now,
           Outcome& out) const;

 private:
  Ns start_ = 0;
  double host_ns_ = 0.0;
  double nic_ns_ = 0.0;
};

/// FNV-1a, the digest the acceptance benches print.
constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;
[[nodiscard]] std::uint64_t fnv1a(std::uint64_t h, const void* data,
                                  std::size_t n);
[[nodiscard]] inline std::uint64_t fnv1a_u64(std::uint64_t h,
                                             std::uint64_t v) {
  return fnv1a(h, &v, sizeof(v));
}
[[nodiscard]] std::string hex64(std::uint64_t v);

}  // namespace perfbench
