// Runtime-wide observability: a low-overhead event tracer plus a metrics
// registry, with Chrome-trace/Perfetto JSON and plain-text exporters.
//
// The tracer records *why* the runtime did what it did — FCFS<->DRR
// promotions/demotions with the EWMA mu/sigma values that triggered them,
// core scale-up/down, the four migration phases, per-core execution
// spans, channel send/retransmit/backpressure events and DMO traps — into
// a fixed-capacity ring of POD events (oldest dropped first, drops
// counted).  Timestamps are *virtual* (simulation) time, so enabling
// tracing never shifts measured latencies: hooks cost host CPU only, and
// every hook is guarded by an `enabled()` check that compiles to a single
// branch when tracing is off.
//
// The metrics registry holds periodic snapshots (per-actor service-time
// EWMA, mailbox occupancy, DMO working set, response-time histogram
// percentiles, channel counters) taken by the runtime's management core
// on a configurable virtual-time period.
//
// Exporters:
//  * ChromeTraceWriter / export_chrome_json — the Chrome trace event
//    format (loads in Perfetto UI / chrome://tracing).  Spans map to "X"
//    events, instants to "i", metrics snapshots to counter ("C") tracks.
//  * export_text — a plain table dump for terminals and diffing.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/units.h"

namespace ipipe::trace {

/// Event category (Chrome trace "cat", filterable in Perfetto).
enum class Cat : std::uint8_t {
  kSched,    ///< scheduler decisions (promote/demote/scale/kill)
  kExec,     ///< per-core request execution spans
  kChannel,  ///< host<->NIC channel reliability events
  kDmo,      ///< distributed-memory-object traps and migrations
  kMig,      ///< actor migration phases 1-4
  kChaos,    ///< injected faults / heals and supervision actions
  kVerify,   ///< history-checker verdicts and fault-plan shrink progress
};

[[nodiscard]] const char* cat_name(Cat cat) noexcept;

/// Track-id convention shared by all runtime hooks: NIC cores get their
/// own track, host cores an offset range, and the non-core subsystems
/// fixed synthetic tracks.
namespace tid {
constexpr std::uint32_t kNicCore0 = 0;     ///< NIC core i -> i
constexpr std::uint32_t kHostCore0 = 100;  ///< host core i -> 100 + i
constexpr std::uint32_t kChanToHost = 200;
constexpr std::uint32_t kChanToNic = 201;
constexpr std::uint32_t kDmo = 210;
constexpr std::uint32_t kChaos = 220;
constexpr std::uint32_t kVerify = 230;
}  // namespace tid

/// One optional named numeric argument attached to an event.
struct Arg {
  const char* name = nullptr;  ///< static-lifetime string, nullptr = unused
  double value = 0.0;
};

/// A single trace record.  `name` (and Arg names) must be string literals
/// or otherwise outlive the tracer — events are never copied deep.
struct Event {
  Ns ts = 0;
  Ns dur = 0;  ///< 0 => instant event, else a [ts, ts+dur] span
  Cat cat = Cat::kSched;
  std::uint32_t tid = 0;
  std::uint64_t actor = 0;  ///< 0 = no actor associated
  const char* name = "";
  Arg a0{};
  Arg a1{};
};

/// Ring-buffered event recorder.  All record calls are no-ops (one branch)
/// until `enable()`; when the ring fills the oldest events are evicted
/// and counted in `dropped()`.
class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  void enable(std::size_t capacity = kDefaultCapacity);
  void disable() noexcept { enabled_ = false; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Clock used for events recorded without an explicit timestamp
  /// (virtual/simulation time).  Unset => such events stamp 0.
  void set_clock(Clock clock) noexcept { clock_ = clock; }

  void instant(Cat cat, const char* name, std::uint32_t tid,
               std::uint64_t actor = 0, Arg a0 = {}, Arg a1 = {});
  void span(Cat cat, const char* name, std::uint32_t tid, Ns start, Ns end,
            std::uint64_t actor = 0, Arg a0 = {}, Arg a1 = {});

  [[nodiscard]] std::size_t size() const noexcept;
  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }
  /// Lifetime events recorded (including ones since evicted).
  [[nodiscard]] std::uint64_t total_recorded() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept;
  void clear() noexcept;

  /// Visit retained events oldest-first.
  void for_each(const std::function<void(const Event&)>& fn) const;

 private:
  void push(Event e);
  [[nodiscard]] Ns now() const noexcept { return clock_.now(); }

  bool enabled_ = false;
  std::vector<Event> ring_;
  std::uint64_t total_ = 0;
  Clock clock_;
};

// ---------------------------------------------------------------- metrics --

/// Per-actor state sampled at snapshot time (schema documented in
/// EXPERIMENTS.md "Tracing & metrics").
struct ActorSample {
  std::uint64_t actor = 0;
  std::string name;
  bool on_nic = true;
  bool is_drr = false;
  double lat_mean_ns = 0.0;  ///< EWMA response-time mean (mu_i)
  double lat_std_ns = 0.0;   ///< EWMA response-time stddev (sigma_i)
  double lat_tail_ns = 0.0;  ///< mu + 3 sigma (the scheduler's P99 proxy)
  double exec_mean_ns = 0.0;
  std::uint64_t mailbox = 0;      ///< DRR mailbox occupancy
  std::uint64_t working_set = 0;  ///< live DMO bytes (both sides)
  std::uint64_t requests = 0;
  std::uint64_t migrations = 0;
};

/// One periodic snapshot of runtime-wide gauges plus all actors.
struct Snapshot {
  Ns ts = 0;
  unsigned fcfs_cores = 0;
  unsigned drr_cores = 0;
  double fcfs_util = 0.0;
  double drr_util = 0.0;
  std::uint64_t upgrades = 0;
  std::uint64_t downgrades = 0;
  std::uint64_t push_migrations = 0;
  std::uint64_t pull_migrations = 0;
  std::uint64_t chan_sent = 0;
  std::uint64_t chan_queued = 0;
  std::uint64_t chan_retransmits = 0;
  Ns chan_backpressure_ns = 0;
  double resp_mean_ns = 0.0;
  Ns resp_p50_ns = 0;
  Ns resp_p99_ns = 0;
  std::uint64_t resp_count = 0;
  /// Parallel-engine counters for the node's domain (all zero for a
  /// runtime built outside a cluster, with no engine registered).
  std::uint64_t eng_events = 0;           ///< events executed in the domain
  std::uint64_t eng_windows = 0;          ///< conservative rounds so far
  std::uint64_t eng_stalled_windows = 0;  ///< rounds with an empty window
  std::uint64_t eng_handoffs_in = 0;      ///< cross-domain events received
  std::uint64_t eng_handoffs_out = 0;     ///< cross-domain events posted
  std::uint64_t eng_ring_peak = 0;        ///< most handoffs queued for one drain
  Ns eng_lookahead_ns = 0;                ///< min incoming-edge lookahead
  std::vector<ActorSample> actors;
};

/// Append-only store of periodic snapshots with a virtual-time cadence.
class MetricsRegistry {
 public:
  void set_period(Ns period) noexcept { period_ = period; }
  [[nodiscard]] Ns period() const noexcept { return period_; }
  /// True when a new snapshot is owed at virtual time `now`.
  [[nodiscard]] bool due(Ns now) const noexcept {
    return period_ > 0 &&
           (snaps_.empty() || now - snaps_.back().ts >= period_);
  }
  /// Earliest virtual time a snapshot is owed, at or after `now`
  /// (~Ns{0} when snapshots are off).
  [[nodiscard]] Ns next_due(Ns now) const noexcept {
    if (period_ == 0) return ~Ns{0};
    return snaps_.empty() ? now : std::max(now, snaps_.back().ts + period_);
  }
  void record(Snapshot snap) { snaps_.push_back(std::move(snap)); }
  [[nodiscard]] const std::vector<Snapshot>& snapshots() const noexcept {
    return snaps_;
  }
  void clear() noexcept { snaps_.clear(); }

 private:
  Ns period_ = 0;
  std::vector<Snapshot> snaps_;
};

// ----------------------------------------------------------------- export --

/// Streams one Chrome-trace JSON document covering any number of
/// processes (pid = node id in cluster dumps).  Usage:
///   ChromeTraceWriter w(ofs);
///   w.add_process(0, "server0", tracer, &metrics);
///   w.finish();
class ChromeTraceWriter {
 public:
  explicit ChromeTraceWriter(std::ostream& os);
  ~ChromeTraceWriter();

  void add_process(int pid, const std::string& name, const Tracer& tracer,
                   const MetricsRegistry* metrics = nullptr);
  void finish();

 private:
  void emit(const std::string& record);

  std::ostream& os_;
  bool first_ = true;
  bool finished_ = false;
};

/// Single-process convenience wrappers.
void export_chrome_json(std::ostream& os, const Tracer& tracer,
                        const MetricsRegistry* metrics = nullptr, int pid = 0);
/// Plain-text table dump: events in time order, then one block per
/// metrics snapshot.
void export_text(std::ostream& os, const Tracer& tracer,
                 const MetricsRegistry* metrics = nullptr);

}  // namespace ipipe::trace
