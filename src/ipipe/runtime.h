// The iPipe runtime (§3).
//
// One Runtime instance spans a server's SmartNIC and host.  It installs
// firmware on the NicModel (the NIC-side scheduler: hybrid FCFS + DRR
// with actor migration, ALG 1/2) and a runtime on the HostModel (channel
// poller + host-side actor execution).  Actors are registered once and
// the scheduler decides — continuously, from EWMA statistics — where
// each one runs.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/trace.h"
#include "hostsim/host_model.h"
#include "ipipe/actor.h"
#include "ipipe/channel.h"
#include "ipipe/dmo.h"
#include "ipipe/tenant.h"
#include "netsim/packet.h"
#include "nic/nic_model.h"
#include "sim/parallel.h"
#include "sim/simulation.h"

namespace ipipe {

/// Scheduler policy selector (Fig. 16 compares the hybrid against
/// standalone FCFS and standalone DRR).
enum class SchedPolicy : std::uint8_t { kHybrid, kFcfsOnly, kDrrOnly };

struct IPipeConfig {
  // §3.2.3: thresholds default to the average/P99 forwarding latency at
  // MTU line rate (measured by the Fig. 5 experiment).
  Ns mean_thresh = usec(30);
  Ns tail_thresh = usec(80);
  double alpha = 0.25;          ///< hysteresis factor
  Ns watchdog_limit = msec(1);  ///< DoS timeout (§3.4)
  Ns mgmt_period = usec(20);    ///< management-core bookkeeping cadence
  Ns migration_cooldown = msec(10);  ///< min gap between migrations

  SchedPolicy policy = SchedPolicy::kHybrid;
  bool enable_migration = true;

  /// Actor supervision (§3.4 extended): the management core restarts
  /// killed actors (watchdog timeout / isolation trap / fault trap) after
  /// `supervise_restart_delay`, up to `supervise_quarantine_after`
  /// restarts — then the actor is quarantined for good.  Off by default:
  /// a kill is permanent, matching the original runtime behavior.
  bool supervise = false;
  Ns supervise_restart_delay = usec(500);
  std::uint32_t supervise_quarantine_after = 3;
  /// Healthy interval after which an actor's restart-episode counter
  /// decays back to zero, so a long-lived actor that crashed months of
  /// virtual time ago is not one fault away from permanent quarantine.
  /// 0: episodes never decay.  Every supervised bench (chaos_recovery,
  /// nic_failover, parallel_cluster, sharded_rkv, perfbench `shard_rkv`)
  /// runs with 0, and their digests are pinned on it.
  Ns supervise_restart_decay = 0;

  /// NIC device failure handling (chaos `nic-crash` / `nic-reset` /
  /// `pcie-flap`).  When enabled, the host side runs a firmware watchdog:
  /// a heartbeat ping crosses the reliable channel every
  /// `watchdog_heartbeat`; after `watchdog_miss_limit` heartbeats with no
  /// pong the host declares the NIC dead, fences the channel and
  /// force-evacuates every NIC-resident actor to the host.  While the NIC
  /// is unresponsive the probe period backs off exponentially up to
  /// `watchdog_probe_cap`; the first pong after a revival triggers
  /// re-offload by measured-cost priority.
  bool nic_watchdog = false;
  Ns watchdog_heartbeat = usec(200);
  std::uint32_t watchdog_miss_limit = 4;
  Ns watchdog_probe_cap = msec(5);
  /// Emergency evacuation replays DMO payloads from the host mirror
  /// (crash-consistent: no PCIe transfer possible), at a fixed cost per
  /// KB of payload before evacuated actors start serving; without the
  /// mirror the NIC-resident bytes are lost and objects come back
  /// zero-filled.
  bool dmo_host_mirror = true;

  std::size_t channel_bytes = 1 << 20;

  /// Fixed framework overheads (Fig. 17): per-message channel handling
  /// and per-DMO-op translation cost, charged wherever they occur.
  Ns channel_handling_ns = 90;
  Ns dmo_translate_ns = 7;
  Ns sched_bookkeeping_ns = 30;
};

class Runtime;

/// Reserved actor id for the NIC firmware watchdog endpoint: heartbeat
/// pings address it so they never collide with application actors.
constexpr netsim::ActorId kWatchdogActor = 0xFFFFFFF0u;
/// Watchdog message types (outside the application range).
constexpr std::uint16_t kWatchdogPingMsg = 0xFFF0;
constexpr std::uint16_t kWatchdogPongMsg = 0xFFF1;

namespace detail {

class NicFw final : public nic::NicFirmware {
 public:
  explicit NicFw(Runtime& rt) : rt_(rt) {}
  bool run_once(nic::NicExecContext& ctx, unsigned core) override;

 private:
  Runtime& rt_;
};

class HostRt final : public hostsim::HostRuntime {
 public:
  explicit HostRt(Runtime& rt) : rt_(rt) {}
  bool run_once(hostsim::HostExecContext& ctx, unsigned core) override;

 private:
  Runtime& rt_;
};

}  // namespace detail

class Runtime {
 public:
  Runtime(sim::Simulation& sim, nic::NicModel& nic, hostsim::HostModel& host,
          IPipeConfig cfg = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // ---- actor management (Table 4) ----------------------------------------
  /// actor_create + actor_register + actor_init.  Ownership transfers to
  /// the runtime.  Returns the assigned actor id.  Actors registered
  /// under a `group` are placed as a unit: the autonomous migration
  /// policies (push/pull, ALG2 mailbox pressure) skip them, and
  /// migrate_group() moves every member through the migration machinery.
  ActorId register_actor(std::unique_ptr<Actor> actor,
                         ActorLoc initial = ActorLoc::kNic,
                         GroupId group = kNoGroup,
                         TenantId tenant = kNoTenant);
  /// actor_delete.
  void delete_actor(ActorId id);
  /// actor_migrate: manual migration trigger (the scheduler also calls
  /// this autonomously).
  bool start_migration(ActorId id, ActorLoc to);

  // ---- actor groups (pipeline co-placement) --------------------------------
  /// A fresh group handle for register_actor.
  [[nodiscard]] GroupId create_actor_group() noexcept {
    return next_group_id_++;
  }
  /// Members of `group`, in registration order.
  [[nodiscard]] std::vector<ActorId> group_members(GroupId group) const;
  /// Queue every member of `group` for migration to `to`.  Members move
  /// one at a time through the single migration slot (the management
  /// core drains the queue); returns the number of members queued.
  std::size_t migrate_group(GroupId group, ActorLoc to);

  [[nodiscard]] Actor* find_actor(ActorId id);
  [[nodiscard]] ActorControl* control(ActorId id);
  [[nodiscard]] const ActorControl* control(ActorId id) const;

  /// Supervised restart of a killed (non-quarantined) actor: re-register
  /// its DMO region, reset volatile actor state, and re-run init().
  /// Returns false when the actor is unknown, alive, or quarantined.
  bool restart_actor(ActorId id);

  // ---- failure domains (chaos harness) ------------------------------------
  /// Power-fail this node: every actor dies in place (volatile runtime
  /// state — mailboxes, migration buffers, queued work, PCIe rings — is
  /// wiped), but the Actor objects survive so restore can re-init them.
  /// The caller is responsible for detaching the node from the fabric.
  void crash_node_state();
  /// Reboot after crash_node_state(): re-register + reset + init every
  /// actor (registration order), clear quarantines, wake the cores.
  void restore_node_state();
  [[nodiscard]] bool node_down() const noexcept { return node_down_; }

  // ---- NIC device failures (chaos nic-crash / nic-reset / pcie-flap) -------
  /// NIC firmware dies (volatile NIC state — TM queues, DRR run queue,
  /// NIC-resident mailboxes, in-flight migration — is wiped) but the host
  /// side keeps running.  Detection is the watchdog's business: nothing
  /// is evacuated here.
  void nic_crash();
  /// Firmware reboot after nic_crash(): NIC cores resume, the DRR run
  /// queue is rebuilt for surviving NIC-resident actors.  Re-offload of
  /// evacuated actors waits for the watchdog to see a pong.
  void nic_restore();
  /// PCIe link flap (chaos pcie-flap hook): while down, channel pushes
  /// park in the pending queues and retransmit with jittered backoff.
  void set_pcie_link(bool up);
  /// Accelerator bank failure (chaos accel-fail hook): the engine keeps
  /// computing correct results via a software path on the NIC cores, it
  /// just stops being cheap.
  void set_accel_failed(std::uint32_t bank, bool failed);
  [[nodiscard]] bool nic_down() const noexcept { return nic_down_; }
  [[nodiscard]] bool evacuated() const noexcept { return evacuated_; }
  [[nodiscard]] std::uint64_t nic_crashes() const noexcept {
    return nic_crashes_;
  }
  [[nodiscard]] std::uint64_t watchdog_trips() const noexcept {
    return watchdog_trips_;
  }
  [[nodiscard]] std::uint64_t watchdog_pings() const noexcept {
    return watchdog_pings_;
  }
  [[nodiscard]] std::uint64_t evacuations() const noexcept {
    return evacuations_;
  }
  [[nodiscard]] std::uint64_t evacuated_actors() const noexcept {
    return evacuated_actors_;
  }
  [[nodiscard]] std::uint64_t evac_replayed_bytes() const noexcept {
    return evac_replayed_bytes_;
  }
  [[nodiscard]] std::uint64_t evac_lost_bytes() const noexcept {
    return evac_lost_bytes_;
  }
  [[nodiscard]] std::uint64_t reoffloads() const noexcept { return reoffloads_; }
  [[nodiscard]] std::uint64_t accel_fallbacks() const noexcept {
    return accel_fallbacks_;
  }
  [[nodiscard]] std::uint64_t restart_decays() const noexcept {
    return restart_decays_;
  }
  [[nodiscard]] std::uint64_t degraded_drops() const noexcept {
    return degraded_drops_;
  }
  /// Env-layer hook: count one software fallback for a failed engine.
  void note_accel_fallback() noexcept { ++accel_fallbacks_; }

  /// Deliver `type` to `id` after `delay` (actor timer service backing
  /// ActorEnv::schedule_self).  Dropped if the actor is dead at expiry.
  void schedule_actor_msg(ActorId id, Ns delay, std::uint16_t type,
                          std::vector<std::uint8_t> payload);

  /// Burst corruption on the PCIe channel (chaos pcie-corrupt hook).
  void set_channel_fault(double rate, std::uint64_t seed = 0x5EEDULL) {
    channel_.set_fault_injection(rate, seed);
  }

  // ---- multi-tenancy (SR-IOV virtual functions) ----------------------------
  /// Create a tenant (a virtual function).  Allocates the tenant's TM
  /// traffic class (its RX queue pair) and installs the ingress
  /// classifier on first use; returns the tenant handle.
  TenantId create_tenant(TenantConfig config);
  /// Attach a registered actor to a tenant: its DMO allocations charge
  /// the tenant's quota group and its DRR quantum scales by the tenant's
  /// weight.  register_actor's `tenant` argument does this inline.
  bool assign_actor_to_tenant(ActorId id, TenantId tenant);
  [[nodiscard]] TenantState* tenant(TenantId id);
  [[nodiscard]] const TenantState* tenant(TenantId id) const;
  /// Tenants created so far (handles are 1..tenant_count()).
  [[nodiscard]] std::size_t tenant_count() const noexcept {
    return tenants_.empty() ? 0 : tenants_.size() - 1;
  }
  /// PF<->VF control mailbox: post a request (false when the tenant's
  /// mailbox is over cap — spam is contained, not queued) / poll the
  /// next reply served by the management core.
  bool vf_mailbox_post(TenantId id, VfMboxMsg msg);
  std::optional<VfMboxReply> vf_mailbox_poll(TenantId id);
  /// Kill every member actor (isolation trap, no supervised restart) and
  /// drop the tenant's ingress at line rate from now on.
  void quarantine_tenant(TenantId id);
  [[nodiscard]] std::uint64_t tenant_throttles() const noexcept {
    return tenant_throttles_;
  }
  [[nodiscard]] std::uint64_t tenants_quarantined() const noexcept {
    return tenants_quarantined_;
  }
  /// DRR core spawns denied because one tenant already held its fair
  /// share of the NIC cores.
  [[nodiscard]] std::uint64_t fair_share_denials() const noexcept {
    return fair_share_denials_;
  }

  // ---- component access ----------------------------------------------------
  [[nodiscard]] ObjectTable& objects() noexcept { return objects_; }
  [[nodiscard]] MessageChannel& channel() noexcept { return channel_; }
  [[nodiscard]] nic::NicModel& nic() noexcept { return nic_; }
  [[nodiscard]] hostsim::HostModel& host() noexcept { return host_; }
  [[nodiscard]] sim::Simulation& sim() noexcept { return sim_; }
  [[nodiscard]] const IPipeConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] Rng& rng() noexcept { return rng_; }
  /// Packet arena for this runtime's frames (reply/send/channel rebuild).
  [[nodiscard]] netsim::PacketPool& pool() noexcept { return pool_; }

  // ---- scheduler observability ----------------------------------------------
  [[nodiscard]] const EwmaMeanStd& fcfs_stats() const noexcept {
    return fcfs_stats_;
  }
  [[nodiscard]] unsigned fcfs_cores() const noexcept;
  /// Recent FCFS / DRR core-group utilization (auto-scaling inputs).
  [[nodiscard]] double fcfs_util() const noexcept { return fcfs_util_; }
  [[nodiscard]] double drr_util() const noexcept { return drr_util_; }
  [[nodiscard]] std::uint64_t fcfs_samples() const noexcept {
    return fcfs_samples_;
  }
  [[nodiscard]] unsigned drr_cores() const noexcept;
  [[nodiscard]] std::uint64_t downgrades() const noexcept { return downgrades_; }
  [[nodiscard]] std::uint64_t upgrades() const noexcept { return upgrades_; }
  [[nodiscard]] std::uint64_t push_migrations() const noexcept {
    return push_migrations_;
  }
  [[nodiscard]] std::uint64_t pull_migrations() const noexcept {
    return pull_migrations_;
  }
  [[nodiscard]] std::uint64_t watchdog_kills() const noexcept {
    return watchdog_kills_;
  }
  [[nodiscard]] std::uint64_t isolation_kills() const noexcept {
    return isolation_kills_;
  }
  [[nodiscard]] std::uint64_t requests_on_nic() const noexcept {
    return requests_on_nic_;
  }
  [[nodiscard]] std::uint64_t requests_on_host() const noexcept {
    return requests_on_host_;
  }
  /// Per-request end-to-end NIC response time histogram (queueing+exec).
  [[nodiscard]] const LatencyHistogram& response_hist() const noexcept {
    return response_hist_;
  }
  /// Reliable-channel counters, per direction (drops avoided, retransmits,
  /// corrupt frames, ring/pending high watermarks, backpressure time).
  [[nodiscard]] const ChannelDirStats& chan_to_host_stats() const noexcept {
    return channel_.to_host_stats();
  }
  [[nodiscard]] const ChannelDirStats& chan_to_nic_stats() const noexcept {
    return channel_.to_nic_stats();
  }
  /// migrate_all calls that left objects behind (target region exhausted).
  [[nodiscard]] std::uint64_t partial_migrations() const noexcept {
    return partial_migrations_;
  }
  [[nodiscard]] std::uint64_t actor_restarts() const noexcept {
    return actor_restarts_;
  }
  [[nodiscard]] std::uint64_t actors_quarantined() const noexcept {
    return quarantines_;
  }
  [[nodiscard]] std::uint64_t node_crashes() const noexcept {
    return node_crashes_;
  }

  // ---- tracing & metrics ----------------------------------------------------
  [[nodiscard]] trace::Tracer& tracer() noexcept { return tracer_; }
  [[nodiscard]] const trace::Tracer& tracer() const noexcept { return tracer_; }
  [[nodiscard]] trace::MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const trace::MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }
  /// Turn tracing on, with a metrics snapshot every `metrics_period` of
  /// virtual time (0 disables snapshots).  Off by default: every hook is a
  /// single predicted-false branch, and timestamps are virtual time, so
  /// enabling tracing never shifts measured latencies either.
  void enable_tracing(std::size_t capacity = trace::Tracer::kDefaultCapacity,
                      Ns metrics_period = usec(500)) {
    tracer_.enable(capacity);
    metrics_.set_period(metrics_period);
    mgmt_kick();  // snapshots are management-core deadlines
  }

  /// Register this runtime's parallel-engine domain (ParallelCluster
  /// wiring).  Metrics snapshots then include the domain's engine
  /// counters — events, window stalls, handoff traffic, lookahead — so
  /// parallel-efficiency regressions show up in exported traces.
  void set_engine(sim::ParallelSimulation* psim, sim::DomainId domain) {
    engine_ = psim;
    engine_domain_ = domain;
  }

  // ---- internals shared with env/adapters (not for applications) -----------
  bool nic_run_once(nic::NicExecContext& ctx, unsigned core);
  bool host_run_once(hostsim::HostExecContext& ctx, unsigned core);
  void kill_actor(ActorId id, bool isolation_trap);
  /// Same-node actor-to-actor message delivery; `from` is the side the
  /// sender ran on (crossing PCIe goes through the message channel).
  void deliver_local(ActorId dst, netsim::PacketPtr msg, MemSide from);
  /// The single reliable cross-PCIe send path: every channel message goes
  /// through here and is either sent or parked for retransmit — never
  /// dropped.  Returns the core-side cost to charge.
  Ns send_or_queue(MemSide from, ChannelMsg msg);
  /// Auto-scaling primitives (exposed for regression tests): retiring
  /// refuses to drop the last DRR core while DRR mailboxes hold work.
  void spawn_drr_core();
  void retire_drr_core();
  /// True when any DRR-group actor still has a non-empty mailbox
  /// (throttled/quarantined tenants' mailboxes don't count: their work
  /// is parked, and counting it would busy-spin the DRR cores through
  /// the whole penalty window).  When it returns false and `next_wake`
  /// is given, *next_wake is lowered to the earliest penalty expiry of a
  /// throttled tenant with a backlog (it is left alone if none).
  [[nodiscard]] bool drr_work_pending(Ns* next_wake = nullptr) const;
  /// Tenant accounting hook for env-layer DMO denials (kQuotaExceeded).
  void note_dmo_denied(ActorId id);

 private:
  enum class CoreRole : std::uint8_t { kFcfs, kDrr };

  struct MigrationOp {
    ActorId id = 0;
    ActorLoc to = ActorLoc::kHost;
    int phase = 1;
    Ns phase_start = 0;
    std::uint64_t bytes = 0;
  };

  // NIC-side scheduling (ALG 1 / ALG 2).
  bool fcfs_run(nic::NicExecContext& ctx, unsigned core);
  bool drr_run(nic::NicExecContext& ctx, unsigned core);
  /// Dequeue one frame from the traffic manager, charge the dequeue and
  /// (for wire/host frames) forwarding cost, and dispatch it.  False when
  /// the TM is empty.
  bool dispatch_from_tm(nic::NicExecContext& ctx);
  bool management_run(nic::NicExecContext& ctx);
  // ---- management-core wakeups ----------------------------------------------
  // Core 0's heartbeat ticks on the grid mgmt_wake_at_ + k * mgmt_period.
  // While core 0 is parked those ticks are virtual: a real wake is armed
  // only at the first tick at or after the earliest management deadline,
  // and the skipped ticks are replayed (mgmt_catch_up) when core 0 next
  // runs or when something it reacts to changes (mgmt_kick).
  /// Core 0 parks: keep the heartbeat grid going (`heartbeat` false: only
  /// an already outstanding tick, as after a failed migration step) and
  /// arm the wake for the earliest deadline.
  void mgmt_park(bool heartbeat);
  /// Replay the idle management passes of the grid ticks before `now`:
  /// their only effects are the last-run stamp and the autoscale windows.
  void mgmt_catch_up(Ns now);
  /// State the management core reacts to changed (NIC work, a kill, a
  /// tenant violation, ...): the next heartbeat tick must run.
  void mgmt_kick();
  /// Earliest virtual time a management pass would act on the current
  /// state, or kNever.
  [[nodiscard]] Ns mgmt_next_deadline() const;
  /// Arm the real wake of core 0 at grid tick `at` (keeps an earlier one).
  void arm_mgmt(Ns at);
  /// The NIC actor whose load makes it the push-migration victim, and
  /// the lightest host actor a pull migration would bring back.
  [[nodiscard]] const ActorControl* push_candidate() const;
  [[nodiscard]] const ActorControl* pull_candidate() const;
  /// Supervision pass: restart killed actors whose delay elapsed,
  /// quarantine repeat offenders, decay episode counters of long-healthy
  /// actors.  Runs on the management core.
  void supervise_scan();
  // ---- NIC failure internals ----------------------------------------------
  /// Host-side watchdog heartbeat: ping the firmware, check pong
  /// freshness, trip on silence, back off while probing a dead NIC.
  void watchdog_tick();
  /// A heartbeat ping or pong between the host and the NIC watchdog
  /// endpoints.
  [[nodiscard]] ChannelMsg watchdog_msg(std::uint16_t type) const;
  /// Declare the NIC dead: fence the channel and evacuate.
  void watchdog_trip();
  /// Force-migrate every NIC-resident actor to the host (crash-consistent
  /// DMO replay from the host mirror), re-deliver the fenced channel
  /// messages, re-apply tenant budgets host-side.
  void emergency_evacuate(std::vector<ChannelMsg> undelivered);
  /// End of the replay window: evacuated actors leave the buffering state
  /// and start serving from the host.
  void finish_evacuation();
  /// First pong after a revival: queue evacuated actors for migration
  /// back to the NIC, cheapest measured cost first.
  void begin_reoffload();
  /// A device fault interrupted the 4-phase migration: complete it when
  /// the DMO payload already moved (phase >= 3), roll it back otherwise,
  /// and re-deliver everything buffered during the window.  Either way
  /// the actor ends kStable with a definite location.
  void resolve_migration_on_fault();
  /// Shared restart mechanics (restart_actor / restore_node_state).
  void revive_actor(ActorControl& ac);
  bool advance_migration(nic::NicExecContext& ctx);
  void execute_on_nic(nic::NicExecContext& ctx, ActorControl& ac,
                      netsim::PacketPtr pkt);
  void execute_on_host(hostsim::HostExecContext& ctx, ActorControl& ac,
                       netsim::PacketPtr pkt);
  /// Host-side delivery of a request for a live actor: buffer it during a
  /// migration, bounce it to the NIC if the actor lives there, else
  /// execute it.
  void serve_on_host(hostsim::HostExecContext& ctx, ActorControl& ac,
                     netsim::PacketPtr pkt);
  /// `consumed_before` is ctx.consumed() when this packet's processing
  /// began — forwarding-path stats record the per-packet delta, not the
  /// cumulative slice time.
  void dispatch_nic(nic::NicExecContext& ctx, netsim::PacketPtr pkt,
                    Ns consumed_before);
  void maybe_downgrade();
  void maybe_upgrade();
  void check_autoscale();
  /// Close the autoscale window at `at` (at most every 8 mgmt periods):
  /// per-group utilization since the last window.  False when not due.
  bool close_autoscale_window(Ns at);
  // ---- tenancy internals ---------------------------------------------------
  /// TM ingress classifier: resolve the destination actor's tenant,
  /// stamp the packet, apply filter/policer/throttle, return the traffic
  /// class (negative = line-rate drop).
  int classify_ingress(netsim::Packet& pkt);
  /// Per-tenant bookkeeping on the management core: serve VF mailboxes,
  /// fold TM drops into the ledger, run the throttle/quarantine ladder.
  void tenant_scan(nic::NicExecContext& ctx);
  [[nodiscard]] TenantState* tenant_of(ActorId id);
  /// Fair-share gate for DRR core spawns: when one tenant dominates the
  /// DRR backlog, it may not grow the group past its weight share.
  bool fair_share_allows_spawn(unsigned n_drr);
  /// Record one metrics snapshot (management core, when due).
  void snapshot_metrics();
  void wake_drr_cores();
  [[nodiscard]] double drr_quantum_ns(const ActorControl& ac) const;
  void forward_to_host(nic::NicExecContext& ctx, netsim::PacketPtr pkt);

  sim::Simulation& sim_;
  nic::NicModel& nic_;
  hostsim::HostModel& host_;
  IPipeConfig cfg_;
  Rng rng_;
  netsim::PacketPool& pool_;

  detail::NicFw nic_fw_;
  detail::HostRt host_rt_;

  trace::Tracer tracer_;
  trace::MetricsRegistry metrics_;
  sim::ParallelSimulation* engine_ = nullptr;
  sim::DomainId engine_domain_ = sim::kNoDomain;

  ObjectTable objects_;
  MessageChannel channel_;

  std::unordered_map<ActorId, ActorControl> actors_;
  std::vector<std::unique_ptr<Actor>> owned_actors_;
  ActorId next_actor_id_ = 1;
  GroupId next_group_id_ = 1;
  /// Explicit group migrations awaiting the single migration slot.
  std::deque<std::pair<ActorId, ActorLoc>> pending_group_migs_;

  std::vector<CoreRole> roles_;
  std::vector<ActorId> drr_queue_;  ///< runnable queue shared by DRR cores
  std::size_t drr_scan_ = 0;

  EwmaMeanStd fcfs_stats_;  ///< FCFS group response-time stats (T_mean/T_tail)
  std::uint64_t fcfs_samples_ = 0;
  Ns last_policy_change_ = 0;   ///< downgrade/upgrade hysteresis cooldown
  Ns tail_violation_since_ = 0; ///< first time tail_thresh was exceeded
  Ns last_migration_end_ = 0;   ///< migration rate limiting
  double fcfs_util_ = 0.0;      ///< recent FCFS group utilization
  double drr_util_ = 0.0;
  LatencyHistogram response_hist_;
  static constexpr Ns kNever = ~Ns{0};
  Ns last_mgmt_ = 0;
  Ns mgmt_wake_at_ = 0;       ///< next heartbeat grid tick
  Ns mgmt_armed_ = kNever;    ///< grid tick of the armed core-0 wake
  bool mgmt_parked_ = false;  ///< core 0 parked with its heartbeat running
  bool mgmt_dirty_ = false;   ///< kicked since the last management pass
  Ns last_autoscale_ = 0;
  std::vector<Ns> busy_snapshot_;
  Ns busy_snapshot_at_ = 0;

  std::optional<MigrationOp> migration_;
  std::deque<netsim::PacketPtr> host_local_queue_;  ///< host-side work queue

  std::uint64_t downgrades_ = 0;
  std::uint64_t upgrades_ = 0;
  std::uint64_t push_migrations_ = 0;
  std::uint64_t pull_migrations_ = 0;
  std::uint64_t watchdog_kills_ = 0;
  std::uint64_t isolation_kills_ = 0;
  std::uint64_t requests_on_nic_ = 0;
  std::uint64_t requests_on_host_ = 0;
  std::uint64_t partial_migrations_ = 0;
  std::uint64_t actor_restarts_ = 0;
  std::uint64_t quarantines_ = 0;
  std::uint64_t node_crashes_ = 0;
  bool node_down_ = false;

  // ---- NIC device-failure state ---------------------------------------------
  bool nic_down_ = false;    ///< firmware dead (nic-crash window)
  bool evacuated_ = false;   ///< actors force-migrated to host, not yet back
  Ns last_pong_ = 0;         ///< watchdog freshness base
  Ns watchdog_period_ = 0;   ///< current probe period (backs off while dead)
  /// Probes sent since the last pong — the trip condition counts misses
  /// in probes (not wall time), so a backed-off probe cadence cannot
  /// re-trip on a healthy, answering NIC.
  std::uint32_t pings_unanswered_ = 0;
  std::uint64_t nic_crashes_ = 0;
  std::uint64_t watchdog_pings_ = 0;
  std::uint64_t watchdog_trips_ = 0;
  std::uint64_t evacuations_ = 0;
  std::uint64_t evacuated_actors_ = 0;
  std::uint64_t evac_replayed_bytes_ = 0;
  std::uint64_t evac_lost_bytes_ = 0;
  std::uint64_t reoffloads_ = 0;
  std::uint64_t accel_fallbacks_ = 0;
  std::uint64_t restart_decays_ = 0;
  std::uint64_t degraded_drops_ = 0;  ///< host-side VF policer drops

  /// Tenant table, indexed by TenantId (slot 0 = the PF, always null).
  std::vector<std::unique_ptr<TenantState>> tenants_;
  bool classifier_installed_ = false;
  std::uint64_t tenant_throttles_ = 0;
  std::uint64_t tenants_quarantined_ = 0;
  std::uint64_t fair_share_denials_ = 0;
};

}  // namespace ipipe
