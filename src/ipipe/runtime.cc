#include "ipipe/runtime.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "common/logging.h"
#include "ipipe/env.h"

namespace ipipe {
namespace detail {

bool NicFw::run_once(nic::NicExecContext& ctx, unsigned core) {
  return rt_.nic_run_once(ctx, core);
}

bool HostRt::run_once(hostsim::HostExecContext& ctx, unsigned core) {
  return rt_.host_run_once(ctx, core);
}

}  // namespace detail

namespace {

/// Zero-cost environment used for actor init handlers at registration.
class InitEnv final : public EnvBase {
 public:
  InitEnv(Runtime& rt, ActorControl& ac) : EnvBase(rt, ac) {}

  [[nodiscard]] Ns now() const override { return rt_.sim().now(); }
  [[nodiscard]] bool on_nic() const override {
    return ac_.loc == ActorLoc::kNic;
  }
  void charge(Ns) override {}
  void compute(double) override {}
  void mem(std::uint64_t, std::uint64_t) override {}
  void stream(std::uint64_t, std::uint64_t) override {}
  void accel(nic::AccelKind, std::uint32_t, std::uint32_t) override {}
  void send(NodeId, ActorId, std::uint16_t, std::vector<std::uint8_t>,
            std::uint32_t) override {
    assert(false && "init handlers cannot send network messages");
  }
  void reply(const netsim::Packet&, std::uint16_t, std::vector<std::uint8_t>,
             std::uint32_t) override {
    assert(false && "init handlers cannot reply");
  }
  void local_send(ActorId dst, std::uint16_t type,
                  std::vector<std::uint8_t> payload) override {
    auto pkt = make_packet(node(), dst, type, std::move(payload), 0);
    rt_.deliver_local(dst, std::move(pkt), side());
  }
};

}  // namespace

namespace {

/// DRR mailbox length migration trigger (ALG 2's Q_thresh).
constexpr std::size_t kQThresh = 64;
/// Effective NIC->host object-migration bandwidth (Fig. 18 phase 3).
constexpr double kMigGbps = 7.2;
/// Per-object table/allocator work of a migration.
constexpr Ns kMigPerObjectNs = 2500;
/// Emergency evacuation replays DMO payloads from the host mirror at
/// this cost per KB of payload before evacuated actors start serving.
constexpr Ns kEvacReplayNsPerKb = 300;
/// Extra stall charged to a sender whose direction is backpressured
/// (pending queue over cap) — models the producer slowing down.
constexpr Ns kChannelBackpressureStallNs = 500;

/// The first tick of the grid `origin + k * period` at or after `t`.
[[nodiscard]] Ns grid_tick_at_or_after(Ns origin, Ns period, Ns t) noexcept {
  return t <= origin ? origin
                     : origin + (t - origin + period - 1) / period * period;
}

/// True while requests for this actor must be buffered (migration phases
/// 1-3).  In kClean (phase 4) the new home is live and dispatch resumes.
[[nodiscard]] bool buffering(const ActorControl& ac) noexcept {
  return ac.mig == MigState::kPrepare || ac.mig == MigState::kReady ||
         ac.mig == MigState::kGone;
}

}  // namespace

Runtime::Runtime(sim::Simulation& sim, nic::NicModel& nic,
                 hostsim::HostModel& host, IPipeConfig cfg)
    : sim_(sim),
      nic_(nic),
      host_(host),
      cfg_(cfg),
      rng_(0x1B1BEULL),
      pool_(netsim::PacketPool::local()),
      nic_fw_(*this),
      host_rt_(*this),
      channel_(sim, nic.dma(), cfg.channel_bytes),
      roles_(nic.config().cores, CoreRole::kFcfs),
      busy_snapshot_(nic.config().cores, 0),
      busy_snapshot_at_(sim.now()) {
  // Seed the autoscale window from the current core-busy counters: a
  // window anchored at t=0 on an already-running NIC reads near-zero
  // utilization and retires DRR cores spuriously.
  for (unsigned i = 0; i < nic.config().cores; ++i) {
    busy_snapshot_[i] = nic.core_busy_ns(i);
  }
  tracer_.set_clock(sim.clock());
  channel_.set_tracer(&tracer_);
  objects_.set_tracer(&tracer_);
  // Each visible channel message is one queued item: wake one core.
  channel_.set_host_notify([this] { host_.wake_one(); });
  channel_.set_nic_notify([this] { nic_.wake_one(); });
  nic_.set_work_pending([this] { return channel_.nic_has_data(); });
  host_.set_work_pending([this] {
    return channel_.host_has_data() || !host_local_queue_.empty();
  });
  nic_.set_steer_to_nic([this](const netsim::Packet& pkt) {
    if (nic_down_) return false;  // dead firmware: everything lands host-side
    const auto* ac = control(pkt.dst_actor);
    return ac != nullptr && !ac->killed && ac->loc == ActorLoc::kNic;
  });
  host_.set_runtime(&host_rt_);
  nic_.set_firmware(&nic_fw_);
  if (cfg_.nic_watchdog) {
    last_pong_ = sim_.now();
    watchdog_period_ = cfg_.watchdog_heartbeat;
    sim_.schedule(watchdog_period_, [this] { watchdog_tick(); });
  }
}

Runtime::~Runtime() {
  nic_.set_firmware(nullptr);
  host_.set_runtime(nullptr);
}

// ------------------------------------------------------------ actor mgmt --

ActorId Runtime::register_actor(std::unique_ptr<Actor> actor, ActorLoc initial,
                                GroupId group, TenantId tenant) {
  const ActorId id = next_actor_id_++;
  actor->id_ = id;

  ActorControl ac;
  ac.actor = actor.get();
  ac.id = id;
  ac.loc = actor->host_pinned() ? ActorLoc::kHost : initial;
  ac.group = group;
  ac.latency = EwmaMeanStd(0.2);
  if (cfg_.policy == SchedPolicy::kDrrOnly && ac.loc == ActorLoc::kNic) {
    ac.is_drr = true;
  }

  objects_.register_actor(id, actor->region_bytes());
  auto [it, inserted] = actors_.emplace(id, std::move(ac));
  assert(inserted);
  owned_actors_.push_back(std::move(actor));

  // Tenancy before init: the init handler's DMO allocations must already
  // charge the tenant's quota.
  if (tenant != kNoTenant) assign_actor_to_tenant(id, tenant);

  InitEnv env(*this, it->second);
  it->second.actor->init(env);

  if (it->second.is_drr) {
    drr_queue_.push_back(id);
    if (drr_cores() == 0) spawn_drr_core();
  }
  mgmt_kick();  // a new migration candidate
  return id;
}

std::vector<ActorId> Runtime::group_members(GroupId group) const {
  std::vector<ActorId> out;
  if (group == kNoGroup) return out;
  for (const auto& owned : owned_actors_) {
    const auto* ac = control(owned->id());
    if (ac != nullptr && ac->group == group) out.push_back(ac->id);
  }
  return out;
}

std::size_t Runtime::migrate_group(GroupId group, ActorLoc to) {
  std::size_t queued = 0;
  for (const ActorId id : group_members(group)) {
    const auto* ac = control(id);
    if (ac == nullptr || ac->killed || ac->loc == to) continue;
    if (to == ActorLoc::kNic && ac->actor->host_pinned()) continue;
    pending_group_migs_.emplace_back(id, to);
    ++queued;
  }
  if (queued > 0) nic_.wake_core(0);  // the management core drains the queue
  return queued;
}

void Runtime::delete_actor(ActorId id) {
  const auto it = actors_.find(id);
  if (it == actors_.end()) return;
  objects_.deregister_actor(id);
  drr_queue_.erase(std::remove(drr_queue_.begin(), drr_queue_.end(), id),
                   drr_queue_.end());
  actors_.erase(it);
}

Actor* Runtime::find_actor(ActorId id) {
  auto* ac = control(id);
  return ac != nullptr ? ac->actor : nullptr;
}

ActorControl* Runtime::control(ActorId id) {
  const auto it = actors_.find(id);
  return it == actors_.end() ? nullptr : &it->second;
}

const ActorControl* Runtime::control(ActorId id) const {
  const auto it = actors_.find(id);
  return it == actors_.end() ? nullptr : &it->second;
}

void Runtime::kill_actor(ActorId id, bool isolation_trap) {
  auto* ac = control(id);
  if (ac == nullptr || ac->killed) return;
  ac->killed = true;
  ac->killed_at = sim_.now();
  ac->mailbox.clear();
  ac->mig_buffer.clear();
  drr_queue_.erase(std::remove(drr_queue_.begin(), drr_queue_.end(), id),
                   drr_queue_.end());
  objects_.deregister_actor(id);
  mgmt_kick();  // supervision restarts it
  if (isolation_trap) {
    ++isolation_kills_;
  } else {
    ++watchdog_kills_;
  }
  if (tracer_.enabled()) {
    tracer_.instant(trace::Cat::kSched, "actor_kill", trace::tid::kNicCore0, id,
                    {"isolation", isolation_trap ? 1.0 : 0.0});
  }
  LOG_WARN("actor %u (%s) killed (%s)", id, ac->actor->name().c_str(),
           isolation_trap ? "isolation trap" : "watchdog timeout");
}

// ------------------------------------------------------------ multi-tenancy --

TenantId Runtime::create_tenant(TenantConfig config) {
  if (tenants_.empty()) tenants_.push_back(nullptr);  // slot 0 = the PF
  const auto id = static_cast<TenantId>(tenants_.size());
  auto t = std::make_unique<TenantState>(id, std::move(config));
  // The tenant's RX queue pair: a dedicated weighted TM class.
  nic_.tm().configure_class(id, t->cfg.drr_weight, t->cfg.rx_queue_cap);
  tenants_.push_back(std::move(t));
  if (!classifier_installed_) {
    classifier_installed_ = true;
    nic_.tm().set_classifier(
        [this](netsim::Packet& pkt) { return classify_ingress(pkt); });
  }
  return id;
}

bool Runtime::assign_actor_to_tenant(ActorId id, TenantId tid) {
  auto* ac = control(id);
  TenantState* t = tenant(tid);
  if (ac == nullptr || t == nullptr) return false;
  ac->tenant = tid;
  t->members.push_back(id);
  if (t->cfg.dmo_cap_bytes > 0) {
    objects_.set_quota(id, tid, t->cfg.dmo_cap_bytes);
  }
  return true;
}

TenantState* Runtime::tenant(TenantId id) {
  return id != kNoTenant && id < tenants_.size() ? tenants_[id].get() : nullptr;
}

const TenantState* Runtime::tenant(TenantId id) const {
  return id != kNoTenant && id < tenants_.size() ? tenants_[id].get() : nullptr;
}

TenantState* Runtime::tenant_of(ActorId id) {
  const auto* ac = control(id);
  return ac == nullptr ? nullptr : tenant(ac->tenant);
}

int Runtime::classify_ingress(netsim::Packet& pkt) {
  const auto* ac = control(pkt.dst_actor);
  if (ac == nullptr) return 0;
  TenantState* t = tenant(ac->tenant);
  if (t == nullptr) return 0;
  pkt.tenant = t->id;

  // Intra-node hops already passed the VF's ingress checks when the
  // originating frame arrived; only wire/host-DMA arrivals are policed.
  const bool local_hop =
      pkt.local_hop || (pkt.src == nic_.node() && !pkt.from_host);
  if (!local_hop) {
    const Ns now = sim_.now();
    if (t->quarantined) {
      ++t->stats.filter_drops;
      return -1;
    }
    if (t->throttled(now)) {
      ++t->stats.throttle_drops;
      return -1;
    }
    if (!t->ingress_admit(pkt.frame_size, now)) {
      ++t->stats.policer_drops;
      t->note_violation(now);
      mgmt_kick();  // the escalation ladder runs on the management core
      return -1;
    }
  }
  ++t->stats.admitted_packets;
  t->stats.admitted_bytes += pkt.frame_size;
  return static_cast<int>(t->id);
}

bool Runtime::vf_mailbox_post(TenantId id, VfMboxMsg msg) {
  TenantState* t = tenant(id);
  if (t == nullptr || t->quarantined) return false;
  ++t->stats.mbox_msgs;
  if (t->mbox.size() >= t->cfg.mailbox_cap) {
    // Contain the spam: over-cap requests are refused, not queued, and
    // count toward the throttle ladder.
    ++t->stats.mbox_drops;
    t->note_violation(sim_.now());
    mgmt_kick();
    return false;
  }
  t->mbox.push_back(msg);
  nic_.wake_core(0);  // the management core serves VF mailboxes
  return true;
}

std::optional<VfMboxReply> Runtime::vf_mailbox_poll(TenantId id) {
  TenantState* t = tenant(id);
  if (t == nullptr || t->mbox_replies.empty()) return std::nullopt;
  const VfMboxReply r = t->mbox_replies.front();
  t->mbox_replies.pop_front();
  return r;
}

void Runtime::quarantine_tenant(TenantId id) {
  TenantState* t = tenant(id);
  if (t == nullptr || t->quarantined) return;
  t->quarantined = true;
  ++tenants_quarantined_;
  // The whole VF goes down as a unit: every member dies via the §3.4
  // isolation path and is barred from supervised restart — restarting
  // into the same overload would just re-earn the quarantine.
  for (const ActorId a : t->members) {
    auto* ac = control(a);
    if (ac == nullptr) continue;
    if (!ac->killed) kill_actor(a, /*isolation_trap=*/true);
    ac->quarantined = true;
  }
  if (tracer_.enabled()) {
    tracer_.instant(trace::Cat::kChaos, "tenant_quarantine", trace::tid::kChaos,
                    id, {"throttles", static_cast<double>(t->throttle_count)});
  }
  LOG_WARN("tenant %u (%s) quarantined after %u throttle episodes", id,
           t->cfg.name.c_str(), t->throttle_count);
}

void Runtime::note_dmo_denied(ActorId id) {
  if (TenantState* t = tenant_of(id); t != nullptr) {
    ++t->stats.dmo_denied;
    t->note_violation(sim_.now());
    mgmt_kick();
  }
}

void Runtime::tenant_scan(nic::NicExecContext& ctx) {
  const Ns now = sim_.now();
  for (auto& slot : tenants_) {
    TenantState* t = slot.get();
    if (t == nullptr) continue;

    // Fold the TM's tail-drops on this tenant's class into its ledger.
    const std::uint64_t tm_drops = nic_.tm().class_drops(t->id);
    if (tm_drops > t->tm_drops_seen) {
      const std::uint64_t delta = tm_drops - t->tm_drops_seen;
      t->tm_drops_seen = tm_drops;
      t->stats.queue_drops += delta;
      t->note_violation(now);
      t->violations_window += delta - 1;
    }

    if (t->quarantined) continue;

    // Serve at most mailbox_batch control requests per scan — a spamming
    // tenant monopolizes its own batch, not the management core.
    std::size_t served = 0;
    while (!t->mbox.empty() && served < t->cfg.mailbox_batch) {
      const VfMboxMsg m = t->mbox.front();
      t->mbox.pop_front();
      ++served;
      ctx.charge(cfg_.channel_handling_ns);
      VfMboxReply rep{m.op, 0.0, now};
      switch (m.op) {
        case VfMboxOp::kPing:
          rep.value = 1.0;
          break;
        case VfMboxOp::kQueryStats:
          rep.value = static_cast<double>(t->stats.admitted_packets);
          break;
        case VfMboxOp::kSetWeight: {
          const double w = std::clamp(m.arg, 0.1, 16.0);
          t->cfg.drr_weight = w;
          nic_.tm().set_class_weight(t->id, w);
          rep.value = w;
          break;
        }
        case VfMboxOp::kSetIngressRate:
          t->cfg.ingress_rate_bps = std::max(0.0, m.arg);
          rep.value = t->cfg.ingress_rate_bps;
          break;
      }
      ++t->stats.mbox_processed;
      t->mbox_replies.push_back(rep);
      // Bound the reply queue too: a tenant that never polls must not
      // grow unbounded state inside the runtime.
      while (t->mbox_replies.size() > 64) t->mbox_replies.pop_front();
    }

    // Penalty lapsed: let the DRR cores pick the tenant's parked
    // mailboxes back up.
    if (t->unthrottle_pending && now >= t->throttled_until) {
      t->unthrottle_pending = false;
      wake_drr_cores();
      if (drr_cores() == 0 && drr_work_pending()) spawn_drr_core();
    }

    // Escalation ladder: enough violations inside the window throttle
    // the tenant; each episode doubles the penalty, and persistent
    // offenders are quarantined as a unit.
    if (t->cfg.throttle_threshold != 0 && !t->throttled(now) &&
        t->violations_window >= t->cfg.throttle_threshold) {
      const Ns penalty = t->cfg.throttle_window
                         << std::min<std::uint32_t>(t->throttle_count, 4);
      t->throttled_until = now + penalty;
      t->unthrottle_pending = true;
      ++t->throttle_count;
      ++t->stats.throttles;
      t->stats.throttled_ns += penalty;
      ++tenant_throttles_;
      t->violations_window = 0;
      LOG_WARN("tenant %u (%s) throttled for %llu us (episode %u)", t->id,
               t->cfg.name.c_str(),
               static_cast<unsigned long long>(penalty / kNsPerUs),
               t->throttle_count);
      // The penalty's end is a management deadline (unthrottle_pending).
      if (t->cfg.quarantine_after != 0 &&
          t->throttle_count >= t->cfg.quarantine_after) {
        quarantine_tenant(t->id);
      }
    }
  }
}

bool Runtime::fair_share_allows_spawn(unsigned n_drr) {
  if (tenants_.size() <= 1) return true;
  std::size_t total = 0;
  std::vector<std::size_t> backlog(tenants_.size(), 0);
  for (const ActorId id : drr_queue_) {
    const auto* ac = control(id);
    if (ac == nullptr || ac->killed) continue;
    total += ac->mailbox.size();
    if (ac->tenant != kNoTenant && ac->tenant < tenants_.size()) {
      backlog[ac->tenant] += ac->mailbox.size();
    }
  }
  if (total == 0) return true;
  TenantId dom = kNoTenant;
  std::size_t dom_backlog = 0;
  for (std::size_t i = 1; i < backlog.size(); ++i) {
    if (backlog[i] > dom_backlog) {
      dom_backlog = backlog[i];
      dom = static_cast<TenantId>(i);
    }
  }
  // Only gate when one tenant is essentially the whole backlog — mixed
  // pressure means the spawn helps everyone.
  if (dom == kNoTenant ||
      static_cast<double>(dom_backlog) < 0.9 * static_cast<double>(total)) {
    return true;
  }
  double weight_sum = 0.0;
  for (std::size_t i = 1; i < tenants_.size(); ++i) {
    if (tenants_[i]) {
      weight_sum += std::clamp(tenants_[i]->cfg.drr_weight, 0.1, 16.0);
    }
  }
  const double share =
      std::clamp(tenants_[dom]->cfg.drr_weight, 0.1, 16.0) /
      std::max(weight_sum, 1e-9);
  const unsigned avail = nic_.active_cores() > 1 ? nic_.active_cores() - 1 : 1;
  const auto cap = static_cast<unsigned>(
      std::max(1.0, share * static_cast<double>(avail)));
  if (n_drr >= cap) {
    ++fair_share_denials_;
    return false;
  }
  return true;
}

// ---------------------------------------------- supervision & failure domains

void Runtime::revive_actor(ActorControl& ac) {
  objects_.register_actor(ac.id, ac.actor->region_bytes());
  // kill_actor's deregister dropped the quota binding; re-arm it.
  if (const TenantState* t = tenant(ac.tenant);
      t != nullptr && t->cfg.dmo_cap_bytes > 0) {
    objects_.set_quota(ac.id, ac.tenant, t->cfg.dmo_cap_bytes);
  }
  ac.killed = false;
  ac.killed_at = 0;
  ac.mailbox.clear();
  ac.mig_buffer.clear();
  ac.mig = MigState::kStable;
  ac.deficit_ns = 0.0;
  ac.latency.reset();
  ac.exec_cost.reset();
  // A revival during a NIC outage (or before re-offload) lands the actor
  // on the host — the only side that can run it — and marks it for the
  // eventual re-offload wave.
  const bool nic_unusable = nic_down_ || evacuated_;
  ac.loc = ac.actor->host_pinned() || nic_unusable ? ActorLoc::kHost
                                                   : ActorLoc::kNic;
  ac.evacuated = nic_unusable && !ac.actor->host_pinned();
  ac.last_revive_at = sim_.now();
  ac.is_drr = false;
  ac.demotions = 0;
  if (cfg_.policy == SchedPolicy::kDrrOnly && ac.loc == ActorLoc::kNic) {
    ac.is_drr = true;
    drr_queue_.push_back(ac.id);
    if (drr_cores() == 0) spawn_drr_core();
  }
  InitEnv env(*this, ac);
  ac.actor->reset(env);
  ac.actor->init(env);
}

bool Runtime::restart_actor(ActorId id) {
  auto* ac = control(id);
  if (ac == nullptr || !ac->killed || ac->quarantined || node_down_) {
    return false;
  }
  ++ac->restarts;
  ++actor_restarts_;
  revive_actor(*ac);
  if (tracer_.enabled()) {
    tracer_.instant(trace::Cat::kChaos, "actor_restart", trace::tid::kChaos,
                    id, {"restarts", static_cast<double>(ac->restarts)});
  }
  LOG_INFO("actor %u (%s) restarted (attempt %u)", id,
           ac->actor->name().c_str(), ac->restarts);
  nic_.wake_all();
  host_.wake_all();
  return true;
}

void Runtime::supervise_scan() {
  for (const auto& owned : owned_actors_) {
    auto* ac = control(owned->id());
    if (ac == nullptr) continue;
    // Restart-episode decay: an actor that has stayed healthy for the
    // configured interval earns its supervision budget back, so ancient
    // crashes don't leave it one fault away from permanent quarantine.
    if (cfg_.supervise_restart_decay > 0 && !ac->killed && !ac->quarantined &&
        ac->restarts > 0 && ac->last_revive_at > 0 &&
        sim_.now() - ac->last_revive_at >= cfg_.supervise_restart_decay) {
      ac->restarts = 0;
      ++restart_decays_;
      if (tracer_.enabled()) {
        tracer_.instant(trace::Cat::kChaos, "restart_decay", trace::tid::kChaos,
                        ac->id);
      }
    }
    if (!ac->killed || ac->quarantined) continue;
    // Don't restart an actor into its tenant's penalty box: the revived
    // actor would re-enter the same overload and re-earn the kill.
    if (const TenantState* t = tenant(ac->tenant);
        t != nullptr && (t->quarantined || t->throttled(sim_.now()))) {
      continue;
    }
    if (ac->restarts >= cfg_.supervise_quarantine_after) {
      ac->quarantined = true;
      ++quarantines_;
      if (tracer_.enabled()) {
        tracer_.instant(trace::Cat::kChaos, "actor_quarantine",
                        trace::tid::kChaos, ac->id,
                        {"restarts", static_cast<double>(ac->restarts)});
      }
      LOG_WARN("actor %u (%s) quarantined after %u restarts", ac->id,
               ac->actor->name().c_str(), ac->restarts);
      continue;
    }
    if (sim_.now() - ac->killed_at < cfg_.supervise_restart_delay) continue;
    restart_actor(ac->id);
  }
}

void Runtime::crash_node_state() {
  if (node_down_) return;
  node_down_ = true;
  ++node_crashes_;
  // Volatile runtime state dies with the power: in-progress migration,
  // dispatcher queues, per-actor mailboxes and every PCIe ring byte.
  migration_.reset();
  pending_group_migs_.clear();
  drr_queue_.clear();
  for (const auto& owned : owned_actors_) {
    auto* ac = control(owned->id());
    if (ac == nullptr) continue;
    if (!ac->killed) objects_.deregister_actor(ac->id);
    ac->killed = true;
    ac->killed_at = sim_.now();
    ac->mailbox.clear();
    ac->mig_buffer.clear();
    ac->mig = MigState::kStable;
  }
  host_local_queue_.clear();
  nic_.tm().clear();
  host_.rx_clear();
  channel_.reset();
  if (tracer_.enabled()) {
    tracer_.instant(trace::Cat::kChaos, "node_crash", trace::tid::kChaos, 0);
  }
}

void Runtime::restore_node_state() {
  if (!node_down_) return;
  node_down_ = false;
  // A full reboot brings the NIC back too: any pre-crash NIC outage or
  // pending evacuation state is moot after power-cycling both sides.
  nic_down_ = false;
  nic_.set_firmware(&nic_fw_);
  evacuated_ = false;
  last_pong_ = sim_.now();
  pings_unanswered_ = 0;
  watchdog_period_ = cfg_.watchdog_heartbeat;
  // Clean reboot: the supervision budget starts over, quarantines lift,
  // and every actor re-runs reset()+init() in registration order (the
  // same order deployment used, so recovered ids line up across nodes).
  for (const auto& owned : owned_actors_) {
    auto* ac = control(owned->id());
    if (ac == nullptr) continue;
    ac->restarts = 0;
    ac->quarantined = false;
    revive_actor(*ac);
  }
  if (tracer_.enabled()) {
    tracer_.instant(trace::Cat::kChaos, "node_restore", trace::tid::kChaos, 0);
  }
  nic_.wake_all();
  host_.wake_all();
}

// ------------------------------------------------- NIC device failures --

void Runtime::nic_crash() {
  if (node_down_ || nic_down_) return;
  nic_down_ = true;
  ++nic_crashes_;
  // Everything in NIC SRAM dies with the firmware: the TM's ingress
  // queues and every NIC-resident mailbox.  Nothing in there was acked
  // to its sender, so reliable paths recover by retransmission.
  nic_.tm().clear();
  // With no firmware the device degrades to a dumb NIC: the MAC and DMA
  // engines (hardware, not firmware) shunt arriving frames straight to
  // the host RX ring, where degraded-mode serving picks them up.
  nic_.set_firmware(nullptr);
  // The management core dies with the firmware: its heartbeat stops.
  mgmt_catch_up(sim_.now());
  mgmt_parked_ = false;
  mgmt_armed_ = kNever;
  for (const auto& owned : owned_actors_) {
    auto* ac = control(owned->id());
    if (ac == nullptr || ac->killed) continue;
    if (ac->loc == ActorLoc::kNic) {
      ac->mailbox.clear();
      // SRAM-resident derived state (hot caches, leases) dies with the
      // firmware; the actor drops it before evacuation revives it
      // host-side, so wiped invalidations can never strand stale data.
      ac->actor->on_nic_fault();
    }
  }
  // The migration slot ran on the (now dead) management core: resolve it
  // so its actor is not stranded buffering forever.
  resolve_migration_on_fault();
  drr_queue_.clear();
  if (tracer_.enabled()) {
    tracer_.instant(trace::Cat::kChaos, "nic_crash", trace::tid::kChaos, 0);
  }
  LOG_WARN("node %u: NIC firmware dead", nic_.node());
  host_.wake_all();  // the host keeps serving; its watchdog will notice
}

void Runtime::nic_restore() {
  if (node_down_ || !nic_down_) return;
  nic_down_ = false;
  nic_.set_firmware(&nic_fw_);
  // Firmware rebooted.  Rebuild the DRR run queue for actors that are
  // still NIC-resident (nothing was evacuated, or pinned survivors).
  drr_queue_.clear();
  for (const auto& owned : owned_actors_) {
    auto* ac = control(owned->id());
    if (ac == nullptr || ac->killed || !ac->is_drr) continue;
    if (ac->loc == ActorLoc::kNic) drr_queue_.push_back(ac->id);
  }
  if (tracer_.enabled()) {
    tracer_.instant(trace::Cat::kChaos, "nic_restore", trace::tid::kChaos, 0);
  }
  LOG_INFO("node %u: NIC firmware back up", nic_.node());
  nic_.wake_all();
  host_.wake_all();
}

void Runtime::set_pcie_link(bool up) {
  // Link restored: the parked messages re-enter the rings and each one
  // wakes a core when it becomes visible.
  channel_.set_link_down(!up);
}

void Runtime::set_accel_failed(std::uint32_t bank, bool failed) {
  if (bank >= nic::kNumAccelKinds) return;
  nic_.accel().set_failed(static_cast<nic::AccelKind>(bank), failed);
  if (tracer_.enabled()) {
    tracer_.instant(trace::Cat::kChaos, failed ? "accel_fail" : "accel_heal",
                    trace::tid::kChaos, bank);
  }
}

ChannelMsg Runtime::watchdog_msg(std::uint16_t type) const {
  ChannelMsg msg;
  msg.src_node = nic_.node();
  msg.dst_node = nic_.node();
  msg.src_actor = kWatchdogActor;
  msg.dst_actor = kWatchdogActor;
  msg.msg_type = type;
  msg.created_at = sim_.now();
  return msg;
}

void Runtime::watchdog_tick() {
  if (!cfg_.nic_watchdog) return;
  if (node_down_) {
    // The whole node is powered off; probe slowly until reboot (which
    // resets last_pong_, so the watchdog restarts clean).
    sim_.schedule(cfg_.watchdog_heartbeat, [this] { watchdog_tick(); });
    return;
  }
  // Misses are counted in probes, not wall-clock silence: once the probe
  // period has backed off toward the cap, a healthy revived NIC still
  // pongs only once per probe, and a wall-clock limit would re-trip on a
  // device that is answering every ping it gets.
  if (!evacuated_ && pings_unanswered_ >= cfg_.watchdog_miss_limit) {
    watchdog_trip();
  }
  // Keep probing even after a trip: the first pong out of rebooted
  // firmware is the re-offload signal.
  ++watchdog_pings_;
  ++pings_unanswered_;
  (void)send_or_queue(MemSide::kHost, watchdog_msg(kWatchdogPingMsg));
  if (nic_down_ || evacuated_ || pings_unanswered_ > 1) {
    // Exponential probe backoff while the NIC stays silent: a dead
    // device should not be heartbeat-hammered at full cadence.
    watchdog_period_ =
        std::min(watchdog_period_ * 2, cfg_.watchdog_probe_cap);
  } else {
    watchdog_period_ = cfg_.watchdog_heartbeat;
  }
  sim_.schedule(watchdog_period_, [this] { watchdog_tick(); });
}

void Runtime::watchdog_trip() {
  if (node_down_ || evacuated_) return;
  ++watchdog_trips_;
  if (tracer_.enabled()) {
    tracer_.instant(trace::Cat::kChaos, "watchdog_trip", trace::tid::kChaos, 0,
                    {"silence_us",
                     static_cast<double>(sim_.now() - last_pong_) / 1000.0});
  }
  LOG_WARN("node %u: NIC watchdog tripped (silent for %lld ns), evacuating",
           nic_.node(), static_cast<long long>(sim_.now() - last_pong_));
  emergency_evacuate(channel_.fence_for_nic_failure());
}

void Runtime::emergency_evacuate(std::vector<ChannelMsg> undelivered) {
  evacuated_ = true;
  ++evacuations_;
  resolve_migration_on_fault();
  std::uint64_t replay_bytes = 0;
  std::uint64_t moved_actors = 0;
  for (const auto& owned : owned_actors_) {
    auto* ac = control(owned->id());
    if (ac == nullptr || ac->killed || ac->loc != ActorLoc::kNic) continue;
    // Crash-consistent DMO hand-over: no PCIe transfer is possible, the
    // host mirror (when configured) supplies the bytes.
    const EvacResult ev = objects_.evacuate_all(ac->id, cfg_.dmo_host_mirror);
    evac_replayed_bytes_ += ev.replayed_bytes;
    evac_lost_bytes_ += ev.lost_bytes;
    replay_bytes += ev.payload_bytes;
    ac->loc = ActorLoc::kHost;
    ac->evacuated = true;
    ac->is_drr = false;
    ac->deficit_ns = 0.0;
    ac->latency.reset();  // host service times are different
    // A still-reachable mailbox (pcie-flap: the device is alive, just
    // cut off) drains into the migration buffer; after a real firmware
    // crash the mailbox was already wiped with the SRAM.
    while (!ac->mailbox.empty()) {
      ac->mig_buffer.push_back(std::move(ac->mailbox.front()));
      ac->mailbox.pop_front();
    }
    ac->mig = MigState::kPrepare;  // buffer arrivals during state replay
    ++evacuated_actors_;
    ++moved_actors;
  }
  drr_queue_.clear();
  // Undelivered host->NIC channel messages re-enter locally: evacuated
  // destinations buffer them and serve them after the replay window.
  for (ChannelMsg& m : undelivered) {
    if (m.dst_actor == kWatchdogActor) continue;  // stale heartbeats
    const ActorId dst = m.dst_actor;
    deliver_local(dst, std::move(m).to_packet(pool_), MemSide::kHost);
  }
  const Ns replay =
      static_cast<Ns>(replay_bytes) * kEvacReplayNsPerKb / 1024 +
      static_cast<Ns>(moved_actors) * kMigPerObjectNs;
  sim_.schedule(std::max<Ns>(replay, 1), [this] { finish_evacuation(); });
  if (tracer_.enabled()) {
    tracer_.instant(trace::Cat::kChaos, "nic_evacuate", trace::tid::kChaos, 0,
                    {"actors", static_cast<double>(moved_actors)},
                    {"bytes", static_cast<double>(replay_bytes)});
  }
  LOG_WARN("node %u: evacuated %llu actors (%llu payload bytes) to host",
           nic_.node(), static_cast<unsigned long long>(moved_actors),
           static_cast<unsigned long long>(replay_bytes));
  host_.wake_all();
}

void Runtime::finish_evacuation() {
  if (node_down_) return;  // a full power-fail mid-replay supersedes this
  for (const auto& owned : owned_actors_) {
    auto* ac = control(owned->id());
    if (ac == nullptr || ac->killed || !ac->evacuated) continue;
    if (ac->mig != MigState::kPrepare) continue;
    ac->mig = MigState::kStable;
    while (!ac->mig_buffer.empty()) {
      host_local_queue_.push_back(std::move(ac->mig_buffer.front()));
      ac->mig_buffer.pop_front();
    }
  }
  mgmt_kick();  // the evacuees are now host-side migration candidates
  if (tracer_.enabled()) {
    tracer_.instant(trace::Cat::kChaos, "evac_done", trace::tid::kChaos, 0);
  }
  host_.wake_all();
}

void Runtime::begin_reoffload() {
  if (!evacuated_ || nic_down_ || node_down_) return;
  std::vector<ActorControl*> back;
  for (const auto& owned : owned_actors_) {
    auto* ac = control(owned->id());
    if (ac == nullptr || ac->killed || !ac->evacuated) continue;
    // Replay still running: stay degraded and retry on the next pong —
    // the 4-phase machinery needs stable actors.
    if (ac->mig != MigState::kStable) return;
    if (ac->quarantined || ac->actor->host_pinned()) {
      ac->evacuated = false;
      continue;
    }
    back.push_back(ac);
  }
  evacuated_ = false;
  ++reoffloads_;
  // Measured-cost priority: cheapest actors first — they buy back the
  // most NIC offload per byte of migration traffic.
  std::sort(back.begin(), back.end(),
            [](const ActorControl* a, const ActorControl* b) {
              const double ca = a->exec_cost.seeded() ? a->exec_cost.mean() : 0.0;
              const double cb = b->exec_cost.seeded() ? b->exec_cost.mean() : 0.0;
              if (ca != cb) return ca < cb;
              return a->id < b->id;
            });
  for (ActorControl* ac : back) {
    ac->evacuated = false;
    pending_group_migs_.emplace_back(ac->id, ActorLoc::kNic);
  }
  if (tracer_.enabled()) {
    tracer_.instant(trace::Cat::kChaos, "reoffload", trace::tid::kChaos, 0,
                    {"actors", static_cast<double>(back.size())});
  }
  LOG_INFO("node %u: NIC revived, re-offloading %zu actors", nic_.node(),
           back.size());
  nic_.wake_core(0);  // the management core drains the queue
}

void Runtime::resolve_migration_on_fault() {
  if (!migration_.has_value()) return;
  const ActorId id = migration_->id;
  migration_.reset();
  mgmt_kick();  // the actor is a migration candidate again
  auto* ac = control(id);
  if (ac == nullptr || ac->killed) return;
  // Phase >= 3 moved the DMO payload and flipped the location: commit.
  // Earlier phases changed nothing durable: roll back.
  const bool committed =
      ac->mig == MigState::kGone || ac->mig == MigState::kClean;
  ac->mig = MigState::kStable;
  if (committed) {
    ++ac->migrations;
    ac->latency.reset();
  } else if (ac->is_drr && ac->loc == ActorLoc::kNic &&
             std::find(drr_queue_.begin(), drr_queue_.end(), id) ==
                 drr_queue_.end()) {
    drr_queue_.push_back(id);  // phase 1 removed it from the run queue
  }
  // Re-deliver the buffered window at the now-authoritative home.
  // Buffering removed these packets from every other queue, so nothing
  // can duplicate; re-delivery means nothing is lost either.
  std::deque<netsim::PacketPtr> buffered;
  buffered.swap(ac->mig_buffer);
  const MemSide side =
      ac->loc == ActorLoc::kNic ? MemSide::kNic : MemSide::kHost;
  for (auto& pkt : buffered) {
    deliver_local(id, std::move(pkt), side);
  }
  last_migration_end_ = sim_.now();
  if (tracer_.enabled()) {
    tracer_.instant(trace::Cat::kMig,
                    committed ? "mig_fault_commit" : "mig_fault_rollback",
                    trace::tid::kChaos, id);
  }
}

void Runtime::schedule_actor_msg(ActorId id, Ns delay, std::uint16_t type,
                                 std::vector<std::uint8_t> payload) {
  sim_.schedule(delay, [this, id, type, p = std::move(payload)]() mutable {
    auto* ac = control(id);
    // Timers die with the actor (and with the node): survivors re-arm
    // from init() when the actor is revived.
    if (ac == nullptr || ac->killed || node_down_) return;
    auto pkt = pool_.make();
    pkt->src = nic_.node();
    pkt->dst = nic_.node();
    pkt->src_actor = id;
    pkt->dst_actor = id;
    pkt->msg_type = type;
    pkt->frame_size = netsim::frame_for_payload(p.size());
    pkt->payload = std::move(p);
    pkt->created_at = sim_.now();
    const MemSide side =
        ac->loc == ActorLoc::kNic ? MemSide::kNic : MemSide::kHost;
    deliver_local(id, std::move(pkt), side);
  });
}

// ------------------------------------------------------------- migration --

bool Runtime::start_migration(ActorId id, ActorLoc to) {
  if (migration_.has_value()) return false;
  auto* ac = control(id);
  if (ac == nullptr || ac->killed || ac->mig != MigState::kStable ||
      ac->loc == to) {
    return false;
  }
  if (to == ActorLoc::kNic && ac->actor->host_pinned()) return false;

  // Phase 1 (Prepare): leave the dispatcher; requests buffer from now on.
  ac->mig = MigState::kPrepare;
  ac->mig_phase_started = sim_.now();
  ac->mig_phase_ns = {};
  if (ac->is_drr) {
    drr_queue_.erase(std::remove(drr_queue_.begin(), drr_queue_.end(), id),
                     drr_queue_.end());
  }
  migration_ = MigrationOp{id, to, 1, sim_.now(), 0};
  if (to == ActorLoc::kHost) {
    ++push_migrations_;
  } else {
    ++pull_migrations_;
  }
  if (tracer_.enabled()) {
    tracer_.instant(trace::Cat::kMig, "migration_start", trace::tid::kNicCore0,
                    id, {"to_host", to == ActorLoc::kHost ? 1.0 : 0.0},
                    {"mailbox", static_cast<double>(ac->mailbox.size())});
  }
  nic_.wake_core(0);
  return true;
}

bool Runtime::advance_migration(nic::NicExecContext& ctx) {
  assert(migration_.has_value());
  auto* ac = control(migration_->id);
  if (ac == nullptr || ac->killed) {
    migration_.reset();
    return false;
  }

  switch (migration_->phase) {
    case 1: {
      // Phase 1 -> 2: runtime lock/unlock + dispatcher removal.
      ctx.charge(cfg_.sched_bookkeeping_ns * 4);
      ac->mig_phase_ns[0] = sim_.now() - migration_->phase_start;
      if (tracer_.enabled()) {
        tracer_.span(trace::Cat::kMig, "mig_phase1_prepare", ctx.core(),
                     migration_->phase_start, sim_.now(), ac->id);
      }
      migration_->phase = 2;
      migration_->phase_start = sim_.now();
      return true;
    }
    case 2: {
      // Phase 2 (Ready): drain the mailbox — one request per slice.
      if (!ac->mailbox.empty()) {
        auto pkt = std::move(ac->mailbox.front());
        ac->mailbox.pop_front();
        execute_on_nic(ctx, *ac, std::move(pkt));
        return true;
      }
      ac->mig = MigState::kReady;
      ac->mig_phase_ns[1] = sim_.now() - migration_->phase_start;
      if (tracer_.enabled()) {
        tracer_.span(trace::Cat::kMig, "mig_phase2_drain", ctx.core(),
                     migration_->phase_start, sim_.now(), ac->id);
      }
      migration_->phase = 3;
      migration_->phase_start = sim_.now();
      ctx.charge(cfg_.sched_bookkeeping_ns);
      return true;
    }
    case 3: {
      // Phase 3: move the actor's distributed objects across PCIe.  The
      // dedicated migration core is occupied for the full transfer.
      const MemSide to_side = migration_->to == ActorLoc::kHost
                                  ? MemSide::kHost
                                  : MemSide::kNic;
      const std::uint64_t obj_count = objects_.actor_object_count(ac->id);
      const MigrateResult moved = objects_.migrate_all(ac->id, to_side);
      if (!moved.complete()) {
        // The target region could not take every object: the actor now has
        // split residency (stragglers pay remote-access DMA costs).  Loud,
        // because a silent split made Fig. 18 numbers unexplainable.
        ++partial_migrations_;
        LOG_WARN("actor %u migration left %llu object(s) behind (%llu moved, "
                 "target region exhausted)",
                 ac->id,
                 static_cast<unsigned long long>(moved.failed_objects),
                 static_cast<unsigned long long>(moved.moved_objects));
      }
      migration_->bytes = moved.payload_bytes;
      const Ns xfer =
          static_cast<Ns>(static_cast<double>(moved.payload_bytes) * 8.0 /
                          kMigGbps) +
          obj_count * kMigPerObjectNs;
      ctx.charge(xfer);
      ac->mig = MigState::kGone;
      ac->loc = migration_->to;
      ac->is_drr = false;
      ac->deficit_ns = 0.0;
      migration_->phase = 4;
      ctx.defer([this, id = ac->id, core = ctx.core(),
                 start = migration_->phase_start] {
        auto* a = control(id);
        if (a != nullptr) {
          a->mig_phase_ns[2] = sim_.now() - start;
          if (tracer_.enabled()) {
            tracer_.span(trace::Cat::kMig, "mig_phase3_dmo_transfer", core,
                         start, sim_.now(), id);
          }
        }
        if (migration_.has_value()) migration_->phase_start = sim_.now();
      });
      return true;
    }
    case 4: {
      // Phase 4: the actor is live on its new home (kClean); forward the
      // buffered requests there.  New arrivals dispatch normally.
      if (ac->mig == MigState::kGone) ac->mig = MigState::kClean;
      if (!ac->mig_buffer.empty()) {
        auto pkt = std::move(ac->mig_buffer.front());
        ac->mig_buffer.pop_front();
        ctx.charge(cfg_.channel_handling_ns);
        if (ac->loc == ActorLoc::kHost) {
          // Reliable path: a full ring parks the message inside the
          // channel (retransmitted with backoff) instead of stalling the
          // migration's phase 4 on a bounced buffer.
          ctx.charge(send_or_queue(MemSide::kNic,
                                   ChannelMsg::from_packet(std::move(*pkt))));
        } else {
          ctx.defer([this, p = std::move(pkt)]() mutable {
            nic_.tm().push(std::move(p));
          });
        }
        return true;
      }
      ac->mig_phase_ns[3] = sim_.now() - migration_->phase_start;
      if (tracer_.enabled()) {
        tracer_.span(trace::Cat::kMig, "mig_phase4_resume", ctx.core(),
                     migration_->phase_start, sim_.now(), ac->id,
                     {"bytes", static_cast<double>(migration_->bytes)});
      }
      ac->mig = MigState::kStable;
      ++ac->migrations;
      last_migration_end_ = sim_.now();
      // Reset stats: service times on the new side are different.
      ac->latency.reset();
      migration_.reset();
      ctx.charge(cfg_.sched_bookkeeping_ns);
      return true;
    }
    default:
      migration_.reset();
      return false;
  }
}

// --------------------------------------------------------- NIC scheduling --

bool Runtime::nic_run_once(nic::NicExecContext& ctx, unsigned core) {
  if (nic_down_) return false;  // firmware dead: cores fetch nothing
  const bool ran = core < roles_.size() && roles_[core] == CoreRole::kDrr
                       ? drr_run(ctx, core)
                       : fcfs_run(ctx, core);
  if (ran) mgmt_kick();  // the next heartbeat tick sees this work
  return ran;
}

bool Runtime::fcfs_run(nic::NicExecContext& ctx, unsigned core) {
  // Core 0 doubles as the management core (migration, thresholds,
  // auto-scaling), per §3.2.5.
  if (core == 0) {
    if (mgmt_parked_) {
      mgmt_catch_up(sim_.now());
      mgmt_parked_ = false;
    }
    mgmt_armed_ = kNever;  // parking re-arms from the deadlines
    if (migration_.has_value()) {
      if (advance_migration(ctx)) return true;
      mgmt_park(/*heartbeat=*/false);
      return false;
    }
    if (sim_.now() - last_mgmt_ >= cfg_.mgmt_period) {
      if (management_run(ctx)) return true;
    }
  }

  if (dispatch_from_tm(ctx)) {
    if (cfg_.policy == SchedPolicy::kHybrid && fcfs_stats_.seeded()) {
      if (fcfs_stats_.tail() > static_cast<double>(cfg_.tail_thresh)) {
        // Downgrade only on *persistent* violations — transient EWMA
        // spikes would otherwise flap actors between the groups.
        if (tail_violation_since_ == 0) {
          tail_violation_since_ = sim_.now();
        } else if (sim_.now() - tail_violation_since_ > usec(400)) {
          maybe_downgrade();
        }
      } else {
        tail_violation_since_ = 0;
      }
    }
    return true;
  }

  // Nothing on the wire path: serve host->NIC channel messages.
  if (channel_.nic_has_data()) {
    if (auto msg = channel_.nic_poll()) {
      const Ns pkt_start = ctx.consumed();
      ctx.charge(cfg_.channel_handling_ns);
      if (msg->dst_actor == kWatchdogActor) {
        // Firmware watchdog endpoint: answer the host's heartbeat.
        if (msg->msg_type == kWatchdogPingMsg) {
          ctx.charge(send_or_queue(MemSide::kNic, watchdog_msg(kWatchdogPongMsg)));
        }
        return true;
      }
      auto pkt = std::move(*msg).to_packet(pool_);
      pkt->nic_arrival = sim_.now();
      dispatch_nic(ctx, std::move(pkt), pkt_start);
      return true;
    }
    ctx.charge(cfg_.channel_handling_ns);  // corrupt/incomplete frame
    return true;
  }

  if (core == 0) mgmt_park(/*heartbeat=*/true);
  return false;
}

void Runtime::dispatch_nic(nic::NicExecContext& ctx, netsim::PacketPtr pkt,
                           Ns consumed_before) {
  // Forwarding-path response time = queueing + the *per-packet* slice of
  // core time.  Charging the cumulative ctx.consumed() of the whole core
  // slice (which includes management work and DRR scan rounds) inflated
  // fcfs_stats_ tails and triggered spurious downgrades/migrations.
  const Ns pkt_consumed = ctx.consumed() - consumed_before;

  // Transit traffic: frames handed up by the host (or looped through the
  // TM) that are destined to another node go straight to the wire —
  // actor ids are node-local and must not be resolved here.
  if (pkt->dst != nic_.node()) {
    const Ns response = sim_.now() - pkt->nic_arrival + pkt_consumed;
    fcfs_stats_.add(static_cast<double>(response));
    ++fcfs_samples_;
    ctx.tx(std::move(pkt));
    return;
  }

  ActorControl* ac = control(pkt->dst_actor);

  if (pkt->dst_actor == netsim::kForwardOnly || ac == nullptr || ac->killed) {
    // Plain forwarded traffic: the NIC's basic duty.
    const Ns response = sim_.now() - pkt->nic_arrival + pkt_consumed;
    fcfs_stats_.add(static_cast<double>(response));
    ++fcfs_samples_;
    if (pkt->from_host) {
      ctx.tx(std::move(pkt));
    } else {
      ctx.to_host(std::move(pkt));
    }
    return;
  }

  // Arrival bookkeeping for load estimates.
  if (ac->last_arrival != 0) {
    ac->interarrival_ns.add(static_cast<double>(sim_.now() - ac->last_arrival));
  }
  ac->last_arrival = sim_.now();
  ac->req_size.add(static_cast<double>(pkt->frame_size));

  if (buffering(*ac)) {
    ac->mig_buffer.push_back(std::move(pkt));
    return;
  }

  if (ac->loc == ActorLoc::kHost) {
    forward_to_host(ctx, std::move(pkt));
    return;
  }

  if (ac->is_drr) {
    ctx.charge(cfg_.sched_bookkeeping_ns);
    ac->mailbox.push_back(std::move(pkt));
    wake_drr_cores();
    return;
  }

  execute_on_nic(ctx, *ac, std::move(pkt));
}

void Runtime::execute_on_nic(nic::NicExecContext& ctx, ActorControl& ac,
                             netsim::PacketPtr pkt) {
  const Ns queue_delay = sim_.now() - pkt->nic_arrival;
  const Ns before = ctx.consumed();

  {
    NicEnv env(*this, ac, ctx);
    ++requests_on_nic_;
    ++ac.requests;
    ac.actor->handle(env, *pkt);
  }

  const Ns exec = ctx.consumed() - before;
  const Ns response = queue_delay + exec;
  ac.latency.add(static_cast<double>(response));
  ac.exec_cost.add(static_cast<double>(exec));
  fcfs_stats_.add(static_cast<double>(response));
  ++fcfs_samples_;
  response_hist_.add(response);
  if (tracer_.enabled()) {
    // Slice time is charged, not simulated: place the span at the
    // consumed-time offset within the slice so per-core tracks tile.
    tracer_.span(trace::Cat::kExec,
                 ac.is_drr ? "drr_handle" : "fcfs_handle",
                 trace::tid::kNicCore0 + ctx.core(), sim_.now() + before,
                 sim_.now() + ctx.consumed(), ac.id,
                 {"queue_us", static_cast<double>(queue_delay) / 1000.0});
  }
  ctx.charge(cfg_.sched_bookkeeping_ns);

  if (exec > cfg_.watchdog_limit) {
    kill_actor(ac.id, /*isolation_trap=*/false);
  }
}

void Runtime::forward_to_host(nic::NicExecContext& ctx, netsim::PacketPtr pkt) {
  ctx.charge(cfg_.channel_handling_ns);
  ctx.charge(send_or_queue(MemSide::kNic,
                           ChannelMsg::from_packet(std::move(*pkt))));
}

Ns Runtime::send_or_queue(MemSide from, ChannelMsg msg) {
  const ActorId dst = msg.dst_actor;
  const std::uint32_t wire_bytes = msg.wire_bytes();
  const SendTicket ticket = from == MemSide::kNic
                                ? channel_.send_or_queue_to_host(std::move(msg))
                                : channel_.send_or_queue_to_nic(std::move(msg));
  Ns cost = ticket.cost;
  if (ticket.outcome == SendOutcome::kBackpressured) {
    // The pending queue is over its cap: charge a stall so the producer
    // side visibly slows down instead of racing ahead of the consumer.
    cost += kChannelBackpressureStallNs;
  }
  // Tenant channel budget: traffic destined to a tenant's actor charges
  // that tenant's token bucket, and an over-budget tenant pays a
  // sender-side stall — the shared PCIe rings stay available to others.
  if (TenantState* t = tenant_of(dst); t != nullptr) {
    cost += t->chan_charge(wire_bytes, sim_.now());
  }
  return cost;
}

void Runtime::maybe_downgrade() {
  if (cfg_.policy != SchedPolicy::kHybrid) return;
  // Hysteresis: EWMA estimates need a settling window, and rapid
  // downgrade/upgrade flapping costs more than it saves.
  if (fcfs_samples_ < 256 ||
      sim_.now() - last_policy_change_ < cfg_.mgmt_period * 16) {
    return;
  }
  ActorControl* worst = nullptr;
  for (auto& [id, ac] : actors_) {
    (void)id;
    if (ac.killed || ac.is_drr || ac.loc != ActorLoc::kNic ||
        ac.mig != MigState::kStable || ac.requests < 64) {
      continue;
    }
    if (worst == nullptr || ac.dispersion() > worst->dispersion()) worst = &ac;
  }
  if (worst == nullptr) return;
  last_policy_change_ = sim_.now();
  worst->is_drr = true;
  ++worst->demotions;
  worst->deficit_ns = 0.0;
  drr_queue_.push_back(worst->id);
  ++downgrades_;
  if (tracer_.enabled()) {
    // The decision inputs, not just the decision: the EWMA mu/sigma that
    // made this actor the dispersion-worst candidate.
    tracer_.instant(trace::Cat::kSched, "demote_to_drr", trace::tid::kNicCore0,
                    worst->id, {"mu_us", worst->latency.mean() / 1000.0},
                    {"sigma_us", worst->latency.stddev() / 1000.0});
  }
  if (drr_cores() == 0) spawn_drr_core();
}

void Runtime::maybe_upgrade() {
  if (cfg_.policy != SchedPolicy::kHybrid) return;
  if (drr_queue_.empty()) return;
  if (sim_.now() - last_policy_change_ < cfg_.mgmt_period * 16) return;
  ActorControl* best = nullptr;
  for (const ActorId id : drr_queue_) {
    auto* ac = control(id);
    if (ac == nullptr || ac->killed || ac->mig != MigState::kStable) continue;
    if (best == nullptr || ac->dispersion() < best->dispersion()) best = ac;
  }
  if (best == nullptr) return;
  // Anti-flap: an actor whose own tail still violates the downgrade
  // threshold would re-trigger the very next downgrade scan.  Leave it
  // in DRR until its tail estimate actually recovers.
  if (best->dispersion() > static_cast<double>(cfg_.tail_thresh)) return;
  // Escalating hysteresis for repeat offenders: DRR isolates the actor's
  // dispersion, so its own tail recovers quickly and a flat window just
  // ping-pongs it between the groups.  Each demotion doubles the DRR
  // residency required before the next promotion.
  const Ns residency = cfg_.mgmt_period *
                       (16ULL << std::min<std::uint32_t>(best->demotions, 8));
  if (sim_.now() - last_policy_change_ < residency) return;
  drr_queue_.erase(std::remove(drr_queue_.begin(), drr_queue_.end(), best->id),
                   drr_queue_.end());
  best->is_drr = false;
  ++upgrades_;
  last_policy_change_ = sim_.now();
  if (tracer_.enabled()) {
    tracer_.instant(trace::Cat::kSched, "promote_to_fcfs",
                    trace::tid::kNicCore0, best->id,
                    {"mu_us", best->latency.mean() / 1000.0},
                    {"sigma_us", best->latency.stddev() / 1000.0});
  }
  // Requeue pending mailbox items through the shared queue.
  while (!best->mailbox.empty()) {
    nic_.tm().push(std::move(best->mailbox.front()));
    best->mailbox.pop_front();
  }
}

double Runtime::drr_quantum_ns(const ActorControl& ac) const {
  // Quantum = maximum tolerated forwarding latency for the actor's
  // average request size (§3.2.2), i.e. the Fig. 4 headroom.
  const auto& nic_cfg = nic_.config();
  const double size = ac.req_size.seeded() ? ac.req_size.value() : 512.0;
  const double pps = line_rate_pps(static_cast<std::uint32_t>(size),
                                   nic_cfg.link_gbps);
  const double budget =
      static_cast<double>(nic_.active_cores()) / pps * 1e9;  // ns
  const double fwd = static_cast<double>(
      nic_cfg.forwarding.cost(static_cast<std::uint32_t>(size)));
  double quantum = std::max(1000.0, budget - fwd);
  // Weighted traffic classes: a tenant's DRR quantum scales with its
  // weight, so core time under contention divides by weight share.
  if (const TenantState* t = tenant(ac.tenant); t != nullptr) {
    quantum *= std::clamp(t->cfg.drr_weight, 0.1, 16.0);
  }
  return quantum;
}

bool Runtime::drr_run(nic::NicExecContext& ctx, unsigned core) {
  if (drr_queue_.empty()) return false;


  // Round-robin over the runnable queue (ALG 2).  Scanning a round is
  // cheap relative to request execution, so a free core keeps spinning
  // rounds — accruing deficits — until some actor becomes eligible;
  // otherwise DRR would idle cores while queues build (the discipline is
  // work-conserving by construction).
  constexpr int kMaxRounds = 128;
  for (int round = 0; round < kMaxRounds; ++round) {
    bool any_pending = false;
    const std::size_t n = drr_queue_.size();
    for (std::size_t visited = 0; visited < n; ++visited) {
      drr_scan_ = (drr_scan_ + 1) % drr_queue_.size();
      ActorControl* ac = control(drr_queue_[drr_scan_]);
      if (ac == nullptr || ac->killed) continue;
      // A throttled/quarantined tenant's actors are parked: skip them
      // *before* the pending check so their backlog does not spin the
      // round (the unthrottle wake resumes them).
      if (const TenantState* t = tenant(ac->tenant);
          t != nullptr && (t->quarantined || t->throttled(sim_.now()))) {
        continue;
      }
      ctx.charge(cfg_.sched_bookkeeping_ns / 4);  // scan cost

      if (ac->mailbox.empty()) {
        ac->deficit_ns = 0.0;  // ALG 2 lines 15-17
        continue;
      }
      any_pending = true;
      ac->deficit_ns += drr_quantum_ns(*ac);

      // Eligibility compares the deficit against the *execution* cost —
      // using response time (which includes queueing) would starve actors
      // exactly when the queue builds.
      const double est = ac->exec_cost.seeded() ? ac->exec_cost.mean()
                                                : drr_quantum_ns(*ac);
      if (ac->deficit_ns >= est) {
        auto pkt = std::move(ac->mailbox.front());
        ac->mailbox.pop_front();

        const Ns before = ctx.consumed();
        execute_on_nic(ctx, *ac, std::move(pkt));
        const Ns exec = ctx.consumed() - before;
        ac->deficit_ns =
            std::max(0.0, ac->deficit_ns - static_cast<double>(exec));

        if (fcfs_stats_.seeded() &&
            fcfs_stats_.tail() <
                (1.0 - cfg_.alpha) * static_cast<double>(cfg_.tail_thresh)) {
          maybe_upgrade();  // ALG 2 lines 10-12
        }
        if (cfg_.enable_migration && ac->group == kNoGroup &&
            ac->mailbox.size() > kQThresh && !migration_.has_value()) {
          start_migration(ac->id, ActorLoc::kHost);  // ALG 2 lines 18-20
        }
        return true;
      }
    }
    if (!any_pending) break;  // all mailboxes empty
  }

  // No eligible handler work: help drain the shared ingress queue instead
  // of idling (dedicating a lone FCFS core to dispatch would bottleneck
  // small-core NICs).
  if (dispatch_from_tm(ctx)) return true;
  // Park only when there is neither handler nor dispatch work; deficits
  // carry over to the next slice.  Throttled tenants' backlogs don't
  // count as work (that would busy-spin the core through the penalty) —
  // instead, arm a wake at the earliest penalty expiry.
  Ns wake_at = 0;
  if (drr_work_pending(&wake_at)) return true;
  if (wake_at != 0) nic_.wake_core_at(core, wake_at);
  return false;
}

bool Runtime::dispatch_from_tm(nic::NicExecContext& ctx) {
  auto pkt = nic_.tm().pop();
  if (!pkt) return false;
  const Ns pkt_start = ctx.consumed();
  const auto& nic_cfg = nic_.config();
  ctx.charge(nic_cfg.has_hw_traffic_manager ? nic_cfg.tm_dequeue_cost
                                            : nic_cfg.sw_shuffle_cost);
  // Intra-NIC actor messages re-enter the work queue without paying the
  // wire RX/TX tax; only frames from the MAC or the host DMA path do.
  const bool local_msg =
      (pkt->src == nic_.node() && !pkt->from_host) || pkt->local_hop;
  if (!local_msg) ctx.charge_forwarding(pkt->frame_size);
  dispatch_nic(ctx, std::move(pkt), pkt_start);
  return true;
}

bool Runtime::management_run(nic::NicExecContext& ctx) {
  last_mgmt_ = sim_.now();
  mgmt_dirty_ = false;
  ctx.charge(cfg_.sched_bookkeeping_ns * 2);

  check_autoscale();
  if (!tenants_.empty() && !node_down_) tenant_scan(ctx);
  if (cfg_.supervise && !node_down_) supervise_scan();
  if (tracer_.enabled() && metrics_.due(sim_.now())) snapshot_metrics();

  // Explicit group migrations outrank policy migrations and ignore the
  // cooldown/EWMA gates — the application asked for them.  One member at
  // a time through the single migration slot.
  if (!migration_.has_value() && !pending_group_migs_.empty()) {
    const auto [id, to] = pending_group_migs_.front();
    pending_group_migs_.pop_front();
    ctx.charge(cfg_.sched_bookkeeping_ns);
    start_migration(id, to);  // skip members already home / killed
    return true;
  }

  if (!cfg_.enable_migration || migration_.has_value() ||
      !fcfs_stats_.seeded()) {
    return false;
  }
  // Rate-limit placement changes: EWMA estimates must settle, and
  // migration thrash (push-pull oscillation) costs far more than a
  // slightly stale placement.
  if (fcfs_samples_ < 2000 ||
      sim_.now() - last_migration_end_ < cfg_.migration_cooldown) {
    return false;
  }

  const double mean = fcfs_stats_.mean();
  if (mean > static_cast<double>(cfg_.mean_thresh)) {
    // Push migration: evict the NIC actor contributing the highest load.
    if (const ActorControl* heaviest = push_candidate(); heaviest != nullptr) {
      return start_migration(heaviest->id, ActorLoc::kHost);
    }
  } else if (mean < (1.0 - cfg_.alpha) * static_cast<double>(cfg_.mean_thresh) &&
             fcfs_util_ < 0.6) {
    // Pull migration: bring back the lightest host actor — only with
    // genuine CPU headroom on the FCFS cores (§3.2.2).
    if (const ActorControl* lightest = pull_candidate(); lightest != nullptr) {
      return start_migration(lightest->id, ActorLoc::kNic);
    }
  }
  return false;
}

const ActorControl* Runtime::push_candidate() const {
  const ActorControl* heaviest = nullptr;
  for (const auto& [id, ac] : actors_) {
    (void)id;
    if (ac.killed || ac.loc != ActorLoc::kNic || ac.group != kNoGroup ||
        ac.mig != MigState::kStable || !ac.latency.seeded()) {
      continue;
    }
    if (heaviest == nullptr || ac.load() > heaviest->load()) heaviest = &ac;
  }
  return heaviest;
}

const ActorControl* Runtime::pull_candidate() const {
  const ActorControl* lightest = nullptr;
  for (const auto& [id, ac] : actors_) {
    (void)id;
    if (ac.killed || ac.loc != ActorLoc::kHost || ac.actor->host_pinned() ||
        ac.group != kNoGroup || ac.mig != MigState::kStable) {
      continue;
    }
    if (lightest == nullptr || ac.load() < lightest->load()) lightest = &ac;
  }
  return lightest;
}

// ------------------------------------------------ management-core wakeups --

void Runtime::mgmt_park(bool heartbeat) {
  const Ns now = sim_.now();
  if (mgmt_wake_at_ <= now) {
    if (!heartbeat) return;  // no tick outstanding: sleep until woken
    mgmt_wake_at_ = now + cfg_.mgmt_period;
  }
  mgmt_parked_ = true;
  const Ns due = mgmt_dirty_ ? now : mgmt_next_deadline();
  if (due == kNever) return;  // quiescent: nothing to schedule
  arm_mgmt(grid_tick_at_or_after(mgmt_wake_at_, cfg_.mgmt_period, due));
}

void Runtime::arm_mgmt(Ns at) {
  if (mgmt_armed_ <= at) return;
  mgmt_armed_ = at;
  sim_.schedule_at(at, [this, at] {
    if (mgmt_armed_ != at) return;  // superseded: core 0 ran or re-armed
    mgmt_armed_ = kNever;
    nic_.wake_core(0);
  });
}

void Runtime::mgmt_kick() {
  if (mgmt_dirty_) return;  // the next tick is armed, or core 0 is awake
  mgmt_dirty_ = true;
  if (!mgmt_parked_) return;
  mgmt_catch_up(sim_.now());
  arm_mgmt(mgmt_wake_at_);
}

void Runtime::mgmt_catch_up(Ns now) {
  if (!mgmt_parked_ || mgmt_wake_at_ >= now) return;
  // The grid ticks first_tick, ..., last are the ones before `now`.  A
  // tick runs a management pass when a period has passed since the last
  // one — every skipped tick but possibly the first.
  const Ns period = cfg_.mgmt_period;
  const Ns first_tick = mgmt_wake_at_;
  mgmt_wake_at_ = grid_tick_at_or_after(first_tick, period, now);
  const Ns last = mgmt_wake_at_ - period;
  const Ns first =
      first_tick - last_mgmt_ >= period ? first_tick : first_tick + period;
  if (first > last) return;
  last_mgmt_ = last;
  // No NIC core started work since core 0 parked (that would have
  // kicked), so busy counters stood still: the first window closed on the
  // skipped ticks measures the work before the park, and any later one
  // reads zero.  The windows change no core roles — DRR cores make the
  // window a deadline, so it was never skipped.
  const Ns window = period * 8;
  const Ns first_window =
      grid_tick_at_or_after(first, period, last_autoscale_ + window);
  if (first_window > last) return;
  close_autoscale_window(first_window);
  const Ns last_window = first_window + (last - first_window) / window * window;
  if (last_window > first_window) close_autoscale_window(last_window);
}

Ns Runtime::mgmt_next_deadline() const {
  const Ns now = sim_.now();
  const Ns period = cfg_.mgmt_period;
  Ns due = kNever;
  const auto at = [&due, now](Ns t) { due = std::min(due, std::max(t, now)); };

  if (!pending_group_migs_.empty()) at(now);
  // Autoscale decisions only exist while there are DRR cores.
  if (drr_cores() > 0) at(last_autoscale_ + period * 8);
  if (tracer_.enabled()) at(metrics_.next_due(now));

  // Policy migrations, once the cooldown ends.  A pull also waits for
  // FCFS headroom, which only an autoscale window can report.
  if (cfg_.enable_migration && !migration_.has_value() &&
      fcfs_stats_.seeded() && fcfs_samples_ >= 2000) {
    const Ns ready = last_migration_end_ + cfg_.migration_cooldown;
    const double mean = fcfs_stats_.mean();
    if (mean > static_cast<double>(cfg_.mean_thresh)) {
      if (push_candidate() != nullptr) at(ready);
    } else if (mean < (1.0 - cfg_.alpha) *
                          static_cast<double>(cfg_.mean_thresh) &&
               pull_candidate() != nullptr) {
      at(fcfs_util_ < 0.6 ? ready
                          : std::max(ready, last_autoscale_ + period * 8));
    }
  }
  if (node_down_) return due;

  for (const auto& slot : tenants_) {
    const TenantState* t = slot.get();
    if (t == nullptr) continue;
    if (nic_.tm().class_drops(t->id) > t->tm_drops_seen) at(now);
    if (t->quarantined) continue;
    if (!t->mbox.empty()) at(now);
    if (t->unthrottle_pending) at(t->throttled_until);
    if (t->cfg.throttle_threshold != 0 &&
        t->violations_window >= t->cfg.throttle_threshold) {
      at(t->throttled(now) ? t->throttled_until : now);
    }
  }

  if (cfg_.supervise) {
    for (const auto& [id, ac] : actors_) {
      (void)id;
      if (ac.quarantined) continue;
      if (!ac.killed) {
        if (cfg_.supervise_restart_decay > 0 && ac.restarts > 0 &&
            ac.last_revive_at > 0) {
          at(ac.last_revive_at + cfg_.supervise_restart_decay);
        }
        continue;
      }
      if (const TenantState* t = tenant(ac.tenant); t != nullptr) {
        if (t->quarantined) continue;
        if (t->throttled(now)) {
          at(t->throttled_until);
          continue;
        }
      }
      at(ac.restarts >= cfg_.supervise_quarantine_after
             ? now
             : ac.killed_at + cfg_.supervise_restart_delay);
    }
  }
  return due;
}

void Runtime::snapshot_metrics() {
  trace::Snapshot snap;
  snap.ts = sim_.now();
  snap.fcfs_cores = fcfs_cores();
  snap.drr_cores = drr_cores();
  snap.fcfs_util = fcfs_util_;
  snap.drr_util = drr_util_;
  snap.upgrades = upgrades_;
  snap.downgrades = downgrades_;
  snap.push_migrations = push_migrations_;
  snap.pull_migrations = pull_migrations_;
  const ChannelDirStats& th = channel_.to_host_stats();
  const ChannelDirStats& tn = channel_.to_nic_stats();
  snap.chan_sent = th.sent + tn.sent;
  snap.chan_queued = th.queued + tn.queued;
  snap.chan_retransmits = th.retransmits + tn.retransmits;
  snap.chan_backpressure_ns = th.backpressure_ns + tn.backpressure_ns;
  snap.resp_mean_ns = response_hist_.mean_ns();
  snap.resp_p50_ns = response_hist_.p50();
  snap.resp_p99_ns = response_hist_.p99();
  snap.resp_count = response_hist_.count();
  if (engine_ != nullptr && engine_domain_ != sim::kNoDomain) {
    const sim::DomainStats es = engine_->stats(engine_domain_);
    snap.eng_events = es.events;
    snap.eng_windows = es.windows;
    snap.eng_stalled_windows = es.stalled_windows;
    snap.eng_handoffs_in = es.handoffs_in;
    snap.eng_handoffs_out = es.handoffs_out;
    snap.eng_ring_peak = es.ring_high_watermark;
    snap.eng_lookahead_ns =
        es.effective_lookahead == ~Ns{0} ? 0 : es.effective_lookahead;
  }
  snap.actors.reserve(actors_.size());
  for (const auto& [id, ac] : actors_) {
    if (ac.killed) continue;
    trace::ActorSample a;
    a.actor = id;
    a.name = ac.actor->name();
    a.on_nic = ac.loc == ActorLoc::kNic;
    a.is_drr = ac.is_drr;
    a.lat_mean_ns = ac.latency.mean();
    a.lat_std_ns = ac.latency.stddev();
    a.lat_tail_ns = ac.latency.tail();
    a.exec_mean_ns = ac.exec_cost.seeded() ? ac.exec_cost.mean() : 0.0;
    a.mailbox = ac.mailbox.size();
    a.working_set = objects_.working_set(id);
    a.requests = ac.requests;
    a.migrations = ac.migrations;
    snap.actors.push_back(std::move(a));
  }
  metrics_.record(std::move(snap));
}

void Runtime::check_autoscale() {
  if (!close_autoscale_window(sim_.now())) return;
  const unsigned n_fcfs = fcfs_cores();
  const unsigned n_drr = drr_cores();
  const double fcfs_util = fcfs_util_;
  const double drr_util = drr_util_;

  // §3.2.4: grow the DRR group when it saturates and FCFS can spare a
  // core; shrink it when it idles.
  if (n_drr > 0 && drr_util >= 0.95 && n_fcfs > 1 &&
      fcfs_util < static_cast<double>(n_fcfs - 1) / n_fcfs) {
    // Fair share: a single tenant saturating DRR may not annex FCFS
    // cores past its weight share — that would starve other tenants of
    // forwarding capacity (the aggressor's goal, exactly).
    if (fair_share_allows_spawn(n_drr)) spawn_drr_core();
  } else if (n_drr > 0 && (drr_queue_.empty() || (drr_util < 0.5 &&
                                                  fcfs_util > 0.9))) {
    retire_drr_core();
  }
}

bool Runtime::close_autoscale_window(Ns at) {
  if (at - last_autoscale_ < cfg_.mgmt_period * 8) return false;
  const Ns window = at - busy_snapshot_at_;
  if (window == 0) return false;

  double fcfs_busy = 0.0;
  double drr_busy = 0.0;
  unsigned n_fcfs = 0;
  unsigned n_drr = 0;
  for (unsigned i = 0; i < nic_.active_cores(); ++i) {
    const Ns busy = nic_.core_busy_ns(i) - busy_snapshot_[i];
    const double util =
        static_cast<double>(busy) / static_cast<double>(window);
    if (roles_[i] == CoreRole::kFcfs) {
      fcfs_busy += util;
      ++n_fcfs;
    } else {
      drr_busy += util;
      ++n_drr;
    }
    busy_snapshot_[i] = nic_.core_busy_ns(i);
  }
  busy_snapshot_at_ = at;
  last_autoscale_ = at;
  fcfs_util_ = n_fcfs > 0 ? fcfs_busy / n_fcfs : 0.0;
  drr_util_ = n_drr > 0 ? drr_busy / n_drr : 0.0;
  return true;
}

void Runtime::spawn_drr_core() {
  // Convert the highest-indexed FCFS core (never core 0).
  for (unsigned i = nic_.active_cores(); i-- > 1;) {
    if (roles_[i] == CoreRole::kFcfs) {
      roles_[i] = CoreRole::kDrr;
      mgmt_kick();  // DRR cores make the autoscale window a deadline
      if (tracer_.enabled()) {
        tracer_.instant(trace::Cat::kSched, "drr_core_spawn", i, 0,
                        {"drr_cores", static_cast<double>(drr_cores())},
                        {"drr_util", drr_util_});
      }
      nic_.wake_core(i);
      return;
    }
  }
}

bool Runtime::drr_work_pending(Ns* next_wake) const {
  for (const ActorId id : drr_queue_) {
    const auto* ac = control(id);
    if (ac == nullptr || ac->killed || ac->mailbox.empty()) continue;
    if (const TenantState* t = tenant(ac->tenant); t != nullptr) {
      if (t->quarantined) continue;
      if (t->throttled(sim_.now())) {
        if (next_wake != nullptr &&
            (*next_wake == 0 || t->throttled_until < *next_wake)) {
          *next_wake = t->throttled_until;
        }
        continue;
      }
    }
    return true;
  }
  return false;
}

void Runtime::retire_drr_core() {
  // Never retire the last DRR core while DRR mailboxes still hold work:
  // FCFS cores do not scan those mailboxes, so the parked requests would
  // be stranded forever.
  if (drr_cores() <= 1 && drr_work_pending()) return;
  for (unsigned i = 1; i < nic_.active_cores(); ++i) {
    if (roles_[i] == CoreRole::kDrr) {
      roles_[i] = CoreRole::kFcfs;
      if (tracer_.enabled()) {
        tracer_.instant(trace::Cat::kSched, "drr_core_retire", i, 0,
                        {"drr_cores", static_cast<double>(drr_cores())},
                        {"drr_util", drr_util_});
      }
      nic_.wake_core(i);
      return;
    }
  }
}

void Runtime::wake_drr_cores() {
  for (unsigned i = 0; i < nic_.active_cores(); ++i) {
    if (roles_[i] == CoreRole::kDrr) nic_.wake_core(i);
  }
}

unsigned Runtime::fcfs_cores() const noexcept {
  unsigned n = 0;
  for (unsigned i = 0; i < nic_.active_cores() && i < roles_.size(); ++i) {
    if (roles_[i] == CoreRole::kFcfs) ++n;
  }
  return n;
}

unsigned Runtime::drr_cores() const noexcept {
  unsigned n = 0;
  for (unsigned i = 0; i < nic_.active_cores() && i < roles_.size(); ++i) {
    if (roles_[i] == CoreRole::kDrr) ++n;
  }
  return n;
}

// -------------------------------------------------------- host scheduling --

bool Runtime::host_run_once(hostsim::HostExecContext& ctx, unsigned core) {
  (void)core;
  // Any free core drains the NIC->host channel (iPipe allocates one I/O
  // channel per host runtime thread, §3.5 — a single poller would cap
  // migrated-actor throughput at one core).
  if (channel_.host_has_data()) {
    if (auto msg = channel_.host_poll()) {
      // Receiving a message costs the same descriptor/copy work as a
      // DPDK frame; the channel bookkeeping is iPipe's own tax on top.
      ctx.charge(cfg_.channel_handling_ns);
      if (msg->dst_actor == kWatchdogActor) {
        if (msg->msg_type == kWatchdogPongMsg) {
          last_pong_ = sim_.now();
          pings_unanswered_ = 0;
          // First pong from a revived NIC: bring the actors home.
          if (evacuated_ && !nic_down_) begin_reoffload();
        }
        return true;
      }
      auto pkt = std::move(*msg).to_packet(pool_);
      ctx.charge_rx(pkt->frame_size);
      pkt->nic_arrival = sim_.now();
      ActorControl* ac = control(pkt->dst_actor);
      if (ac == nullptr || ac->killed) return true;  // dropped
      serve_on_host(ctx, *ac, std::move(pkt));
      return true;
    }
    ctx.charge(cfg_.channel_handling_ns);
    return true;
  }

  // Wire traffic that bypassed the NIC cores (off-path / overflow path).
  if (auto pkt = host_.rx_pop()) {
    ctx.charge_rx(pkt->frame_size);
    ActorControl* ac = control(pkt->dst_actor);
    if (ac == nullptr || ac->killed) return true;
    // Degraded mode: with the NIC (and its TM classifier) dead, the VF
    // ingress budgets are re-applied here — a tenant must not get free
    // line-rate access just because the policer's usual home crashed.
    if ((nic_down_ || evacuated_) && ac->tenant != kNoTenant) {
      if (TenantState* t = tenant(ac->tenant); t != nullptr) {
        const Ns now = sim_.now();
        if (t->quarantined || t->throttled(now)) {
          ++t->stats.throttle_drops;
          ++degraded_drops_;
          return true;
        }
        if (!t->ingress_admit(pkt->frame_size, now)) {
          ++t->stats.policer_drops;
          t->note_violation(now);
          mgmt_kick();
          ++degraded_drops_;
          return true;
        }
        ++t->stats.admitted_packets;
        t->stats.admitted_bytes += pkt->frame_size;
      }
    }
    serve_on_host(ctx, *ac, std::move(pkt));
    return true;
  }

  // Local host-side actor mailboxes.
  if (!host_local_queue_.empty()) {
    auto pkt = std::move(host_local_queue_.front());
    host_local_queue_.pop_front();
    ActorControl* ac = control(pkt->dst_actor);
    if (ac == nullptr || ac->killed) return true;
    serve_on_host(ctx, *ac, std::move(pkt));
    return true;
  }

  return false;
}

void Runtime::serve_on_host(hostsim::HostExecContext& ctx, ActorControl& ac,
                            netsim::PacketPtr pkt) {
  if (buffering(ac)) {
    ac.mig_buffer.push_back(std::move(pkt));
    return;
  }
  if (ac.loc == ActorLoc::kNic) {
    // Stale: bounce back to the NIC (reliably — a full ring must not eat
    // the request).
    ctx.charge(send_or_queue(MemSide::kHost,
                             ChannelMsg::from_packet(std::move(*pkt))));
    return;
  }
  execute_on_host(ctx, ac, std::move(pkt));
}

void Runtime::execute_on_host(hostsim::HostExecContext& ctx, ActorControl& ac,
                              netsim::PacketPtr pkt) {
  const Ns queue_delay = sim_.now() - pkt->nic_arrival;
  const Ns before = ctx.consumed();
  {
    HostEnv env(*this, ac, ctx);
    ++requests_on_host_;
    ++ac.requests;
    ac.actor->handle(env, *pkt);
  }
  const Ns exec = ctx.consumed() - before;
  ac.latency.add(static_cast<double>(queue_delay + exec));
  ac.exec_cost.add(static_cast<double>(exec));
  response_hist_.add(queue_delay + exec);
  if (tracer_.enabled()) {
    tracer_.span(trace::Cat::kExec, "host_handle",
                 trace::tid::kHostCore0 + ctx.core(), sim_.now() + before,
                 sim_.now() + ctx.consumed(), ac.id,
                 {"queue_us", static_cast<double>(queue_delay) / 1000.0});
  }
  // Host-side watchdog only exists under supervision: without a restart
  // path a host kill would be permanent, which the original runtime
  // never did.
  if (cfg_.supervise && exec > cfg_.watchdog_limit) {
    kill_actor(ac.id, /*isolation_trap=*/false);
  }
}

void Runtime::deliver_local(ActorId dst, netsim::PacketPtr msg, MemSide from) {
  ActorControl* ac = control(dst);
  if (ac == nullptr || ac->killed) return;
  msg->nic_arrival = sim_.now();

  if (buffering(*ac)) {
    ac->mig_buffer.push_back(std::move(msg));
    return;
  }

  const MemSide target =
      ac->loc == ActorLoc::kNic ? MemSide::kNic : MemSide::kHost;
  if (from != target) {
    // Crossing PCIe: go through the (reliable) message channel.  The
    // sender's core slice has already retired, so the post cost cannot be
    // charged — but the message can no longer be silently dropped either.
    (void)send_or_queue(from, ChannelMsg::from_packet(std::move(*msg)));
    return;
  }

  if (target == MemSide::kNic) {
    if (ac->is_drr) {
      ac->mailbox.push_back(std::move(msg));
      wake_drr_cores();
    } else {
      nic_.tm().push(std::move(msg));
    }
  } else {
    host_local_queue_.push_back(std::move(msg));
    host_.wake_one();
  }
}

}  // namespace ipipe
