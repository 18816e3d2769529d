#include "nfp/nic_pool.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <limits>
#include <stdexcept>

#include "common/rng.h"
#include "ipipe/env.h"
#include "netsim/packet.h"
#include "nic/accelerator.h"

namespace ipipe::nfp {
namespace {

/// Offline StageCtx pricing cost hooks against one NicConfig.  Emitted
/// packets are discarded (the meter measures processing cost, not
/// transport); time advances with the charges plus a fixed inter-packet
/// gap so time-dependent stages (token refill) behave realistically.
class CostMeter final : public StageCtx {
 public:
  explicit CostMeter(const nic::NicConfig& cfg) : cfg_(cfg), rng_(0xC057ULL) {}

  [[nodiscard]] Ns now() const override { return now_; }
  [[nodiscard]] Rng& rng() override { return rng_; }

  void charge(Ns t) override { acc_ += t; }
  void compute(double units) override {
    // Same conversion the NIC-side ActorEnv uses (IPipeConfig default
    // achieved IPC for the wimpy in-order cores).
    acc_ += static_cast<Ns>(units / (kNicIpc * cfg_.freq_ghz));
  }
  void mem(std::uint64_t ws, std::uint64_t n) override {
    // Resolve the working set against the memory hierarchy: dependent
    // random accesses pay the latency of the smallest level they fit in.
    double lat = cfg_.dram.latency_ns;
    if (ws <= cfg_.l1.capacity_bytes) {
      lat = cfg_.l1.latency_ns;
    } else if (ws <= cfg_.l2.capacity_bytes) {
      lat = cfg_.l2.latency_ns;
    }
    acc_ += static_cast<Ns>(lat * static_cast<double>(n));
  }
  void accel(nic::AccelKind kind, std::uint32_t bytes,
             std::uint32_t batch) override {
    // Per-item amortized engine cost; the bank timings are the fitted
    // Table-3 values (per-config engine banks live on NicModel, which an
    // offline meter deliberately does not instantiate).
    acc_ += static_cast<Ns>(bank_.per_item_us(kind, bytes, batch) * 1000.0);
  }
  [[nodiscard]] netsim::PacketPtr clone(const netsim::Packet& src) override {
    return netsim::PacketPtr(new netsim::Packet(src),
                             netsim::PacketDeleter{nullptr});
  }

  void advance(Ns gap) { now_ += gap; }
  [[nodiscard]] Ns consumed() const noexcept { return acc_; }

 protected:
  void do_emit(netsim::PacketPtr pkt) override { pkt.reset(); }

 private:
  const nic::NicConfig& cfg_;
  nic::AcceleratorBank bank_;
  Rng rng_;
  Ns now_ = 1;
  Ns acc_ = 0;
};

/// Deterministic synthetic packet `i` of the measurement stream: a small
/// set of flows, mixed frame sizes, sequence ids 1..n (what stages see
/// in production).
netsim::PacketPtr synth_packet(std::size_t i) {
  auto pkt = netsim::alloc_packet();
  pkt->src = 1000;
  pkt->dst = 0;
  pkt->src_actor = 7;
  pkt->msg_type = kNfData;
  pkt->flow = static_cast<std::uint32_t>(i % 16);
  pkt->request_id = static_cast<std::uint64_t>(i + 1);
  pkt->frame_size = (i % 4 == 0) ? netsim::kMtuFrameSize : 512;
  pkt->payload.assign(64, static_cast<std::uint8_t>(i));
  return pkt;
}

}  // namespace

PipelineCost measure_pipeline_cost(const PipelineSpec& spec,
                                   const nic::NicConfig& cfg,
                                   std::uint64_t seed, std::size_t samples) {
  PipelineCost out;
  for (std::size_t s = 0; s < spec.stages.size(); ++s) {
    auto stage = make_stage(spec.stages[s], seed + s);
    CostMeter meter(cfg);
    meter.set_stats(&stage->stats());
    const Ns period = stage->tick_period();
    Ns next_tick = period;
    for (std::size_t i = 0; i < samples; ++i) {
      meter.advance(usec(1));  // ~1Mpps measurement stream
      if (period > 0 && meter.now() >= next_tick) {
        stage->tick(meter);
        next_tick += period;
      }
      stage->process(meter, synth_packet(i));
    }
    StageCost sc;
    sc.name = stage->name();
    sc.ns_per_pkt =
        static_cast<double>(meter.consumed()) / static_cast<double>(samples);
    sc.state_bytes = stage->state_bytes();
    out.total_ns_per_pkt += sc.ns_per_pkt;
    out.state_bytes += sc.state_bytes;
    out.stages.push_back(std::move(sc));
  }
  return out;
}

std::size_t NicPool::add_nic(std::string name, nic::NicConfig cfg) {
  nics_.push_back(PoolNic{std::move(name), std::move(cfg), 0.0, 0, {}});
  return nics_.size() - 1;
}

void NicPool::set_tenant_quota(TenantId tenant, double max_fraction) {
  if (tenant == kNoTenant) return;
  quotas_[tenant] = std::min(1.0, std::max(1e-6, max_fraction));
}

double NicPool::tenant_quota(TenantId tenant) const {
  const auto it = quotas_.find(tenant);
  return it == quotas_.end() ? 1.0 : it->second;
}

double NicPool::tenant_utilization(std::size_t nic, TenantId tenant) const {
  if (nic >= nics_.size()) return 0.0;
  const auto it = nics_[nic].tenant_util.find(tenant);
  return it == nics_[nic].tenant_util.end() ? 0.0 : it->second;
}

NicPool::Choice NicPool::choose(const PipelineSpec& spec, double offered_pps,
                                std::uint64_t seed, TenantId tenant) const {
  // Per-NIC cost of this pipeline and the utilization it would add:
  // offered_pps * ns/pkt spread over the card's cores.  Failed cards are
  // not candidates.
  struct Candidate {
    bool live = false;
    double added = 0.0;
    double resulting = 0.0;
    double tenant_resulting = 0.0;  ///< tenant's share after placement
    bool quota_ok = true;
    PipelineCost cost;
  };
  const double quota = tenant_quota(tenant);
  std::vector<Candidate> cand(nics_.size());
  for (std::size_t i = 0; i < nics_.size(); ++i) {
    if (nics_[i].failed) continue;
    cand[i].live = true;
    cand[i].cost = measure_pipeline_cost(spec, nics_[i].cfg, seed);
    cand[i].added = offered_pps * cand[i].cost.total_ns_per_pkt / 1e9 /
                    static_cast<double>(nics_[i].cfg.cores);
    cand[i].resulting = nics_[i].utilization + cand[i].added;
    cand[i].tenant_resulting =
        tenant_utilization(i, tenant) + cand[i].added;
    cand[i].quota_ok =
        tenant == kNoTenant || cand[i].tenant_resulting <= quota;
  }

  // First choice: among live NICs that stay under the saturation
  // threshold *and* under the tenant's quota, the one ending least
  // utilized (balances the pool as pipelines land).
  Choice out;
  std::size_t best = nics_.size();
  for (std::size_t i = 0; i < nics_.size(); ++i) {
    if (!cand[i].live || cand[i].resulting > saturation_ ||
        !cand[i].quota_ok) {
      continue;
    }
    if (best == nics_.size() || cand[i].resulting < cand[best].resulting) {
      best = i;
    }
  }
  if (best == nics_.size()) {
    // Spillover: prefer quota-respecting cards even when saturated; only
    // when the tenant's quota excludes every card do we breach it — on
    // the card where the tenant's share stays smallest — and flag it.
    out.spilled = true;
    for (std::size_t i = 0; i < nics_.size(); ++i) {
      if (!cand[i].live || !cand[i].quota_ok) continue;
      if (best == nics_.size() || cand[i].resulting < cand[best].resulting) {
        best = i;
      }
    }
    if (best == nics_.size()) {
      out.quota_limited = true;
      for (std::size_t i = 0; i < nics_.size(); ++i) {
        if (!cand[i].live) continue;
        if (best == nics_.size() ||
            cand[i].tenant_resulting < cand[best].tenant_resulting) {
          best = i;
        }
      }
    }
  }
  out.nic = best;  // nics_.size() when every card is failed
  if (best < nics_.size()) {
    out.added = cand[best].added;
    out.cost = std::move(cand[best].cost);
  }
  return out;
}

void NicPool::commit(PlacedPipeline& p, const Choice& c) {
  p.nic = c.nic;
  p.on_host = false;
  p.utilization_added = c.added;
  nics_[c.nic].utilization += c.added;
  nics_[c.nic].pipelines += 1;
  if (p.tenant != kNoTenant) {
    nics_[c.nic].tenant_util[p.tenant] += c.added;
  }
}

void NicPool::release(PlacedPipeline& p) {
  if (p.on_host) {
    p.on_host = false;
    return;
  }
  PoolNic& n = nics_[p.nic];
  n.utilization = std::max(0.0, n.utilization - p.utilization_added);
  if (n.pipelines > 0) n.pipelines -= 1;
  if (p.tenant != kNoTenant) {
    const auto it = n.tenant_util.find(p.tenant);
    if (it != n.tenant_util.end()) {
      it->second = std::max(0.0, it->second - p.utilization_added);
    }
  }
  p.utilization_added = 0.0;
}

NicPool::Placement NicPool::place(const PipelineSpec& spec, double offered_pps,
                                  std::uint64_t seed, TenantId tenant) {
  if (nics_.empty()) {
    throw std::logic_error("NicPool::place called with no NICs in the pool");
  }

  PlacedPipeline rec;
  rec.id = next_pipeline_id_++;
  rec.spec = spec;
  rec.offered_pps = offered_pps;
  rec.seed = seed;
  rec.tenant = tenant;

  Choice c = choose(spec, offered_pps, seed, tenant);
  Placement p;
  if (c.nic == nics_.size()) {
    // Every card in the pool is dead: the pipeline runs on host cores,
    // degraded, until a revival brings a card back.
    rec.on_host = true;
    rec.degraded = true;
    rec.home_nic = 0;
    p.on_host = true;
    p.spilled = true;
  } else {
    commit(rec, c);
    rec.home_nic = c.nic;
    rec.degraded = c.spilled;
    p.nic = c.nic;
    p.spilled = c.spilled;
    p.quota_limited = c.quota_limited;
    p.utilization_added = c.added;
    p.cost = std::move(c.cost);
  }
  placed_.push_back(std::move(rec));
  return p;
}

NicPool::FailoverReport NicPool::fail_nic(std::size_t nic) {
  FailoverReport rep;
  if (nic >= nics_.size() || nics_[nic].failed) return rep;
  nics_[nic].failed = true;
  // Evict in placement order (deterministic) and re-place each pipeline
  // with the same logic fresh placements use.
  for (PlacedPipeline& r : placed_) {
    if (r.on_host || r.nic != nic) continue;
    release(r);
    const Choice c = choose(r.spec, r.offered_pps, r.seed, r.tenant);
    if (c.nic == nics_.size()) {
      r.on_host = true;
      r.degraded = true;
      ++rep.to_host;
      ++rep.degraded;
      continue;
    }
    commit(r, c);
    r.degraded = c.spilled;
    ++rep.moved;
    if (c.spilled) ++rep.degraded;
  }
  return rep;
}

std::size_t NicPool::revive_nic(std::size_t nic) {
  if (nic >= nics_.size() || !nics_[nic].failed) return 0;
  nics_[nic].failed = false;
  // Bring home every pipeline whose original placement was this card:
  // host-fallback ones first (they hurt the most), then by measured cost
  // ascending — cheap pipelines buy back the most offload per byte moved.
  struct Homecoming {
    PlacedPipeline* rec = nullptr;
    Choice choice;
  };
  std::vector<Homecoming> home;
  for (PlacedPipeline& r : placed_) {
    if (r.home_nic != nic) continue;
    if (!r.on_host && r.nic == nic) continue;  // never left (placed later)
    Homecoming h;
    h.rec = &r;
    h.choice.nic = nic;
    h.choice.cost = measure_pipeline_cost(r.spec, nics_[nic].cfg, r.seed);
    h.choice.added = r.offered_pps * h.choice.cost.total_ns_per_pkt / 1e9 /
                     static_cast<double>(nics_[nic].cfg.cores);
    home.push_back(std::move(h));
  }
  std::stable_sort(home.begin(), home.end(),
                   [](const Homecoming& a, const Homecoming& b) {
                     if (a.rec->on_host != b.rec->on_host) {
                       return a.rec->on_host;
                     }
                     if (a.choice.cost.total_ns_per_pkt !=
                         b.choice.cost.total_ns_per_pkt) {
                       return a.choice.cost.total_ns_per_pkt <
                              b.choice.cost.total_ns_per_pkt;
                     }
                     return a.rec->id < b.rec->id;
                   });
  std::size_t moved = 0;
  for (Homecoming& h : home) {
    release(*h.rec);
    commit(*h.rec, h.choice);
    h.rec->degraded = false;
    ++moved;
  }
  return moved;
}

std::size_t NicPool::degraded_count() const noexcept {
  std::size_t n = 0;
  for (const PlacedPipeline& r : placed_) {
    if (r.degraded || r.on_host) n += 1;
  }
  return n;
}

}  // namespace ipipe::nfp
