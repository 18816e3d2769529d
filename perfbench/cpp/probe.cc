#include <algorithm>
#include <cstdio>

#include "bench.h"
#include "common/stats.h"

namespace perfbench {

using namespace ipipe;

void Probe::install(testbed::ParallelCluster& cluster) {
  cluster_ = &cluster;
  for (std::size_t i = 0; i < cluster.server_count(); ++i) {
    Runtime& rt = cluster.server(i).runtime();
    nic_.push_back(std::make_unique<NicFwProbe>(rt));
    host_.push_back(std::make_unique<HostRtProbe>(rt));
    cluster.server(i).host().set_runtime(host_.back().get());
    reinstall_nic(i);
  }
}

void Probe::reinstall_nic(std::size_t server) {
  cluster_->server(server).nic().set_firmware(nic_[server].get());
}

void Probe::rewire_chaos(testbed::ParallelCluster& cluster,
                         netsim::ChaosController& chaos) {
  // Same hooks as ParallelCluster::make_chaos, plus the re-install.  The
  // firmware wrapper goes back only when the restore really re-installed
  // the runtime's firmware: that call has just woken every core, so ours
  // schedules nothing.
  for (std::size_t i = 0; i < cluster.server_count(); ++i) {
    testbed::ServerNode* node = &cluster.server(i);
    chaos.register_node(
        node->id(),
        {.crash = [node] { node->crash(); },
         .restore =
             [this, node, i] {
               const bool was_down = node->down();
               node->restore();
               if (was_down && !node->down()) reinstall_nic(i);
             },
         .pcie_corrupt =
             [node](double rate) { node->runtime().set_channel_fault(rate); },
         .nic_crash = [node] { node->runtime().nic_crash(); },
         .nic_restore =
             [this, node, i] {
               const bool was_down = node->runtime().nic_down();
               node->runtime().nic_restore();
               if (was_down && !node->runtime().nic_down()) reinstall_nic(i);
             },
         .pcie_flap =
             [node](bool down) { node->runtime().set_pcie_link(!down); },
         .accel_fail =
             [node](std::uint32_t bank, bool failed) {
               node->runtime().set_accel_failed(bank, failed);
             }});
  }
}

workloads::ClientGen::MakeReq Probe::wrap(workloads::ClientGen::MakeReq make) {
  return [this, make = std::move(make)](std::uint64_t seq, Rng& rng,
                                        netsim::PacketPool& pool) {
    const auto t0 = Clock::now();
    auto pkt = make(seq, rng, pool);
    make_.wall_s += seconds_since(t0);
    ++make_.calls;
    return pkt;
  };
}

namespace {

template <typename Wrapper>
CallStats sum(const std::vector<std::unique_ptr<Wrapper>>& wrappers) {
  CallStats total;
  for (const auto& p : wrappers) {
    total.calls += p->stats.calls;
    total.idle += p->stats.idle;
    total.wall_s += p->stats.wall_s;
  }
  return total;
}

}  // namespace

void Probe::end_timed() {
  nic_timed_ = sum(nic_);
  host_timed_ = sum(host_);
  make_timed_ = make_;
}

void Slicer::finish(Outcome& out) {
  out.step_wall_s = wall_s_;
  out.step_ref_s = ref_s_;
  if (probe_ != nullptr) probe_->end_timed();
}

double calibration_s() {
  constexpr std::size_t kWords = 512 * 1024;  // 4 MiB
  constexpr std::size_t kIters = 200'000;
  static std::vector<std::uint64_t> table(kWords, 1);
  static std::uint64_t sink = 0;
  const auto t0 = Clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  std::uint64_t acc = sink;
  for (std::size_t i = 0; i < kIters; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    std::uint64_t& slot = table[(x >> 32) & (kWords - 1)];
    acc += slot;
    slot = acc ^ x;
  }
  sink = acc;
  return seconds_since(t0);
}

double Probe::span_total(const std::string& name) const {
  double total = 0.0;
  for (const auto& s : spans_) {
    if (s.name == name) total += s.end_s - s.start_s;
  }
  return total;
}

namespace {

struct BusyTotals {
  double host_ns = 0.0;
  double nic_ns = 0.0;
};

BusyTotals busy(testbed::ParallelCluster& cluster) {
  BusyTotals b;
  for (std::size_t i = 0; i < cluster.server_count(); ++i) {
    b.host_ns += static_cast<double>(cluster.server(i).host().total_busy_ns());
    b.nic_ns += static_cast<double>(cluster.server(i).nic().total_busy_ns());
  }
  return b;
}

}  // namespace

void read_common_layers(testbed::ParallelCluster& cluster, Outcome& out) {
  auto& engine = cluster.engine();
  auto& L = out.layer;
  out.events = engine.executed();
  std::uint64_t stalled = 0;
  std::uint64_t handoffs = 0;
  for (sim::DomainId d = 0; d < engine.domain_count(); ++d) {
    const auto st = engine.stats(d);
    stalled += st.stalled_windows;
    handoffs += st.handoffs_out;
  }
  const double ops = static_cast<double>(std::max<std::uint64_t>(out.ops, 1));
  L["sim.events"] = static_cast<double>(out.events);
  L["sim.events_per_op"] = static_cast<double>(out.events) / ops;
  L["sim.rounds"] = static_cast<double>(engine.rounds());
  L["sim.events_per_round"] =
      engine.rounds() > 0 ? static_cast<double>(out.events) /
                                static_cast<double>(engine.rounds())
                          : 0.0;
  L["sim.stalled_windows"] = static_cast<double>(stalled);
  L["sim.handoffs"] = static_cast<double>(handoffs);

  std::uint64_t tm_drops = 0, on_nic = 0, on_host = 0, migrations = 0,
                downgrades = 0, chan_sent = 0, chan_retx = 0;
  double fcfs_util = 0.0, drr_util = 0.0, backpressure_ns = 0.0;
  std::size_t ring_hwm = 0;
  LatencyHistogram resp;
  const std::size_t n = cluster.server_count();
  for (std::size_t i = 0; i < n; ++i) {
    Runtime& rt = cluster.server(i).runtime();
    tm_drops += cluster.server(i).nic().tm().drops();
    on_nic += rt.requests_on_nic();
    on_host += rt.requests_on_host();
    migrations += rt.push_migrations() + rt.pull_migrations();
    downgrades += rt.downgrades();
    fcfs_util += rt.fcfs_util();
    drr_util += rt.drr_util();
    resp.merge(rt.response_hist());
    for (const ChannelDirStats* c :
         {&rt.chan_to_host_stats(), &rt.chan_to_nic_stats()}) {
      chan_sent += c->sent;
      chan_retx += c->retransmits;
      backpressure_ns += static_cast<double>(c->backpressure_ns);
      ring_hwm = std::max(ring_hwm, c->ring_high_watermark);
    }
  }
  L["nic.tm_drops"] = static_cast<double>(tm_drops);
  L["rt.nic_share"] = on_nic + on_host > 0
                          ? static_cast<double>(on_nic) /
                                static_cast<double>(on_nic + on_host)
                          : 0.0;
  L["rt.migrations"] = static_cast<double>(migrations);
  L["rt.downgrades"] = static_cast<double>(downgrades);
  L["rt.fcfs_util"] = n > 0 ? fcfs_util / static_cast<double>(n) : 0.0;
  L["rt.drr_util"] = n > 0 ? drr_util / static_cast<double>(n) : 0.0;
  L["rt.nic_resp_p99_us"] = to_us(resp.p99());
  L["chan.sent"] = static_cast<double>(chan_sent);
  L["chan.retransmits"] = static_cast<double>(chan_retx);
  L["chan.backpressure_us"] = backpressure_ns / 1e3;
  L["chan.ring_hwm_b"] = static_cast<double>(ring_hwm);

  auto& net = cluster.net();
  L["net.frames"] = static_cast<double>(net.frames_sent());
  L["net.frames_per_op"] = static_cast<double>(net.frames_sent()) / ops;
  L["net.dropped"] = static_cast<double>(net.frames_dropped());
  L["net.delivered_ratio"] =
      net.frames_sent() > 0 ? static_cast<double>(net.frames_delivered()) /
                                  static_cast<double>(net.frames_sent())
                            : 0.0;
}

void BusyWindow::begin(testbed::ParallelCluster& cluster, Ns now) {
  const BusyTotals b = busy(cluster);
  start_ = now;
  host_ns_ = b.host_ns;
  nic_ns_ = b.nic_ns;
}

void BusyWindow::end(testbed::ParallelCluster& cluster, Ns now,
                     Outcome& out) const {
  const BusyTotals b = busy(cluster);
  const double window = static_cast<double>(now - start_);
  if (window <= 0) return;
  double host_cores = 0.0, nic_cores = 0.0;
  for (std::size_t i = 0; i < cluster.server_count(); ++i) {
    host_cores += cluster.server(i).host().active_cores();
    nic_cores += cluster.server(i).nic().active_cores();
  }
  const double host_busy = (b.host_ns - host_ns_) / window;
  const double nic_busy = (b.nic_ns - nic_ns_) / window;
  out.busy_cores = host_busy + nic_busy;
  out.layer["host.cores"] = host_busy;
  out.layer["nic.cores"] = nic_busy;
  out.layer["host.busy_share"] = host_cores > 0 ? host_busy / host_cores : 0.0;
  out.layer["nic.busy_share"] = nic_cores > 0 ? nic_busy / nic_cores : 0.0;
}

void LatencyRecorder::issued(const netsim::Packet& pkt) {
  const Ns now = clients_.now();
  if (now < from_ || now >= to_) return;
  open_.emplace(pkt.request_id, now);
  ++attempted_;
}

void LatencyRecorder::replied(const netsim::Packet& pkt, bool final,
                              bool ok) {
  if (!final) return;
  const auto it = open_.find(pkt.request_id);
  if (it == open_.end()) return;  // untracked op or duplicate reply
  const Ns now = clients_.now();
  latencies_.push_back(now - it->second);
  open_.erase(it);
  if (!ok) {
    ++errors_;
  } else if (now >= to_) {
    ++late_;
  } else {
    ++in_window_;
  }
}

void LatencyRecorder::finish(Outcome& out) const {
  out.latencies = latencies_;
  out.attempted = attempted_;
  out.failed = errors_ + late_ + open_.size();
  out.completed = in_window_;
  out.ops = attempted_;
  out.window_s = to_sec(to_ - from_);
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace perfbench
