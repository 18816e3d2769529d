// rkv_write: the paper's 3-replica RKV (Multi-Paxos + LSM tree, no hot
// cache, iPipe mode with migration on) under a closed-loop ClientGen
// running kv_workload with 80% PUTs.  No chaos; two engine threads.
//
// After the load stops the run quiesces, then an auditor client reads
// back every key that took an acked PUT: the value must be one that a
// linearizable store could hold (the last acked PUT or one concurrent
// with it), and the replicas' chosen counts must agree.
#include <algorithm>
#include <unordered_set>

#include "apps/rkv/rkv_actors.h"
#include "apps/rkv/rkv_messages.h"
#include "bench.h"
#include "workloads/app_workloads.h"

namespace perfbench {
namespace {

using namespace ipipe;

constexpr int kReplicas = 3;
constexpr unsigned kThreads = 2;
/// Simulated load: warm-up to 10 ms, closed loop until 100 ms.
constexpr Ns kWarmup = msec(10);
constexpr Ns kStop = msec(100);
constexpr unsigned kOutstanding = 32;
constexpr unsigned kAuditOutstanding = 64;
constexpr std::uint32_t kFrameBytes = 512;
constexpr std::uint32_t kKeyLen = 16;
constexpr std::uint64_t kKeys = 100'000;
constexpr std::uint64_t kFlushBytes = 256 * 1024;

/// Every acked PUT of one key, for the read-back check.
struct KeyHistory {
  struct Put {
    Ns issued = 0;
    Ns acked = 0;
    std::vector<std::uint8_t> value;
  };
  std::vector<Put> acked;
  Ns last_issue = 0;  ///< latest issue time of any PUT to the key

  /// A PUT may be the last one applied unless another PUT was issued
  /// after it was acked.
  [[nodiscard]] bool may_hold(const std::vector<std::uint8_t>& v) const {
    return std::any_of(acked.begin(), acked.end(), [&](const Put& p) {
      return p.acked >= last_issue && p.value == v;
    });
  }
};

class RkvWrite final : public Workload {
 public:
  explicit RkvWrite(const Options& opts) : seed_(opts.seed) {}

  [[nodiscard]] unsigned threads() const override { return kThreads; }

  void setup(Probe* probe) override {
    maybe_span(probe, "setup.cluster", [&] {
      cluster_ = std::make_unique<testbed::ParallelCluster>();
      cluster_->set_threads(kThreads);
      for (int i = 0; i < kReplicas; ++i) {
        cluster_->add_server(testbed::ServerSpec{});
      }
    });
    maybe_span(probe, "setup.deploy", [&] {
      rkv::RkvParams params;
      params.replicas.clear();
      for (int r = 0; r < kReplicas; ++r) {
        params.replicas.push_back(static_cast<netsim::NodeId>(r));
      }
      // A flush of the default 2 MiB memtable runs past the 1 ms actor
      // watchdog on the NIC at this write rate; smaller flushes keep the
      // memtable alive and flush and compact several times per run.
      params.memtable_flush_bytes = kFlushBytes;
      for (int r = 0; r < kReplicas; ++r) {
        params.self_index = static_cast<std::size_t>(r);
        Runtime& rt = cluster_->server(static_cast<std::size_t>(r)).runtime();
        const auto d = rkv::deploy_rkv(rt, params);
        params.peer_consensus_actor = d.consensus;
        deployments_.push_back({&rt, d});
      }
    });
    if (probe != nullptr) probe->install(*cluster_);
    maybe_span(probe, "setup.plan", [&] {
      const ActorId consensus = deployments_.front().second.consensus;
      workloads::KvWorkloadParams kv;
      kv.server = 0;
      kv.consensus_actor = consensus;
      kv.frame_size = kFrameBytes;
      kv.num_keys = kKeys;
      kv.read_fraction = 0.2;
      kv.key_len = kKeyLen;
      auto make = workloads::kv_workload(kv);
      if (probe != nullptr) make = probe->wrap(std::move(make));
      const double gbps = cluster_->server(0).nic().config().link_gbps;
      client_ = &cluster_->add_client(gbps, std::move(make), seed_);
      client_->set_warmup(kWarmup);
      // The auditor reads back audit_keys_ in order (it is started only
      // once the list is final; later sequence numbers wrap around).
      auditor_ = &cluster_->add_client(
          gbps,
          [this, consensus](std::uint64_t seq, Rng&, netsim::PacketPool& pool) {
            auto pkt = pool.make();
            pkt->dst = 0;
            pkt->dst_actor = consensus;
            pkt->msg_type = rkv::kClientGet;
            pkt->frame_size = kFrameBytes;
            rkv::ClientReq req;
            req.op = rkv::Op::kGet;
            req.key = audit_keys_[(seq - 1) % audit_keys_.size()];
            pkt->payload = req.encode();
            return pkt;
          },
          seed_ + 1);
    });
  }

  Outcome run(Probe* probe) override {
    auto& client = *client_;
    auto& t = track_;
    t.recorder = std::make_unique<LatencyRecorder>(cluster_->client_sim(),
                                                   kWarmup, kStop);
    client.set_on_issue([this](const netsim::Packet& p) {
      const Ns now = cluster_->client_sim().now();
      track_.recorder->issued(p);
      const auto req = rkv::ClientReq::decode(p.payload);
      if (!req || req->op != rkv::Op::kPut) return;
      history_[req->key].last_issue = now;
      track_.puts[p.request_id] = {req->key, {now, 0, req->value}};
    });
    client.add_on_reply([this](const netsim::Packet& p) {
      const auto rep = rkv::ClientReply::decode(p.payload);
      const bool ok = rep && (rep->status == rkv::Status::kOk ||
                              rep->status == rkv::Status::kNotFound);
      track_.recorder->replied(p, true, ok);
      const auto it = track_.puts.find(p.request_id);
      if (it == track_.puts.end()) return;
      if (rep && rep->status == rkv::Status::kOk) {
        it->second.second.acked = cluster_->client_sim().now();
        history_[it->second.first].acked.push_back(std::move(it->second.second));
      }
      track_.puts.erase(it);
    });

    BusyWindow busy;
    Slicer slice(*cluster_, probe, kStop / kTimedSteps);
    client.start_closed_loop(kOutstanding, kStop);
    slice(kWarmup);
    busy.begin(*cluster_, kWarmup);
    slice(kStop);
    Outcome out;
    busy.end(*cluster_, kStop, out);
    // Quiesce: the closed loop stops issuing at kStop, the last ops and
    // every Paxos learn land well inside 10 ms.
    Ns now = kStop + msec(10);
    slice(now);
    slice.finish(out);
    out.sim_s = to_sec(now);
    t.recorder->finish(out);
    read_common_layers(*cluster_, out);

    // The read-back audit is an output check: it runs after the timed
    // part, after the layer counts above and the probe's totals are
    // read.
    Slicer audit(*cluster_, probe, 0);
    const bool quiesced = client.inflight() == 0 && t.puts.empty();
    for (const auto& [key, h] : history_) {
      if (!h.acked.empty()) audit_keys_.push_back(key);
    }
    if (!audit_keys_.empty()) {
      auditor_->set_on_issue([this](const netsim::Packet& p) {
        const auto req = rkv::ClientReq::decode(p.payload);
        if (req) track_.reads[p.request_id] = req->key;
      });
      auditor_->add_on_reply([this](const netsim::Packet& p) {
        const auto it = track_.reads.find(p.request_id);
        if (it == track_.reads.end()) return;
        if (!track_.seen.insert(it->second).second) return;
        ++track_.audited;
        const auto rep = rkv::ClientReply::decode(p.payload);
        if (!rep || rep->status != rkv::Status::kOk ||
            !history_[it->second].may_hold(rep->value)) {
          ++track_.audit_failures;
        }
      });
      // Read back in 5 ms slices until every key answered; a GET takes
      // tens of microseconds, so the bound is generous.
      const Ns limit = now + usec(500) * (audit_keys_.size() / kAuditOutstanding + 1);
      auditor_->start_closed_loop(kAuditOutstanding, limit);
      while (t.audited < audit_keys_.size() && now < limit) {
        now += msec(5);
        audit(now);
      }
    }
    const std::size_t audited = t.audited;
    const std::uint64_t audit_failures = t.audit_failures;

    std::uint64_t chosen_min = ~std::uint64_t{0}, chosen_max = 0, chosen = 0,
                  elections = 0, flushes = 0, compactions = 0, kills = 0;
    for (const auto& [rt, d] : deployments_) {
      kills += rt->watchdog_kills();
      if (auto* c = dynamic_cast<rkv::ConsensusActor*>(rt->find_actor(d.consensus))) {
        chosen_min = std::min(chosen_min, c->chosen_count());
        chosen_max = std::max(chosen_max, c->chosen_count());
        chosen += c->chosen_count();
        elections += c->elections_started();
      }
      if (auto* m = dynamic_cast<rkv::MemtableActor*>(rt->find_actor(d.memtable))) {
        flushes += m->flushes();
      }
      compactions += d.lsm->compactions();
    }
    auto& L = out.layer;
    L["rkv.chosen"] = static_cast<double>(chosen);
    L["rkv.elections"] = static_cast<double>(elections);
    L["lsm.flushes"] = static_cast<double>(flushes);
    L["lsm.compactions"] = static_cast<double>(compactions);
    L["gen.sent"] = static_cast<double>(client.sent());
    L["gen.retransmits"] = static_cast<double>(client.retransmits());
    L["gen.abandoned"] = static_cast<double>(client.abandoned());

    out.violations = audit_failures + (audit_keys_.size() - audited);
    out.check("load quiesced", quiesced);
    out.check("no actor killed by the watchdog", kills == 0);
    out.check("every acked PUT reads back",
              audited == audit_keys_.size() && audit_failures == 0);
    out.check("replicas agree on chosen_count",
              chosen_min == chosen_max && chosen_max > 0);
    std::uint64_t h = kFnvBasis;
    for (const std::uint64_t v :
         {client.sent(), client.completed(), chosen, flushes, compactions,
          static_cast<std::uint64_t>(audit_keys_.size()), audit_failures,
          out.events}) {
      h = fnv1a_u64(h, v);
    }
    out.digests["results"] = hex64(h);
    return out;
  }

 private:
  std::uint64_t seed_;

  std::unique_ptr<testbed::ParallelCluster> cluster_;
  std::vector<std::pair<Runtime*, rkv::RkvDeployment>> deployments_;
  workloads::ClientGen* client_ = nullptr;
  workloads::ClientGen* auditor_ = nullptr;
  std::map<std::string, KeyHistory> history_;
  std::vector<std::string> audit_keys_;
  /// What the client hooks record during run().  A member, not a local:
  /// the hooks stay installed until the cluster is destroyed.
  struct Tracking {
    std::unique_ptr<LatencyRecorder> recorder;
    /// Request id -> (key, PUT) of every PUT in flight.
    std::unordered_map<std::uint64_t, std::pair<std::string, KeyHistory::Put>>
        puts;
    /// Auditor request id -> key read.
    std::unordered_map<std::uint64_t, std::string> reads;
    std::unordered_set<std::string> seen;
    std::size_t audited = 0;
    std::uint64_t audit_failures = 0;
  } track_;
};

}  // namespace

std::unique_ptr<Workload> make_rkv_write(const Options& opts) {
  return std::make_unique<RkvWrite>(opts);
}

}  // namespace perfbench
