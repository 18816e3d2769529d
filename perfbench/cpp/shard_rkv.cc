// shard_rkv: the bench/sharded_rkv topology.  8+1 three-replica Paxos
// groups (27 servers), each leader fronted by a NIC hot-key cache; one
// open-loop generator multiplexes 10^6 clients at 20 k req/s (90% GETs,
// Zipf 1.0, diurnal swing); one engine thread.
//
// Two modes:
//   * benchmark (default): no faults and no rebalance -- the standby
//     group idles.  Chaos and the mid-run rebalance both trip stale reads
//     in the sharded store on some seeds (see perfbench/README.md), and a
//     benchmark run must not fail on any seed.
//   * acceptance (--acceptance 1): the bench/sharded_rkv scenario line for
//     line -- seeded chaos throughout, the standby group rebalanced onto
//     the ring mid-run -- so seed 1 at 10 simulated seconds reproduces
//     the checked-in BENCH_shard.json digests.
#include <stdexcept>

#include "apps/rkv/hot_cache.h"
#include "apps/rkv/rkv_actors.h"
#include "bench.h"
#include "chaos_plan.h"
#include "ipipe/shard.h"

namespace perfbench {
namespace {

using namespace ipipe;

constexpr int kGroups = 8;
constexpr int kReplicas = 3;
constexpr unsigned kThreads = 1;
/// Simulated seconds: warm-up, traffic, read-back and its drain.
constexpr double kBenchRunS = 2.0;
constexpr double kAcceptanceRunS = 10.0;

/// BENCH_shard.json: seed 1, 10 simulated seconds.
constexpr std::uint64_t kAcceptanceEvents = 38957686;
constexpr const char* kAcceptanceChaos = "a975c5628d343b7f";
constexpr const char* kAcceptanceResults = "e13d321f25f3046c";
constexpr const char* kAcceptanceFloors = "c2507a527158b7c4";

class ShardRkv final : public Workload {
 public:
  explicit ShardRkv(const Options& opts)
      : seed_(opts.seed),
        acceptance_(opts.acceptance),
        duration_s_(opts.acceptance ? kAcceptanceRunS : kBenchRunS) {
    total_ = sec(duration_s_);
    traffic_end_ = total_ - sec(duration_s_ * 0.25);
    rebalance_at_ = total_ * 3 / 10;
    warmup_ = sec(duration_s_ * 0.1);
    // Acceptance: retries ride out crash windows before the read-back.
    readback_at_ = traffic_end_ + (acceptance_ ? sec(1) : msec(250));
  }

  [[nodiscard]] unsigned threads() const override { return kThreads; }

  void setup(Probe* probe) override {
    // One standby group: it joins the ring mid-run in acceptance mode.
    const int all_groups = kGroups + 1;
    const int servers = all_groups * kReplicas;
    shards_ = static_cast<std::uint32_t>(16 * all_groups);

    maybe_span(probe, "setup.cluster", [&] {
      cluster_ = std::make_unique<testbed::ParallelCluster>();
      cluster_->set_threads(kThreads);
      for (int i = 0; i < servers; ++i) {
        testbed::ServerSpec spec;
        spec.ipipe.supervise = true;
        cluster_->add_server(spec);
      }
    });

    maybe_span(probe, "setup.deploy", [&] { deploy(); });
    if (probe != nullptr) probe->install(*cluster_);

    maybe_span(probe, "setup.plan", [&] {
      chaos_ = cluster_->make_chaos();
      if (!acceptance_) return;
      if (probe != nullptr) probe->rewire_chaos(*cluster_, *chaos_);
      const auto plan = shard_chaos_plan(duration_s_, seed_, kGroups);
      if (!plan) throw std::invalid_argument("shard_rkv: run too short");
      chaos_->execute(*plan);
    });
  }

  Outcome run(Probe* probe) override {
    auto& gen = *gen_;
    recorder_ = std::make_unique<LatencyRecorder>(cluster_->client_sim(),
                                                  warmup_, traffic_end_);
    gen.set_on_issue([this](const netsim::Packet& p) { recorder_->issued(p); });
    gen.add_on_reply([this](const netsim::Packet& p) {
      const auto rep = rkv::ClientReply::decode(p.payload);
      if (!rep) return;
      const bool redirect = rep->status == rkv::Status::kNotLeader ||
                            rep->status == rkv::Status::kWrongShard;
      recorder_->replied(p, !redirect,
                         rep->status == rkv::Status::kOk ||
                             rep->status == rkv::Status::kNotFound);
    });

    BusyWindow busy;
    // Acceptance mode keeps bench/sharded_rkv's run_until calls exactly.
    Slicer slice(*cluster_, probe, acceptance_ ? 0 : total_ / kTimedSteps);
    gen.start(traffic_end_);
    slice(warmup_);
    busy.begin(*cluster_, warmup_);
    if (acceptance_) {
      slice(rebalance_at_);
      shard::ShardRing grown(shards_);
      for (std::uint32_t g = 0; g < static_cast<std::uint32_t>(kGroups + 1);
           ++g) {
        grown.add_group(g);
      }
      gen.start_rebalance(grown.table(/*epoch=*/2),
                          [this] { rebalanced_ = true; });
    }

    slice(traffic_end_);
    Outcome out;
    busy.end(*cluster_, traffic_end_, out);
    slice(readback_at_);
    gen.issue_readback(kKeySpace);
    slice(total_);

    slice.finish(out);
    out.sim_s = duration_s_;
    recorder_->finish(out);
    read_common_layers(*cluster_, out);
    read_app_layers(out);

    out.violations =
        gen.stale_reads() + gen.lost_acked() + gen.readback_pending();
    out.check("stale_reads == 0", gen.stale_reads() == 0);
    out.check("lost_acked == 0", gen.lost_acked() == 0);
    out.check("readback_pending == 0", gen.readback_pending() == 0);
    if (acceptance_) {
      out.check("rebalance completed",
                rebalanced_ && gen.rebalances_done() == 1);
    }
    digests(out);
    if (acceptance_ && seed_ == 1) {
      out.check("matches BENCH_shard.json",
                out.events == kAcceptanceEvents &&
                    out.digests["chaos"] == kAcceptanceChaos &&
                    out.digests["results"] == kAcceptanceResults &&
                    out.digests["floors"] == kAcceptanceFloors);
    }
    return out;
  }

 private:
  static constexpr std::uint32_t kKeySpace = 50'000;

  void deploy() {
    shard::ShardRing ring(shards_);
    for (std::uint32_t g = 0; g < static_cast<std::uint32_t>(kGroups); ++g) {
      ring.add_group(g);
    }
    const shard::RouteTable table = ring.table(/*epoch=*/1);

    std::vector<workloads::ShardTarget> targets;
    for (int g = 0; g < kGroups + 1; ++g) {
      rkv::RkvParams params;
      params.replicas.clear();
      for (int r = 0; r < kReplicas; ++r) {
        params.replicas.push_back(
            static_cast<netsim::NodeId>(g * kReplicas + r));
      }
      params.enable_failover = true;
      params.heartbeat_period = msec(100);
      params.election_timeout_min = msec(250);
      params.election_timeout_max = msec(450);
      params.num_shards = shards_;
      params.shard_epoch = table.epoch;
      params.owned_shards = table.shards_of(static_cast<std::uint32_t>(g));
      params.enable_hot_cache = true;
      workloads::ShardTarget target;
      for (int r = 0; r < kReplicas; ++r) {
        params.self_index = static_cast<std::size_t>(r);
        Runtime& rt =
            cluster_->server(static_cast<std::size_t>(g * kReplicas + r))
                .runtime();
        const auto d = rkv::deploy_rkv(rt, params);
        params.peer_consensus_actor = d.consensus;
        if (r == 0) {
          target.consensus = d.consensus;
          target.cache = d.hot_cache;
        }
        deployments_.push_back({&rt, d});
      }
      target.replicas = params.replicas;
      target.leader_hint = params.replicas[0];
      targets.push_back(std::move(target));
    }

    workloads::OpenLoopParams wp;
    wp.clients = 1'000'000;
    wp.rate_rps = 20'000.0;
    wp.get_fraction = 0.90;
    wp.key_space = kKeySpace;
    wp.zipf_theta = 1.0;
    wp.value_len = 64;
    wp.diurnal_amplitude = 0.25;
    wp.diurnal_period = sec(duration_s_ / 2.0);
    wp.seed = seed_;
    wp.retry_timeout = msec(80);
    wp.max_retries = 6;
    gen_ = &cluster_->add_open_loop(wp);
    gen_->set_groups(targets);
    gen_->set_route_table(table);
    gen_->set_warmup(warmup_);
  }

  void read_app_layers(Outcome& out) {
    auto& gen = *gen_;
    auto& L = out.layer;
    std::uint64_t hits = 0, invals = 0, wipes = 0, chosen = 0, elections = 0,
                  flushes = 0, compactions = 0;
    for (const auto& [rt, d] : deployments_) {
      if (d.cache != nullptr) {
        hits += d.cache->hits();
        invals += d.cache->invals();
        wipes += d.cache->wipes();
      }
      if (auto* c = dynamic_cast<rkv::ConsensusActor*>(rt->find_actor(d.consensus))) {
        chosen += c->chosen_count();
        elections += c->elections_started();
      }
      if (auto* m = dynamic_cast<rkv::MemtableActor*>(rt->find_actor(d.memtable))) {
        flushes += m->flushes();
      }
      compactions += d.lsm->compactions();
    }
    L["cache.hit_rate"] = gen.gets_sent() > 0
                              ? static_cast<double>(hits) /
                                    static_cast<double>(gen.gets_sent())
                              : 0.0;
    L["cache.invals"] = static_cast<double>(invals);
    L["cache.wipes"] = static_cast<double>(wipes);
    L["rkv.chosen"] = static_cast<double>(chosen);
    L["rkv.elections"] = static_cast<double>(elections);
    L["lsm.flushes"] = static_cast<double>(flushes);
    L["lsm.compactions"] = static_cast<double>(compactions);
    L["gen.sent"] = static_cast<double>(gen.sent());
    L["gen.retransmits"] = static_cast<double>(gen.retransmits());
    L["gen.redirects"] = static_cast<double>(gen.notleader_redirects());
    L["gen.wrong_shard"] = static_cast<double>(gen.wrong_shard_retries());
    L["gen.abandoned"] = static_cast<double>(gen.abandoned_writes());
  }

  /// The three digests bench/sharded_rkv prints.
  void digests(Outcome& out) {
    auto& gen = *gen_;
    std::uint64_t hits = 0, misses = 0, fills = 0, invals = 0, wipes = 0;
    for (const auto& entry : deployments_) {
      const auto* cache = entry.second.cache;
      if (cache == nullptr) continue;
      hits += cache->hits();
      misses += cache->misses();
      fills += cache->fills();
      invals += cache->invals();
      wipes += cache->wipes();
    }
    std::uint64_t results = kFnvBasis;
    for (const std::uint64_t v :
         {gen.sent(), gen.completed(), gen.gets_sent(), gen.puts_sent(),
          gen.acked_writes(), gen.retransmits(), gen.notleader_redirects(),
          gen.wrong_shard_retries(), gen.server_errors(),
          gen.abandoned_writes(), gen.distinct_clients(), gen.stale_reads(),
          gen.lost_acked(), gen.rebalances_done(), gen.latencies().p50(),
          gen.latencies().p99(), hits, misses, fills, invals, wipes}) {
      results = fnv1a_u64(results, v);
    }
    std::uint64_t floors = kFnvBasis;
    for (std::uint32_t k = 0; k < kKeySpace; ++k) {
      floors = fnv1a_u64(floors, gen.key_floor(k));
    }
    const std::string log = chaos_->event_log_text();
    out.digests["chaos"] = hex64(fnv1a(kFnvBasis, log.data(), log.size()));
    out.digests["results"] = hex64(results);
    out.digests["floors"] = hex64(floors);
  }

  std::uint64_t seed_;
  bool acceptance_;
  double duration_s_;
  Ns total_ = 0;
  Ns readback_at_ = 0;
  Ns traffic_end_ = 0;
  Ns rebalance_at_ = 0;
  Ns warmup_ = 0;
  std::uint32_t shards_ = 0;

  std::unique_ptr<testbed::ParallelCluster> cluster_;
  std::vector<std::pair<Runtime*, rkv::RkvDeployment>> deployments_;
  workloads::OpenLoopGen* gen_ = nullptr;
  std::unique_ptr<netsim::ChaosController> chaos_;
  std::unique_ptr<LatencyRecorder> recorder_;
  bool rebalanced_ = false;
};

}  // namespace

std::unique_ptr<Workload> make_shard_rkv(const Options& opts) {
  return std::make_unique<ShardRkv>(opts);
}

}  // namespace perfbench
