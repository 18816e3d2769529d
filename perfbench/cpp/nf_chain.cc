// nf_chain: one LiquidIO CN2350 server running
//   firewall(128) | ipsec | maglev(8) | counter
// as one actor group through nfp::PipelineRunner, fed 512 B Poisson
// open-loop traffic just under the chain's capacity.  No chaos; all work
// happens in one server domain, and the ipsec stage does real AES-256-CTR
// and HMAC-SHA1 over every payload.
#include "bench.h"
#include "nfp/pipeline.h"
#include "nfp/spec.h"

namespace perfbench {
namespace {

using namespace ipipe;

constexpr const char* kChain = "firewall(128) | ipsec | maglev(8) | counter";
constexpr unsigned kThreads = 1;
/// Simulated run: warm-up to 10%, traffic until 90%, then drain.
constexpr Ns kWarmup = msec(50);
constexpr Ns kStop = msec(450);
constexpr Ns kTotal = msec(500);
/// Offered load: just under the chain's capacity on the CN2350 (NIC
/// cores mostly busy, traffic-manager drops near zero).
constexpr double kRatePps = 600e3;
constexpr std::uint32_t kFrameBytes = 512;
constexpr std::size_t kPayloadBytes = 448;
constexpr std::uint64_t kFlows = 4096;

class NfChain final : public Workload {
 public:
  explicit NfChain(const Options& opts) : seed_(opts.seed) {}

  [[nodiscard]] unsigned threads() const override { return kThreads; }

  void setup(Probe* probe) override {
    maybe_span(probe, "setup.cluster", [&] {
      cluster_ = std::make_unique<testbed::ParallelCluster>();
      cluster_->set_threads(kThreads);
      cluster_->add_server(testbed::ServerSpec{});
    });
    maybe_span(probe, "setup.deploy", [&] {
      pipeline_ = std::make_unique<nfp::PipelineRunner>(
          cluster_->server(0).runtime(), nfp::parse_pipeline(kChain));
    });
    if (probe != nullptr) probe->install(*cluster_);
    maybe_span(probe, "setup.plan", [&] {
      workloads::ClientGen::MakeReq make =
          [ingress = pipeline_->ingress()](std::uint64_t, Rng& rng,
                                           netsim::PacketPool& pool) {
            auto pkt = pool.make();
            pkt->dst = 0;
            pkt->dst_actor = ingress;
            pkt->msg_type = nfp::kNfData;
            pkt->frame_size = kFrameBytes;
            pkt->flow = static_cast<std::uint32_t>(rng.uniform_u64(kFlows));
            pkt->payload.resize(kPayloadBytes);
            for (std::size_t i = 0; i < kPayloadBytes; i += 8) {
              const std::uint64_t word = rng.next();
              for (std::size_t b = 0; b < 8 && i + b < kPayloadBytes; ++b) {
                pkt->payload[i + b] = static_cast<std::uint8_t>(word >> (8 * b));
              }
            }
            return pkt;
          };
      if (probe != nullptr) make = probe->wrap(std::move(make));
      client_ = &cluster_->add_client(
          cluster_->server(0).nic().config().link_gbps, std::move(make),
          seed_);
      client_->set_warmup(kWarmup);
    });
  }

  Outcome run(Probe* probe) override {
    auto& client = *client_;
    // A member: the hooks stay installed until the cluster is destroyed.
    recorder_ = std::make_unique<LatencyRecorder>(cluster_->client_sim(),
                                                  kWarmup, kStop);
    client.set_on_issue([this](const netsim::Packet& p) { recorder_->issued(p); });
    client.add_on_reply(
        [this](const netsim::Packet& p) { recorder_->replied(p, true, true); });

    BusyWindow busy;
    Slicer slice(*cluster_, probe, kTotal / kTimedSteps);
    client.start_open_loop(kRatePps, kStop, /*poisson=*/true);
    slice(kWarmup);
    busy.begin(*cluster_, kWarmup);
    slice(kStop);
    Outcome out;
    busy.end(*cluster_, kStop, out);
    slice(kTotal);  // drain: every packet leaves the chain

    slice.finish(out);
    out.sim_s = to_sec(kTotal);
    recorder_->finish(out);
    read_common_layers(*cluster_, out);

    const auto eg = pipeline_->egress_stats();
    const std::uint64_t tm_drops = cluster_->server(0).nic().tm().drops();
    const std::uint64_t in_flight =
        eg.pending + cluster_->server(0).nic().tm().depth();
    auto& L = out.layer;
    L["nfp.delivered"] = static_cast<double>(eg.delivered);
    L["nfp.tombstones"] = static_cast<double>(eg.tombstones);
    L["nfp.order_violations"] = static_cast<double>(eg.order_violations);
    L["gen.sent"] = static_cast<double>(client.sent());
    L["gen.retransmits"] = static_cast<double>(client.retransmits());
    L["gen.abandoned"] = static_cast<double>(client.abandoned());
    out.violations = eg.order_violations;

    out.check("order_violations == 0", eg.order_violations == 0);
    out.check("sent == delivered + tombstones + tm_drops + in_flight",
              client.sent() == eg.delivered + eg.tombstones + tm_drops + in_flight);
    out.check("every delivered packet answered", client.completed() == eg.delivered);
    // Digest of the egress ledger plus the client's view.
    std::uint64_t h = kFnvBasis;
    for (const std::uint64_t v :
         {client.sent(), client.completed(), eg.delivered, eg.tombstones,
          eg.order_violations, tm_drops, out.events}) {
      h = fnv1a_u64(h, v);
    }
    out.digests["results"] = hex64(h);
    return out;
  }

 private:
  std::uint64_t seed_;

  std::unique_ptr<testbed::ParallelCluster> cluster_;
  std::unique_ptr<nfp::PipelineRunner> pipeline_;
  workloads::ClientGen* client_ = nullptr;
  std::unique_ptr<LatencyRecorder> recorder_;
};

}  // namespace

std::unique_ptr<Workload> make_nf_chain(const Options& opts) {
  return std::make_unique<NfChain>(opts);
}

}  // namespace perfbench
