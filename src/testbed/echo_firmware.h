// Minimal NIC firmware used by the characterization benchmarks (§2.2.2):
// an ECHO server that runs entirely on the SmartNIC.  Each core pulls a
// frame from the traffic manager, pays the forwarding cost plus an
// optional synthetic per-packet processing latency (Fig. 4), and bounces
// the frame back to its sender.
#pragma once

#include "netsim/packet.h"
#include "nic/nic_model.h"

namespace ipipe::testbed {

class EchoFirmware final : public nic::NicFirmware {
 public:
  explicit EchoFirmware(Ns extra_processing = 0)
      : extra_processing_(extra_processing) {}

  bool run_once(nic::NicExecContext& ctx, unsigned /*core*/) override {
    auto pkt = ctx.nic().tm().pop();
    if (!pkt) return false;
    const auto& cfg = ctx.nic().config();
    ctx.charge(cfg.has_hw_traffic_manager ? cfg.tm_dequeue_cost
                                          : cfg.sw_shuffle_cost);
    ctx.charge_forwarding(pkt->frame_size);
    if (extra_processing_ > 0) ctx.charge(extra_processing_);
    ++echoed_;
    pkt->dst = pkt->src;
    ctx.tx(std::move(pkt));
    return true;
  }

  [[nodiscard]] std::uint64_t echoed() const noexcept { return echoed_; }

 private:
  const Ns extra_processing_;
  std::uint64_t echoed_ = 0;
};

}  // namespace ipipe::testbed
