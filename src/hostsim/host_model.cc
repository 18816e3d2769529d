#include "hostsim/host_model.h"

namespace ipipe::hostsim {

HostExecContext::HostExecContext(HostModel& host, unsigned core)
    : ExecContext(host.sim(), host.cache(), core), host_(host) {}

void HostExecContext::charge_cycles(double cycles) noexcept {
  charge(static_cast<Ns>(cycles / host_.config().freq_ghz));
}

void HostExecContext::charge_rx(std::uint32_t frame_size) noexcept {
  const auto& cfg = host_.config();
  charge(static_cast<Ns>(cfg.rx_base_ns + cfg.rx_per_byte_ns * frame_size));
}

void HostExecContext::charge_tx(std::uint32_t frame_size) noexcept {
  const auto& cfg = host_.config();
  charge(static_cast<Ns>(cfg.tx_base_ns + cfg.tx_per_byte_ns * frame_size));
}

void HostExecContext::flush() {
  for (auto& pkt : tx_queue_) host_.nic().host_tx(std::move(pkt));
}

HostModel::HostModel(sim::Simulation& sim, HostConfig cfg, nic::NicModel& nic)
    : sim_(sim),
      cfg_(cfg),
      nic_(nic),
      cache_(nic::CacheModel::intel_host()),
      cores_(sim, *this, cfg.cores) {
  nic_.set_host_rx([this](netsim::PacketPtr pkt) { rx_push(std::move(pkt)); });
}

void HostModel::set_runtime(HostRuntime* rt) {
  cores_.set_program(rt);
  if (rt) {
    rt->attached(*this);
    wake_all();
  }
}

void HostModel::rx_push(netsim::PacketPtr pkt) {
  ++rx_frames_;
  rx_ring_.push_back(std::move(pkt));
  wake_one();
}

netsim::PacketPtr HostModel::rx_pop() {
  if (rx_ring_.empty()) return nullptr;
  auto pkt = std::move(rx_ring_.front());
  rx_ring_.pop_front();
  return pkt;
}

}  // namespace ipipe::hostsim
