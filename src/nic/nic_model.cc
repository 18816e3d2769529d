#include "nic/nic_model.h"

namespace ipipe::nic {

NicExecContext::NicExecContext(NicModel& nic, unsigned core)
    : ExecContext(nic.sim(), nic.cache(), core), nic_(nic) {}

void NicExecContext::charge_cycles(double cycles) noexcept {
  charge(static_cast<Ns>(nic_.config().cycles_to_ns(cycles)));
}

void NicExecContext::accel(AccelKind kind, std::uint32_t bytes,
                           std::uint32_t batch) noexcept {
  charge(nic_.accel().batch_cost(kind, bytes, batch));
  nic_.accel().record_use(kind, batch);
}

void NicExecContext::charge_forwarding(std::uint32_t frame_size) noexcept {
  charge(nic_.config().forwarding.cost(frame_size));
}

void NicExecContext::charge_nstack(std::uint32_t frame_size) noexcept {
  const auto& cfg = nic_.config();
  charge(static_cast<Ns>(cfg.nstack_base_ns + cfg.nstack_per_byte_ns * frame_size));
}

void NicExecContext::flush() {
  for (auto& pkt : tx_queue_) nic_.wire_tx(std::move(pkt));
  for (auto& pkt : host_queue_) nic_.deliver_to_host(std::move(pkt));
}

NicModel::NicModel(sim::Simulation& sim, NicConfig cfg, netsim::Network& net,
                   netsim::NodeId node)
    : sim_(sim),
      cfg_(std::move(cfg)),
      net_(net),
      node_(node),
      dma_(sim, cfg_.dma),
      cache_(CacheModel::for_nic(cfg_)),
      cores_(sim, *this, cfg_.cores) {
  net_.attach(node_, *this, cfg_.link_gbps);
  tm_.set_notify([this] { wake_one(); });
}

void NicModel::set_firmware(NicFirmware* fw) {
  cores_.set_program(fw);
  if (fw) {
    fw->attached(*this);
    wake_all();
  }
}

void NicModel::receive(netsim::PacketPtr pkt) {
  ++rx_frames_;

  // Dumb NIC: straight to the host RX ring via DMA.
  if (cfg_.cores == 0 || cores_.program() == nullptr) {
    deliver_to_host(std::move(pkt));
    return;
  }

  if (cfg_.path == NicPath::kOffPath) {
    // NIC-switch steering: only flows with a NIC-side rule visit cores.
    const bool to_nic = steer_to_nic_ && steer_to_nic_(*pkt);
    if (!to_nic) {
      deliver_to_host(std::move(pkt));
      return;
    }
  }
  admit(std::move(pkt));
}

void NicModel::admit(netsim::PacketPtr pkt) {
  // Stamp NIC entry time: host-originated frames (transmit path) have no
  // wire-delivery timestamp, and response-time accounting needs one.
  pkt->nic_arrival = sim_.now();
  // NIC-wide packet-rate ceiling: arrivals are paced at max_pps.
  const Ns gap = static_cast<Ns>(1e9 / cfg_.max_pps);
  const Ns now = sim_.now();
  if (next_admit_ <= now) {
    next_admit_ = now + gap;
    tm_.push(std::move(pkt));
  } else {
    const Ns when = next_admit_;
    next_admit_ += gap;
    sim_.schedule_at(when,
                     [this, p = std::move(pkt)]() mutable { tm_.push(std::move(p)); });
  }
}

void NicModel::host_tx(netsim::PacketPtr pkt) {
  pkt->from_host = true;
  // The NIC pulls the frame from host memory over PCIe, then hands it to
  // the normal processing path (on-path) or straight to the MAC.
  const Ns dma_delay = dma_.blocking_read_latency(pkt->frame_size);
  sim_.schedule(dma_delay, [this, p = std::move(pkt)]() mutable {
    if (cfg_.cores == 0 || cores_.program() == nullptr ||
        cfg_.path == NicPath::kOffPath) {
      wire_tx(std::move(p));
    } else {
      admit(std::move(p));
    }
  });
}

void NicModel::wire_tx(netsim::PacketPtr pkt) {
  ++tx_frames_;
  pkt->src = node_;
  net_.send(std::move(pkt));
}

void NicModel::deliver_to_host(netsim::PacketPtr pkt) {
  ++to_host_frames_;
  const Ns dma_delay = dma_.blocking_write_latency(pkt->frame_size);
  sim_.schedule(dma_delay, [this, p = std::move(pkt)]() mutable {
    if (host_rx_) {
      host_rx_(std::move(p));
    }
  });
}

}  // namespace ipipe::nic
