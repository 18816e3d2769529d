// Figure 6: latency of NIC-side hardware-assisted send/recv on the 10GbE
// LiquidIOII CN2350 compared with host-side DPDK and RDMA SEND/RECV,
// across payload sizes 4B..1024B.
#include <cstdio>

#include "common/table.h"
#include "common/units.h"
#include "hostsim/host_model.h"
#include "nic/nic_config.h"

using namespace ipipe;

int main() {
  const auto cfg = nic::liquidio_cn2350();
  const auto bluefield = nic::bluefield_1m332a();  // RDMA timing reference

  std::printf(
      "\nFigure 6: send/recv latency (us) — SmartNIC messaging vs host "
      "DPDK/RDMA\n");
  TablePrinter table({"payload", "SmartNIC-send", "SmartNIC-recv", "DPDK-send",
                      "DPDK-recv", "RDMA-send", "RDMA-recv"});
  double nic_sum = 0.0;
  double dpdk_sum = 0.0;
  double rdma_sum = 0.0;
  int n = 0;
  for (const std::uint32_t payload :
       {4u, 8u, 16u, 32u, 64u, 128u, 256u, 512u, 1024u}) {
    // SmartNIC: hardware PKI/PKO units move data between MAC and packet
    // buffer; cost model from the nstack calibration.
    const double nic_send =
        (cfg.nstack_base_ns + cfg.nstack_per_byte_ns * payload) / 1000.0;
    const double nic_recv = nic_send * 0.92;  // RX path slightly cheaper
    // Host DPDK: descriptor ring + PCIe doorbell + copy costs, plus the
    // DMA transfer to/from host memory.
    const double dpdk_send =
        (hostsim::kTxBaseNs + hostsim::kTxPerByteNs * payload + 1450.0 +
         payload * 8.0 / cfg.dma.write_gbps) /
        1000.0;
    const double dpdk_recv =
        (hostsim::kRxBaseNs + hostsim::kRxPerByteNs * payload + 1500.0 +
         payload * 8.0 / cfg.dma.read_gbps) /
        1000.0;
    // Host RDMA two-sided verbs.
    const double rdma_send =
        static_cast<double>(bluefield.rdma.base + bluefield.rdma.post_overhead) /
            1000.0 +
        payload * 8.0 / bluefield.rdma.gbps / 1000.0;
    const double rdma_recv = rdma_send * 0.95;

    table.add_row({strf("%uB", payload), strf("%.2f", nic_send),
                   strf("%.2f", nic_recv), strf("%.2f", dpdk_send),
                   strf("%.2f", dpdk_recv), strf("%.2f", rdma_send),
                   strf("%.2f", rdma_recv)});
    nic_sum += nic_send + nic_recv;
    dpdk_sum += dpdk_send + dpdk_recv;
    rdma_sum += rdma_send + rdma_recv;
    ++n;
  }
  table.print();
  std::printf(
      "Average speedup of SmartNIC messaging: %.1fx vs DPDK, %.1fx vs RDMA "
      "(paper: 4.6x / 4.2x)\n",
      dpdk_sum / nic_sum, rdma_sum / nic_sum);
  return 0;
}
