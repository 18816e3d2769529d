// Shared echo-server measurement used by the Figure 2-5 benchmarks.
#pragma once

#include "common/stats.h"
#include "common/units.h"
#include "netsim/network.h"
#include "nic/nic_model.h"
#include "sim/simulation.h"
#include "testbed/cluster.h"
#include "testbed/echo_firmware.h"
#include "workloads/app_workloads.h"
#include "workloads/client.h"

namespace ipipe::bench {

struct EchoResult {
  double goodput_gbps = 0.0;
  LatencyHistogram latency;
};

/// Run the NIC-resident echo server at (just above) line-rate offered
/// load and report achieved goodput + client-observed latency.
inline EchoResult run_echo(const nic::NicConfig& cfg, std::uint32_t frame,
                           unsigned cores, Ns extra_processing = 0,
                           double offered_scale = 1.05,
                           Ns duration = msec(10), bool poisson = false) {
  testbed::BareFabric fabric;
  sim::Simulation& sim = fabric.sim();
  netsim::Network& net = fabric.net;
  nic::NicModel nic(sim, cfg, net, 0);
  nic.set_active_cores(cores);
  nic.set_steer_to_nic([](const netsim::Packet&) { return true; });
  testbed::EchoFirmware echo(extra_processing);
  nic.set_firmware(&echo);

  workloads::EchoWorkloadParams params;
  params.server = 0;
  params.frame_size = frame;
  workloads::ClientGen client(sim, net, 1000, 100.0,
                              workloads::echo_workload(params));
  const double rate = line_rate_pps(frame, cfg.link_gbps) * offered_scale;
  const Ns warmup = duration / 5;
  client.set_warmup(warmup);
  client.start_open_loop(rate, duration, poisson);
  fabric.run(duration + msec(1));

  EchoResult result;
  const double window =
      to_sec(client.last_completion() - client.first_measured_completion());
  if (window > 0.0) {
    const double pps =
        static_cast<double>(client.completed_after_warmup()) / window;
    result.goodput_gbps = goodput_gbps(pps, frame);
  }
  result.latency = client.latencies();
  return result;
}

}  // namespace ipipe::bench
