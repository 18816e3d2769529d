#include "testbed/cluster.h"

#include <string>

namespace ipipe::testbed {

IPipeConfig config_for_mode(Mode mode, IPipeConfig base) {
  switch (mode) {
    case Mode::kIPipe:
      return base;
    case Mode::kDpdk:
      // Raw DPDK implementation: no framework overheads, no migration.
      base.enable_migration = false;
      base.channel_handling_ns = 0;
      base.dmo_translate_ns = 0;
      base.sched_bookkeeping_ns = 0;
      return base;
    case Mode::kFloem:
      // Static offload: elements stay where they were placed.
      base.enable_migration = false;
      return base;
    case Mode::kHostIPipe:
      // Host-only but with full iPipe machinery (overhead study).
      base.enable_migration = false;
      return base;
  }
  return base;
}

ServerNode::ServerNode(sim::Simulation& sim, netsim::Network& net,
                       netsim::NodeId id, ServerSpec spec)
    : id_(id), spec_(std::move(spec)), sim_(sim), net_(net) {
  if (spec_.mode == Mode::kDpdk) {
    // DPDK baseline runs on a standard NIC of the same link speed.
    nic::NicConfig dumb = spec_.nic.link_gbps > 10.0 ? nic::intel_xxv710()
                                                     : nic::intel_xl710();
    dumb.dma = spec_.nic.dma;
    nic_ = std::make_unique<nic::NicModel>(sim, dumb, net, id);
  } else {
    nic_ = std::make_unique<nic::NicModel>(sim, spec_.nic, net, id);
  }
  host_ = std::make_unique<hostsim::HostModel>(sim, *nic_);
  runtime_ = std::make_unique<Runtime>(sim, *nic_, *host_,
                                       config_for_mode(spec_.mode, spec_.ipipe));
}

void ServerNode::snapshot() {
  snapshot_at_ = sim_.now();
  host_busy_snapshot_ = host_->total_busy_ns();
  nic_busy_snapshot_ = nic_->total_busy_ns();
}

double ServerNode::host_cores_used() const {
  const Ns window = sim_.now() - snapshot_at_;
  if (window == 0) return 0.0;
  return static_cast<double>(host_->total_busy_ns() - host_busy_snapshot_) /
         static_cast<double>(window);
}

void ServerNode::crash() {
  if (down_) return;
  down_ = true;
  net_.detach(id_);
  runtime_->crash_node_state();
}

void ServerNode::restore() {
  if (!down_) return;
  down_ = false;
  net_.attach(id_, *nic_, nic_->config().link_gbps);
  runtime_->restore_node_state();
}

double ServerNode::nic_cores_used() const {
  const Ns window = sim_.now() - snapshot_at_;
  if (window == 0) return 0.0;
  return static_cast<double>(nic_->total_busy_ns() - nic_busy_snapshot_) /
         static_cast<double>(window);
}

ServerNode& ParallelCluster::add_server(ServerSpec spec) {
  const auto id = static_cast<netsim::NodeId>(servers_.size());
  const sim::DomainId d = psim_.add_domain();
  // The node's components self-attach to the fabric; route their port to
  // the new domain.
  net_.set_attach_domain(d);
  servers_.push_back(
      std::make_unique<ServerNode>(psim_.domain(d), net_, id, std::move(spec)));
  ServerNode& node = *servers_.back();
  node.runtime().set_engine(&psim_, d);
  return node;
}

workloads::ClientGen& ParallelCluster::add_client(
    double link_gbps, workloads::ClientGen::MakeReq make, std::uint64_t seed) {
  const auto id = static_cast<netsim::NodeId>(kClientBase + clients_.size());
  net_.set_attach_domain(client_dom_);
  clients_.push_back(std::make_unique<workloads::ClientGen>(
      psim_.domain(client_dom_), net_, id, link_gbps, std::move(make), seed));
  return *clients_.back();
}

workloads::OpenLoopGen& ParallelCluster::add_open_loop(
    workloads::OpenLoopParams params) {
  const auto id = static_cast<netsim::NodeId>(kClientBase + clients_.size() +
                                              open_loops_.size());
  net_.set_attach_domain(client_dom_);
  open_loops_.push_back(std::make_unique<workloads::OpenLoopGen>(
      psim_.domain(client_dom_), net_, id, params));
  return *open_loops_.back();
}

void ParallelCluster::run_until(Ns t) {
  if (!topology_frozen_) {
    net_.install_lookahead();
    topology_frozen_ = true;
  }
  psim_.run(t);
}

void ParallelCluster::snapshot_all_at(Ns t) {
  for (auto& server : servers_) {
    ServerNode* node = server.get();
    node->sim().schedule_at(t, [node] { node->snapshot(); });
  }
}

std::unique_ptr<netsim::ChaosController> ParallelCluster::make_chaos() {
  auto chaos = std::make_unique<netsim::ChaosController>(net_);
  for (auto& server : servers_) {
    ServerNode* node = server.get();
    chaos->register_node(node->id(),
                         {.crash = [node] { node->crash(); },
                          .restore = [node] { node->restore(); },
                          .pcie_corrupt =
                              [node](double rate) {
                                node->runtime().set_channel_fault(rate);
                              },
                          .nic_crash = [node] { node->runtime().nic_crash(); },
                          .nic_restore =
                              [node] { node->runtime().nic_restore(); },
                          .pcie_flap =
                              [node](bool down) {
                                node->runtime().set_pcie_link(!down);
                              },
                          .accel_fail =
                              [node](std::uint32_t bank, bool failed) {
                                node->runtime().set_accel_failed(bank, failed);
                              }});
  }
  return chaos;
}

}  // namespace ipipe::testbed
