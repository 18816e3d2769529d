// Cluster harness: assembles servers (SmartNIC + host + runtime), clients
// and the switch fabric into the paper's testbed (§2.2.1 / §5.1), and
// collects the metrics the evaluation reports (host cores used, latency
// distributions, throughput).
//
// Deployment modes:
//   * kIPipe — SmartNIC runs the iPipe NIC runtime; actors start on the
//     NIC (except host-pinned ones) and migrate dynamically.
//   * kDpdk  — DPDK baseline: dumb NIC, every actor on the host, iPipe
//     framework overheads zeroed (this is the paper's comparison target).
//   * kFloem — static offload: actors placed once (initial location),
//     migration disabled, overheads kept (Floem-style stationary
//     elements, §5.6).
//   * kHostIPipe — iPipe with every actor forced to the host (Fig. 17's
//     "host-only with iPipe" overhead measurement).
#pragma once

#include <memory>
#include <vector>

#include "hostsim/host_model.h"
#include "ipipe/runtime.h"
#include "netsim/chaos.h"
#include "netsim/network.h"
#include "nic/nic_config.h"
#include "nic/nic_model.h"
#include "sim/parallel.h"
#include "sim/simulation.h"
#include "workloads/client.h"
#include "workloads/open_loop.h"

namespace ipipe::testbed {

enum class Mode { kIPipe, kDpdk, kFloem, kHostIPipe };

[[nodiscard]] constexpr const char* mode_name(Mode mode) noexcept {
  switch (mode) {
    case Mode::kIPipe:
      return "ipipe";
    case Mode::kDpdk:
      return "dpdk";
    case Mode::kFloem:
      return "floem";
    case Mode::kHostIPipe:
      return "host-ipipe";
  }
  return "?";
}

struct ServerSpec {
  nic::NicConfig nic = nic::liquidio_cn2350();
  Mode mode = Mode::kIPipe;
  IPipeConfig ipipe;
};

class ServerNode {
 public:
  ServerNode(sim::Simulation& sim, netsim::Network& net, netsim::NodeId id,
             ServerSpec spec);

  [[nodiscard]] netsim::NodeId id() const noexcept { return id_; }
  [[nodiscard]] nic::NicModel& nic() noexcept { return *nic_; }
  [[nodiscard]] hostsim::HostModel& host() noexcept { return *host_; }
  [[nodiscard]] Runtime& runtime() noexcept { return *runtime_; }
  [[nodiscard]] Mode mode() const noexcept { return spec_.mode; }
  /// The node's engine domain queue (where its per-server work runs).
  [[nodiscard]] sim::Simulation& sim() noexcept { return sim_; }

  /// Default actor placement for this mode (used by app deploy helpers).
  [[nodiscard]] ActorLoc default_loc() const noexcept {
    return (spec_.mode == Mode::kDpdk || spec_.mode == Mode::kHostIPipe)
               ? ActorLoc::kHost
               : ActorLoc::kNic;
  }

  /// Snapshot host-core busy time (call at warm-up end).
  void snapshot();
  /// Average host cores used since the snapshot.
  [[nodiscard]] double host_cores_used() const;
  /// Average NIC cores used since the snapshot.
  [[nodiscard]] double nic_cores_used() const;

  /// Power-fail: drop off the fabric (in-flight frames to us are lost)
  /// and wipe all volatile runtime state.  Idempotent while down.
  void crash();
  /// Power back up: rejoin the fabric and cold-start every actor.
  void restore();
  [[nodiscard]] bool down() const noexcept { return down_; }

 private:
  netsim::NodeId id_;
  ServerSpec spec_;
  sim::Simulation& sim_;
  netsim::Network& net_;
  bool down_ = false;
  std::unique_ptr<nic::NicModel> nic_;
  std::unique_ptr<hostsim::HostModel> host_;
  std::unique_ptr<Runtime> runtime_;
  Ns snapshot_at_ = 0;
  Ns host_busy_snapshot_ = 0;
  Ns nic_busy_snapshot_ = 0;
};

/// The paper testbed's ToR switch latency (§5.1); the paper-figure
/// benches, tests and examples build their cluster with it.
inline constexpr Ns kTorLatency = 300;

/// The fabric without server nodes, for device-level runs (a NIC and its
/// client on the wire): the switch domain plus one endpoint domain that
/// every attached component joins.
struct BareFabric {
  explicit BareFabric(Ns switch_latency = kTorLatency)
      : switch_domain(engine.add_domain()),
        node_domain(engine.add_domain()),
        net(engine, switch_domain, switch_latency) {
    net.set_attach_domain(node_domain);
  }

  /// The endpoint domain's queue: construct components against it; its
  /// clock is the delivery clock.
  [[nodiscard]] sim::Simulation& sim() { return engine.domain(node_domain); }
  /// Run until `until` (inclusive) or until every queue drains.
  void run(Ns until = ~Ns{0}) {
    net.install_lookahead();
    engine.run(until);
  }

  sim::ParallelSimulation engine;
  sim::DomainId switch_domain;
  sim::DomainId node_domain;
  netsim::Network net;
};

/// The testbed cluster, on the conservative parallel engine: every server
/// gets its own engine domain (its NIC, host, runtime, actors, and timers
/// all schedule on that domain's queue), the switch is domain 0, and all
/// clients share domain 1 (bench closures routinely share state across
/// client generators, so keeping them co-domained keeps that pattern
/// safe).  The fabric is the only cross-domain surface, so a closure must
/// schedule on the domain whose state it touches: client-side work on
/// `client_sim()`, per-server work on `server(i).sim()`.  `run_until(t)`
/// executes the domains on `set_threads(n)` workers with byte-identical
/// results for every n.
///
/// The two switch half-latencies become the engine's lookahead windows:
/// a wider latency (the 2 us default) means fewer synchronization
/// barriers per simulated second.
class ParallelCluster {
 public:
  explicit ParallelCluster(Ns switch_latency = 2000)
      : switch_dom_(psim_.add_domain()),
        client_dom_(psim_.add_domain()),
        net_(psim_, switch_dom_, switch_latency) {
    // Every component arena-allocates from the constructing thread's
    // pool; engine workers recycle frames concurrently.
    net_.pool().set_concurrent(true);
  }

  /// Add a server in its own fresh engine domain; returns the node.
  ServerNode& add_server(ServerSpec spec);
  /// Add a client endpoint (clients domain) with its own (dumb) NIC.
  workloads::ClientGen& add_client(double link_gbps,
                                   workloads::ClientGen::MakeReq make,
                                   std::uint64_t seed = 42);
  /// Add a multiplexed open-loop population endpoint (clients domain).
  workloads::OpenLoopGen& add_open_loop(workloads::OpenLoopParams params);

  void set_threads(unsigned n) noexcept { psim_.set_threads(n); }
  /// First call freezes the topology (installs the lookahead edges).
  void run_until(Ns t);
  /// Snapshot every server at virtual time `t`, each on its own domain.
  void snapshot_all_at(Ns t);

  [[nodiscard]] sim::ParallelSimulation& engine() noexcept { return psim_; }
  [[nodiscard]] netsim::Network& net() noexcept { return net_; }
  /// The clients' domain queue (what bench driver closures schedule on).
  [[nodiscard]] sim::Simulation& client_sim() noexcept {
    return psim_.domain(client_dom_);
  }
  [[nodiscard]] ServerNode& server(std::size_t i) { return *servers_[i]; }
  [[nodiscard]] std::size_t server_count() const noexcept {
    return servers_.size();
  }
  [[nodiscard]] workloads::ClientGen& client(std::size_t i) {
    return *clients_[i];
  }
  [[nodiscard]] std::size_t client_count() const noexcept {
    return clients_.size();
  }

  /// Build a chaos controller wired to every server added so far:
  /// crash/restore map onto ServerNode::crash/restore, pcie-corrupt onto
  /// the node's channel fault injection.  Call after the last add_server.
  [[nodiscard]] std::unique_ptr<netsim::ChaosController> make_chaos();

  /// Node ids: servers are 0..N-1; clients get 1000, 1001, ...
  static constexpr netsim::NodeId kClientBase = 1000;

 private:
  sim::ParallelSimulation psim_;
  sim::DomainId switch_dom_;
  sim::DomainId client_dom_;
  netsim::Network net_;
  bool topology_frozen_ = false;
  std::vector<std::unique_ptr<ServerNode>> servers_;
  std::vector<std::unique_ptr<workloads::ClientGen>> clients_;
  std::vector<std::unique_ptr<workloads::OpenLoopGen>> open_loops_;
};

/// Convert a deployment mode into the runtime config tweaks it implies.
[[nodiscard]] IPipeConfig config_for_mode(Mode mode, IPipeConfig base);

}  // namespace ipipe::testbed
