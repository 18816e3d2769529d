// Chaos harness: deterministic, replayable fault schedules executed in
// virtual time against the simulated fabric and its nodes.
//
// A FaultPlan is a list of timestamped fault actions, built with the
// builders below or parsed from a small text grammar (see EXPERIMENTS.md
// "Chaos & recovery").  Six verbs target one node (crash, pcie-corrupt,
// nic-crash, nic-reset, pcie-flap, accel-fail); partition and link-fault
// target the fabric.  Each node verb is one row of chaos.cc's verb table,
// which gives its grammar word, its optional `rate`/`bank` clause, its
// heal line and the outage it dedups on; parse, to_text, dispatch and
// the fire/heal path all read that row.  Adding a node verb is one row
// plus its NodeHooks entry.
//
// The grammar is strict (whole-token numbers, probabilities in [0, 1],
// finite non-negative times that fit in Ns, nothing after the window) and
// to_text prints every number exactly, so parse(to_text(p)) == p.
//
// The ChaosController schedules every action on the simulation clock and
// drives the per-node hooks the testbed registers (what "crash" means for
// a node is ServerNode::crash / restore).  Everything runs in virtual time
// from seeded inputs, so the same plan against the same binary produces a
// byte-identical event log (the determinism check CI enforces).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/units.h"
#include "netsim/network.h"
#include "sim/simulation.h"

namespace ipipe::netsim {

struct NodeVerb;  // a row of chaos.cc's verb table

/// One scheduled fault.  `at` is the virtual time it fires; faults with a
/// `duration` heal/restore at `at + duration`.
struct FaultAction {
  enum class Kind : std::uint8_t {
    kCrash,        ///< node detaches + loses volatile state, rejoins later
    kPartition,    ///< group_a <-/-> group_b until healed
    kPcieCorrupt,  ///< burst corruption on one node's PCIe channel rings
    kLinkFault,    ///< fabric-wide FaultModel override for the window
    kNicCrash,     ///< smartNIC firmware dies; host keeps running
    kNicReset,     ///< NIC firmware reset (same host-visible effect,
                   ///< separate verb/log so plans can distinguish intent)
    kPcieFlap,     ///< PCIe link down/up: channel parks traffic, NIC lives
    kAccelFail,    ///< one accelerator bank fails; software fallback
  };

  Kind kind = Kind::kCrash;
  Ns at = 0;
  Ns duration = 0;
  NodeId node = kInvalidNode;        ///< node-scoped kinds
  double rate = 0.0;                 ///< kPcieCorrupt fault rate
  std::uint32_t bank = 0;            ///< kAccelFail accelerator bank
  std::vector<NodeId> group_a{};     ///< kPartition
  std::vector<NodeId> group_b{};
  FaultModel fault{};                ///< kLinkFault
};

/// A replayable fault schedule.
struct FaultPlan {
  std::vector<FaultAction> actions;

  FaultPlan& crash(NodeId node, Ns at, Ns downtime);
  FaultPlan& partition(std::vector<NodeId> a, std::vector<NodeId> b, Ns at,
                       Ns duration);
  FaultPlan& pcie_corrupt(NodeId node, double rate, Ns at, Ns duration);
  FaultPlan& link_fault(FaultModel fm, Ns at, Ns duration);
  FaultPlan& nic_crash(NodeId node, Ns at, Ns downtime);
  FaultPlan& nic_reset(NodeId node, Ns at, Ns downtime);
  FaultPlan& pcie_flap(NodeId node, Ns at, Ns duration);
  FaultPlan& accel_fail(NodeId node, std::uint32_t bank, Ns at, Ns duration);

  [[nodiscard]] bool empty() const noexcept { return actions.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return actions.size(); }

  /// Parse the text spec.  One directive per line; '#' starts a comment.
  ///   crash <node> at <time> for <duration>
  ///   partition <a,b,...>|<c,d,...> at <time> for <duration>
  ///   pcie-corrupt <node> rate <p> at <time> for <duration>
  ///   link-fault [drop=<p>] [dup=<p>] [corrupt=<p>] [jitter=<time>]
  ///              at <time> for <duration>
  ///   nic-crash <node> at <time> for <duration>
  ///   nic-reset <node> at <time> for <duration>
  ///   pcie-flap <node> at <time> for <duration>
  ///   accel-fail <node> bank <b> at <time> for <duration>
  /// Times accept ns/us/ms/s suffixes (e.g. "250ms", "3s").  Nodes and
  /// banks are unsigned 32-bit; probabilities lie in [0, 1].
  /// Returns nullopt on malformed input; `error` (if given) explains why,
  /// starting "line <n>: ".
  [[nodiscard]] static std::optional<FaultPlan> parse(
      const std::string& text, std::string* error = nullptr);

  /// Render back to the text-spec grammar (one directive per line, times
  /// in ns, probabilities in their shortest exact form), so parse()
  /// reproduces every field.  Shrunk plans are reported in this form so a
  /// failing schedule can be replayed with --plan / --plan-file.
  [[nodiscard]] std::string to_text() const;

 private:
  FaultPlan& add(FaultAction a);
};

/// Per-node callbacks the controller drives.  All optional — an
/// unregistered node (or empty hook) turns that action into a logged
/// no-op rather than an error, so plans can outlive topology changes.
struct NodeHooks {
  std::function<void()> crash;
  std::function<void()> restore;
  /// Burst corruption rate on the node's PCIe channel; 0.0 heals.
  std::function<void(double)> pcie_corrupt;
  /// SmartNIC firmware death / revival (host side keeps running).
  std::function<void()> nic_crash;
  std::function<void()> nic_restore;
  /// PCIe link down (true) / back up (false); NIC firmware stays alive.
  std::function<void(bool)> pcie_flap;
  /// Accelerator bank fails (true) / recovers (false).
  std::function<void(std::uint32_t, bool)> accel_fail;
};

/// Dispatch rule: the node verbs fire and heal on the target node's
/// engine domain; partition and link-fault — and node verbs against a
/// node the fabric does not know — on the switch domain that owns the
/// partition set and the fault model.  A round runs domains one after
/// another, not in time order, so `event_log()` sorts the lines by
/// (virtual time, plan sequence).  Fault instants show up in traces
/// through the nodes' own runtime tracers.
class ChaosController {
 public:
  explicit ChaosController(Network& net) : net_(net) {}

  void register_node(NodeId node, NodeHooks hooks) {
    hooks_[node] = std::move(hooks);
    node_out_.down[node] = false;
  }

  /// Schedule every action in `plan` on the simulation clock.  May be
  /// called multiple times; actions from all plans interleave by time.
  void execute(const FaultPlan& plan);

  [[nodiscard]] bool node_down(NodeId node) const {
    const auto it = node_out_.down.find(node);
    return it != node_out_.down.end() && it->second;
  }

  // ---- the replayable record -----------------------------------------------
  /// Every fault/heal event, in execution order, as "t=<ns> <what> ..."
  /// lines.  Byte-identical across runs of the same plan + same binary.
  [[nodiscard]] const std::vector<std::string>& event_log() const;
  /// The log joined with newlines (for the determinism byte-compare).
  [[nodiscard]] std::string event_log_text() const;

  [[nodiscard]] std::uint64_t crashes() const noexcept {
    return node_out_.begun;
  }
  [[nodiscard]] std::uint64_t restores() const noexcept {
    return node_out_.ended;
  }
  [[nodiscard]] std::uint64_t partitions() const noexcept {
    return partitions_;
  }
  [[nodiscard]] std::uint64_t heals() const noexcept { return heals_; }
  [[nodiscard]] std::uint64_t nic_crashes() const noexcept {
    return nic_out_.begun;
  }
  [[nodiscard]] std::uint64_t nic_restores() const noexcept {
    return nic_out_.ended;
  }

 private:
  /// One outage class (whole node, or NIC only): per-node down flags and
  /// begin/end counts.
  struct OutageState {
    std::map<NodeId, bool> down;
    std::uint64_t begun = 0;
    std::uint64_t ended = 0;
  };

  /// `s` is the domain queue the action executes on (the dispatch rule
  /// above).  `seq` is the action's plan-order sequence, the deterministic
  /// tie-break for log lines that share a timestamp.
  void fire_node(sim::Simulation& s, const NodeVerb& v, const FaultAction& a,
                 std::uint64_t seq);
  void fire_partition(sim::Simulation& s, const FaultAction& a,
                      std::uint64_t seq);
  void fire_link_fault(sim::Simulation& s, const FaultAction& a,
                       std::uint64_t seq);
  /// The outage `v` dedups on, or nullptr.
  [[nodiscard]] OutageState* outage(const NodeVerb& v);
  /// Logs "t=<t> <body>".
  void log_line(Ns t, std::uint64_t seq, const std::string& body);

  Network& net_;
  std::map<NodeId, NodeHooks> hooks_;
  OutageState node_out_;  ///< crash / restore
  OutageState nic_out_;   ///< nic-crash, nic-reset / nic-restore
  struct LogRec {
    Ns t;
    std::uint64_t seq;
    std::string line;
  };
  mutable std::vector<LogRec> recs_;
  mutable std::vector<std::string> log_;  ///< sorted cache, rebuilt on read
  std::uint64_t next_seq_ = 0;            ///< 2 per action: fire, then heal
  std::uint64_t partitions_ = 0;
  std::uint64_t heals_ = 0;
};

}  // namespace ipipe::netsim
