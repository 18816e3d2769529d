// Execution-history capture for the verification harness (the "verify"
// subsystem): a HistoryRecorder taps the workload generators and the
// application actors and accumulates a compact per-run history that the
// checkers (linearize.h, serialize.h) consume after the run.
//
// Two views are recorded:
//   * the CLIENT view — invoke/response intervals in virtual time, one
//     logical operation per request id (retransmits collapse onto the
//     first issue; the first reply wins, duplicates are dropped);
//   * the GROUND-TRUTH view (DT only) — what the protocol actually did
//     inside the participants and the coordinator, via the observer
//     hooks on the actors (installs, phase-1 reads, store wipes,
//     per-transaction outcomes).
//
// Everything is plain data: the recorder allocates nothing exotic and
// the histories can be built by hand in unit tests.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/dt/dt_actors.h"
#include "apps/rkv/rkv_messages.h"
#include "common/units.h"
#include "netsim/network.h"
#include "sim/simulation.h"
#include "workloads/client.h"
#include "workloads/open_loop.h"

namespace ipipe::verify {

/// Response timestamp of an operation that never completed.  Checkers
/// treat such operations as concurrent with everything after invoke.
inline constexpr Ns kPendingNs = std::numeric_limits<Ns>::max();

/// One logical RKV client operation (one request id; retries share it).
struct KvOp {
  std::uint64_t request_id = 0;
  netsim::NodeId client = 0;
  rkv::Op op = rkv::Op::kGet;
  std::string key;
  std::vector<std::uint8_t> arg;  ///< put value (empty for get/del)
  Ns invoke = 0;
  Ns response = kPendingNs;  ///< kPendingNs = no reply observed
  bool has_status = false;
  rkv::Status status = rkv::Status::kError;
  std::vector<std::uint8_t> result;  ///< get reply value
};

struct KvHistory {
  std::vector<KvOp> ops;

  [[nodiscard]] std::size_t completed() const {
    std::size_t n = 0;
    for (const auto& op : ops) n += op.has_status ? 1 : 0;
    return n;
  }
};

/// One logical DT client transaction (client view; the checkers run on
/// the coordinator outcomes, this is kept for accounting/cross-checks).
struct TxnClientOp {
  std::uint64_t request_id = 0;
  netsim::NodeId client = 0;
  Ns invoke = 0;
  Ns response = kPendingNs;
  bool has_status = false;
  dt::TxnStatus status = dt::TxnStatus::kError;
};

/// Ground truth for the DT checkers.
struct DtHistory {
  /// A write became visible in a participant store.
  struct Apply {
    Ns at = 0;
    netsim::NodeId node = 0;
    std::uint64_t txn = 0;
    std::string key;
    std::uint32_t version = 0;
    std::vector<std::uint8_t> value;
  };
  /// A phase-1 read served by a participant.
  struct Read {
    Ns at = 0;
    netsim::NodeId node = 0;
    std::uint64_t txn = 0;
    std::string key;
    std::uint32_t version = 0;
    std::vector<std::uint8_t> value;
    bool ok = true;  ///< false = record was locked (txn will abort)
  };
  /// A participant store wipe (node crash): versions restart at zero.
  struct Wipe {
    Ns at = 0;
    netsim::NodeId node = 0;
  };

  std::vector<dt::CoordinatorObserver::Outcome> outcomes;
  std::vector<Apply> applies;
  std::vector<Read> reads;
  std::vector<Wipe> wipes;
  std::vector<TxnClientOp> client_ops;
};

/// Hooks clients and actors and accumulates their histories.  Must
/// outlive every hooked object's last callback (in practice: declare it
/// before the cluster's clients and keep it alive until the run ends).
class HistoryRecorder {
 public:
  explicit HistoryRecorder(const sim::Simulation& sim) : sim_(sim) {}

  HistoryRecorder(const HistoryRecorder&) = delete;
  HistoryRecorder& operator=(const HistoryRecorder&) = delete;

  /// Record only RKV keys the filter accepts.  The sharded scale-out
  /// workloads are far too large to check whole; sampling a fixed key
  /// subset keeps the per-key Wing–Gong partitions tractable while the
  /// generator's online floor checker covers every key.  Set before
  /// hooking; an empty filter records everything.
  void set_kv_key_filter(std::function<bool(const std::string&)> filter) {
    kv_key_filter_ = std::move(filter);
  }

  /// RKV: record one KvOp per issued client request (set_on_issue) and
  /// close it on the first kClientReply (add_on_reply — coexists with
  /// workload steering hooks).
  void hook_rkv_client(workloads::ClientGen& client);

  /// Sharded RKV: the same client view, tapped from the open-loop
  /// multiplexer.  Routing statuses (kNotLeader / kWrongShard) do NOT
  /// close an op — the generator retries under the same request id, so
  /// only a final status is the operation's response.
  void hook_rkv_openloop(workloads::OpenLoopGen& gen);

  /// DT client view: one TxnClientOp per issued kTxnRequest.
  void hook_dt_client(workloads::ClientGen& client);

  /// DT ground truth: per-transaction outcomes at decision time.
  void hook_dt_coordinator(dt::CoordinatorActor& coord);

  /// DT ground truth: installs / reads / wipes on one participant.
  void hook_dt_participant(dt::ParticipantActor& part, netsim::NodeId node);

  [[nodiscard]] const KvHistory& kv() const noexcept { return kv_; }
  [[nodiscard]] const DtHistory& dt() const noexcept { return dt_; }

 private:
  void record_kv_issue(const netsim::Packet& pkt);
  void record_kv_reply(const netsim::Packet& pkt, bool skip_routing);

  const sim::Simulation& sim_;
  std::function<bool(const std::string&)> kv_key_filter_;
  KvHistory kv_;
  DtHistory dt_;
  std::unordered_map<std::uint64_t, std::size_t> kv_index_;   // rid -> op
  std::unordered_map<std::uint64_t, std::size_t> txn_index_;  // rid -> op
};

}  // namespace ipipe::verify
