// Distributed transaction actors (§4): optimistic concurrency control
// with two-phase commit, following FaSST/TAPIR-style designs.
//
//   * CoordinatorActor — drives the 4-phase protocol, NIC-side; keeps the
//     coordinator log in a DMO-backed append region and offloads
//     checkpointing to the host-pinned LogActor.
//   * ParticipantActor — versioned key-value store (extendible DMO hash
//     table) with record locks, NIC-side.
//   * LogActor         — persistent logging / checkpointing, host-pinned.
//
// Protocol (§4 "Distributed Transactions"):
//   Phase 1 read+lock: read R, lock W (abort if anything is locked)
//   Phase 2 validate:  re-check R versions (abort on change/lock)
//   Phase 3 log:       append key/value/version to the coordinator log
//   Phase 4 commit:    participants apply W, bump versions, unlock
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "apps/common/wire.h"
#include "apps/dt/hashtable.h"
#include "ipipe/runtime.h"

namespace ipipe::dt {

enum MsgType : std::uint16_t {
  kTxnRequest = 200,   // client -> coordinator
  kTxnReply = 201,     // coordinator -> client
  kRead = 210,         // coordinator -> participant (phase 1)
  kReadReply = 211,
  kLock = 212,         // coordinator -> participant (phase 1)
  kLockReply = 213,
  kValidate = 214,     // coordinator -> participant (phase 2)
  kValidateReply = 215,
  kCommit = 216,       // coordinator -> participant (phase 4)
  kCommitAck = 217,
  kAbortUnlock = 218,  // coordinator -> participant (abort path)
  kAbortAck = 219,     // participant -> coordinator (abort acknowledged)
  kLogAppend = 220,    // coordinator -> log actor (phase 3)
  kLogAck = 221,
  kLogCheckpoint = 222,
  // crash recovery (coordinator restart)
  kLogReplayReq = 223,  // coordinator -> log: stream unresolved records
  kLogReplay = 224,     // log -> coordinator: one in-doubt txn (0 = done)
  kLogResolve = 225,    // coordinator -> log: txn durable everywhere, drop
  kRecoverLocks = 226,  // coordinator -> participants: active txn set
  kRecoverAck = 227,    // participant -> coordinator
  // self-timers (never cross the wire)
  kTxnTick = 240,  // coordinator retransmit sweep
};

enum class TxnStatus : std::uint8_t {
  kCommitted = 0,
  kAbortedLocked = 1,
  kAbortedValidation = 2,
  kError = 3,
};

struct TxnRead {
  netsim::NodeId node = 0;
  std::string key;
};
struct TxnWrite {
  netsim::NodeId node = 0;
  std::string key;
  std::vector<std::uint8_t> value;
};

/// Client transaction request: read set + write set.
struct TxnRequest {
  std::vector<TxnRead> reads;
  std::vector<TxnWrite> writes;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static std::optional<TxnRequest> decode(
      std::span<const std::uint8_t> data);
};

struct TxnReply {
  TxnStatus status = TxnStatus::kCommitted;
  std::vector<std::vector<std::uint8_t>> read_values;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static std::optional<TxnReply> decode(
      std::span<const std::uint8_t> data);
};

/// Ground-truth hooks for the verification harness (src/verify): what
/// the protocol actually did, beyond what clients can see.  All hooks
/// are optional; unset ones cost nothing.
struct ParticipantObserver {
  /// A write became visible in the store (version installed).
  std::function<void(Ns at, std::uint64_t txn, const std::string& key,
                     std::uint32_t version,
                     std::span<const std::uint8_t> value)>
      on_apply;
  /// A phase-1 read was served (version/value as returned; ok=false means
  /// the record was locked and the txn will abort).
  std::function<void(Ns at, std::uint64_t txn, const std::string& key,
                     std::uint32_t version,
                     std::span<const std::uint8_t> value, bool ok)>
      on_read;
  /// The store was wiped by a node crash: versions restart from zero, so
  /// checkers must segment version chains at these instants.
  std::function<void(Ns at)> on_wipe;
};

class ParticipantActor final : public Actor {
 public:
  ParticipantActor() : Actor("dt-participant") {}

  void init(ActorEnv& env) override { store_.create(env, 4); }
  /// Node crash: the DMO-backed store and every lock die with it.
  void reset(ActorEnv& env) override {
    store_ = DmoHashTable{};
    locks_.clear();
    if (observer_.on_wipe) observer_.on_wipe(env.now());
  }
  void handle(ActorEnv& env, const netsim::Packet& req) override;

  [[nodiscard]] std::uint64_t region_bytes() const override { return 16 * MiB; }
  [[nodiscard]] const DmoHashTable& store() const noexcept { return store_; }
  /// Records currently lock-held (the "no dangling locks" invariant).
  [[nodiscard]] std::size_t locked_count() const noexcept {
    return locks_.size();
  }
  void set_observer(ParticipantObserver obs) { observer_ = std::move(obs); }

 private:
  /// Who holds the lock on a key: coordinator node + its txn id + the
  /// version reported at lock time (for idempotent re-locks).
  struct LockOwner {
    netsim::NodeId node = 0;
    std::uint64_t txn = 0;
    std::uint32_t version = 0;
  };

  DmoHashTable store_;
  std::map<std::string, LockOwner> locks_;
  ParticipantObserver observer_;
};

class LogActor final : public Actor {
 public:
  LogActor() : Actor("dt-log") {}

  [[nodiscard]] bool host_pinned() const override { return true; }
  // Host-pinned = persistent storage: retained records deliberately
  // survive node crashes (no reset override).
  void handle(ActorEnv& env, const netsim::Packet& req) override;

  [[nodiscard]] std::uint64_t appended() const noexcept { return appended_; }
  [[nodiscard]] std::uint64_t checkpoints() const noexcept { return checkpoints_; }
  /// Logged-but-unresolved transactions (in-doubt after a crash).
  [[nodiscard]] std::size_t unresolved() const noexcept {
    return records_.size();
  }

 private:
  std::uint64_t appended_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t checkpoints_ = 0;
  /// txn id -> raw kLogAppend payload, retained until kLogResolve so a
  /// restarted coordinator can replay its in-doubt transactions.
  std::map<std::uint64_t, std::vector<std::uint8_t>> records_;
};

/// Coordinator recovery sweep-timer granularity.
inline constexpr Ns kTxnRetryPeriod = msec(5);
/// Phase 1/2 retransmits before the coordinator gives up and aborts
/// (commit and abort phases retransmit forever — the 2PC decision is
/// final).
inline constexpr unsigned kMaxPhase12Retries = 8;

/// Recovery / retransmission knobs for the coordinator.  Disabled by
/// default: each 2PC message is sent once and no timer runs, which is
/// how the paper-figure DT rows (fig13, fig14_15) are measured.
struct DtRecoveryParams {
  bool enabled = false;
  Ns retry_timeout = msec(2);  ///< per-phase silence before retransmit
  /// Every node hosting a participant (for the recover-locks broadcast).
  std::vector<netsim::NodeId> cluster;

  /// Fault injection for the verification harness' mutation self-test:
  /// the abort path sends kCommit for its first locked write instead of
  /// kAbortUnlock, making an aborted transaction's write visible — the
  /// lost-abort bug the atomicity checker must catch.  Never enable
  /// outside verify tests.
  bool inject_lost_abort = false;
};

/// Coordinator-side ground truth for the serializability checker: one
/// record per transaction at decision time, carrying the read set
/// (node/key/version/value as validated) and write set (node/key/value
/// and the version each commit installs).
struct CoordinatorObserver {
  struct Outcome {
    std::uint64_t txn_id = 0;
    std::uint64_t request_id = 0;
    TxnStatus status = TxnStatus::kError;
    bool recovered = false;  ///< rebuilt from the log after a crash
    Ns decided_at = 0;
    TxnRequest request;
    std::vector<std::uint32_t> read_versions;
    std::vector<std::vector<std::uint8_t>> read_values;
    std::vector<std::uint32_t> write_targets;  ///< versions installed
  };
  std::function<void(const Outcome&)> on_outcome;
};

class CoordinatorActor final : public Actor {
 public:
  /// `participant_actor` is the participant actor id (identical on all
  /// storage nodes); `log_actor` is the local host-pinned logger.
  CoordinatorActor(ActorId participant_actor, ActorId log_actor,
                   std::uint64_t log_limit_bytes = 1 * MiB,
                   DtRecoveryParams recovery = {})
      : Actor("dt-coordinator"),
        participant_(participant_actor),
        log_actor_(log_actor),
        log_limit_(log_limit_bytes),
        recovery_(std::move(recovery)) {}

  void init(ActorEnv& env) override;
  void reset(ActorEnv& env) override;
  void handle(ActorEnv& env, const netsim::Packet& req) override;

  [[nodiscard]] std::uint64_t committed() const noexcept { return committed_; }
  [[nodiscard]] std::uint64_t aborted() const noexcept { return aborted_; }
  [[nodiscard]] std::uint64_t recovered_txns() const noexcept {
    return recovered_txns_;
  }
  [[nodiscard]] std::uint64_t retransmits() const noexcept {
    return retransmits_;
  }
  [[nodiscard]] std::size_t in_flight() const noexcept { return txns_.size(); }
  void set_observer(CoordinatorObserver obs) { observer_ = std::move(obs); }

 private:
  enum class Phase : std::uint8_t {
    kReadLock = 1,
    kValidate = 2,
    kLog = 3,
    kCommit = 4,
    kAborting = 5,  ///< decision reached; unlocks retransmitted until acked
  };

  struct TxnState {
    TxnRequest request;
    netsim::Packet client;  // reply routing
    Phase phase = Phase::kReadLock;
    unsigned pending = 0;
    bool failed = false;
    bool recovered = false;  ///< replayed from the log: no client to answer
    bool replied = false;    ///< client already answered (abort drain)
    std::vector<std::uint32_t> read_versions;
    std::vector<std::vector<std::uint8_t>> read_values;
    std::vector<std::uint32_t> write_versions;
    /// Per-item completion for the current phase (phase 1: reads then
    /// writes; later phases: one flag per phase item).
    std::vector<std::uint8_t> done;
    unsigned locks_held = 0;
    unsigned retries = 0;
    Ns phase_started = 0;
    bool outcome_emitted = false;  ///< observer fired for this txn
  };

  void on_client(ActorEnv& env, const netsim::Packet& req);
  void on_read_reply(ActorEnv& env, const netsim::Packet& req);
  void on_lock_reply(ActorEnv& env, const netsim::Packet& req);
  void on_validate_reply(ActorEnv& env, const netsim::Packet& req);
  void on_log_ack(ActorEnv& env, const netsim::Packet& req);
  void on_commit_ack(ActorEnv& env, const netsim::Packet& req);
  void on_abort_ack(ActorEnv& env, const netsim::Packet& req);
  void on_log_replay(ActorEnv& env, const netsim::Packet& req);
  void on_recover_ack(ActorEnv& env, const netsim::Packet& req);
  void on_tick(ActorEnv& env);
  void phase1_maybe_done(ActorEnv& env, std::uint64_t txn_id);
  void begin_validate(ActorEnv& env, std::uint64_t txn_id, TxnState& txn);
  void begin_log(ActorEnv& env, std::uint64_t txn_id, TxnState& txn);
  void begin_commit(ActorEnv& env, std::uint64_t txn_id, TxnState& txn);
  void abort(ActorEnv& env, std::uint64_t txn_id, TxnState& txn,
             TxnStatus status);
  void reply_client(ActorEnv& env, TxnState& txn, TxnStatus status);
  void send_read(ActorEnv& env, std::uint64_t txn_id, const TxnState& txn,
                 std::size_t i);
  void send_lock(ActorEnv& env, std::uint64_t txn_id, const TxnState& txn,
                 std::size_t i);
  void send_validate(ActorEnv& env, std::uint64_t txn_id, const TxnState& txn,
                     std::size_t i);
  void send_commit(ActorEnv& env, std::uint64_t txn_id, const TxnState& txn,
                   std::size_t i);
  void send_unlock(ActorEnv& env, std::uint64_t txn_id, const TxnState& txn,
                   std::size_t i);
  void send_recover_locks(ActorEnv& env, netsim::NodeId node);
  void retransmit_txn(ActorEnv& env, std::uint64_t txn_id, TxnState& txn);
  void charge_coord(ActorEnv& env) const;
  void emit_outcome(ActorEnv& env, std::uint64_t txn_id, TxnState& txn,
                    TxnStatus status);

  ActorId participant_;
  ActorId log_actor_;
  std::uint64_t log_limit_;
  DtRecoveryParams recovery_;
  std::uint64_t log_bytes_ = 0;
  std::uint64_t next_txn_ = 1;
  std::uint64_t committed_ = 0;
  std::uint64_t aborted_ = 0;
  std::uint64_t recovered_txns_ = 0;
  std::uint64_t retransmits_ = 0;
  // std::map: deterministic sweep order (chaos replay byte-compares).
  std::map<std::uint64_t, TxnState> txns_;

  // Recovery-in-progress state (coordinator restart).
  bool recovering_ = false;
  std::vector<std::uint64_t> recover_active_;
  std::set<netsim::NodeId> recover_pending_;

  // Client request dedup (request id -> cached reply / active txn).
  std::map<std::uint64_t, std::uint64_t> active_reqs_;
  std::map<std::uint64_t, std::vector<std::uint8_t>> completed_reqs_;
  std::deque<std::uint64_t> completed_order_;  ///< bounded-cache eviction

  CoordinatorObserver observer_;
};

/// One node's DT deployment.
struct DtDeployment {
  ActorId participant = 0;
  ActorId coordinator = 0;
  ActorId log = 0;
};

/// Register participant + log (+ coordinator when `with_coordinator`) in a
/// fixed order so actor ids agree across nodes.
[[nodiscard]] DtDeployment deploy_dt(Runtime& rt, bool with_coordinator,
                                     DtRecoveryParams recovery = {});

}  // namespace ipipe::dt
