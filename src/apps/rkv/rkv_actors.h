// Replicated key-value store actors (§4):
//   * ConsensusActor  — Multi-Paxos replica (leader or follower), NIC-side
//   * MemtableActor   — DMO skip-list memtable, NIC-side
//   * SstReadActor    — SSTable reads, host-pinned (persistent storage)
//   * CompactionActor — minor/major compaction, host-pinned
//
// Request flow: client -> consensus (Paxos commit for writes) -> memtable
// (apply / fast reads) -> sstable reader (read misses) -> compaction
// (flush batches).  Replies go straight from the serving actor to the
// client using the routing info embedded in the operation.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "apps/rkv/lsm.h"
#include "apps/rkv/rkv_messages.h"
#include "apps/rkv/skiplist.h"
#include "ipipe/runtime.h"

namespace ipipe::rkv {

/// Reply-routing information carried inside operations so that whichever
/// actor finishes a request can respond to the client directly.
struct ReplyTo {
  static constexpr std::size_t kWireSize = 2 * sizeof(std::uint32_t) +
                                           2 * sizeof(std::uint64_t);

  std::uint32_t node = 0;
  std::uint32_t actor = netsim::kForwardOnly;
  std::uint64_t request_id = 0;
  std::uint64_t created_at = 0;

  void encode(wire::Writer& w) const {
    w.put(node).put(actor).put(request_id).put(created_at);
  }
  [[nodiscard]] static bool decode(wire::Reader& r, ReplyTo& out) {
    return r.get(out.node) && r.get(out.actor) && r.get(out.request_id) &&
           r.get(out.created_at);
  }
  [[nodiscard]] netsim::Packet as_request() const {
    netsim::Packet pkt;
    pkt.src = node;
    pkt.src_actor = actor;
    pkt.request_id = request_id;
    pkt.created_at = created_at;
    return pkt;
  }
};

/// [op u8][ReplyTo][key str][value bytes]: a write driven through Paxos.
/// The log stores these bytes, and kApplyOp carries them to the memtable.
struct OpView {
  /// Offset of the ReplyTo route inside the encoded op.
  static constexpr std::size_t kReplyOffset = 1;

  Op op = Op::kGet;
  ReplyTo reply;
  std::string_view key;
  wire::Bytes value;
  std::size_t size = 0;  ///< bytes parsed: a prefix of the input

  [[nodiscard]] static std::vector<std::uint8_t> encode(Op op,
                                                        const ReplyTo& reply,
                                                        std::string_view key,
                                                        wire::Bytes value) {
    wire::Writer w(kReplyOffset + ReplyTo::kWireSize +
                   wire::str_size(key.size()) + wire::bytes_size(value.size()));
    w.put(static_cast<std::uint8_t>(op));
    reply.encode(w);
    w.put_str(key).put_bytes(value);
    return w.take();
  }
  [[nodiscard]] static std::optional<OpView> decode(wire::Bytes data) {
    wire::Reader r(data);
    OpView v;
    std::uint8_t op = 0;
    if (!r.get(op) || !ReplyTo::decode(r, v.reply) || !r.get_str(v.key) ||
        !r.get_bytes(v.value)) {
      return std::nullopt;
    }
    v.op = static_cast<Op>(op);
    v.size = r.pos();
    return v;
  }
};

/// [ReplyTo][key str]: a read on its way to the memtable (kMemGet), the
/// SSTable reader (kSstGet) or, from the hot-key cache, to consensus
/// (kCacheGet).
struct KeyReadView {
  ReplyTo reply;
  std::string_view key;
  std::size_t size = 0;  ///< bytes parsed: a prefix of the input

  [[nodiscard]] static std::vector<std::uint8_t> encode(const ReplyTo& reply,
                                                        std::string_view key) {
    wire::Writer w(ReplyTo::kWireSize + wire::str_size(key.size()));
    reply.encode(w);
    w.put_str(key);
    return w.take();
  }
  [[nodiscard]] static std::optional<KeyReadView> decode(wire::Bytes data) {
    wire::Reader r(data);
    KeyReadView v;
    if (!ReplyTo::decode(r, v.reply) || !r.get_str(v.key)) return std::nullopt;
    v.size = r.pos();
    return v;
  }
};

struct RkvParams {
  std::vector<netsim::NodeId> replicas = {};  ///< replicas[0] = initial leader
  std::size_t self_index = 0;
  ActorId peer_consensus_actor = 0;  ///< consensus actor id on every node
  std::uint64_t memtable_flush_bytes = 2 * MiB;

  // -- failover (off by default: no timers, no heartbeat traffic) --
  /// Leader heartbeats + follower election timeouts + crash-restart
  /// catch-up.  Required for the chaos harness; legacy deployments keep
  /// the static leader.  With failover on, the leader only serves reads
  /// while it holds a read lease: heartbeat acks from a majority within
  /// the last election_timeout_min.  A leader stranded in a minority
  /// partition loses the lease before any peer can elect a replacement,
  /// so it can never serve a read that a newer leader's write has
  /// overtaken.  Without the lease it replies kNotLeader and the client
  /// re-probes.
  bool enable_failover = false;
  Ns heartbeat_period = msec(100);
  /// Election timeout drawn uniformly from [min, max) per arming — the
  /// randomized backoff that breaks split votes.  Seeded per replica.
  Ns election_timeout_min = msec(250);
  Ns election_timeout_max = msec(450);
  std::size_t catchup_batch = 64;  ///< chosen entries per catch-up frame

  /// Fault injection for the verification harness' mutation self-test:
  /// serve kClientGet from the local applied state regardless of
  /// leadership, lease, or catch-up — the classic follower-stale-read
  /// bug the linearizability checker must catch.  Never enable outside
  /// verify tests.
  bool inject_stale_reads = false;

  // -- client request dedup bound --
  /// Cap on the request-id -> slot dedup table (FIFO eviction).  Client
  /// retries are bounded (seconds), so evicting the oldest entries is
  /// safe long before they could be retransmitted; unbounded growth at
  /// million-client scale is not.
  std::size_t req_dedup_cap = 1 << 16;

  // -- sharded scale-out (off by default: the group owns every key) --
  /// Fixed shard count of the deployment; 0 disables ownership checks.
  std::uint32_t num_shards = 0;
  /// Route epoch + shards this group serves at deployment time.
  /// Updated at runtime by Op::kShardCfg entries driven through the
  /// Paxos log (so every replica and any future leader converges).
  std::uint64_t shard_epoch = 0;
  std::vector<std::uint32_t> owned_shards = {};

  // -- NIC-resident hot-key cache stage (see hot_cache.h) --
  bool enable_hot_cache = false;
  std::size_t cache_buckets = 4096;
  std::size_t cache_capacity_bytes = 32 * MiB;
  /// Verification mutation self-test: the cache drops invalidations.
  bool inject_stale_cache = false;
};

class MemtableActor;

class ConsensusActor final : public Actor {
 public:
  ConsensusActor(RkvParams params, ActorId memtable)
      : Actor("rkv-consensus"),
        params_(std::move(params)),
        memtable_(memtable),
        election_rng_(0xE1EC710BULL + params_.self_index) {
    leader_ = params_.self_index == 0;
    if (leader_) ballot_ = params_.replicas.size() + params_.self_index;
    peer_ack_.assign(params_.replicas.size(), 0);
    epoch_ = params_.shard_epoch;
    num_shards_cfg_ = params_.num_shards;
    owned_.insert(params_.owned_shards.begin(), params_.owned_shards.end());
  }

  void init(ActorEnv& env) override;
  void reset(ActorEnv& env) override;
  void handle(ActorEnv& env, const netsim::Packet& req) override;

  /// Hot-key cache actor on this node (0 = none).  Set by deploy_rkv
  /// right after registration: the cache registers after us, so the id
  /// cannot be a constructor argument.
  void set_cache_actor(ActorId id) noexcept { cache_ = id; }

  [[nodiscard]] bool is_leader() const noexcept { return leader_; }
  [[nodiscard]] std::uint64_t shard_epoch() const noexcept { return epoch_; }
  [[nodiscard]] const std::set<std::uint32_t>& owned_shards() const noexcept {
    return owned_;
  }
  [[nodiscard]] std::size_t dedup_size() const noexcept {
    return req_slot_.size();
  }
  [[nodiscard]] std::uint64_t ballot() const noexcept { return ballot_; }
  [[nodiscard]] std::uint64_t chosen_count() const noexcept { return chosen_; }
  [[nodiscard]] std::uint64_t next_slot() const noexcept { return next_slot_; }
  [[nodiscard]] std::uint64_t next_apply() const noexcept { return next_apply_; }
  [[nodiscard]] std::uint64_t elections_started() const noexcept {
    return elections_started_;
  }

  static constexpr std::uint16_t kElectTrigger = 115;

 private:
  struct LogEntry {
    std::uint64_t ballot = 0;
    std::vector<std::uint8_t> value;
    /// Replica-index bitmask of accept acks: re-proposing a stuck slot
    /// re-solicits replies, so the count must dedup by replica, not
    /// accumulate.
    std::uint32_t ack_mask = 0;
    bool chosen = false;
    bool applied = false;
    bool present = false;  ///< the slot has an entry (SlotLog)
  };

  /// The Paxos log, indexed by slot.  The leader hands slots out densely
  /// from 0, so a deque replaces a tree node per slot.  A follower that
  /// missed accepts has absent slots (holes); size() counts present
  /// entries only, as the working-set charges expect.
  class SlotLog {
   public:
    /// The entry at `slot`, made present (default) when absent.
    LogEntry& operator[](std::uint64_t slot) {
      if (slot >= slots_.size()) slots_.resize(slot + 1);
      LogEntry& e = slots_[slot];
      if (!e.present) {
        e.present = true;
        ++present_;
      }
      return e;
    }
    /// The entry at `slot`, or nullptr when absent.
    [[nodiscard]] LogEntry* find(std::uint64_t slot) {
      if (slot >= slots_.size() || !slots_[slot].present) return nullptr;
      return &slots_[slot];
    }
    /// Present slots at or above `from`, ascending: fn(slot, entry).
    template <typename Fn>
    void for_each_from(std::uint64_t from, Fn&& fn) const {
      for (std::uint64_t s = from; s < slots_.size(); ++s) {
        if (slots_[s].present) fn(s, slots_[s]);
      }
    }
    [[nodiscard]] std::size_t size() const noexcept { return present_; }
    void clear() {
      slots_.clear();
      present_ = 0;
    }

   private:
    std::deque<LogEntry> slots_;
    std::size_t present_ = 0;
  };

  void on_client(ActorEnv& env, const netsim::Packet& req);
  void on_cache_get(ActorEnv& env, const netsim::Packet& req);
  [[nodiscard]] bool owns_key(std::string_view key) const;
  void remember_request(std::uint64_t request_id, std::uint64_t slot);
  void maybe_grant_lease(ActorEnv& env);
  void on_prepare(ActorEnv& env, const netsim::Packet& req);
  void on_promise(ActorEnv& env, const netsim::Packet& req);
  void on_accept(ActorEnv& env, const netsim::Packet& req);
  void on_accepted(ActorEnv& env, const netsim::Packet& req);
  void on_learn(ActorEnv& env, const netsim::Packet& req);
  void on_heartbeat(ActorEnv& env, const netsim::Packet& req);
  void on_heartbeat_ack(ActorEnv& env, const netsim::Packet& req);
  [[nodiscard]] bool has_read_lease(Ns now) const;
  void on_catchup_req(ActorEnv& env, const netsim::Packet& req);
  void on_catchup_batch(ActorEnv& env, const netsim::Packet& req);
  void on_tick(ActorEnv& env);
  void start_election(ActorEnv& env);
  void become_leader(ActorEnv& env);
  void learn_entry(std::uint64_t slot, std::uint64_t ballot,
                   wire::Bytes value);
  void send_heartbeats(ActorEnv& env);
  void redrive_stuck_slots(ActorEnv& env);
  void propose_slot(ActorEnv& env, std::uint64_t slot);
  void apply_ready(ActorEnv& env);
  void broadcast(ActorEnv& env, std::uint16_t type,
                 std::vector<std::uint8_t> payload);
  [[nodiscard]] unsigned majority() const {
    return static_cast<unsigned>(params_.replicas.size() / 2 + 1);
  }
  [[nodiscard]] Ns draw_election_timeout();
  void charge_log_op(ActorEnv& env) const;

  RkvParams params_;
  ActorId memtable_;
  Rng election_rng_;  ///< per-replica seeded: distinct timeout sequences
  bool leader_ = false;
  std::uint64_t ballot_ = 0;    // current ballot (leader's when leading)
  std::uint64_t promised_ = 0;  // highest ballot promised
  std::uint64_t next_slot_ = 0;
  std::uint64_t next_apply_ = 0;
  std::uint64_t chosen_ = 0;
  SlotLog log_;

  // Election bookkeeping: votes only count for the ballot this candidacy
  // opened, each voter at most once (stale-ballot / duplicate promises
  // are rejected).
  bool in_election_ = false;
  std::uint64_t election_ballot_ = 0;
  std::set<std::uint32_t> voters_;
  std::uint64_t elections_started_ = 0;

  // Failure detection (enable_failover only).
  Ns last_leader_contact_ = 0;
  Ns election_timeout_cur_ = 0;

  // Read lease: per-peer timestamp of the last heartbeat ack received
  // while leading under the current ballot (0 = never).
  std::vector<Ns> peer_ack_;

  // Client request dedup: request id -> slot it was proposed in, rebuilt
  // from the log on recovery, so retried writes never double-apply.
  // Bounded by params_.req_dedup_cap with FIFO eviction (req_order_
  // records insertion order) — retries are bounded in time, table
  // growth at million-client scale is not.
  std::unordered_map<std::uint64_t, std::uint64_t> req_slot_;
  std::deque<std::uint64_t> req_order_;

  // Sharded scale-out state (see RkvParams): current route epoch and
  // owned shard set, mutated only by applied Op::kShardCfg entries.
  std::uint64_t epoch_ = 0;
  std::uint32_t num_shards_cfg_ = 0;
  std::set<std::uint32_t> owned_;

  // Hot-key cache stage: invalidations + lease grants go here.
  ActorId cache_ = 0;
  Ns lease_granted_until_ = 0;
};

class MemtableActor final : public Actor {
 public:
  MemtableActor(RkvParams params, ActorId sst_read, ActorId compaction)
      : Actor("rkv-memtable"),
        params_(std::move(params)),
        sst_read_(sst_read),
        compaction_(compaction) {}

  void init(ActorEnv& env) override { list_.create(env); }
  /// Crash-restart: the node's DMO table was wiped, so the old object
  /// ids are gone — come back with an empty memtable and let Paxos
  /// catch-up replay the log into it.
  void reset(ActorEnv&) override { list_ = DmoSkipList{}; }
  void handle(ActorEnv& env, const netsim::Packet& req) override;

  [[nodiscard]] std::uint64_t region_bytes() const override { return 32 * MiB; }
  [[nodiscard]] const DmoSkipList& list() const noexcept { return list_; }
  [[nodiscard]] std::uint64_t flushes() const noexcept { return flushes_; }

 private:
  void flush(ActorEnv& env);

  RkvParams params_;
  ActorId sst_read_;
  ActorId compaction_;
  DmoSkipList list_;
  std::uint64_t flushes_ = 0;
};

class SstReadActor final : public Actor {
 public:
  explicit SstReadActor(std::shared_ptr<LsmTree> lsm)
      : Actor("rkv-sst-read"), lsm_(std::move(lsm)) {}

  [[nodiscard]] bool host_pinned() const override { return true; }
  void handle(ActorEnv& env, const netsim::Packet& req) override;

 private:
  std::shared_ptr<LsmTree> lsm_;
};

class CompactionActor final : public Actor {
 public:
  explicit CompactionActor(std::shared_ptr<LsmTree> lsm)
      : Actor("rkv-compaction"), lsm_(std::move(lsm)) {}

  [[nodiscard]] bool host_pinned() const override { return true; }
  void handle(ActorEnv& env, const netsim::Packet& req) override;

  [[nodiscard]] std::uint64_t batches() const noexcept { return batches_; }

 private:
  std::shared_ptr<LsmTree> lsm_;
  std::uint64_t batches_ = 0;
};

class HotKeyCacheActor;

/// Actor ids of one node's RKV deployment.
struct RkvDeployment {
  ActorId consensus = 0;
  ActorId memtable = 0;
  ActorId sst_read = 0;
  ActorId compaction = 0;
  /// Hot-key cache stage (params.enable_hot_cache): registered LAST so
  /// legacy deployments keep their actor ids.  `cache` stays valid for
  /// the runtime's lifetime (the runtime owns the actor).
  ActorId hot_cache = 0;
  HotKeyCacheActor* cache = nullptr;
  std::shared_ptr<LsmTree> lsm;
};

/// Register the four RKV actors on a node's runtime.  Must be invoked in
/// the same order on every replica so that actor ids agree cluster-wide.
[[nodiscard]] RkvDeployment deploy_rkv(Runtime& rt, RkvParams params);

}  // namespace ipipe::rkv
