// Million-client open-loop workload generator for the sharded RKV
// scale-out (§5.1's KV workload, scaled to rack population).
//
// One fabric endpoint multiplexes a large population of LOGICAL clients
// (default 10^6): arrivals form an aggregate open-loop Poisson process
// whose rate swings diurnally, each arrival drawn for a random logical
// client and a Zipf-popular key.  Simulating each client as its own
// fabric port would melt the switch model for no fidelity gain — what
// matters at this scale is the arrival process, the key popularity, and
// the request-id space, all of which the multiplexer preserves exactly
// (request ids come from the shared workloads::RequestId scheme, so the
// million-client population is collision-free by construction).
//
// The generator is also the client-side ROUTER for the sharded store:
//   * key -> shard -> group via an epoch-stamped shard::RouteTable;
//   * GETs go to the group's NIC hot-key cache front door when one is
//     deployed (falling back to the consensus actor), PUTs go through
//     the same front door so the write-forward path stays hot;
//   * kNotLeader replies re-steer the group's leader hint, kWrongShard
//     replies re-resolve against the current table (stale-route retry);
//   * retries use the same request id so server-side dedup absorbs
//     duplicates, with exponential backoff.
//
// And it is an ONLINE CHECKER.  Every PUT value embeds
//   [key_id u32][write_seq u64][request_id u64] + deterministic padding
// and writes are serialized per key (a new write waits for the previous
// ack), so per-key acked sequence numbers are totally ordered.  The
// generator tracks floor_seq = highest acked write per key and flags:
//   * a GET that returns a sequence below the floor it was issued at
//     (stale read — e.g. a cache serving a dead entry), and
//   * a GET that returns kNotFound while the floor is nonzero
//     (lost acked write).
// A write that exhausts its retries is ABANDONED: it may still commit
// later (a stuck Paxos slot re-driven after a leader change), so the
// key's floor resets to zero — checks suspend — until the next acked
// write or observed read re-establishes it.  This keeps the checker
// sound under chaos without a full linearizability pass (the sampled
// Wing–Gong pass in verify/ provides that separately).
//
// Finally, the generator drives the two-phase REBALANCE protocol:
//   freeze moved shards (new arrivals queue) -> drain in-flight ops ->
//   grant: Op::kShardCfg write to each gaining group with the UNION of
//     old and new ownership (additive: both groups claim the shard) ->
//   copy: for every ever-written key on a moved shard, GET from the old
//     owner and PUT the value VERBATIM to the new owner (preserving the
//     embedded write_seq, so floors carry over) ->
//   revoke: kShardCfg with final ownership to every shrinking group ->
//   adopt the new table, replay queued ops.
// Config changes ride the Paxos log like any write, so replicas and
// future leaders converge on ownership through the existing catch-up
// machinery; clients racing the handoff bounce off kWrongShard.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/units.h"
#include "ipipe/shard.h"
#include "netsim/network.h"
#include "sim/simulation.h"
#include "workloads/client.h"

namespace ipipe::workloads {

/// One Paxos group as the router sees it.
struct ShardTarget {
  std::vector<netsim::NodeId> replicas;
  netsim::ActorId consensus = 0;
  netsim::ActorId cache = 0;  ///< 0 = no NIC cache front door
  netsim::NodeId leader_hint = 0;
};

/// Link speed of the population's endpoint.
inline constexpr double kOpenLoopLinkGbps = 100.0;
/// Retry timeout multiplier per retransmit.
inline constexpr double kOpenLoopRetryBackoff = 2.0;
/// Immediate re-steers per op on kNotLeader/kWrongShard before backing
/// off to the retry timer (bounds redirect ping-pong).
inline constexpr unsigned kMaxRedirects = 16;

struct OpenLoopParams {
  std::uint64_t clients = 1'000'000;  ///< logical client population
  double rate_rps = 20'000.0;         ///< aggregate arrival rate (midline)
  double get_fraction = 0.90;
  std::uint64_t key_space = 100'000;
  double zipf_theta = 1.0;  ///< key popularity skew
  /// Total value bytes; >= 20 (checker header) — padding is a pure
  /// function of the key so copies stay verbatim-comparable.
  std::size_t value_len = 64;
  double diurnal_amplitude = 0.0;  ///< rate swing fraction in [0, 1)
  Ns diurnal_period = sec(20);
  std::uint64_t seed = 42;

  Ns retry_timeout = msec(80);
  unsigned max_retries = 8;
  Ns retry_cap = msec(800);
};

class OpenLoopGen : public netsim::Endpoint {
 public:
  OpenLoopGen(sim::Simulation& sim, netsim::Network& net, netsim::NodeId self,
              OpenLoopParams params);
  ~OpenLoopGen() override;

  /// Router configuration; call both before start().
  void set_groups(std::vector<ShardTarget> groups) {
    groups_ = std::move(groups);
  }
  void set_route_table(shard::RouteTable table);

  void start(Ns stop_at);
  void set_warmup(Ns until) noexcept { warmup_until_ = until; }

  /// Begin the two-phase rebalance onto `next` (epoch must advance).
  /// `done` fires after the new table is adopted and queued ops replay.
  void start_rebalance(shard::RouteTable next,
                       std::function<void()> done = {});
  [[nodiscard]] std::uint64_t rebalances_done() const noexcept {
    return rebalances_done_;
  }

  /// Post-run audit: issue a GET for every key with a nonzero floor (up
  /// to `max_keys`); kNotFound surfaces as lost_acked().  Returns the
  /// number issued; poll readback_pending() while running the sim on.
  std::size_t issue_readback(std::size_t max_keys);
  [[nodiscard]] std::uint64_t readback_pending() const noexcept {
    return readback_pending_;
  }

  void receive(netsim::PacketPtr pkt) override;

  // ---- checker verdicts --------------------------------------------------
  [[nodiscard]] std::uint64_t stale_reads() const noexcept {
    return stale_reads_;
  }
  [[nodiscard]] std::uint64_t lost_acked() const noexcept {
    return lost_acked_;
  }
  [[nodiscard]] std::uint64_t abandoned_writes() const noexcept {
    return abandoned_writes_;
  }

  // ---- traffic accounting ------------------------------------------------
  [[nodiscard]] std::uint64_t sent() const noexcept { return sent_; }
  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }
  [[nodiscard]] std::uint64_t gets_sent() const noexcept { return gets_sent_; }
  [[nodiscard]] std::uint64_t puts_sent() const noexcept { return puts_sent_; }
  [[nodiscard]] std::uint64_t acked_writes() const noexcept {
    return acked_writes_;
  }
  [[nodiscard]] std::uint64_t retransmits() const noexcept {
    return retransmits_;
  }
  [[nodiscard]] std::uint64_t notleader_redirects() const noexcept {
    return notleader_redirects_;
  }
  [[nodiscard]] std::uint64_t wrong_shard_retries() const noexcept {
    return wrong_shard_retries_;
  }
  [[nodiscard]] std::uint64_t server_errors() const noexcept {
    return server_errors_;
  }
  [[nodiscard]] std::uint64_t distinct_clients() const noexcept {
    return distinct_clients_;
  }
  [[nodiscard]] const LatencyHistogram& latencies() const noexcept {
    return hist_;
  }
  [[nodiscard]] std::uint64_t completed_after_warmup() const noexcept {
    return completed_measured_;
  }
  [[nodiscard]] netsim::NodeId node() const noexcept { return self_; }
  [[nodiscard]] const shard::RouteTable& route_table() const noexcept {
    return table_;
  }
  [[nodiscard]] std::vector<ShardTarget>& groups() noexcept { return groups_; }

  /// Highest acked write sequence for a key (0 = none / suspended).
  [[nodiscard]] std::uint64_t key_floor(std::uint32_t key_id) const {
    return key_id < keys_.size() ? keys_[key_id].floor_seq : 0;
  }
  [[nodiscard]] static std::string key_name(std::uint32_t key_id) {
    return "k" + std::to_string(key_id);
  }

  // ---- history-recorder hooks (ClientGen-shaped) -------------------------
  /// First transmission of each client-visible op (GET/PUT; rebalance
  /// control traffic is not a client op and does not fire this).
  void set_on_issue(std::function<void(const netsim::Packet&)> fn) {
    on_issue_ = std::move(fn);
  }
  void add_on_reply(std::function<void(const netsim::Packet&)> fn) {
    on_reply_.push_back(std::move(fn));
  }

 private:
  enum class Kind : std::uint8_t { kGet, kPut, kCfg, kCopyGet, kCopyPut };
  enum class RebalPhase : std::uint8_t {
    kIdle,
    kDrain,
    kGrant,
    kCopy,
    kRevoke
  };

  struct KeyState {
    std::uint64_t floor_seq = 0;  ///< highest acked write (0 = suspended)
    std::uint64_t next_seq = 1;
    bool write_inflight = false;
    std::uint16_t pending_writes = 0;  ///< collapsed queued writes
  };

  struct OpRec {
    Kind kind = Kind::kGet;
    std::uint32_t key_id = 0;
    std::uint32_t shard = 0;
    std::uint32_t group = 0;
    std::uint64_t write_seq = 0;     ///< puts
    std::uint64_t issued_floor = 0;  ///< gets: floor at issue
    Ns created = 0;
    unsigned attempts = 1;
    unsigned redirects = 0;
    Ns cur_timeout = 0;
    bool readback = false;
    bool counts_drain = false;  ///< on a frozen shard during kDrain
    netsim::Packet copy;        ///< retransmission template
  };

  struct QueuedOp {
    std::uint32_t key_id = 0;
    bool is_put = false;
    bool owns_write_slot = false;  ///< put already holds write_inflight
  };

  void on_arrival();
  void schedule_next_arrival();
  void issue_get(std::uint32_t key_id, bool readback);
  void issue_put(std::uint32_t key_id);
  void send_put(std::uint32_t key_id);  ///< slot already held
  void transmit(OpRec rec, std::uint16_t msg_type,
                std::vector<std::uint8_t> payload, netsim::NodeId dst,
                netsim::ActorId dst_actor, bool client_visible);
  void transmit_with_rid(std::uint64_t rid, OpRec rec, std::uint16_t msg_type,
                         std::vector<std::uint8_t> payload, netsim::NodeId dst,
                         netsim::ActorId dst_actor, bool client_visible);
  void arm_retry(std::uint64_t rid, unsigned attempt);
  void on_retry_timeout(std::uint64_t rid, unsigned attempt);
  void abandon(std::uint64_t rid, OpRec rec);
  void reissue(OpRec rec);
  void rotate_hint(std::uint32_t group);
  void complete_write_slot(std::uint32_t key_id);
  void note_drained(const OpRec& rec);
  [[nodiscard]] std::vector<std::uint8_t> make_value(std::uint32_t key_id,
                                                     std::uint64_t write_seq,
                                                     std::uint64_t rid) const;
  [[nodiscard]] bool frozen(std::uint32_t shard) const {
    return rphase_ != RebalPhase::kIdle && moved_.count(shard) != 0;
  }
  /// Front door for client ops: cache actor when deployed, else consensus.
  void route(const ShardTarget& g, netsim::NodeId& dst,
             netsim::ActorId& actor) const {
    dst = g.leader_hint;
    actor = g.cache != 0 ? g.cache : g.consensus;
  }

  // Rebalance machinery.
  void begin_grant();
  void begin_copy();
  void start_copy_chains();
  void copy_chain_done();
  void send_cfg(std::uint32_t group, std::vector<std::uint32_t> owned);
  void send_copy_get(std::uint32_t key_id);
  void send_copy_put(std::uint32_t key_id, std::vector<std::uint8_t> value);
  void begin_revoke();
  void finish_rebalance();

  sim::Simulation& sim_;
  netsim::Network& net_;
  netsim::NodeId self_;
  OpenLoopParams params_;
  Rng rng_;
  ZipfDist zipf_;

  std::vector<ShardTarget> groups_;
  shard::RouteTable table_;
  std::vector<KeyState> keys_;
  std::vector<bool> client_seen_;
  std::uint64_t distinct_clients_ = 0;

  Ns stop_at_ = 0;
  Ns warmup_until_ = 0;
  std::uint64_t next_seq_ = 1;
  std::unordered_map<std::uint64_t, OpRec> inflight_;

  // Rebalance state.
  RebalPhase rphase_ = RebalPhase::kIdle;
  shard::RouteTable next_table_;
  std::set<std::uint32_t> moved_;
  std::uint64_t drain_inflight_ = 0;
  std::uint64_t pending_cfg_ = 0;
  std::uint64_t pending_copies_ = 0;
  std::vector<std::uint32_t> copy_keys_;
  std::size_t copy_cursor_ = 0;
  std::deque<QueuedOp> queued_;
  std::function<void()> on_rebalance_done_;
  std::uint64_t rebalances_done_ = 0;

  // Counters.
  std::uint64_t sent_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t completed_measured_ = 0;
  std::uint64_t gets_sent_ = 0;
  std::uint64_t puts_sent_ = 0;
  std::uint64_t acked_writes_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t notleader_redirects_ = 0;
  std::uint64_t wrong_shard_retries_ = 0;
  std::uint64_t server_errors_ = 0;
  std::uint64_t stale_reads_ = 0;
  std::uint64_t lost_acked_ = 0;
  std::uint64_t abandoned_writes_ = 0;
  std::uint64_t readback_pending_ = 0;
  std::uint64_t cfg_retries_ = 0;
  std::uint64_t copy_retries_ = 0;
  LatencyHistogram hist_;

  std::function<void(const netsim::Packet&)> on_issue_;
  std::vector<std::function<void(const netsim::Packet&)>> on_reply_;
};

}  // namespace ipipe::workloads
