// NIC-resident hot-key cache fronting one RKV shard group's leader (the
// KV-cache NF of Table 3 promoted to a serving stage).
//
// Data path:
//   * kClientGet  — hit (lease valid, shard owned) => reply directly
//                   from NIC SRAM; miss => forward to the local
//                   consensus actor with the reply routed back THROUGH
//                   this actor so the value fills the cache on the way
//                   out (kCacheGet).
//   * kClientPut / kClientDel — proxied to consensus verbatim via
//                   forward(): the original request id survives, so the
//                   leader's dedup table still sees retransmits.
//
// Freshness contract (acked writes are never served stale):
//   * Write-through invalidation: the consensus actor local_sends
//     kCacheInval for every applied Put/Del BEFORE the memtable apply
//     that acks the client.  Mailboxes are FIFO and any read issued
//     after the ack reaches this actor strictly later than the
//     invalidation, so a hit can never return a value older than the
//     last acked write.
//   * Miss-fill race: a fill returning after an invalidation for the
//     same key is dropped (per-key generation counters snapshotted at
//     miss time).
//   * Leadership: hits are only served under a bounded-validity lease
//     granted by the local consensus actor out of its majority
//     heartbeat-ack freshness — exactly the read-lease argument, so a
//     deposed leader's cache goes cold before any new leader can ack a
//     conflicting write.
//   * NIC firmware crash: on_nic_fault() wipes the cache (SRAM dies
//     with the firmware), so invalidations lost with the mailbox can
//     never strand a stale entry.
#pragma once

#include <cstdint>
#include <deque>
#include <set>
#include <string>
#include <unordered_map>

#include "apps/nf/kv_cache.h"
#include "apps/rkv/rkv_actors.h"
#include "apps/rkv/rkv_messages.h"
#include "ipipe/shard.h"

namespace ipipe::rkv {

/// Hash buckets of the cache's KvCache.
inline constexpr std::size_t kHotCacheBuckets = 4096;
/// In-flight miss bookkeeping cap (pending fills FIFO-evicted past this;
/// a dropped pending only costs a fill, never freshness).
inline constexpr std::size_t kHotCachePendingCap = 1 << 16;

struct HotCacheParams {
  std::size_t capacity_bytes = 32 * MiB;
  /// Serve hits only under a consensus-granted lease.  Off for static
  /// (no-failover) deployments where the leader can never change.
  bool require_lease = true;
  /// Initial shard ownership (mirrors the consensus actor's; updated
  /// via kShardUpdate as config ops apply).  num_shards == 0 disables
  /// shard checks entirely.
  std::uint32_t num_shards = 0;
  std::uint64_t epoch = 0;
  std::vector<std::uint32_t> owned_shards;
  /// Verification mutation self-test: DROP invalidations, the classic
  /// stale-cache bug the linearizability checker must catch.  Never
  /// enable outside verify tests.
  bool inject_stale_cache = false;
};

class HotKeyCacheActor final : public Actor {
 public:
  explicit HotKeyCacheActor(HotCacheParams params)
      : Actor("rkv-hot-cache"),
        params_(std::move(params)),
        cache_(kHotCacheBuckets, params_.capacity_bytes),
        owned_(params_.owned_shards.begin(), params_.owned_shards.end()),
        num_shards_(params_.num_shards),
        epoch_(params_.epoch) {}

  /// Consensus actor id on this node (registered before us; set by
  /// deploy_rkv right after registration, before any traffic).
  void set_consensus(ActorId id) noexcept { consensus_ = id; }

  void handle(ActorEnv& env, const netsim::Packet& req) override;
  void reset(ActorEnv& env) override;
  /// Firmware died: NIC SRAM (cache contents, lease, pending fills) is
  /// gone.  Matches the runtime wiping NIC-resident mailboxes.
  void on_nic_fault() override { wipe(); }

  [[nodiscard]] std::uint64_t region_bytes() const override {
    return params_.capacity_bytes + MiB;
  }

  // -- stats (bench/test observability) --
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::uint64_t fills() const noexcept { return fills_; }
  [[nodiscard]] std::uint64_t stale_fills_dropped() const noexcept {
    return stale_fills_dropped_;
  }
  [[nodiscard]] std::uint64_t invals() const noexcept { return invals_; }
  [[nodiscard]] std::uint64_t lease_misses() const noexcept {
    return lease_misses_;
  }
  [[nodiscard]] std::uint64_t wrong_shard() const noexcept {
    return wrong_shard_;
  }
  [[nodiscard]] std::uint64_t wipes() const noexcept { return wipes_; }
  [[nodiscard]] const nf::KvCache& cache() const noexcept { return cache_; }

 private:
  struct PendingFill {
    ReplyTo reply;      ///< the original client
    std::string key;
    std::uint64_t gen = 0;  ///< key generation at miss time
    bool fillable = false;  ///< true only for kGet misses
  };

  void on_get(ActorEnv& env, const netsim::Packet& req);
  void on_reply(ActorEnv& env, const netsim::Packet& req);
  void on_inval(ActorEnv& env, const netsim::Packet& req);
  void on_shard_update(const netsim::Packet& req);
  void wipe();
  void bump_gen(const std::string& key);
  void release_gen(const std::string& key);
  [[nodiscard]] bool owns(const std::string& key) const;

  HotCacheParams params_;
  ActorId consensus_ = 0;
  nf::KvCache cache_;
  Ns lease_until_ = 0;
  std::set<std::uint32_t> owned_;
  std::uint32_t num_shards_ = 0;
  std::uint64_t epoch_ = 0;

  /// request id -> in-flight miss (reply routed back through us).
  std::unordered_map<std::uint64_t, PendingFill> pending_;
  std::deque<std::uint64_t> pending_order_;
  /// Per-key generation, tracked only while >=1 miss is in flight for
  /// the key (bounded by pending_).  gen, refcount.
  std::unordered_map<std::string, std::pair<std::uint64_t, std::uint32_t>>
      miss_gen_;

  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t fills_ = 0;
  std::uint64_t stale_fills_dropped_ = 0;
  std::uint64_t invals_ = 0;
  std::uint64_t lease_misses_ = 0;
  std::uint64_t wrong_shard_ = 0;
  std::uint64_t wipes_ = 0;
};

}  // namespace ipipe::rkv
