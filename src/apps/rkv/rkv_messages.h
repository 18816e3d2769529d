// Message formats for the replicated key-value store (Multi-Paxos + LSM).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "apps/common/wire.h"

namespace ipipe::rkv {

enum MsgType : std::uint16_t {
  // client <-> consensus actor
  kClientPut = 100,
  kClientGet = 101,
  kClientDel = 102,
  kClientReply = 103,
  // Paxos (consensus actor <-> consensus actor)
  kPaxosPrepare = 110,
  kPaxosPromise = 111,
  kPaxosAccept = 112,
  kPaxosAccepted = 113,
  kPaxosLearn = 114,
  // failure detection + log repair (consensus <-> consensus)
  kHeartbeat = 116,    ///< leader liveness + commit watermark
  kCatchupReq = 117,   ///< follower asks for chosen entries from a slot
  kCatchupBatch = 118, ///< bounded batch of chosen entries (chained)
  kHeartbeatAck = 119, ///< follower ack: renews the leader's read lease
  // self-timers (never cross the wire)
  kHbTick = 140,  ///< heartbeat / election-timeout period tick
  // consensus actor -> memtable actor (local)
  kApplyOp = 120,
  kMemGet = 121,
  // memtable actor -> sstable read actor (local, on miss)
  kSstGet = 130,
  // memtable actor -> compaction actor (local, minor compaction)
  kFlushBatch = 131,
  // hot-key cache stage (sharded scale-out)
  kCacheInval = 132,   ///< consensus -> cache (local): write-through apply
  kCacheGet = 133,     ///< cache -> consensus (local): miss fill request
  kLeaseGrant = 134,   ///< consensus -> cache (local): bounded serving lease
  kShardUpdate = 135,  ///< consensus -> cache (local): applied shard config
};

enum class Op : std::uint8_t {
  kPut = 0,
  kGet = 1,
  kDel = 2,
  /// Shard-ownership config change, driven through the Paxos log like a
  /// write so every replica (and any future leader, via catch-up)
  /// converges on the same owned-shard set.  value = ShardView::encode().
  kShardCfg = 3,
};

enum class Status : std::uint8_t {
  kOk = 0,
  kNotFound = 1,
  kNotLeader = 2,
  kError = 3,
  /// This group does not own the key's shard under its current route
  /// epoch; the reply value carries the epoch (u64) so clients can tell
  /// a stale route from a racing one.
  kWrongShard = 4,
};

/// One group's view of shard ownership: the route epoch it was cut at,
/// the (fixed) shard count, and the shards this group serves.
struct ShardView {
  std::uint64_t epoch = 0;
  std::uint32_t num_shards = 0;
  std::vector<std::uint32_t> owned;

  [[nodiscard]] std::vector<std::uint8_t> encode() const {
    wire::Writer w;
    w.put(epoch).put(num_shards);
    w.put(static_cast<std::uint32_t>(owned.size()));
    for (const auto s : owned) w.put(s);
    return w.take();
  }
  [[nodiscard]] static std::optional<ShardView> decode(
      std::span<const std::uint8_t> data) {
    wire::Reader r(data);
    ShardView v;
    std::uint32_t n = 0;
    if (!r.get(v.epoch) || !r.get(v.num_shards) || !r.get(n)) {
      return std::nullopt;
    }
    v.owned.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      std::uint32_t s = 0;
      if (!r.get(s)) return std::nullopt;
      v.owned.push_back(s);
    }
    return v;
  }
};

/// Client request: [op u8][key str][value bytes].
struct ClientReqView {
  Op op = Op::kGet;
  std::string_view key;
  wire::Bytes value;

  [[nodiscard]] static std::optional<ClientReqView> decode(wire::Bytes data) {
    wire::Reader r(data);
    ClientReqView v;
    std::uint8_t op = 0;
    if (!r.get(op) || !r.get_str(v.key) || !r.get_bytes(v.value)) {
      return std::nullopt;
    }
    v.op = static_cast<Op>(op);
    return v;
  }
};

struct ClientReq {
  Op op = Op::kGet;
  std::string key;
  std::vector<std::uint8_t> value;

  [[nodiscard]] static std::vector<std::uint8_t> encode(Op op,
                                                        std::string_view key,
                                                        wire::Bytes value) {
    wire::Writer w(1 + wire::str_size(key.size()) +
                   wire::bytes_size(value.size()));
    w.put(static_cast<std::uint8_t>(op)).put_str(key).put_bytes(value);
    return w.take();
  }
  [[nodiscard]] std::vector<std::uint8_t> encode() const {
    return encode(op, key, value);
  }
  [[nodiscard]] static std::optional<ClientReq> decode(wire::Bytes data) {
    const auto v = ClientReqView::decode(data);
    if (!v) return std::nullopt;
    return ClientReq{v->op, std::string(v->key),
                     {v->value.begin(), v->value.end()}};
  }
};

/// Client reply: [status u8][value bytes].
struct ClientReplyView {
  Status status = Status::kOk;
  wire::Bytes value;

  [[nodiscard]] static std::optional<ClientReplyView> decode(wire::Bytes data) {
    wire::Reader r(data);
    ClientReplyView v;
    std::uint8_t status = 0;
    if (!r.get(status) || !r.get_bytes(v.value)) return std::nullopt;
    v.status = static_cast<Status>(status);
    return v;
  }
};

struct ClientReply {
  Status status = Status::kOk;
  std::vector<std::uint8_t> value;

  [[nodiscard]] static std::vector<std::uint8_t> encode(Status status,
                                                        wire::Bytes value) {
    wire::Writer w(1 + wire::bytes_size(value.size()));
    w.put(static_cast<std::uint8_t>(status)).put_bytes(value);
    return w.take();
  }
  [[nodiscard]] std::vector<std::uint8_t> encode() const {
    return encode(status, value);
  }
  [[nodiscard]] static std::optional<ClientReply> decode(wire::Bytes data) {
    const auto v = ClientReplyView::decode(data);
    if (!v) return std::nullopt;
    return ClientReply{v->status, {v->value.begin(), v->value.end()}};
  }
};

/// Paxos wire payloads: [ballot u64][slot u64][origin_req u64][value bytes].
struct PaxosView {
  std::uint64_t ballot = 0;
  std::uint64_t slot = 0;
  std::uint64_t origin_req = 0;
  wire::Bytes value;

  [[nodiscard]] static std::optional<PaxosView> decode(wire::Bytes data) {
    wire::Reader r(data);
    PaxosView v;
    if (!r.get(v.ballot) || !r.get(v.slot) || !r.get(v.origin_req) ||
        !r.get_bytes(v.value)) {
      return std::nullopt;
    }
    return v;
  }
};

struct PaxosMsg {
  std::uint64_t ballot = 0;
  std::uint64_t slot = 0;
  std::uint64_t origin_req = 0;  ///< client request id being driven
  std::vector<std::uint8_t> value;

  [[nodiscard]] static std::vector<std::uint8_t> encode(
      std::uint64_t ballot, std::uint64_t slot, std::uint64_t origin_req,
      wire::Bytes value) {
    wire::Writer w(3 * sizeof(std::uint64_t) + wire::bytes_size(value.size()));
    w.put(ballot).put(slot).put(origin_req).put_bytes(value);
    return w.take();
  }
  [[nodiscard]] std::vector<std::uint8_t> encode() const {
    return encode(ballot, slot, origin_req, value);
  }
  [[nodiscard]] static std::optional<PaxosMsg> decode(wire::Bytes data) {
    const auto v = PaxosView::decode(data);
    if (!v) return std::nullopt;
    return PaxosMsg{v->ballot, v->slot, v->origin_req,
                    {v->value.begin(), v->value.end()}};
  }
};

/// Phase-1b promise: beyond the ballot acknowledgement the acceptor
/// reports every value it has accepted at or above the candidate's
/// watermark, so the new leader adopts chosen-but-unlearned values
/// before re-driving the log.
struct PromiseMsg {
  struct Entry {
    std::uint64_t slot = 0;
    std::uint64_t ballot = 0;  ///< ballot the value was accepted under
    std::vector<std::uint8_t> value;
  };

  std::uint64_t ballot = 0;     ///< ballot being promised
  std::uint64_t next_slot = 0;  ///< acceptor's log frontier
  std::vector<Entry> accepted;

  [[nodiscard]] std::vector<std::uint8_t> encode() const {
    std::size_t size = 2 * sizeof(std::uint64_t) + sizeof(std::uint32_t);
    for (const auto& e : accepted) {
      size += 2 * sizeof(std::uint64_t) + wire::bytes_size(e.value.size());
    }
    wire::Writer w(size);
    w.put(ballot).put(next_slot);
    w.put(static_cast<std::uint32_t>(accepted.size()));
    for (const auto& e : accepted) {
      w.put(e.slot).put(e.ballot).put_bytes(e.value);
    }
    return w.take();
  }
  [[nodiscard]] static std::optional<PromiseMsg> decode(
      std::span<const std::uint8_t> data) {
    wire::Reader r(data);
    PromiseMsg m;
    std::uint32_t n = 0;
    if (!r.get(m.ballot) || !r.get(m.next_slot) || !r.get(n)) {
      return std::nullopt;
    }
    m.accepted.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      Entry e;
      if (!r.get(e.slot) || !r.get(e.ballot) || !r.get_bytes(e.value)) {
        return std::nullopt;
      }
      m.accepted.push_back(std::move(e));
    }
    return m;
  }
};

/// Catch-up batch: a run of chosen entries plus the sender's applied
/// watermark, so the receiver knows whether to chain another request.
struct CatchupMsg {
  struct Entry {
    std::uint64_t slot = 0;
    std::vector<std::uint8_t> value;
  };

  std::uint64_t watermark = 0;  ///< every slot below this is chosen
  std::vector<Entry> entries;

  [[nodiscard]] std::vector<std::uint8_t> encode() const {
    std::size_t size = sizeof(std::uint64_t) + sizeof(std::uint32_t);
    for (const auto& e : entries) {
      size += sizeof(std::uint64_t) + wire::bytes_size(e.value.size());
    }
    wire::Writer w(size);
    w.put(watermark);
    w.put(static_cast<std::uint32_t>(entries.size()));
    for (const auto& e : entries) w.put(e.slot).put_bytes(e.value);
    return w.take();
  }
  [[nodiscard]] static std::optional<CatchupMsg> decode(
      std::span<const std::uint8_t> data) {
    wire::Reader r(data);
    CatchupMsg m;
    std::uint32_t n = 0;
    if (!r.get(m.watermark) || !r.get(n)) return std::nullopt;
    m.entries.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      Entry e;
      if (!r.get(e.slot) || !r.get_bytes(e.value)) return std::nullopt;
      m.entries.push_back(std::move(e));
    }
    return m;
  }
};

}  // namespace ipipe::rkv
