#include "workloads/open_loop.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "apps/rkv/rkv_messages.h"

namespace ipipe::workloads {

namespace {

constexpr std::size_t kCheckerHeader = 20;  // [key u32][seq u64][rid u64]
constexpr std::size_t kCopyWindow = 32;     // concurrent rebalance copy chains

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
std::uint64_t get_u64(const std::vector<std::uint8_t>& in, std::size_t off) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | in[off + static_cast<std::size_t>(i)];
  }
  return v;
}

}  // namespace

OpenLoopGen::OpenLoopGen(sim::Simulation& sim, netsim::Network& net,
                         netsim::NodeId self, OpenLoopParams params)
    : sim_(sim),
      net_(net),
      self_(self),
      params_(params),
      rng_(params.seed),
      zipf_(params.key_space, params.zipf_theta),
      keys_(params.key_space),
      client_seen_(params.clients, false) {
  assert(params_.value_len >= kCheckerHeader &&
         "value too small for the checker header");
  assert(static_cast<std::uint64_t>(self_) <= RequestId::kMaxNode);
  net_.attach(self_, *this, kOpenLoopLinkGbps);
}

OpenLoopGen::~OpenLoopGen() { net_.detach(self_); }

void OpenLoopGen::set_route_table(shard::RouteTable table) {
  table_ = std::move(table);
}

void OpenLoopGen::start(Ns stop_at) {
  stop_at_ = stop_at;
  schedule_next_arrival();
}

void OpenLoopGen::schedule_next_arrival() {
  if (sim_.now() >= stop_at_) return;
  double rate = params_.rate_rps;
  if (params_.diurnal_amplitude > 0.0 && params_.diurnal_period > 0) {
    const double phase = 2.0 * 3.14159265358979323846 *
                         static_cast<double>(sim_.now()) /
                         static_cast<double>(params_.diurnal_period);
    rate *= 1.0 + params_.diurnal_amplitude * std::sin(phase);
  }
  rate = std::max(rate, 1.0);
  const Ns gap =
      std::max<Ns>(1, static_cast<Ns>(rng_.exponential(1e9 / rate)));
  sim_.schedule(gap, [this] {
    on_arrival();
    schedule_next_arrival();
  });
}

void OpenLoopGen::on_arrival() {
  if (sim_.now() >= stop_at_) return;
  // RNG draw order is part of the deterministic contract: client, key,
  // op coin — always all three, even if the op ends up queued.
  const std::uint64_t client = rng_.uniform_u64(params_.clients);
  const auto key = static_cast<std::uint32_t>(zipf_(rng_));
  const bool is_get = rng_.uniform() < params_.get_fraction;
  if (!client_seen_[client]) {
    client_seen_[client] = true;
    ++distinct_clients_;
  }
  if (is_get) {
    issue_get(key, /*readback=*/false);
  } else {
    issue_put(key);
  }
}

std::vector<std::uint8_t> OpenLoopGen::make_value(std::uint32_t key_id,
                                                  std::uint64_t write_seq,
                                                  std::uint64_t rid) const {
  std::vector<std::uint8_t> v;
  v.reserve(params_.value_len);
  put_u32(v, key_id);
  put_u64(v, write_seq);
  put_u64(v, rid);
  // Padding is a pure function of the key so rebalance copies (which
  // re-PUT the value verbatim) remain byte-comparable.
  for (std::size_t i = v.size(); i < params_.value_len; ++i) {
    v.push_back(static_cast<std::uint8_t>((key_id + i) & 0xFF));
  }
  return v;
}

void OpenLoopGen::issue_get(std::uint32_t key_id, bool readback) {
  const std::string key = key_name(key_id);
  const std::uint32_t shard = shard::shard_of_key(key, table_.num_shards);
  if (frozen(shard)) {
    queued_.push_back({key_id, /*is_put=*/false, /*owns_write_slot=*/false});
    return;
  }
  const std::uint32_t group = table_.group_of(shard);
  if (group >= groups_.size()) {
    ++server_errors_;  // unowned shard: misconfigured table
    return;
  }
  rkv::ClientReq req;
  req.op = rkv::Op::kGet;
  req.key = key;
  OpRec rec;
  rec.kind = Kind::kGet;
  rec.key_id = key_id;
  rec.shard = shard;
  rec.group = group;
  rec.issued_floor = keys_[key_id].floor_seq;
  rec.readback = readback;
  if (readback) ++readback_pending_;
  netsim::NodeId dst = 0;
  netsim::ActorId actor = 0;
  route(groups_[group], dst, actor);
  ++gets_sent_;
  transmit(std::move(rec), rkv::kClientGet, req.encode(), dst, actor,
           /*client_visible=*/true);
}

void OpenLoopGen::issue_put(std::uint32_t key_id) {
  KeyState& ks = keys_[key_id];
  if (ks.write_inflight) {
    // Per-key write serialization: the checker's floor tracking needs
    // acked writes on a key to be totally ordered, so a new write waits
    // for the previous ack (collapsed into a pending count).
    if (ks.pending_writes < 0xFFFF) ++ks.pending_writes;
    return;
  }
  ks.write_inflight = true;
  const std::uint32_t shard =
      shard::shard_of_key(key_name(key_id), table_.num_shards);
  if (frozen(shard)) {
    queued_.push_back({key_id, /*is_put=*/true, /*owns_write_slot=*/true});
    return;
  }
  send_put(key_id);
}

void OpenLoopGen::send_put(std::uint32_t key_id) {
  KeyState& ks = keys_[key_id];
  const std::string key = key_name(key_id);
  const std::uint32_t shard = shard::shard_of_key(key, table_.num_shards);
  const std::uint32_t group = table_.group_of(shard);
  if (group >= groups_.size()) {
    ++server_errors_;
    complete_write_slot(key_id);
    return;
  }
  const std::uint64_t rid = RequestId::make(self_, next_seq_++);
  const std::uint64_t seq = ks.next_seq++;
  rkv::ClientReq req;
  req.op = rkv::Op::kPut;
  req.key = key;
  req.value = make_value(key_id, seq, rid);
  OpRec rec;
  rec.kind = Kind::kPut;
  rec.key_id = key_id;
  rec.shard = shard;
  rec.group = group;
  rec.write_seq = seq;
  netsim::NodeId dst = 0;
  netsim::ActorId actor = 0;
  route(groups_[group], dst, actor);
  ++puts_sent_;
  transmit_with_rid(rid, std::move(rec), rkv::kClientPut, req.encode(), dst,
                    actor, /*client_visible=*/true);
}

void OpenLoopGen::transmit(OpRec rec, std::uint16_t msg_type,
                           std::vector<std::uint8_t> payload,
                           netsim::NodeId dst, netsim::ActorId dst_actor,
                           bool client_visible) {
  const std::uint64_t rid = RequestId::make(self_, next_seq_++);
  transmit_with_rid(rid, std::move(rec), msg_type, std::move(payload), dst,
                    dst_actor, client_visible);
}

void OpenLoopGen::transmit_with_rid(std::uint64_t rid, OpRec rec,
                                    std::uint16_t msg_type,
                                    std::vector<std::uint8_t> payload,
                                    netsim::NodeId dst,
                                    netsim::ActorId dst_actor,
                                    bool client_visible) {
  auto pkt = net_.pool().make();
  pkt->src = self_;
  pkt->dst = dst;
  pkt->dst_actor = dst_actor;
  pkt->msg_type = msg_type;
  pkt->request_id = rid;
  pkt->created_at = sim_.now();
  pkt->frame_size = static_cast<std::uint32_t>(128 + payload.size());
  pkt->payload = std::move(payload);
  rec.created = sim_.now();
  rec.cur_timeout = params_.retry_timeout;
  rec.copy = *pkt;
  ++sent_;
  if (client_visible && on_issue_) on_issue_(*pkt);
  inflight_.emplace(rid, std::move(rec));
  net_.send(std::move(pkt));
  arm_retry(rid, 1);
}

void OpenLoopGen::arm_retry(std::uint64_t rid, unsigned attempt) {
  const auto it = inflight_.find(rid);
  if (it == inflight_.end()) return;
  sim_.schedule(it->second.cur_timeout,
                [this, rid, attempt] { on_retry_timeout(rid, attempt); });
}

void OpenLoopGen::rotate_hint(std::uint32_t group) {
  if (group >= groups_.size()) return;
  ShardTarget& g = groups_[group];
  if (g.replicas.empty()) return;
  std::size_t idx = 0;
  for (std::size_t i = 0; i < g.replicas.size(); ++i) {
    if (g.replicas[i] == g.leader_hint) {
      idx = i;
      break;
    }
  }
  g.leader_hint = g.replicas[(idx + 1) % g.replicas.size()];
}

void OpenLoopGen::on_retry_timeout(std::uint64_t rid, unsigned attempt) {
  const auto it = inflight_.find(rid);
  if (it == inflight_.end() || it->second.attempts != attempt) return;
  OpRec& rec = it->second;
  if (rec.attempts > params_.max_retries) {
    OpRec dead = std::move(rec);
    inflight_.erase(it);
    abandon(rid, std::move(dead));
    return;
  }
  ++rec.attempts;
  ++retransmits_;
  rec.cur_timeout = std::min<Ns>(
      static_cast<Ns>(static_cast<double>(rec.cur_timeout) *
                      kOpenLoopRetryBackoff),
      params_.retry_cap);
  // From the second timeout on, walk the replica set: the hinted leader
  // may be crashed, and any live replica will redirect us properly.
  if (rec.attempts >= 3 && rec.group < groups_.size()) {
    rotate_hint(rec.group);
    rec.copy.dst = groups_[rec.group].leader_hint;
  }
  net_.send(net_.pool().make(rec.copy));
  arm_retry(rid, rec.attempts);
}

void OpenLoopGen::abandon(std::uint64_t rid, OpRec rec) {
  (void)rid;
  note_drained(rec);
  rotate_hint(rec.group);
  switch (rec.kind) {
    case Kind::kGet:
      if (rec.readback && readback_pending_ > 0) --readback_pending_;
      break;
    case Kind::kPut:
      // The write may still commit later (a stuck slot re-driven after a
      // leader change), so the floor is no longer trustworthy: suspend
      // checks on this key until the next acked write re-establishes it.
      ++abandoned_writes_;
      keys_[rec.key_id].floor_seq = 0;
      complete_write_slot(rec.key_id);
      break;
    case Kind::kCfg:
      ++cfg_retries_;
      reissue(std::move(rec));
      break;
    case Kind::kCopyGet:
    case Kind::kCopyPut:
      ++copy_retries_;
      reissue(std::move(rec));
      break;
  }
}

void OpenLoopGen::reissue(OpRec rec) {
  // Rebalance control ops must eventually land: re-run the op under a
  // fresh request id (the old one may be half-applied; both are
  // idempotent — config re-applies by epoch, copies re-put the same
  // value).
  const std::uint64_t rid = RequestId::make(self_, next_seq_++);
  rec.attempts = 1;
  rec.redirects = 0;
  rec.cur_timeout = params_.retry_timeout;
  if (rec.group < groups_.size()) {
    rec.copy.dst = groups_[rec.group].leader_hint;
  }
  rec.copy.request_id = rid;
  rec.copy.created_at = sim_.now();
  rec.created = sim_.now();
  auto pkt = net_.pool().make(rec.copy);
  ++sent_;
  inflight_.emplace(rid, std::move(rec));
  net_.send(std::move(pkt));
  arm_retry(rid, 1);
}

void OpenLoopGen::complete_write_slot(std::uint32_t key_id) {
  KeyState& ks = keys_[key_id];
  ks.write_inflight = false;
  if (ks.pending_writes > 0) {
    --ks.pending_writes;
    issue_put(key_id);
  }
}

void OpenLoopGen::note_drained(const OpRec& rec) {
  if (!rec.counts_drain || drain_inflight_ == 0) return;
  --drain_inflight_;
  if (rphase_ == RebalPhase::kDrain && drain_inflight_ == 0) begin_grant();
}

void OpenLoopGen::receive(netsim::PacketPtr pkt) {
  const auto it = inflight_.find(pkt->request_id);
  if (it == inflight_.end()) {
    for (const auto& fn : on_reply_) fn(*pkt);
    return;  // duplicate reply or unsolicited traffic
  }
  const auto rep = rkv::ClientReply::decode(pkt->payload);
  if (!rep) {
    for (const auto& fn : on_reply_) fn(*pkt);
    return;  // undecodable: leave the op to its retry timer
  }

  OpRec& rec = it->second;
  // --- non-final statuses: re-steer in place, keep the op in flight ----
  if (rep->status == rkv::Status::kNotLeader) {
    ++notleader_redirects_;
    if (!rep->value.empty() && rec.group < groups_.size()) {
      // The hint byte is a replica INDEX (ballots are partitioned by
      // replica index), not a node id.
      const auto idx = static_cast<std::size_t>(rep->value[0]);
      ShardTarget& g = groups_[rec.group];
      if (idx < g.replicas.size()) g.leader_hint = g.replicas[idx];
    }
    if (rec.redirects < kMaxRedirects &&
        rec.group < groups_.size()) {
      ++rec.redirects;
      rec.copy.dst = groups_[rec.group].leader_hint;
      net_.send(net_.pool().make(rec.copy));
    }
    for (const auto& fn : on_reply_) fn(*pkt);
    return;
  }
  if (rep->status == rkv::Status::kWrongShard) {
    ++wrong_shard_retries_;
    // Stale route: re-resolve against our current table.  If the table
    // agrees with the rejected target the SERVER is behind (a new
    // leader still catching up on the config entry) — leave the retry
    // timer to re-drive it.
    if ((rec.kind == Kind::kGet || rec.kind == Kind::kPut) &&
        rec.redirects < kMaxRedirects) {
      const std::uint32_t group = table_.group_of(rec.shard);
      if (group != rec.group && group < groups_.size()) {
        ++rec.redirects;
        rec.group = group;
        netsim::NodeId dst = 0;
        netsim::ActorId actor = 0;
        route(groups_[group], dst, actor);
        rec.copy.dst = dst;
        rec.copy.dst_actor = actor;
        net_.send(net_.pool().make(rec.copy));
      }
    }
    for (const auto& fn : on_reply_) fn(*pkt);
    return;
  }

  // --- final statuses: the op completes -------------------------------
  OpRec done = std::move(it->second);
  inflight_.erase(it);
  note_drained(done);
  const Ns latency = sim_.now() - done.created;
  const bool client_visible =
      done.kind == Kind::kGet || done.kind == Kind::kPut;
  if (client_visible) {
    ++completed_;
    if (!done.readback && sim_.now() >= warmup_until_) {
      hist_.add(latency);
      ++completed_measured_;
    }
  }

  switch (done.kind) {
    case Kind::kGet: {
      if (done.readback && readback_pending_ > 0) --readback_pending_;
      KeyState& ks = keys_[done.key_id];
      if (rep->status == rkv::Status::kOk) {
        if (rep->value.size() >= kCheckerHeader) {
          const std::uint64_t seen = get_u64(rep->value, 4);
          if (done.issued_floor > 0 && seen < done.issued_floor) {
            ++stale_reads_;  // served a value older than an acked write
          }
          // An observed value is committed state: later reads must not
          // go below it, so it may re-arm a suspended floor.
          ks.floor_seq = std::max(ks.floor_seq, seen);
        } else {
          ++server_errors_;  // value does not carry our header
        }
      } else if (rep->status == rkv::Status::kNotFound) {
        if (done.issued_floor > 0) ++lost_acked_;
      } else {
        ++server_errors_;
      }
      break;
    }
    case Kind::kPut: {
      KeyState& ks = keys_[done.key_id];
      if (rep->status == rkv::Status::kOk) {
        ++acked_writes_;
        ks.floor_seq = std::max(ks.floor_seq, done.write_seq);
      } else {
        // Explicit rejection with unknown commit state (a racing retry
        // may have landed): suspend the floor like an abandon.
        ++server_errors_;
        ks.floor_seq = 0;
      }
      complete_write_slot(done.key_id);
      break;
    }
    case Kind::kCfg: {
      if (rep->status == rkv::Status::kOk) {
        if (pending_cfg_ > 0) --pending_cfg_;
        if (pending_cfg_ == 0) {
          if (rphase_ == RebalPhase::kGrant) {
            begin_copy();
          } else if (rphase_ == RebalPhase::kRevoke) {
            finish_rebalance();
          }
        }
      } else {
        ++cfg_retries_;
        reissue(std::move(done));
      }
      break;
    }
    case Kind::kCopyGet: {
      if (rep->status == rkv::Status::kOk) {
        send_copy_put(done.key_id, rep->value);
      } else if (rep->status == rkv::Status::kNotFound) {
        copy_chain_done();  // write never committed; nothing to move
      } else {
        ++copy_retries_;
        reissue(std::move(done));
      }
      break;
    }
    case Kind::kCopyPut: {
      if (rep->status == rkv::Status::kOk) {
        copy_chain_done();
      } else {
        ++copy_retries_;
        reissue(std::move(done));
      }
      break;
    }
  }
  for (const auto& fn : on_reply_) fn(*pkt);
}

// ------------------------------------------------------------- rebalance --

void OpenLoopGen::start_rebalance(shard::RouteTable next,
                                  std::function<void()> done) {
  assert(rphase_ == RebalPhase::kIdle && "rebalance already running");
  assert(next.epoch > table_.epoch && "epoch must advance");
  next_table_ = std::move(next);
  on_rebalance_done_ = std::move(done);
  moved_.clear();
  for (const auto s : shard::RouteTable::moved(table_, next_table_)) {
    moved_.insert(s);
  }
  if (moved_.empty()) {
    table_ = next_table_;
    ++rebalances_done_;
    if (on_rebalance_done_) on_rebalance_done_();
    return;
  }
  rphase_ = RebalPhase::kDrain;
  drain_inflight_ = 0;
  for (auto& [rid, rec] : inflight_) {
    (void)rid;
    if ((rec.kind == Kind::kGet || rec.kind == Kind::kPut) &&
        moved_.count(rec.shard) != 0) {
      rec.counts_drain = true;
      ++drain_inflight_;
    }
  }
  if (drain_inflight_ == 0) begin_grant();
}

void OpenLoopGen::begin_grant() {
  rphase_ = RebalPhase::kGrant;
  pending_cfg_ = 0;
  for (std::uint32_t g = 0; g < groups_.size(); ++g) {
    const auto old_owned = table_.shards_of(g);
    const auto new_owned = next_table_.shards_of(g);
    bool gains = false;
    for (const auto s : new_owned) {
      if (std::find(old_owned.begin(), old_owned.end(), s) ==
          old_owned.end()) {
        gains = true;
        break;
      }
    }
    if (!gains) continue;
    // Additive grant: the union of old and new ownership, so both old
    // and new owner accept the moved shards while the copy runs.
    std::vector<std::uint32_t> uni = old_owned;
    uni.insert(uni.end(), new_owned.begin(), new_owned.end());
    std::sort(uni.begin(), uni.end());
    uni.erase(std::unique(uni.begin(), uni.end()), uni.end());
    send_cfg(g, std::move(uni));
    ++pending_cfg_;
  }
  if (pending_cfg_ == 0) begin_copy();
}

void OpenLoopGen::send_cfg(std::uint32_t group,
                           std::vector<std::uint32_t> owned) {
  rkv::ShardView view;
  view.epoch = next_table_.epoch;
  view.num_shards = table_.num_shards;
  view.owned = std::move(owned);
  rkv::ClientReq req;
  req.op = rkv::Op::kShardCfg;
  req.value = view.encode();
  OpRec rec;
  rec.kind = Kind::kCfg;
  rec.group = group;
  transmit(std::move(rec), rkv::kClientPut, req.encode(),
           groups_[group].leader_hint, groups_[group].consensus,
           /*client_visible=*/false);
}

void OpenLoopGen::begin_copy() {
  rphase_ = RebalPhase::kCopy;
  copy_keys_.clear();
  copy_cursor_ = 0;
  pending_copies_ = 0;
  for (std::uint32_t k = 0; k < keys_.size(); ++k) {
    if (keys_[k].next_seq <= 1) continue;  // never written
    const std::uint32_t shard =
        shard::shard_of_key(key_name(k), table_.num_shards);
    if (moved_.count(shard) != 0) copy_keys_.push_back(k);
  }
  start_copy_chains();
  if (copy_keys_.empty()) begin_revoke();
}

void OpenLoopGen::start_copy_chains() {
  while (pending_copies_ < kCopyWindow && copy_cursor_ < copy_keys_.size()) {
    ++pending_copies_;
    send_copy_get(copy_keys_[copy_cursor_++]);
  }
}

void OpenLoopGen::copy_chain_done() {
  if (pending_copies_ > 0) --pending_copies_;
  start_copy_chains();
  if (pending_copies_ == 0 && copy_cursor_ >= copy_keys_.size() &&
      rphase_ == RebalPhase::kCopy) {
    begin_revoke();
  }
}

void OpenLoopGen::send_copy_get(std::uint32_t key_id) {
  const std::string key = key_name(key_id);
  const std::uint32_t shard = shard::shard_of_key(key, table_.num_shards);
  const std::uint32_t group = table_.group_of(shard);  // OLD owner
  rkv::ClientReq req;
  req.op = rkv::Op::kGet;
  req.key = key;
  OpRec rec;
  rec.kind = Kind::kCopyGet;
  rec.key_id = key_id;
  rec.shard = shard;
  rec.group = group;
  // Straight to consensus: ownership handoff reads bypass the cache.
  transmit(std::move(rec), rkv::kClientGet, req.encode(),
           groups_[group].leader_hint, groups_[group].consensus,
           /*client_visible=*/false);
}

void OpenLoopGen::send_copy_put(std::uint32_t key_id,
                                std::vector<std::uint8_t> value) {
  const std::string key = key_name(key_id);
  const std::uint32_t shard = shard::shard_of_key(key, table_.num_shards);
  const std::uint32_t group = next_table_.group_of(shard);  // NEW owner
  rkv::ClientReq req;
  req.op = rkv::Op::kPut;
  req.key = key;
  req.value = std::move(value);  // VERBATIM: embedded write_seq survives
  OpRec rec;
  rec.kind = Kind::kCopyPut;
  rec.key_id = key_id;
  rec.shard = shard;
  rec.group = group;
  transmit(std::move(rec), rkv::kClientPut, req.encode(),
           groups_[group].leader_hint, groups_[group].consensus,
           /*client_visible=*/false);
}

void OpenLoopGen::begin_revoke() {
  rphase_ = RebalPhase::kRevoke;
  pending_cfg_ = 0;
  for (std::uint32_t g = 0; g < groups_.size(); ++g) {
    const auto old_owned = table_.shards_of(g);
    bool loses = false;
    for (const auto s : old_owned) {
      if (next_table_.group_of(s) != g) {
        loses = true;
        break;
      }
    }
    if (!loses) continue;
    send_cfg(g, next_table_.shards_of(g));
    ++pending_cfg_;
  }
  if (pending_cfg_ == 0) finish_rebalance();
}

void OpenLoopGen::finish_rebalance() {
  table_ = next_table_;
  moved_.clear();
  rphase_ = RebalPhase::kIdle;
  ++rebalances_done_;
  std::deque<QueuedOp> replay;
  replay.swap(queued_);
  for (const auto& q : replay) {
    if (q.is_put && q.owns_write_slot) {
      send_put(q.key_id);
    } else if (q.is_put) {
      issue_put(q.key_id);
    } else {
      issue_get(q.key_id, /*readback=*/false);
    }
  }
  if (on_rebalance_done_) on_rebalance_done_();
}

std::size_t OpenLoopGen::issue_readback(std::size_t max_keys) {
  std::size_t issued = 0;
  for (std::uint32_t k = 0; k < keys_.size() && issued < max_keys; ++k) {
    if (keys_[k].floor_seq == 0) continue;
    issue_get(k, /*readback=*/true);
    ++issued;
  }
  return issued;
}

}  // namespace ipipe::workloads
