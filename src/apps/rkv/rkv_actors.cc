#include "apps/rkv/rkv_actors.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "apps/rkv/hot_cache.h"
#include "common/logging.h"
#include "ipipe/shard.h"

namespace ipipe::rkv {
namespace {

ReplyTo reply_to_of(const netsim::Packet& req) {
  return ReplyTo{req.src, req.src_actor, req.request_id, req.created_at};
}

void send_client_reply(ActorEnv& env, const ReplyTo& to, Status status,
                       wire::Bytes value = {}) {
  env.reply(to.as_request(), kClientReply, ClientReply::encode(status, value));
}

/// The encoded ReplyTo{}: a follower's apply carries it, so the memtable
/// never replies to a client on its behalf.
const std::vector<std::uint8_t>& blank_route() {
  static const std::vector<std::uint8_t> bytes = [] {
    wire::Writer w(ReplyTo::kWireSize);
    ReplyTo{}.encode(w);
    return w.take();
  }();
  return bytes;
}

/// Writes a memtable walk as the kFlushBatch payload: [n u32], then per
/// entry [tombstone u8][key str][value bytes], each value read from its
/// DMO straight into the payload.
struct FlushBatchSink {
  wire::Writer w;
  std::uint32_t n = 0;
  std::size_t mark = 0;

  std::span<std::uint8_t> value(std::string_view key, std::uint32_t len,
                                bool tombstone) {
    mark = w.size();
    ++n;
    w.put(static_cast<std::uint8_t>(tombstone ? 1 : 0)).put_str(key);
    return w.put_bytes_in_place(len);
  }
  void drop() {
    w.truncate(mark);
    --n;
  }
};

}  // namespace

// --------------------------------------------------------- ConsensusActor --

void ConsensusActor::charge_log_op(ActorEnv& env) const {
  // Protocol handling: header parse, log map walk, state update.
  env.compute(900);
  env.mem(std::max<std::uint64_t>(log_.size() * 96, 4096), 3);
}

void ConsensusActor::init(ActorEnv& env) {
  if (!params_.enable_failover) return;
  last_leader_contact_ = env.now();
  election_timeout_cur_ = draw_election_timeout();
  env.schedule_self(params_.heartbeat_period, kHbTick);
}

void ConsensusActor::reset(ActorEnv& env) {
  (void)env;
  log_.clear();
  requests_.clear();
  lease_granted_until_ = 0;
  // Shard config falls back to the deployment baseline; Op::kShardCfg
  // entries re-apply through catch-up and bring us forward again.
  epoch_ = params_.shard_epoch;
  num_shards_cfg_ = params_.num_shards;
  owned_.clear();
  owned_.insert(params_.owned_shards.begin(), params_.owned_shards.end());
  voters_.clear();
  peer_ack_.assign(params_.replicas.size(), 0);
  in_election_ = false;
  election_ballot_ = 0;
  next_slot_ = next_apply_ = chosen_ = 0;
  if (params_.enable_failover) {
    // A rebooted replica rejoins as a follower and catches up from the
    // live leader's heartbeats; claiming leadership from amnesia would
    // fork the log.
    leader_ = false;
    ballot_ = 0;
    promised_ = 0;
  } else {
    // Static-leader deployments (no failover: the paper-figure RKV rows,
    // perfbench rkv_write) restart into their configured role.
    leader_ = params_.self_index == 0;
    ballot_ = leader_ ? params_.replicas.size() + params_.self_index : 0;
    promised_ = 0;
  }
}

void ConsensusActor::handle(ActorEnv& env, const netsim::Packet& req) {
  switch (req.msg_type) {
    case kClientPut:
    case kClientGet:
    case kClientDel:
      on_client(env, req);
      break;
    case kPaxosPrepare:
      on_prepare(env, req);
      break;
    case kPaxosPromise:
      on_promise(env, req);
      break;
    case kPaxosAccept:
      on_accept(env, req);
      break;
    case kPaxosAccepted:
      on_accepted(env, req);
      break;
    case kPaxosLearn:
      on_learn(env, req);
      break;
    case kCacheGet:
      on_cache_get(env, req);
      break;
    case kHeartbeat:
      on_heartbeat(env, req);
      break;
    case kHeartbeatAck:
      on_heartbeat_ack(env, req);
      break;
    case kCatchupReq:
      on_catchup_req(env, req);
      break;
    case kCatchupBatch:
      on_catchup_batch(env, req);
      break;
    case kHbTick:
      on_tick(env);
      break;
    case kElectTrigger:
      start_election(env);
      break;
    default:
      break;
  }
}

Ns ConsensusActor::draw_election_timeout() {
  const Ns lo = params_.election_timeout_min;
  const Ns hi = params_.election_timeout_max;
  if (hi <= lo) return lo;
  return lo + static_cast<Ns>(election_rng_.uniform_u64(
                  static_cast<std::uint64_t>(hi - lo)));
}

void ConsensusActor::on_tick(ActorEnv& env) {
  if (!params_.enable_failover) return;
  if (leader_) {
    send_heartbeats(env);
    redrive_stuck_slots(env);
  } else if (env.now() - last_leader_contact_ >= election_timeout_cur_) {
    start_election(env);
    // Re-draw the timeout before the next candidacy: two candidates that
    // split a vote back off by different (seeded) amounts and one of
    // them wins the retry.
    last_leader_contact_ = env.now();
    election_timeout_cur_ = draw_election_timeout();
  }
  env.schedule_self(params_.heartbeat_period, kHbTick);
}

void ConsensusActor::send_heartbeats(ActorEnv& env) {
  // Commit watermark: every slot below next_apply_ is chosen.
  broadcast(env, kHeartbeat, PaxosMsg::encode(ballot_, next_apply_, 0, {}));
}

void ConsensusActor::redrive_stuck_slots(ActorEnv& env) {
  // Liveness: an accept round whose frames all die (lossy link, NIC
  // buffer wipe) leaves the slot unchosen with no retransmit — client
  // retries can't help because dedup pins them to the stuck slot and
  // waits for the apply path, and next_apply_ can never pass it.
  // Re-propose everything unchosen below the frontier at the leader's
  // heartbeat cadence: same-ballot phase-2 re-sends are idempotent and
  // ack_mask dedups repeat replies.
  for (std::uint64_t s = next_apply_; s < next_slot_; ++s) {
    const LogEntry* entry = log_.find(s);
    if (entry == nullptr || !entry->chosen) propose_slot(env, s);
  }
}

void ConsensusActor::on_heartbeat(ActorEnv& env, const netsim::Packet& req) {
  charge_log_op(env);
  const auto msg = PaxosView::decode(req.payload);
  if (!msg) return;
  // A stale leader's heartbeat is ignored; it deposes itself when the
  // real leader's (higher-ballot) heartbeat reaches it.
  if (msg->ballot < promised_) return;
  promised_ = msg->ballot;
  if (leader_ && msg->ballot > ballot_) leader_ = false;
  in_election_ = false;
  last_leader_contact_ = env.now();
  // Ack the heartbeat: the leader's read lease is a majority of these
  // acks younger than election_timeout_min.
  env.reply(req, kHeartbeatAck,
            PaxosMsg::encode(msg->ballot, next_apply_, 0, {}));
  // The leader's chosen prefix extends past ours: pull the gap.
  if (msg->slot > next_apply_) {
    env.reply(req, kCatchupReq,
              PaxosMsg::encode(msg->ballot, next_apply_, 0, {}));
  }
}

void ConsensusActor::on_heartbeat_ack(ActorEnv& env, const netsim::Packet& req) {
  charge_log_op(env);
  const auto msg = PaxosView::decode(req.payload);
  if (!msg || !leader_ || msg->ballot != ballot_) return;  // stale ack
  for (std::size_t i = 0; i < params_.replicas.size(); ++i) {
    if (params_.replicas[i] == req.src) {
      peer_ack_[i] = env.now();
      break;
    }
  }
  maybe_grant_lease(env);
}

bool ConsensusActor::owns_key(std::string_view key) const {
  if (num_shards_cfg_ == 0) return true;
  return owned_.count(shard::shard_of_key(key, num_shards_cfg_)) != 0;
}

void ConsensusActor::remember_request(std::uint64_t request_id,
                                      std::uint64_t slot) {
  if (request_id != 0) requests_.remember(request_id, slot);
}

void ConsensusActor::maybe_grant_lease(ActorEnv& env) {
  if (cache_ == 0 || !leader_ || !params_.enable_failover) return;
  // Grant the cache serving rights until the latest instant at which
  // has_read_lease() would still hold with no further acks: the
  // majority'th-freshest ack plus the lease window.  Same safety
  // argument as leader reads — no new leader can be elected while a
  // majority's acks are that fresh.
  std::vector<Ns> acks;
  acks.reserve(peer_ack_.size());
  for (std::size_t i = 0; i < peer_ack_.size(); ++i) {
    acks.push_back(i == params_.self_index ? env.now() : peer_ack_[i]);
  }
  std::sort(acks.begin(), acks.end(), [](Ns a, Ns b) { return a > b; });
  const Ns base = acks[majority() - 1];
  if (base == 0) return;
  const Ns until = base + params_.election_timeout_min / 2;
  if (until <= lease_granted_until_) return;
  lease_granted_until_ = until;
  wire::Writer w;
  w.put(static_cast<std::uint64_t>(until));
  env.local_send(cache_, kLeaseGrant, w.take());
}

void ConsensusActor::on_cache_get(ActorEnv& env, const netsim::Packet& req) {
  charge_log_op(env);
  const auto get = KeyReadView::decode(req.payload);
  if (!get) return;
  const ReplyTo& reply = get->reply;

  if (!owns_key(get->key)) {
    wire::Writer w;
    w.put(epoch_);
    send_client_reply(env, reply, Status::kWrongShard, w.take());
    return;
  }
  if (!params_.inject_stale_reads) {
    if (!leader_) {
      std::vector<std::uint8_t> hint;
      if (promised_ != 0) {
        hint.push_back(
            static_cast<std::uint8_t>(promised_ % params_.replicas.size()));
      }
      send_client_reply(env, reply, Status::kNotLeader, hint);
      return;
    }
    if (!has_read_lease(env.now())) {
      send_client_reply(env, reply, Status::kNotLeader);
      return;
    }
  }
  // Same [ReplyTo][key] layout: forward the parsed bytes.
  env.local_send(memtable_, kMemGet,
                 {req.payload.begin(),
                  req.payload.begin() + static_cast<std::ptrdiff_t>(get->size)});
}

bool ConsensusActor::has_read_lease(Ns now) const {
  if (!params_.enable_failover) return true;
  // A peer that acked within the last election_timeout_min cannot have
  // started an election yet, so no newer leader can exist while a
  // majority of acks is this fresh.  Half the timeout leaves generous
  // slack for the ack's one-way network delay (the follower reset its
  // election timer when it SENT the ack, not when we received it) while
  // still spanning more than one heartbeat period.
  const Ns window = params_.election_timeout_min / 2;
  unsigned fresh = 1;  // self
  for (std::size_t i = 0; i < peer_ack_.size(); ++i) {
    if (i == params_.self_index) continue;
    if (peer_ack_[i] != 0 && now - peer_ack_[i] <= window) ++fresh;
  }
  return fresh >= majority();
}

void ConsensusActor::on_catchup_req(ActorEnv& env, const netsim::Packet& req) {
  charge_log_op(env);
  const auto msg = PaxosView::decode(req.payload);
  if (!msg) return;
  CatchupMsg batch;
  batch.watermark = next_apply_;
  std::uint64_t s = msg->slot;
  while (batch.entries.size() < kCatchupEntries) {
    const LogEntry* entry = log_.find(s);
    if (entry == nullptr || !entry->chosen) break;
    batch.entries.push_back({s, entry->value});
    ++s;
  }
  env.mem(std::max<std::uint64_t>(log_.size() * 96, 4096),
          batch.entries.size() + 1);
  env.reply(req, kCatchupBatch, batch.encode());
}

void ConsensusActor::on_catchup_batch(ActorEnv& env, const netsim::Packet& req) {
  charge_log_op(env);
  const auto msg = CatchupMsg::decode(req.payload);
  if (!msg) return;
  const std::uint64_t before = next_apply_;
  for (const auto& e : msg->entries) learn_entry(e.slot, promised_, e.value);
  apply_ready(env);
  // Still behind and making progress: chain the next request.
  if (msg->watermark > next_apply_ && next_apply_ > before) {
    env.reply(req, kCatchupReq,
              PaxosMsg::encode(promised_, next_apply_, 0, {}));
  }
}

void ConsensusActor::learn_entry(std::uint64_t slot, std::uint64_t ballot,
                                 wire::Bytes value) {
  LogEntry& entry = log_[slot];
  entry.value.assign(value.begin(), value.end());
  entry.ballot = std::max(entry.ballot, ballot);
  if (!entry.chosen) {
    entry.chosen = true;
    ++chosen_;
  }
  next_slot_ = std::max(next_slot_, slot + 1);
}

void ConsensusActor::on_client(ActorEnv& env, const netsim::Packet& req) {
  charge_log_op(env);
  const auto creq = ClientReqView::decode(req.payload);
  if (!creq) return;
  const ReplyTo reply = reply_to_of(req);

  // Shard ownership gate (data ops only — config ops carry no key).
  // A stale-routed client learns our epoch and re-resolves.
  if (creq->op != Op::kShardCfg && !owns_key(creq->key)) {
    wire::Writer w;
    w.put(epoch_);
    send_client_reply(env, reply, Status::kWrongShard, w.take());
    return;
  }

  if (creq->op == Op::kGet && params_.inject_stale_reads) {
    // Injected bug (verification self-test): serve the read from the
    // local applied state with no leadership, lease, or catch-up check.
    env.local_send(memtable_, kMemGet, KeyReadView::encode(reply, creq->key));
    return;
  }

  if (!leader_) {
    // Hint the last known leader (ballots are partitioned by replica
    // index) so a retrying client can re-target without probing.
    std::vector<std::uint8_t> hint;
    if (promised_ != 0) {
      hint.push_back(
          static_cast<std::uint8_t>(promised_ % params_.replicas.size()));
    }
    send_client_reply(env, reply, Status::kNotLeader, hint);
    return;
  }

  if (creq->op == Op::kGet) {
    if (!has_read_lease(env.now())) {
      // Possibly-deposed leader (e.g. stranded in a minority partition):
      // serving from the applied state could return stale data.  No hint
      // — we believe we ARE the leader; the client should re-probe.
      send_client_reply(env, reply, Status::kNotLeader);
      return;
    }
    // Linearizable read served by the leaseholder's applied state.
    env.local_send(memtable_, kMemGet, KeyReadView::encode(reply, creq->key));
    return;
  }

  // Dedup: a retransmitted write that is already in the log must not
  // consume a second slot (exactly-once apply).
  if (req.request_id != 0) {
    if (const std::uint64_t* slot = requests_.find(req.request_id)) {
      const LogEntry* entry = log_.find(*slot);
      if (entry != nullptr && entry->applied) {
        send_client_reply(env, reply, Status::kOk);
      }
      // else: still being driven — the apply path will reply.
      return;
    }
  }

  // Drive the write through a Paxos instance.
  const std::uint64_t slot = next_slot_++;
  log_[slot].value = OpView::encode(creq->op, reply, creq->key, creq->value);
  remember_request(req.request_id, slot);
  propose_slot(env, slot);
}

void ConsensusActor::propose_slot(ActorEnv& env, std::uint64_t slot) {
  LogEntry& entry = log_[slot];
  entry.ballot = ballot_;
  entry.ack_mask = 1u << params_.self_index;  // self
  // The value may be empty: a hole-filling no-op.
  broadcast(env, kPaxosAccept, PaxosMsg::encode(ballot_, slot, 0, entry.value));

  if (static_cast<unsigned>(std::popcount(entry.ack_mask)) >= majority()) {
    entry.chosen = true;  // single-replica degenerate case
    ++chosen_;
    apply_ready(env);
  }
}

void ConsensusActor::broadcast(ActorEnv& env, std::uint16_t type,
                               std::vector<std::uint8_t> payload) {
  // Replicas deploy their actors in the same order, so the consensus
  // actor id is identical cluster-wide; our own id is the default peer
  // address (§5.1 deployment symmetry).
  const ActorId peer =
      params_.peer_consensus_actor != 0 ? params_.peer_consensus_actor : id();
  // Encoded once: the last peer takes the payload, the others a copy.
  std::size_t peers_left = params_.replicas.size() - 1;
  for (std::size_t i = 0; i < params_.replicas.size(); ++i) {
    if (i == params_.self_index) continue;
    if (--peers_left == 0) {
      env.send(params_.replicas[i], peer, type, std::move(payload));
    } else {
      env.send(params_.replicas[i], peer, type, payload);
    }
  }
}

void ConsensusActor::on_prepare(ActorEnv& env, const netsim::Packet& req) {
  charge_log_op(env);
  const auto msg = PaxosView::decode(req.payload);
  if (!msg) return;
  if (msg->ballot <= promised_) return;  // stale candidacy: no vote
  promised_ = msg->ballot;
  leader_ = false;
  in_election_ = false;

  // Phase 1b: report every value accepted at or above the candidate's
  // watermark (msg->slot) so chosen-but-unlearned values survive the
  // leader change.
  PromiseMsg promise;
  promise.ballot = msg->ballot;
  promise.next_slot = next_slot_;
  log_.for_each_from(msg->slot, [&](std::uint64_t slot, const LogEntry& e) {
    if (e.value.empty() && !e.chosen) return;
    promise.accepted.push_back({slot, e.ballot, e.value});
  });
  env.mem(std::max<std::uint64_t>(log_.size() * 96, 4096),
          promise.accepted.size() + 1);
  env.reply(req, kPaxosPromise, promise.encode());
}

void ConsensusActor::on_promise(ActorEnv& env, const netsim::Packet& req) {
  charge_log_op(env);
  auto msg = PromiseMsg::decode(req.payload);
  if (!msg) return;
  // Votes for an earlier candidacy (stale ballot) and duplicate votes
  // from the same replica must not count toward the majority.
  if (!in_election_ || leader_ || msg->ballot != election_ballot_) return;
  if (!voters_.insert(req.src).second) return;

  next_slot_ = std::max(next_slot_, msg->next_slot);
  // Adopt the highest-ballot accepted value per slot.
  for (auto& e : msg->accepted) {
    LogEntry& entry = log_[e.slot];
    next_slot_ = std::max(next_slot_, e.slot + 1);
    if (entry.chosen) continue;
    if (entry.value.empty() || e.ballot >= entry.ballot) {
      entry.ballot = e.ballot;
      entry.value = std::move(e.value);
    }
  }
  if (voters_.size() + 1 >= majority()) become_leader(env);
}

void ConsensusActor::become_leader(ActorEnv& env) {
  leader_ = true;
  in_election_ = false;
  LOG_INFO("rkv: node becomes Paxos leader (ballot %llu)",
           static_cast<unsigned long long>(ballot_));
  // Re-drive every unchosen slot below the frontier under the new
  // ballot; untouched holes become no-ops so the apply prefix can
  // advance past them.
  for (std::uint64_t s = next_apply_; s < next_slot_; ++s) {
    if (log_[s].chosen) continue;
    propose_slot(env, s);
  }
  if (params_.enable_failover) send_heartbeats(env);
}

void ConsensusActor::on_accept(ActorEnv& env, const netsim::Packet& req) {
  charge_log_op(env);
  const auto msg = PaxosView::decode(req.payload);
  if (!msg) return;
  if (msg->ballot < promised_) return;  // stale leader
  promised_ = msg->ballot;
  if (leader_ && msg->ballot > ballot_) leader_ = false;  // deposed
  in_election_ = false;
  if (params_.enable_failover) last_leader_contact_ = env.now();

  LogEntry& entry = log_[msg->slot];
  if (!entry.chosen) {
    entry.ballot = msg->ballot;
    entry.value.assign(msg->value.begin(), msg->value.end());
  }
  next_slot_ = std::max(next_slot_, msg->slot + 1);

  env.reply(req, kPaxosAccepted, PaxosMsg::encode(msg->ballot, msg->slot, 0, {}));
}

void ConsensusActor::on_accepted(ActorEnv& env, const netsim::Packet& req) {
  charge_log_op(env);
  const auto msg = PaxosView::decode(req.payload);
  if (!msg || !leader_ || msg->ballot != ballot_) return;
  LogEntry* entry = log_.find(msg->slot);
  if (entry == nullptr || entry->chosen) return;
  std::size_t idx = params_.replicas.size();
  for (std::size_t i = 0; i < params_.replicas.size(); ++i) {
    if (params_.replicas[i] == req.src) {
      idx = i;
      break;
    }
  }
  if (idx >= params_.replicas.size()) return;  // not a group member
  entry->ack_mask |= 1u << idx;
  if (static_cast<unsigned>(std::popcount(entry->ack_mask)) >= majority()) {
    entry->chosen = true;
    ++chosen_;
    broadcast(env, kPaxosLearn,
              PaxosMsg::encode(ballot_, msg->slot, 0, entry->value));
    apply_ready(env);
  }
}

void ConsensusActor::on_learn(ActorEnv& env, const netsim::Packet& req) {
  charge_log_op(env);
  const auto msg = PaxosView::decode(req.payload);
  if (!msg) return;
  learn_entry(msg->slot, msg->ballot, msg->value);
  apply_ready(env);
}

void ConsensusActor::start_election(ActorEnv& env) {
  charge_log_op(env);
  // Two-phase Paxos leader election: pick a ballot above anything seen.
  ballot_ = (std::max(promised_, ballot_) / params_.replicas.size() + 1) *
                params_.replicas.size() +
            params_.self_index;
  promised_ = ballot_;
  in_election_ = true;
  election_ballot_ = ballot_;
  voters_.clear();
  ++elections_started_;
  // Our applied watermark: peers report accepted entries above it.
  broadcast(env, kPaxosPrepare, PaxosMsg::encode(ballot_, next_apply_, 0, {}));
  if (params_.replicas.size() == 1) become_leader(env);
}

void ConsensusActor::apply_ready(ActorEnv& env) {
  // Apply chosen entries in slot order to the local replicated state
  // machine (the memtable actor).  Only the entry's reply routing on the
  // leader triggers a client reply.
  while (true) {
    LogEntry* entry = log_.find(next_apply_);
    if (entry == nullptr || !entry->chosen || entry->applied) break;
    entry->applied = true;
    const std::uint64_t slot = next_apply_;
    ++next_apply_;

    auto op = OpView::decode(entry->value);
    if (!op) continue;
    // Record the request -> slot mapping on every replica (before the
    // follower blanks the route) so whoever leads next dedups retries.
    remember_request(op->reply.request_id, slot);
    if (!leader_) {
      // Follower applies without replying: blank out the reply route.
      op->reply = ReplyTo{};
    }

    if (op->op == Op::kShardCfg) {
      // Shard-ownership change, applied by every replica in log order —
      // catch-up and leader changes replay it, so the whole group
      // converges no matter who serves next.
      const auto view = ShardView::decode(op->value);
      if (view && view->epoch >= epoch_) {
        epoch_ = view->epoch;
        num_shards_cfg_ = view->num_shards;
        owned_.clear();
        owned_.insert(view->owned.begin(), view->owned.end());
        if (cache_ != 0) {
          env.local_send(cache_, kShardUpdate,
                         {op->value.begin(), op->value.end()});
        }
      }
      if (op->reply.node != 0 || op->reply.request_id != 0) {
        send_client_reply(env, op->reply, Status::kOk);
      }
      continue;  // config never touches the memtable
    }

    if (cache_ != 0 && (op->op == Op::kPut || op->op == Op::kDel)) {
      // Write-through invalidation BEFORE the memtable apply that acks
      // the client: FIFO mailboxes then guarantee any read issued after
      // the ack sees this update first (never-stale contract).
      wire::Writer inval(1 + wire::str_size(op->key.size()) +
                         wire::bytes_size(op->value.size()));
      inval.put(static_cast<std::uint8_t>(op->op));
      inval.put_str(op->key);
      inval.put_bytes(op->value);
      env.local_send(cache_, kCacheInval, inval.take());
    }

    // The memtable applies the stored op bytes (the parsed prefix); a
    // follower's copy carries a blank route, so nobody replies twice.
    std::vector<std::uint8_t> apply(
        entry->value.begin(),
        entry->value.begin() + static_cast<std::ptrdiff_t>(op->size));
    if (!leader_) {
      std::copy(blank_route().begin(), blank_route().end(),
                apply.begin() + OpView::kReplyOffset);
    }
    env.local_send(memtable_, kApplyOp, std::move(apply));
  }
}

// --------------------------------------------------------- MemtableActor --

void MemtableActor::handle(ActorEnv& env, const netsim::Packet& req) {
  if (req.msg_type == kApplyOp) {
    const auto op = OpView::decode(req.payload);
    if (!op) return;
    const bool tombstone = op->op == Op::kDel;
    env.compute(400);
    list_.insert(env, op->key, op->value, tombstone);
    if (op->reply.node != 0 || op->reply.request_id != 0) {
      send_client_reply(env, op->reply, Status::kOk);
    }
    if (list_.value_bytes() + list_.size() * 128 >
        params_.memtable_flush_bytes) {
      flush(env);
    }
    return;
  }

  if (req.msg_type == kMemGet) {
    const auto get = KeyReadView::decode(req.payload);
    if (!get) return;
    env.compute(300);
    const auto result = list_.get(env, get->key);
    if (result) {
      if (result->tombstone) {
        send_client_reply(env, get->reply, Status::kNotFound);
      } else {
        send_client_reply(env, get->reply, Status::kOk, result->value);
      }
      return;
    }
    // Miss: forward the parsed [ReplyTo][key] bytes to the SSTable read
    // actor on the host.
    env.local_send(sst_read_, kSstGet,
                   {req.payload.begin(),
                    req.payload.begin() + static_cast<std::ptrdiff_t>(get->size)});
    return;
  }
}

void MemtableActor::flush(ActorEnv& env) {
  ++flushes_;
  // Sized for the longest key, so the payload is allocated once.
  FlushBatchSink sink{wire::Writer(
      sizeof(std::uint32_t) +
      list_.size() * (1 + wire::str_size(DmoSkipList::kKeyLen) +
                      wire::bytes_size(0)) +
      list_.value_bytes())};
  sink.w.put(std::uint32_t{0});  // entry count, set after the walk
  list_.scan(env, sink);
  sink.w.put_at(0, sink.n);
  env.compute(static_cast<double>(sink.n) * 50.0);
  env.local_send(compaction_, kFlushBatch, sink.w.take());
  list_.clear(env);
}

// ----------------------------------------------------------- SstReadActor --

void SstReadActor::handle(ActorEnv& env, const netsim::Packet& req) {
  if (req.msg_type != kSstGet) return;
  const auto get = KeyReadView::decode(req.payload);
  if (!get) return;
  const ReplyTo& reply = get->reply;

  LsmTree::GetStats stats;
  const auto value = lsm_->get(get->key, &stats);
  // Binary-search probes over host-resident tables + storage access tax.
  env.mem(std::max<std::uint64_t>(lsm_->total_bytes(), 4096),
          stats.probes + 2 * stats.tables_probed);
  env.compute(800);
  if (value) {
    send_client_reply(env, reply, Status::kOk, *value);
  } else {
    send_client_reply(env, reply, Status::kNotFound);
  }
}

// -------------------------------------------------------- CompactionActor --

void CompactionActor::handle(ActorEnv& env, const netsim::Packet& req) {
  if (req.msg_type != kFlushBatch) return;
  ++batches_;
  wire::Reader r(req.payload);
  std::uint32_t n = 0;
  if (!r.get(n)) return;
  std::vector<SstEntry> entries;
  entries.reserve(n);
  std::uint64_t bytes = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint8_t tombstone = 0;
    std::string_view key;
    wire::Bytes value;
    if (!r.get(tombstone) || !r.get_str(key) || !r.get_bytes(value)) break;
    bytes += key.size() + value.size();
    entries.push_back(SstEntry{std::string(key),
                               {value.begin(), value.end()},
                               tombstone != 0});
  }
  std::sort(entries.begin(), entries.end(),
            [](const SstEntry& a, const SstEntry& b) { return a.key < b.key; });
  // Keep only the newest duplicate (batch is scan order = sorted unique
  // already, but be safe).
  entries.erase(std::unique(entries.begin(), entries.end(),
                            [](const SstEntry& a, const SstEntry& b) {
                              return a.key == b.key;
                            }),
                entries.end());

  env.stream(bytes + 1, bytes);
  env.compute(static_cast<double>(n) * 60.0);
  lsm_->add_l0(std::move(entries));
  const std::uint64_t merged = lsm_->maybe_compact();
  if (merged > 0) {
    env.stream(merged, merged);  // sequential merge I/O
    env.compute(static_cast<double>(merged) * 0.5);
  }
}

// ------------------------------------------------------------- deployment --

RkvDeployment deploy_rkv(Runtime& rt, RkvParams params) {
  RkvDeployment d;
  d.lsm = std::make_shared<LsmTree>();

  auto sst = std::make_unique<SstReadActor>(d.lsm);
  auto compact = std::make_unique<CompactionActor>(d.lsm);
  d.sst_read = rt.register_actor(std::move(sst), ActorLoc::kHost);
  d.compaction = rt.register_actor(std::move(compact), ActorLoc::kHost);

  auto memtable =
      std::make_unique<MemtableActor>(params, d.sst_read, d.compaction);
  d.memtable = rt.register_actor(std::move(memtable));

  auto consensus = std::make_unique<ConsensusActor>(params, d.memtable);
  ConsensusActor* cons = consensus.get();
  d.consensus = rt.register_actor(std::move(consensus));
  if (params.peer_consensus_actor != 0) {
    assert(params.peer_consensus_actor == d.consensus &&
           "deploy order must match across replicas");
  }

  if (params.enable_hot_cache) {
    // Registered last so the other actors keep the ids a cache-less
    // deployment gives them; wired to consensus both ways before any
    // traffic can arrive.
    HotCacheParams cp;
    cp.capacity_bytes = params.cache_capacity_bytes;
    cp.require_lease = params.enable_failover;
    cp.num_shards = params.num_shards;
    cp.epoch = params.shard_epoch;
    cp.owned_shards = params.owned_shards;
    cp.inject_stale_cache = params.inject_stale_cache;
    auto cache = std::make_unique<HotKeyCacheActor>(std::move(cp));
    d.cache = cache.get();
    d.hot_cache = rt.register_actor(std::move(cache));
    d.cache->set_consensus(d.consensus);
    cons->set_cache_actor(d.hot_cache);
  }
  return d;
}

}  // namespace ipipe::rkv
