#include "apps/dt/dt_actors.h"

#include <cassert>

#include "common/logging.h"

namespace ipipe::dt {
namespace {

/// Send to a participant-side actor, short-circuiting the wire for the
/// local node.
void send_to(ActorEnv& env, netsim::NodeId node, ActorId actor,
             std::uint16_t type, std::vector<std::uint8_t> payload) {
  if (node == env.node()) {
    env.local_send(actor, type, std::move(payload));
  } else {
    env.send(node, actor, type, std::move(payload));
  }
}

/// Participant->coordinator reply, short-circuiting the wire when the
/// coordinator is co-located.
void reply_to(ActorEnv& env, const netsim::Packet& req, std::uint16_t type,
              std::vector<std::uint8_t> payload) {
  if (req.src == env.node()) {
    env.local_send(req.src_actor, type, std::move(payload));
  } else {
    env.reply(req, type, std::move(payload));
  }
}

}  // namespace

// ------------------------------------------------------------ wire codecs --

std::vector<std::uint8_t> TxnRequest::encode() const {
  wire::Writer w;
  w.put(static_cast<std::uint8_t>(reads.size()));
  for (const auto& r : reads) {
    w.put(r.node).put_str(r.key);
  }
  w.put(static_cast<std::uint8_t>(writes.size()));
  for (const auto& wr : writes) {
    w.put(wr.node).put_str(wr.key).put_bytes(wr.value);
  }
  return w.take();
}

std::optional<TxnRequest> TxnRequest::decode(
    std::span<const std::uint8_t> data) {
  wire::Reader r(data);
  TxnRequest req;
  std::uint8_t nr = 0;
  if (!r.get(nr)) return std::nullopt;
  req.reads.resize(nr);
  for (auto& rd : req.reads) {
    if (!r.get(rd.node) || !r.get_str(rd.key)) return std::nullopt;
  }
  std::uint8_t nw = 0;
  if (!r.get(nw)) return std::nullopt;
  req.writes.resize(nw);
  for (auto& wr : req.writes) {
    if (!r.get(wr.node) || !r.get_str(wr.key) || !r.get_bytes(wr.value)) {
      return std::nullopt;
    }
  }
  return req;
}

std::vector<std::uint8_t> TxnReply::encode() const {
  wire::Writer w;
  w.put(static_cast<std::uint8_t>(status));
  w.put(static_cast<std::uint8_t>(read_values.size()));
  for (const auto& v : read_values) w.put_bytes(v);
  return w.take();
}

std::optional<TxnReply> TxnReply::decode(std::span<const std::uint8_t> data) {
  wire::Reader r(data);
  TxnReply rep;
  std::uint8_t status = 0;
  std::uint8_t n = 0;
  if (!r.get(status) || !r.get(n)) return std::nullopt;
  rep.status = static_cast<TxnStatus>(status);
  rep.read_values.resize(n);
  for (auto& v : rep.read_values) {
    if (!r.get_bytes(v)) return std::nullopt;
  }
  return rep;
}

// -------------------------------------------------------- ParticipantActor --

void ParticipantActor::handle(ActorEnv& env, const netsim::Packet& req) {
  if (req.msg_type == kRecoverLocks) {
    // A restarted coordinator names its still-active (in-doubt) txns;
    // every lock it owns for any OTHER txn leaked when it lost its state
    // — release them all.
    wire::Reader r(req.payload);
    std::uint32_t n = 0;
    if (!r.get(n)) return;
    std::set<std::uint64_t> active;
    for (std::uint32_t i = 0; i < n; ++i) {
      std::uint64_t id = 0;
      if (!r.get(id)) return;
      active.insert(id);
    }
    std::uint32_t released = 0;
    for (auto it = locks_.begin(); it != locks_.end();) {
      if (it->second.node == req.src && active.count(it->second.txn) == 0) {
        store_.unlock(env, it->first);
        it = locks_.erase(it);
        ++released;
      } else {
        ++it;
      }
    }
    env.compute(600 + 50.0 * released);
    wire::Writer w;
    w.put(released);
    reply_to(env, req, kRecoverAck, w.take());
    return;
  }

  wire::Reader r(req.payload);
  std::uint64_t txn = 0;
  std::uint8_t idx = 0;
  std::string key;
  if (!r.get(txn) || !r.get(idx) || !r.get_str(key)) return;
  env.compute(500);

  switch (req.msg_type) {
    case kRead: {
      const auto rec = store_.get(env, key);
      wire::Writer w;
      w.put(txn).put(idx);
      // Phase 1 semantics: a locked record aborts the transaction.
      const bool ok = rec.has_value() ? !rec->locked : true;
      w.put(static_cast<std::uint8_t>(ok ? 1 : 0));
      w.put(rec ? rec->version : 0u);
      w.put_bytes(rec ? rec->value : std::vector<std::uint8_t>{});
      if (observer_.on_read) {
        observer_.on_read(env.now(), txn, key, rec ? rec->version : 0u,
                          rec ? std::span<const std::uint8_t>(rec->value)
                              : std::span<const std::uint8_t>{},
                          ok);
      }
      reply_to(env, req, kReadReply, w.take());
      return;
    }
    case kLock: {
      const auto it = locks_.find(key);
      wire::Writer w;
      w.put(txn).put(idx);
      if (it != locks_.end()) {
        // Retransmitted lock from the same txn is idempotent; anyone
        // else is refused.
        const bool ours = it->second.node == req.src && it->second.txn == txn;
        w.put(static_cast<std::uint8_t>(ours ? 1 : 0));
        w.put(ours ? it->second.version : 0u);
      } else {
        const auto version = store_.lock(env, key);
        if (version) locks_[key] = {req.src, txn, *version};
        w.put(static_cast<std::uint8_t>(version.has_value() ? 1 : 0));
        w.put(version.value_or(0));
      }
      reply_to(env, req, kLockReply, w.take());
      return;
    }
    case kValidate: {
      std::uint32_t expected = 0;
      std::uint8_t own_lock = 0;
      if (!r.get(expected) || !r.get(own_lock)) return;
      const auto rec = store_.get(env, key);
      const std::uint32_t current = rec ? rec->version : 0;
      const bool locked = (rec ? rec->locked : false) && own_lock == 0;
      const bool ok = !locked && current == expected;
      wire::Writer w;
      w.put(txn).put(idx).put(static_cast<std::uint8_t>(ok ? 1 : 0));
      reply_to(env, req, kValidateReply, w.take());
      return;
    }
    case kCommit: {
      // The coordinator always sends the version target; a commit
      // without one is malformed and dropped.
      std::vector<std::uint8_t> value;
      std::uint32_t target = 0;
      if (!r.get_bytes(value) || !r.get(target)) return;
      const auto lock_it = locks_.find(key);
      const bool ours = lock_it != locks_.end() &&
                        lock_it->second.node == req.src &&
                        lock_it->second.txn == txn;
      const auto rec = store_.get(env, key);
      if (!rec || rec->version < target) {
        // First (or replayed-after-participant-crash) application.
        // Preserve a lock some other txn legitimately holds.
        const bool other_lock = lock_it != locks_.end() && !ours;
        store_.commit_at(env, key, value, target, other_lock);
        if (ours) locks_.erase(lock_it);
        if (observer_.on_apply) {
          observer_.on_apply(env.now(), txn, key, target,
                             std::span<const std::uint8_t>(value));
        }
      } else if (ours) {
        // Duplicate of an already-applied commit: just release.
        store_.unlock(env, key);
        locks_.erase(lock_it);
      }
      wire::Writer w;
      w.put(txn).put(idx);
      reply_to(env, req, kCommitAck, w.take());
      return;
    }
    case kAbortUnlock: {
      const auto it = locks_.find(key);
      if (it != locks_.end() && it->second.node == req.src &&
          it->second.txn == txn) {
        store_.unlock(env, key);
        locks_.erase(it);
      } else if (it == locks_.end()) {
        // Pre-recovery deployments lock without registering ownership.
        store_.unlock(env, key);
      }
      wire::Writer w;
      w.put(txn).put(idx);
      reply_to(env, req, kAbortAck, w.take());
      return;
    }
    default:
      return;
  }
}

// --------------------------------------------------------------- LogActor --

void LogActor::handle(ActorEnv& env, const netsim::Packet& req) {
  if (req.msg_type == kLogReplayReq) {
    // Coordinator restart: stream every unresolved (in-doubt) record
    // back, then a txn-id-0 end marker.
    for (const auto& [txn_id, payload] : records_) {
      env.stream(bytes_ + 1, payload.size());
      env.local_send(req.src_actor, kLogReplay, payload);
    }
    env.charge(usec(2));
    wire::Writer done;
    done.put(std::uint64_t{0});
    env.local_send(req.src_actor, kLogReplay, done.take());
    return;
  }

  wire::Reader r(req.payload);
  std::uint64_t txn = 0;
  if (!r.get(txn)) return;

  if (req.msg_type == kLogAppend) {
    ++appended_;
    bytes_ += req.payload.size();
    // Sequential append to the persistent coordinator log; the record is
    // retained until the coordinator confirms the commit is durable on
    // every participant (kLogResolve).
    records_[txn].assign(req.payload.begin(), req.payload.end());
    env.stream(bytes_ + 1, req.payload.size());
    env.charge(usec(1.2));  // storage write tax
    wire::Writer w;
    w.put(txn);
    env.local_send(req.src_actor, kLogAck, w.take());
    return;
  }
  if (req.msg_type == kLogResolve) {
    records_.erase(txn);
    env.charge(usec(0.4));
    return;
  }
  if (req.msg_type == kLogCheckpoint) {
    ++checkpoints_;
    env.stream(bytes_ + 1, bytes_);
    env.charge(usec(20));
    bytes_ = 0;
  }
}

// -------------------------------------------------------- CoordinatorActor --

void CoordinatorActor::charge_coord(ActorEnv& env) const {
  env.compute(700);
  env.mem(std::max<std::uint64_t>(txns_.size() * 256, 4096), 2);
}

void CoordinatorActor::init(ActorEnv& env) {
  if (!recovery_.enabled) return;
  // Epoch-stamp txn ids with boot time so a restarted coordinator never
  // reuses an in-doubt predecessor's id.
  next_txn_ = ((static_cast<std::uint64_t>(env.now()) / msec(1)) << 32) | 1;
  recovering_ = true;
  recover_active_.clear();
  recover_pending_.clear();
  wire::Writer w;
  w.put(std::uint64_t{0});
  env.local_send(log_actor_, kLogReplayReq, w.take());
  env.schedule_self(kTxnRetryPeriod, kTxnTick);
}

void CoordinatorActor::reset(ActorEnv& env) {
  (void)env;
  // Everything except the counters is volatile; the durable coordinator
  // log (LogActor) is what recovery rebuilds from.
  txns_.clear();
  active_reqs_.clear();
  completed_reqs_.clear();
  completed_order_.clear();
  recover_active_.clear();
  recover_pending_.clear();
  recovering_ = false;
  log_bytes_ = 0;
}

void CoordinatorActor::handle(ActorEnv& env, const netsim::Packet& req) {
  switch (req.msg_type) {
    case kTxnRequest:
      on_client(env, req);
      return;
    case kReadReply:
      on_read_reply(env, req);
      return;
    case kLockReply:
      on_lock_reply(env, req);
      return;
    case kValidateReply:
      on_validate_reply(env, req);
      return;
    case kLogAck:
      on_log_ack(env, req);
      return;
    case kCommitAck:
      on_commit_ack(env, req);
      return;
    case kAbortAck:
      on_abort_ack(env, req);
      return;
    case kLogReplay:
      on_log_replay(env, req);
      return;
    case kRecoverAck:
      on_recover_ack(env, req);
      return;
    case kTxnTick:
      on_tick(env);
      return;
    default:
      return;
  }
}

// ---- per-item senders (first transmission and retransmit share these) ----

void CoordinatorActor::send_read(ActorEnv& env, std::uint64_t txn_id,
                                 const TxnState& txn, std::size_t i) {
  wire::Writer w;
  w.put(txn_id).put(static_cast<std::uint8_t>(i)).put_str(
      txn.request.reads[i].key);
  send_to(env, txn.request.reads[i].node, participant_, kRead, w.take());
}

void CoordinatorActor::send_lock(ActorEnv& env, std::uint64_t txn_id,
                                 const TxnState& txn, std::size_t i) {
  wire::Writer w;
  w.put(txn_id).put(static_cast<std::uint8_t>(i)).put_str(
      txn.request.writes[i].key);
  send_to(env, txn.request.writes[i].node, participant_, kLock, w.take());
}

void CoordinatorActor::send_validate(ActorEnv& env, std::uint64_t txn_id,
                                     const TxnState& txn, std::size_t i) {
  // A read key that is also in our own write set is locked *by us*: the
  // participant must ignore that lock during validation.
  bool own_lock = false;
  for (const auto& wr : txn.request.writes) {
    if (wr.node == txn.request.reads[i].node &&
        wr.key == txn.request.reads[i].key) {
      own_lock = true;
      break;
    }
  }
  wire::Writer w;
  w.put(txn_id).put(static_cast<std::uint8_t>(i)).put_str(
      txn.request.reads[i].key);
  w.put(txn.read_versions[i]);
  w.put(static_cast<std::uint8_t>(own_lock ? 1 : 0));
  send_to(env, txn.request.reads[i].node, participant_, kValidate, w.take());
}

void CoordinatorActor::send_commit(ActorEnv& env, std::uint64_t txn_id,
                                   const TxnState& txn, std::size_t i) {
  wire::Writer w;
  w.put(txn_id).put(static_cast<std::uint8_t>(i)).put_str(
      txn.request.writes[i].key);
  w.put_bytes(txn.request.writes[i].value);
  w.put(txn.write_versions[i] + 1);  // idempotence target
  send_to(env, txn.request.writes[i].node, participant_, kCommit, w.take());
}

void CoordinatorActor::send_unlock(ActorEnv& env, std::uint64_t txn_id,
                                   const TxnState& txn, std::size_t i) {
  wire::Writer w;
  w.put(txn_id).put(static_cast<std::uint8_t>(i)).put_str(
      txn.request.writes[i].key);
  send_to(env, txn.request.writes[i].node, participant_, kAbortUnlock,
          w.take());
}

void CoordinatorActor::emit_outcome(ActorEnv& env, std::uint64_t txn_id,
                                    TxnState& txn, TxnStatus status) {
  if (!observer_.on_outcome || txn.outcome_emitted) return;
  txn.outcome_emitted = true;
  CoordinatorObserver::Outcome o;
  o.txn_id = txn_id;
  o.request_id = txn.client.request_id;
  o.status = status;
  o.recovered = txn.recovered;
  o.decided_at = env.now();
  o.request = txn.request;
  o.read_versions = txn.read_versions;
  o.read_values = txn.read_values;
  o.write_targets.reserve(txn.write_versions.size());
  for (const std::uint32_t v : txn.write_versions) {
    o.write_targets.push_back(v + 1);
  }
  observer_.on_outcome(o);
}

void CoordinatorActor::on_client(ActorEnv& env, const netsim::Packet& req) {
  charge_coord(env);

  // Retransmitted client request: serve the cached decision (or stay
  // silent while the original is still in flight) — never run the same
  // transaction twice.
  if (recovery_.enabled && req.request_id != 0) {
    const auto done = completed_reqs_.find(req.request_id);
    if (done != completed_reqs_.end()) {
      env.reply(req, kTxnReply, done->second);
      return;
    }
    if (active_reqs_.count(req.request_id) != 0) return;
  }

  auto parsed = TxnRequest::decode(req.payload);
  if (!parsed) return;

  const std::uint64_t txn_id = next_txn_++;
  TxnState& txn = txns_[txn_id];
  txn.request = std::move(*parsed);
  txn.client = req;  // copy for reply routing
  txn.client.payload.clear();
  txn.phase = Phase::kReadLock;
  txn.phase_started = env.now();
  txn.read_versions.assign(txn.request.reads.size(), 0);
  txn.read_values.assign(txn.request.reads.size(), {});
  txn.write_versions.assign(txn.request.writes.size(), 0);
  txn.done.assign(txn.request.reads.size() + txn.request.writes.size(), 0);
  txn.pending = static_cast<unsigned>(txn.request.reads.size() +
                                      txn.request.writes.size());
  if (recovery_.enabled && req.request_id != 0) {
    active_reqs_[req.request_id] = txn_id;
  }

  // Phase 1: read R, lock W.
  for (std::size_t i = 0; i < txn.request.reads.size(); ++i) {
    send_read(env, txn_id, txn, i);
  }
  for (std::size_t i = 0; i < txn.request.writes.size(); ++i) {
    send_lock(env, txn_id, txn, i);
  }
  if (txn.pending == 0) {
    emit_outcome(env, txn_id, txn, TxnStatus::kError);
    reply_client(env, txn, TxnStatus::kError);
    txns_.erase(txn_id);
  }
}

void CoordinatorActor::on_read_reply(ActorEnv& env, const netsim::Packet& req) {
  charge_coord(env);
  wire::Reader r(req.payload);
  std::uint64_t txn_id = 0;
  std::uint8_t idx = 0;
  std::uint8_t ok = 0;
  std::uint32_t version = 0;
  std::vector<std::uint8_t> value;
  if (!r.get(txn_id) || !r.get(idx) || !r.get(ok) || !r.get(version) ||
      !r.get_bytes(value)) {
    return;
  }
  const auto it = txns_.find(txn_id);
  if (it == txns_.end() || it->second.phase != Phase::kReadLock) return;
  TxnState& txn = it->second;
  if (idx >= txn.read_versions.size() || txn.done[idx] != 0) return;
  txn.done[idx] = 1;
  if (!ok) txn.failed = true;
  txn.read_versions[idx] = version;
  txn.read_values[idx] = std::move(value);
  --txn.pending;
  phase1_maybe_done(env, txn_id);
}

void CoordinatorActor::on_lock_reply(ActorEnv& env, const netsim::Packet& req) {
  charge_coord(env);
  wire::Reader r(req.payload);
  std::uint64_t txn_id = 0;
  std::uint8_t idx = 0;
  std::uint8_t ok = 0;
  std::uint32_t version = 0;
  if (!r.get(txn_id) || !r.get(idx) || !r.get(ok) || !r.get(version)) return;
  const auto it = txns_.find(txn_id);
  if (it == txns_.end() || it->second.phase != Phase::kReadLock) return;
  TxnState& txn = it->second;
  const std::size_t slot = txn.request.reads.size() + idx;
  if (idx >= txn.write_versions.size() || txn.done[slot] != 0) return;
  txn.done[slot] = 1;
  if (ok) {
    ++txn.locks_held;
    txn.write_versions[idx] = version;
  } else {
    txn.failed = true;
  }
  --txn.pending;
  phase1_maybe_done(env, txn_id);
}

void CoordinatorActor::phase1_maybe_done(ActorEnv& env, std::uint64_t txn_id) {
  const auto it = txns_.find(txn_id);
  if (it == txns_.end()) return;
  TxnState& txn = it->second;
  if (txn.pending > 0) return;
  if (txn.failed) {
    abort(env, txn_id, txn, TxnStatus::kAbortedLocked);
    return;
  }
  begin_validate(env, txn_id, txn);
}

void CoordinatorActor::begin_validate(ActorEnv& env, std::uint64_t txn_id,
                                      TxnState& txn) {
  txn.phase = Phase::kValidate;
  txn.phase_started = env.now();
  txn.retries = 0;
  txn.pending = static_cast<unsigned>(txn.request.reads.size());
  txn.done.assign(txn.request.reads.size(), 0);
  if (txn.pending == 0) {
    begin_log(env, txn_id, txn);
    return;
  }
  for (std::size_t i = 0; i < txn.request.reads.size(); ++i) {
    send_validate(env, txn_id, txn, i);
  }
}

void CoordinatorActor::on_validate_reply(ActorEnv& env,
                                         const netsim::Packet& req) {
  charge_coord(env);
  wire::Reader r(req.payload);
  std::uint64_t txn_id = 0;
  std::uint8_t idx = 0;
  std::uint8_t ok = 0;
  if (!r.get(txn_id) || !r.get(idx) || !r.get(ok)) return;
  const auto it = txns_.find(txn_id);
  if (it == txns_.end() || it->second.phase != Phase::kValidate) return;
  TxnState& txn = it->second;
  if (idx >= txn.done.size() || txn.done[idx] != 0) return;
  txn.done[idx] = 1;
  if (!ok) txn.failed = true;
  --txn.pending;
  if (txn.pending > 0) return;
  if (txn.failed) {
    abort(env, txn_id, txn, TxnStatus::kAbortedValidation);
    return;
  }
  begin_log(env, txn_id, txn);
}

void CoordinatorActor::begin_log(ActorEnv& env, std::uint64_t txn_id,
                                 TxnState& txn) {
  txn.phase = Phase::kLog;
  txn.phase_started = env.now();
  txn.retries = 0;
  txn.pending = 1;
  txn.done.assign(1, 0);
  // Phase 3: record node/key/value/version in the coordinator log — this
  // is the commit point (§4).  The record alone must let a restarted
  // coordinator re-drive the commit, hence the participant node ids.
  wire::Writer w;
  w.put(txn_id);
  w.put(static_cast<std::uint8_t>(txn.request.writes.size()));
  for (std::size_t i = 0; i < txn.request.writes.size(); ++i) {
    w.put(txn.request.writes[i].node);
    w.put_str(txn.request.writes[i].key);
    w.put_bytes(txn.request.writes[i].value);
    w.put(txn.write_versions[i] + 1);
  }
  log_bytes_ += w.size();
  env.local_send(log_actor_, kLogAppend, w.take());

  if (log_bytes_ > log_limit_) {
    // Coordinator log full: checkpoint to the host (the paper migrates
    // the log object and notifies the logging actor).
    wire::Writer cp;
    cp.put(txn_id);
    env.local_send(log_actor_, kLogCheckpoint, cp.take());
    log_bytes_ = 0;
  }
}

void CoordinatorActor::on_log_ack(ActorEnv& env, const netsim::Packet& req) {
  charge_coord(env);
  wire::Reader r(req.payload);
  std::uint64_t txn_id = 0;
  if (!r.get(txn_id)) return;
  const auto it = txns_.find(txn_id);
  if (it == txns_.end() || it->second.phase != Phase::kLog) return;
  begin_commit(env, txn_id, it->second);
}

void CoordinatorActor::begin_commit(ActorEnv& env, std::uint64_t txn_id,
                                    TxnState& txn) {
  txn.phase = Phase::kCommit;
  txn.phase_started = env.now();
  txn.retries = 0;
  txn.pending = static_cast<unsigned>(txn.request.writes.size());
  txn.done.assign(txn.request.writes.size(), 0);
  if (txn.pending == 0) {
    wire::Writer res;
    res.put(txn_id);
    env.local_send(log_actor_, kLogResolve, res.take());
    emit_outcome(env, txn_id, txn, TxnStatus::kCommitted);
    reply_client(env, txn, TxnStatus::kCommitted);
    txns_.erase(txn_id);
    return;
  }
  for (std::size_t i = 0; i < txn.request.writes.size(); ++i) {
    send_commit(env, txn_id, txn, i);
  }
}

void CoordinatorActor::on_commit_ack(ActorEnv& env, const netsim::Packet& req) {
  charge_coord(env);
  wire::Reader r(req.payload);
  std::uint64_t txn_id = 0;
  std::uint8_t idx = 0;
  if (!r.get(txn_id)) return;
  const bool has_idx = r.get(idx);
  const auto it = txns_.find(txn_id);
  if (it == txns_.end() || it->second.phase != Phase::kCommit) return;
  TxnState& txn = it->second;
  if (has_idx) {
    if (idx >= txn.done.size() || txn.done[idx] != 0) return;
    txn.done[idx] = 1;
  }
  if (txn.pending > 0) --txn.pending;
  if (txn.pending > 0) return;
  // Durable on every participant: the in-doubt window is over — let the
  // log drop the record, answer the client, retire the txn.
  wire::Writer res;
  res.put(txn_id);
  env.local_send(log_actor_, kLogResolve, res.take());
  emit_outcome(env, txn_id, txn, TxnStatus::kCommitted);
  reply_client(env, txn, TxnStatus::kCommitted);
  txns_.erase(txn_id);
}

void CoordinatorActor::abort(ActorEnv& env, std::uint64_t txn_id,
                             TxnState& txn, TxnStatus status) {
  // The decision is final: tell the client now, then release any locks we
  // did acquire.  With recovery enabled the unlocks are retransmitted
  // until every participant acknowledged (no dangling locks on a lossy
  // fabric); without it (the paper-figure DT rows) each is sent once.
  emit_outcome(env, txn_id, txn, status);
  reply_client(env, txn, status);
  for (std::size_t i = 0; i < txn.request.writes.size(); ++i) {
    if (recovery_.inject_lost_abort && i == 0) {
      // Injected bug (verification self-test): "commit" the first write
      // on the abort path — its value becomes visible even though the
      // client was told the transaction aborted.
      send_commit(env, txn_id, txn, i);
      continue;
    }
    send_unlock(env, txn_id, txn, i);
  }
  if (!recovery_.enabled || txn.request.writes.empty()) {
    txns_.erase(txn_id);
    return;
  }
  txn.phase = Phase::kAborting;
  txn.phase_started = env.now();
  txn.retries = 0;
  txn.pending = static_cast<unsigned>(txn.request.writes.size());
  txn.done.assign(txn.request.writes.size(), 0);
}

void CoordinatorActor::on_abort_ack(ActorEnv& env, const netsim::Packet& req) {
  charge_coord(env);
  wire::Reader r(req.payload);
  std::uint64_t txn_id = 0;
  std::uint8_t idx = 0;
  if (!r.get(txn_id) || !r.get(idx)) return;
  const auto it = txns_.find(txn_id);
  if (it == txns_.end() || it->second.phase != Phase::kAborting) return;
  TxnState& txn = it->second;
  if (idx >= txn.done.size() || txn.done[idx] != 0) return;
  txn.done[idx] = 1;
  if (txn.pending > 0) --txn.pending;
  if (txn.pending == 0) txns_.erase(txn_id);
}

void CoordinatorActor::reply_client(ActorEnv& env, TxnState& txn,
                                    TxnStatus status) {
  if (txn.recovered) return;  // replayed from the log: no client waiting
  if (status == TxnStatus::kCommitted) {
    ++committed_;
  } else {
    ++aborted_;
  }
  if (txn.replied) return;
  txn.replied = true;
  TxnReply reply;
  reply.status = status;
  if (status == TxnStatus::kCommitted) reply.read_values = txn.read_values;
  auto bytes = reply.encode();
  if (recovery_.enabled && txn.client.request_id != 0) {
    active_reqs_.erase(txn.client.request_id);
    completed_reqs_[txn.client.request_id] = bytes;
    completed_order_.push_back(txn.client.request_id);
    while (completed_order_.size() > 4096) {
      completed_reqs_.erase(completed_order_.front());
      completed_order_.pop_front();
    }
  }
  env.reply(txn.client, kTxnReply, std::move(bytes));
}

// ---- crash recovery: replay the coordinator log, sweep retransmits ----

void CoordinatorActor::on_log_replay(ActorEnv& env, const netsim::Packet& req) {
  charge_coord(env);
  wire::Reader r(req.payload);
  std::uint64_t txn_id = 0;
  if (!r.get(txn_id)) return;

  if (txn_id == 0) {
    // End of the replay stream: every in-doubt txn is rebuilt.  Announce
    // the active set so participants release leaked locks from txns the
    // old incarnation never logged (pre-commit-point casualties).
    for (const netsim::NodeId node : recovery_.cluster) {
      send_recover_locks(env, node);
      recover_pending_.insert(node);
    }
    if (recover_pending_.empty()) recovering_ = false;
    return;
  }

  if (txns_.count(txn_id) != 0) return;  // duplicate replay frame
  std::uint8_t n = 0;
  if (!r.get(n)) return;
  TxnState& txn = txns_[txn_id];
  txn.recovered = true;
  txn.request.writes.resize(n);
  txn.write_versions.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    TxnWrite& wr = txn.request.writes[i];
    std::uint32_t target = 0;
    if (!r.get(wr.node) || !r.get_str(wr.key) || !r.get_bytes(wr.value) ||
        !r.get(target)) {
      txns_.erase(txn_id);
      return;
    }
    // begin_commit targets write_versions[i] + 1.
    txn.write_versions[i] = target == 0 ? 0 : target - 1;
  }
  ++recovered_txns_;
  recover_active_.push_back(txn_id);
  LOG_DEBUG("dt: coordinator replaying in-doubt txn %llu (%u writes)",
            static_cast<unsigned long long>(txn_id), unsigned{n});
  // The commit point was reached (the record exists): re-drive phase 4.
  begin_commit(env, txn_id, txn);
}

void CoordinatorActor::send_recover_locks(ActorEnv& env, netsim::NodeId node) {
  wire::Writer w;
  w.put(static_cast<std::uint32_t>(recover_active_.size()));
  for (const std::uint64_t id : recover_active_) w.put(id);
  send_to(env, node, participant_, kRecoverLocks, w.take());
}

void CoordinatorActor::on_recover_ack(ActorEnv& env, const netsim::Packet& req) {
  charge_coord(env);
  recover_pending_.erase(req.src);
  if (recover_pending_.empty()) {
    recovering_ = false;
    recover_active_.clear();
  }
}

void CoordinatorActor::retransmit_txn(ActorEnv& env, std::uint64_t txn_id,
                                      TxnState& txn) {
  txn.phase_started = env.now();
  const std::size_t reads = txn.request.reads.size();
  switch (txn.phase) {
    case Phase::kReadLock:
      for (std::size_t i = 0; i < reads; ++i) {
        if (txn.done[i] == 0) {
          send_read(env, txn_id, txn, i);
          ++retransmits_;
        }
      }
      for (std::size_t i = 0; i < txn.request.writes.size(); ++i) {
        if (txn.done[reads + i] == 0) {
          send_lock(env, txn_id, txn, i);
          ++retransmits_;
        }
      }
      return;
    case Phase::kValidate:
      for (std::size_t i = 0; i < reads; ++i) {
        if (txn.done[i] == 0) {
          send_validate(env, txn_id, txn, i);
          ++retransmits_;
        }
      }
      return;
    case Phase::kLog: {
      // Re-append is idempotent: the log keys records by txn id.
      wire::Writer w;
      w.put(txn_id);
      w.put(static_cast<std::uint8_t>(txn.request.writes.size()));
      for (std::size_t i = 0; i < txn.request.writes.size(); ++i) {
        w.put(txn.request.writes[i].node);
        w.put_str(txn.request.writes[i].key);
        w.put_bytes(txn.request.writes[i].value);
        w.put(txn.write_versions[i] + 1);
      }
      env.local_send(log_actor_, kLogAppend, w.take());
      ++retransmits_;
      return;
    }
    case Phase::kCommit:
      for (std::size_t i = 0; i < txn.request.writes.size(); ++i) {
        if (txn.done[i] == 0) {
          send_commit(env, txn_id, txn, i);
          ++retransmits_;
        }
      }
      return;
    case Phase::kAborting:
      for (std::size_t i = 0; i < txn.request.writes.size(); ++i) {
        if (txn.done[i] == 0) {
          send_unlock(env, txn_id, txn, i);
          ++retransmits_;
        }
      }
      return;
  }
}

void CoordinatorActor::on_tick(ActorEnv& env) {
  if (!recovery_.enabled) return;
  charge_coord(env);

  // Snapshot ids first: abort()/erase mutate txns_ mid-sweep.
  std::vector<std::uint64_t> ids;
  ids.reserve(txns_.size());
  for (const auto& [id, txn] : txns_) ids.push_back(id);
  for (const std::uint64_t id : ids) {
    const auto it = txns_.find(id);
    if (it == txns_.end()) continue;
    TxnState& txn = it->second;
    if (txn.pending == 0) continue;
    if (env.now() - txn.phase_started < recovery_.retry_timeout) continue;
    const bool bounded =
        txn.phase == Phase::kReadLock || txn.phase == Phase::kValidate;
    if (bounded && txn.retries >= kMaxPhase12Retries) {
      // Participants stopped answering pre-commit-point: give up cleanly
      // (the abort path below still retransmits the unlocks forever).
      abort(env, id, txn, TxnStatus::kError);
      continue;
    }
    ++txn.retries;
    retransmit_txn(env, id, txn);
  }

  // Recover-locks broadcast is retried until every node acknowledged.
  for (const netsim::NodeId node : recover_pending_) {
    send_recover_locks(env, node);
  }

  env.schedule_self(kTxnRetryPeriod, kTxnTick);
}

// ------------------------------------------------------------- deployment --

DtDeployment deploy_dt(Runtime& rt, bool with_coordinator,
                       DtRecoveryParams recovery) {
  DtDeployment d;
  d.participant = rt.register_actor(std::make_unique<ParticipantActor>());
  d.log = rt.register_actor(std::make_unique<LogActor>(), ActorLoc::kHost);
  if (with_coordinator) {
    d.coordinator = rt.register_actor(std::make_unique<CoordinatorActor>(
        d.participant, d.log, 1 * MiB, std::move(recovery)));
  }
  return d;
}

}  // namespace ipipe::dt
