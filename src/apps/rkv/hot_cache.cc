#include "apps/rkv/hot_cache.h"

#include <utility>

namespace ipipe::rkv {
namespace {

[[nodiscard]] std::vector<std::uint8_t> epoch_bytes(std::uint64_t epoch) {
  wire::Writer w;
  w.put(epoch);
  return w.take();
}

}  // namespace

bool HotKeyCacheActor::owns(const std::string& key) const {
  if (num_shards_ == 0) return true;
  return owned_.count(shard::shard_of_key(key, num_shards_)) != 0;
}

void HotKeyCacheActor::bump_gen(const std::string& key) {
  const auto it = miss_gen_.find(key);
  if (it != miss_gen_.end()) ++it->second.first;
}

void HotKeyCacheActor::release_gen(const std::string& key) {
  const auto it = miss_gen_.find(key);
  if (it != miss_gen_.end() && --it->second.second == 0) miss_gen_.erase(it);
}

void HotKeyCacheActor::wipe() {
  cache_ = nf::KvCache(params_.buckets, params_.capacity_bytes);
  pending_.clear();
  pending_order_.clear();
  miss_gen_.clear();
  lease_until_ = 0;
  ++wipes_;
}

void HotKeyCacheActor::reset(ActorEnv& env) {
  (void)env;
  wipe();
  // Shard config falls back to the deployment baseline; config ops in
  // the log re-apply through consensus catch-up (kShardUpdate).
  owned_.clear();
  owned_.insert(params_.owned_shards.begin(), params_.owned_shards.end());
  num_shards_ = params_.num_shards;
  epoch_ = params_.epoch;
}

void HotKeyCacheActor::handle(ActorEnv& env, const netsim::Packet& req) {
  switch (req.msg_type) {
    case kClientGet:
      on_get(env, req);
      break;
    case kClientPut:
    case kClientDel:
      // Writes pass through untouched: forward() preserves the request
      // id so the leader's dedup table still recognizes retransmits.
      env.compute(80);
      env.forward(consensus_, env.clone_packet(req));
      break;
    case kClientReply:
      on_reply(env, req);
      break;
    case kCacheInval:
      on_inval(env, req);
      break;
    case kLeaseGrant: {
      wire::Reader r(req.payload);
      std::uint64_t until = 0;
      if (r.get(until)) lease_until_ = std::max(lease_until_, until);
      break;
    }
    case kShardUpdate:
      on_shard_update(req);
      break;
    default:
      break;
  }
}

void HotKeyCacheActor::on_get(ActorEnv& env, const netsim::Packet& req) {
  const auto creq = ClientReq::decode(req.payload);
  if (!creq || consensus_ == 0) return;
  if (creq->op != Op::kGet) {
    env.forward(consensus_, env.clone_packet(req));
    return;
  }

  if (!owns(creq->key)) {
    // Stale client route: reject immediately with our epoch so the
    // client re-resolves instead of waiting out a timeout.
    ++wrong_shard_;
    env.compute(120);
    env.reply(req, kClientReply,
              ClientReply{Status::kWrongShard, epoch_bytes(epoch_)}.encode());
    return;
  }

  const bool leased = !params_.require_lease || env.now() < lease_until_;
  if (leased) {
    nf::KvCache::OpStats stats;
    const auto value = cache_.get(creq->key, &stats);
    env.compute(250);
    env.mem(std::max<std::uint64_t>(cache_.memory_bytes(), 4096),
            stats.probes + 1);
    if (value) {
      ++hits_;
      env.reply(req, kClientReply,
                ClientReply{Status::kOk, std::vector<std::uint8_t>(
                                             value->begin(), value->end())}
                    .encode());
      return;
    }
  } else {
    ++lease_misses_;
  }

  // Miss (or no lease): forward to consensus with the reply routed back
  // through this actor, so the value fills the cache on the way out.
  ++misses_;
  const auto existing = pending_.find(req.request_id);
  if (existing == pending_.end()) {
    auto& gen = miss_gen_[creq->key];
    ++gen.second;
    PendingFill pf;
    pf.reply = ReplyTo{req.src, req.src_actor, req.request_id, req.created_at};
    pf.key = creq->key;
    pf.gen = gen.first;
    pf.fillable = true;
    pending_.emplace(req.request_id, std::move(pf));
    pending_order_.push_back(req.request_id);
    while (pending_.size() > params_.pending_cap && !pending_order_.empty()) {
      const std::uint64_t old = pending_order_.front();
      pending_order_.pop_front();
      const auto it = pending_.find(old);
      if (it != pending_.end()) {
        release_gen(it->second.key);
        pending_.erase(it);
      }
    }
  }
  // else: retransmit of an in-flight miss — re-forward, keep the first
  // pending entry (first reply wins, duplicates are dropped upstream).

  const ReplyTo via{env.node(), env.self(), req.request_id, req.created_at};
  env.local_send(consensus_, kCacheGet, KeyReadView::encode(via, creq->key));
}

void HotKeyCacheActor::on_reply(ActorEnv& env, const netsim::Packet& req) {
  const auto it = pending_.find(req.request_id);
  if (it == pending_.end()) return;  // late duplicate; client already served
  PendingFill pf = std::move(it->second);
  pending_.erase(it);

  const auto rep = ClientReply::decode(req.payload);
  env.compute(150);
  if (rep && pf.fillable && rep->status == Status::kOk) {
    const auto gen = miss_gen_.find(pf.key);
    if (gen != miss_gen_.end() && gen->second.first == pf.gen) {
      const auto stats = cache_.put(
          pf.key, std::string(rep->value.begin(), rep->value.end()));
      env.mem(std::max<std::uint64_t>(cache_.memory_bytes(), 4096),
              stats.probes + 1);
      ++fills_;
    } else {
      // An invalidation for this key landed while the fill was in
      // flight: installing now could resurrect a stale value.
      ++stale_fills_dropped_;
    }
  }
  release_gen(pf.key);

  // Relay to the original client with its request id / timestamps.
  env.reply(pf.reply.as_request(), kClientReply,
            std::vector<std::uint8_t>(req.payload.begin(), req.payload.end()));
}

void HotKeyCacheActor::on_inval(ActorEnv& env, const netsim::Packet& req) {
  if (params_.inject_stale_cache) return;  // injected bug: drop write-through
  wire::Reader r(req.payload);
  std::uint8_t op = 0;
  std::string key;
  std::vector<std::uint8_t> value;
  if (!r.get(op) || !r.get_str(key) || !r.get_bytes(value)) return;
  bump_gen(key);  // racing miss fills must not clobber this apply
  ++invals_;
  env.compute(200);
  if (static_cast<Op>(op) == Op::kPut) {
    // Write-through: install the applied value (keeps hot keys hot
    // across their own writes; on followers this pre-warms the cache a
    // future leader will serve from).
    const auto stats =
        cache_.put(key, std::string(value.begin(), value.end()));
    env.mem(std::max<std::uint64_t>(cache_.memory_bytes(), 4096),
            stats.probes + 1);
  } else {
    cache_.del(key);
    env.mem(std::max<std::uint64_t>(cache_.memory_bytes(), 4096), 2);
  }
}

void HotKeyCacheActor::on_shard_update(const netsim::Packet& req) {
  const auto view = ShardView::decode(req.payload);
  if (!view || view->epoch < epoch_) return;
  epoch_ = view->epoch;
  num_shards_ = view->num_shards;
  owned_.clear();
  owned_.insert(view->owned.begin(), view->owned.end());
  // Drop entries for shards we no longer own: if ownership ever came
  // back, a frozen copy from before the move could serve stale.
  cache_.prune([this](const std::string& key) { return owns(key); });
}

}  // namespace ipipe::rkv
