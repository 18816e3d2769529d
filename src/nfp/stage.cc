// The ten adapter stages wrapping src/apps/nf/ network functions under
// the uniform Stage contract, plus the make_stage factory.
//
// Adapters keep the NFs' real data structures and byte-level behaviour;
// the only pipeline-specific logic is (a) deriving NF inputs (5-tuples,
// keys, feature vectors) deterministically from packet fields, so the
// same packet stream produces the same verdict sequence on every run and
// placement, and (b) charging costs through StageCtx in the same units
// the standalone NF benchmarks use.
#include "nfp/stage.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/nf/chain_repl.h"
#include "apps/nf/count_min.h"
#include "apps/nf/ipsec.h"
#include "apps/nf/kv_cache.h"
#include "apps/nf/leaky_bucket.h"
#include "apps/nf/lpm_trie.h"
#include "apps/nf/maglev.h"
#include "apps/nf/naive_bayes.h"
#include "apps/nf/pfabric.h"
#include "apps/nf/tcam.h"
#include "nfp/spec.h"

namespace ipipe::nfp {
namespace {

std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Deterministic 5-tuple for a packet: the pipeline's packets carry no
/// real IP headers, so the flow id stands in for the connection and the
/// tuple is a stable hash of it.  The backend tag (flow high byte, set
/// by maglev) is excluded so stages up- and downstream of the balancer
/// see the same connection.
nf::FiveTuple tuple_of(const netsim::Packet& pkt) noexcept {
  const std::uint64_t h = mix64((pkt.flow & 0x00FF'FFFFu) |
                                (static_cast<std::uint64_t>(pkt.src) << 32));
  nf::FiveTuple t;
  t.src_ip = static_cast<std::uint32_t>(h);
  t.dst_ip = static_cast<std::uint32_t>(h >> 32);
  t.src_port = static_cast<std::uint16_t>(mix64(h) & 0xFFFF);
  t.dst_port = static_cast<std::uint16_t>((mix64(h) >> 16) & 0xFFFF);
  t.proto = (pkt.flow % 10 == 0) ? 6 : 17;  // mostly UDP, some TCP
  return t;
}

std::uint64_t flow_key(const netsim::Packet& pkt) noexcept {
  return mix64((pkt.flow & 0x00FF'FFFFu) |
               (static_cast<std::uint64_t>(pkt.src) << 32));
}

// ---------------------------------------------------------------------------
// firewall(rules=128, strict=0): SoftTcam wildcard match.  Deny rules
// cover a deterministic slice of the flow space; strict=1 additionally
// drops packets that match no rule at all.
class FirewallStage final : public Stage {
 public:
  FirewallStage(std::size_t rules, bool strict, std::uint64_t seed)
      : Stage("firewall"), strict_(strict) {
    Rng rng(seed ^ 0xF12EA511ULL);
    for (std::size_t i = 0; i < rules; ++i) {
      nf::TcamRule rule;
      rule.value.src_ip = static_cast<std::uint32_t>(rng.next());
      rule.mask.src_ip = 0xFFFF0000u;  // /16 wildcard on source
      rule.value.proto = 17;
      rule.mask.proto = 0xFF;
      rule.priority = static_cast<std::uint32_t>(rules - i);
      rule.action = (i % 8 == 0) ? 0 : 1;  // every 8th rule is a deny
      tcam_.add_rule(rule);
    }
    // Catch-all accept at the lowest priority, unless strict.
    if (!strict_) {
      nf::TcamRule all;
      all.priority = 0;
      all.action = 1;
      tcam_.add_rule(all);
    }
  }

  void process(StageCtx& ctx, netsim::PacketPtr pkt) override {
    const auto res = tcam_.lookup(tuple_of(*pkt));
    const std::size_t scanned = res ? res->rules_scanned : tcam_.size();
    ctx.compute(static_cast<double>(scanned) * 6.0);
    ctx.mem(tcam_.memory_bytes(), scanned / 16 + 1);
    if (!res || res->action == 0) {
      ctx.drop(std::move(pkt));
      return;
    }
    ctx.emit(std::move(pkt));
  }

  [[nodiscard]] std::uint64_t state_bytes() const override {
    return tcam_.memory_bytes();
  }

 private:
  nf::SoftTcam tcam_;
  bool strict_;
};

// ---------------------------------------------------------------------------
// ipsec(batch=8): ESP encapsulation with real AES-256-CTR + HMAC-SHA1.
// The payload is replaced by the ciphertext and the frame grows by the
// ESP overhead; cost is charged to the AES and SHA-1 engines.
class IpsecStage final : public Stage {
 public:
  IpsecStage(std::uint32_t batch, std::uint64_t seed)
      : Stage("ipsec"), batch_(std::max(1u, batch)) {
    std::array<std::uint8_t, 32> aes_key{};
    std::vector<std::uint8_t> hmac_key(20);
    Rng rng(seed ^ 0x1F5ECULL);
    for (auto& b : aes_key) b = static_cast<std::uint8_t>(rng.next());
    for (auto& b : hmac_key) b = static_cast<std::uint8_t>(rng.next());
    gw_ = std::make_unique<nf::IpsecGateway>(aes_key, hmac_key);
  }

  void process(StageCtx& ctx, netsim::PacketPtr pkt) override {
    if (pkt->payload.empty()) {
      pkt->payload.assign(16, static_cast<std::uint8_t>(pkt->flow));
    }
    auto esp = gw_->encapsulate(pkt->payload);
    ctx.accel(nic::AccelKind::kAes, pkt->frame_size, batch_);
    ctx.accel(nic::AccelKind::kSha1, pkt->frame_size, batch_);
    pkt->payload = std::move(esp.ciphertext);
    pkt->frame_size += kEspOverhead;
    ctx.emit(std::move(pkt));
  }

  static constexpr std::uint32_t kEspOverhead = 8 + 8 + 12 + 2;  // hdr+iv+icv+pad

 private:
  std::unique_ptr<nf::IpsecGateway> gw_;
  std::uint32_t batch_;
};

// ---------------------------------------------------------------------------
// ratelimit(rate_bps, burst=16K, cap=256): LeakyBucket.  Conforming
// packets pass immediately; excess packets are held in arrival order and
// released from tick() as tokens accrue; tail/oversized drops are
// terminal.  held_ mirrors the bucket's byte-FIFO one-to-one.
class RatelimitStage final : public Stage {
 public:
  RatelimitStage(double rate_bps, std::uint64_t burst, std::size_t cap)
      : Stage("ratelimit"), bucket_(rate_bps, burst, cap) {}

  void process(StageCtx& ctx, netsim::PacketPtr pkt) override {
    release(ctx, bucket_.drain(ctx.now()));
    ctx.compute(20.0);
    const std::uint64_t dropped_before = bucket_.dropped();
    // drain() already refilled at now() and released everything the
    // balance covers, so offer() decides purely on the new packet.
    const bool pass = bucket_.offer(ctx.now(), pkt->frame_size);
    if (pass) {
      ctx.emit(std::move(pkt));
    } else if (bucket_.dropped() > dropped_before) {
      ctx.drop(std::move(pkt));
    } else {
      held_.push_back(std::move(pkt));
    }
  }

  void tick(StageCtx& ctx) override { release(ctx, bucket_.drain(ctx.now())); }
  [[nodiscard]] Ns tick_period() const override { return usec(5); }

  [[nodiscard]] std::uint64_t state_bytes() const override {
    return held_.size() * sizeof(netsim::Packet) + 64;
  }

 private:
  void release(StageCtx& ctx, std::size_t n) {
    for (std::size_t i = 0; i < n && !held_.empty(); ++i) {
      auto pkt = std::move(held_.front());
      held_.pop_front();
      ctx.emit(std::move(pkt));
    }
  }

  nf::LeakyBucket bucket_;
  std::deque<netsim::PacketPtr> held_;
};

// ---------------------------------------------------------------------------
// maglev(backends=8, table=4093): consistent-hashing balancer.  The
// selected backend is tagged into the flow id's high byte; all-dead
// tables drop (kNoBackend) instead of asserting.
class MaglevStage final : public Stage {
 public:
  MaglevStage(std::size_t backends, std::size_t table_size)
      : Stage("maglev"), table_(make_backends(backends), table_size) {}

  void process(StageCtx& ctx, netsim::PacketPtr pkt) override {
    const std::size_t b = table_.lookup(flow_key(*pkt));
    ctx.compute(12.0);
    ctx.mem(table_.table_size() * sizeof(std::size_t), 1);
    if (b == nf::MaglevTable::kNoBackend) {
      ctx.drop(std::move(pkt));
      return;
    }
    pkt->flow = (pkt->flow & 0x00FF'FFFFu) |
                (static_cast<std::uint32_t>(b & 0xFF) << 24);
    ctx.emit(std::move(pkt));
  }

  [[nodiscard]] std::uint64_t state_bytes() const override {
    return table_.table_size() * sizeof(std::size_t);
  }

  [[nodiscard]] nf::MaglevTable& table() noexcept { return table_; }

 private:
  static std::vector<std::string> make_backends(std::size_t n) {
    std::vector<std::string> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      v.push_back("backend-" + std::to_string(i));
    }
    return v;
  }

  nf::MaglevTable table_;
};

// ---------------------------------------------------------------------------
// counter(width=2048, depth=4): count-min sketch per-flow byte counter.
class CounterStage final : public Stage {
 public:
  CounterStage(std::size_t width, std::size_t depth, std::uint64_t seed)
      : Stage("counter"), sketch_(width, depth, seed) {}

  void process(StageCtx& ctx, netsim::PacketPtr pkt) override {
    const std::size_t cells = sketch_.add(flow_key(*pkt), pkt->frame_size);
    ctx.compute(static_cast<double>(cells) * 8.0);
    ctx.mem(sketch_.memory_bytes(), cells);
    ctx.emit(std::move(pkt));
  }

  [[nodiscard]] std::uint64_t state_bytes() const override {
    return sketch_.memory_bytes();
  }

  [[nodiscard]] nf::CountMinSketch& sketch() noexcept { return sketch_; }

 private:
  nf::CountMinSketch sketch_;
};

// ---------------------------------------------------------------------------
// kvcache(buckets=4096): KV-Direct-style cache.  Every 4th packet of a
// flow writes, the rest read; read misses install the value (read-through
// fill), so the NF exercises both paths with a realistic hit mix.
class KvCacheStage final : public Stage {
 public:
  explicit KvCacheStage(std::size_t buckets)
      : Stage("kvcache"), cache_(buckets) {}

  void process(StageCtx& ctx, netsim::PacketPtr pkt) override {
    const std::string key = "flow-" + std::to_string(flow_key(*pkt) % 8192);
    nf::KvCache::OpStats st;
    if (pkt->request_id % 4 == 0) {
      st = cache_.put(key, std::string(32, static_cast<char>('a' + pkt->flow % 26)));
    } else if (!cache_.get(key, &st)) {
      cache_.put(key, std::string(32, 'x'));
    }
    ctx.compute(static_cast<double>(st.probes + 1) * 10.0);
    ctx.mem(cache_.memory_bytes() + 4096, st.probes + 1);
    ctx.emit(std::move(pkt));
  }

  [[nodiscard]] std::uint64_t state_bytes() const override {
    return cache_.memory_bytes() + 4096;
  }

 private:
  nf::KvCache cache_;
};

// ---------------------------------------------------------------------------
// chainrepl(replicas=2): chain replication head.  Each packet is
// submitted to the chain and `replicas` fan-out copies are emitted for
// the downstream chain nodes (emit-N); the primary continues down the
// pipeline.  Acks are immediate in this single-NF model so the pending
// list stays bounded.
class ChainReplStage final : public Stage {
 public:
  ChainReplStage(std::size_t replicas)
      : Stage("chainrepl"), replicas_(replicas), repl_(make_chain(replicas)) {}

  void process(StageCtx& ctx, netsim::PacketPtr pkt) override {
    const auto pending = repl_.submit();
    ctx.compute(30.0 + 8.0 * static_cast<double>(replicas_));
    ctx.mem(4096, replicas_ + 1);
    for (std::size_t i = 0; i < replicas_; ++i) {
      auto copy = ctx.clone(*pkt);
      ctx.emit_bonus(std::move(copy));
    }
    repl_.ack(pending.seq);
    ctx.emit(std::move(pkt));
  }

  [[nodiscard]] std::uint64_t state_bytes() const override {
    return 4096 + repl_.pending_count() * 48;
  }

 private:
  static std::vector<std::uint32_t> make_chain(std::size_t n) {
    std::vector<std::uint32_t> v(n + 1);
    for (std::size_t i = 0; i <= n; ++i) v[i] = static_cast<std::uint32_t>(i);
    return v;
  }

  std::size_t replicas_;
  nf::ChainReplicator repl_;
};

// ---------------------------------------------------------------------------
// classify(classes=4, features=16): multinomial naive-Bayes flow
// classifier, pre-trained on synthetic per-class feature profiles.  The
// predicted class is stored in the packet's msg-independent scratch
// (low bits of flow are preserved; result only affects cost here).
class ClassifyStage final : public Stage {
 public:
  ClassifyStage(std::size_t classes, std::size_t features, std::uint64_t seed)
      : Stage("classify"), nb_(classes, features), features_(features) {
    Rng rng(seed ^ 0xC1A55ULL);
    std::vector<std::uint32_t> fv(features);
    for (std::size_t c = 0; c < classes; ++c) {
      for (int obs = 0; obs < 32; ++obs) {
        for (std::size_t f = 0; f < features; ++f) {
          // Class c concentrates mass on features congruent to c.
          fv[f] = (f % classes == c) ? 8 + rng.uniform_u64(8)
                                     : rng.uniform_u64(3);
        }
        nb_.train(c, fv);
      }
    }
  }

  void process(StageCtx& ctx, netsim::PacketPtr pkt) override {
    std::vector<std::uint32_t> fv(features_);
    std::uint64_t h = flow_key(*pkt);
    for (std::size_t f = 0; f < features_; ++f) {
      h = mix64(h);
      fv[f] = static_cast<std::uint32_t>(h % 7);
    }
    const auto res = nb_.classify(fv);
    ctx.compute(static_cast<double>(res.cells_touched) * 14.0);
    ctx.mem(nb_.memory_bytes(), res.cells_touched / 4 + 1);
    ctx.emit(std::move(pkt));
  }

  [[nodiscard]] std::uint64_t state_bytes() const override {
    return nb_.memory_bytes();
  }

 private:
  nf::NaiveBayes nb_;
  std::size_t features_;
};

// ---------------------------------------------------------------------------
// lpm(prefixes=256, default_route=1): IPv4 longest-prefix-match router.
// Without a default route, unroutable destinations drop.
class LpmStage final : public Stage {
 public:
  LpmStage(std::size_t prefixes, bool default_route, std::uint64_t seed)
      : Stage("lpm") {
    Rng rng(seed ^ 0x199ULL);
    if (default_route) trie_.insert(0, 0, 1);
    for (std::size_t i = 0; i < prefixes; ++i) {
      const auto addr = static_cast<std::uint32_t>(rng.next());
      const unsigned len = 8 + static_cast<unsigned>(rng.uniform_u64(17));
      trie_.insert(addr & (len == 0 ? 0 : ~0u << (32 - len)), len,
                   static_cast<std::uint32_t>(2 + i % 64));
    }
  }

  void process(StageCtx& ctx, netsim::PacketPtr pkt) override {
    const auto res = trie_.lookup(static_cast<std::uint32_t>(flow_key(*pkt) >> 32));
    const std::size_t visited = res ? res->nodes_visited : 32;
    ctx.compute(static_cast<double>(visited) * 4.0);
    ctx.mem(trie_.memory_bytes(), visited / 4 + 1);
    if (!res) {
      ctx.drop(std::move(pkt));
      return;
    }
    ctx.emit(std::move(pkt));
  }

  [[nodiscard]] std::uint64_t state_bytes() const override {
    return trie_.memory_bytes();
  }

 private:
  nf::LpmTrie trie_;
};

// ---------------------------------------------------------------------------
// pfabric(cap=64, quantum=8): priority scheduler.  Packets park in the
// BST keyed by remaining-flow-size and leave, highest priority first,
// from tick(); beyond `cap` the lowest-priority entry is dropped
// (pFabric's overload rule).  This stage intentionally reorders packets
// — the pipeline's egress reorder point restores ingress order.
class PfabricStage final : public Stage {
 public:
  PfabricStage(std::size_t cap, std::size_t quantum)
      : Stage("pfabric"), cap_(std::max<std::size_t>(1, cap)),
        quantum_(std::max<std::size_t>(1, quantum)) {}

  void process(StageCtx& ctx, netsim::PacketPtr pkt) override {
    nf::PFabricScheduler::Entry e;
    e.flow_id = pkt->flow;
    // Remaining-flow-size proxy: smaller request ids within a flow are
    // "older" flows with less remaining — gives a deterministic,
    // non-trivial priority spread.
    e.remaining = static_cast<std::uint32_t>(
        (flow_key(*pkt) % 16) * 1024 + pkt->frame_size);
    e.packet_ref = next_ref_++;
    const std::size_t visits = sched_.enqueue(e);
    ctx.compute(static_cast<double>(visits) * 5.0);
    ctx.mem(sched_.size() * 64 + 1024, visits);
    held_.emplace(e.packet_ref, std::move(pkt));
    if (sched_.size() > cap_) {
      if (auto victim = sched_.drop_lowest()) {
        auto it = held_.find(victim->packet_ref);
        if (it != held_.end()) {
          ctx.drop(std::move(it->second));
          held_.erase(it);
        }
      }
    }
  }

  void tick(StageCtx& ctx) override {
    for (std::size_t i = 0; i < quantum_; ++i) {
      auto e = sched_.dequeue();
      if (!e) break;
      auto it = held_.find(e->packet_ref);
      if (it == held_.end()) continue;
      ctx.compute(10.0);
      ctx.emit(std::move(it->second));
      held_.erase(it);
    }
  }
  [[nodiscard]] Ns tick_period() const override { return usec(2); }

  [[nodiscard]] std::uint64_t state_bytes() const override {
    return held_.size() * (sizeof(netsim::Packet) + 64) + 1024;
  }

 private:
  nf::PFabricScheduler sched_;
  std::size_t cap_;
  std::size_t quantum_;
  std::uint64_t next_ref_ = 1;
  std::unordered_map<std::uint64_t, netsim::PacketPtr> held_;
};

}  // namespace

double StageSpec::param(std::size_t i, const std::string& key,
                        double fallback) const {
  if (const auto it = kv.find(key); it != kv.end()) return it->second;
  if (i < args.size()) return args[i];
  return fallback;
}

const std::vector<std::string>& stage_kinds() {
  static const std::vector<std::string> kinds = {
      "firewall", "ipsec",     "ratelimit", "maglev",  "counter",
      "kvcache",  "chainrepl", "classify",  "lpm",     "pfabric"};
  return kinds;
}

const std::vector<std::string>* stage_param_names(const std::string& kind) {
  // Positional order must match the spec.param(i, ...) calls below.
  static const std::map<std::string, std::vector<std::string>> names = {
      {"firewall", {"rules", "strict"}},
      {"ipsec", {"batch"}},
      {"ratelimit", {"rate", "burst", "cap"}},
      {"maglev", {"backends", "table"}},
      {"counter", {"width", "depth"}},
      {"kvcache", {"buckets"}},
      {"chainrepl", {"replicas"}},
      {"classify", {"classes", "features"}},
      {"lpm", {"prefixes", "default_route"}},
      {"pfabric", {"cap", "quantum"}},
  };
  const auto it = names.find(kind);
  return it == names.end() ? nullptr : &it->second;
}

std::unique_ptr<Stage> make_stage(const StageSpec& spec, std::uint64_t seed) {
  // The double->unsigned casts below are UB for negative or non-finite
  // spec values, and the sketch/table dimensions are modulo divisors
  // (mod-by-zero): reject out-of-domain values as spec errors instead of
  // letting them wrap or trap.
  const auto checked = [&spec](const char* name, double v, double min) {
    if (!(v >= min) || v > 1e15) {
      throw std::invalid_argument(
          "stage '" + spec.kind + "': parameter '" + name + "' must be " +
          (min >= 1.0 ? "a positive integer" : "a non-negative number") +
          " (got " + std::to_string(v) + ")");
    }
    return v;
  };
  const auto u = [&checked](const char* name, double v) {
    return static_cast<std::uint64_t>(checked(name, v, 0.0));
  };
  const auto z = [&checked](const char* name, double v) {
    return static_cast<std::size_t>(checked(name, v, 0.0));
  };
  const auto zpos = [&checked](const char* name, double v) {
    return static_cast<std::size_t>(checked(name, v, 1.0));
  };
  if (spec.kind == "firewall") {
    return std::make_unique<FirewallStage>(
        z("rules", spec.param(0, "rules", 128)),
        spec.param(1, "strict", 0) != 0, seed);
  }
  if (spec.kind == "ipsec") {
    return std::make_unique<IpsecStage>(
        static_cast<std::uint32_t>(
            checked("batch", spec.param(0, "batch", 8), 1.0)),
        seed);
  }
  if (spec.kind == "ratelimit") {
    return std::make_unique<RatelimitStage>(
        checked("rate", spec.param(0, "rate", 1e9), 0.0),
        u("burst", spec.param(1, "burst", 16 * KiB)),
        z("cap", spec.param(2, "cap", 256)));
  }
  if (spec.kind == "maglev") {
    return std::make_unique<MaglevStage>(
        zpos("backends", spec.param(0, "backends", 8)),
        zpos("table", spec.param(1, "table", 4093)));
  }
  if (spec.kind == "counter") {
    return std::make_unique<CounterStage>(
        zpos("width", spec.param(0, "width", 2048)),
        zpos("depth", spec.param(1, "depth", 4)), seed);
  }
  if (spec.kind == "kvcache") {
    return std::make_unique<KvCacheStage>(
        zpos("buckets", spec.param(0, "buckets", 4096)));
  }
  if (spec.kind == "chainrepl") {
    return std::make_unique<ChainReplStage>(
        zpos("replicas", spec.param(0, "replicas", 2)));
  }
  if (spec.kind == "classify") {
    return std::make_unique<ClassifyStage>(
        zpos("classes", spec.param(0, "classes", 4)),
        z("features", spec.param(1, "features", 16)), seed);
  }
  if (spec.kind == "lpm") {
    return std::make_unique<LpmStage>(
        z("prefixes", spec.param(0, "prefixes", 256)),
        spec.param(1, "default_route", 1) != 0, seed);
  }
  if (spec.kind == "pfabric") {
    return std::make_unique<PfabricStage>(
        z("cap", spec.param(0, "cap", 64)),
        zpos("quantum", spec.param(1, "quantum", 8)));
  }
  throw std::invalid_argument("unknown stage kind '" + spec.kind +
                              "' (known: firewall ipsec ratelimit maglev "
                              "counter kvcache chainrepl classify lpm pfabric)");
}

}  // namespace ipipe::nfp
