// RKV wire formats and the Paxos log container.
//
// The write path decodes payloads as views and forwards stored op bytes
// instead of re-encoding them, so every frame it builds is compared here
// with reference encoders kept from the owning-copy implementation (a
// decode into fresh vectors and a re-encode through a growing Writer).
// A seeded mutation loop holds every view decoder to "nullopt or a view
// inside the input", and the log tests pin the slot-indexed log's size,
// promise and catch-up contents on a log with holes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/rkv/rkv_actors.h"
#include "apps/rkv/rkv_messages.h"
#include "common/rng.h"
#include "fake_env.h"

namespace ipipe {
namespace {

using Buf = std::vector<std::uint8_t>;

// ------------------------------------------------ reference encoders --
//
// The byte layouts as the owning implementation produced them: fields
// appended one by one to a buffer that grows from empty.
namespace ref {

struct Writer {
  Buf buf;
  template <typename T>
  Writer& put(T value) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
    buf.insert(buf.end(), p, p + sizeof(T));
    return *this;
  }
  Writer& put_str(const std::string& s) {
    put(static_cast<std::uint16_t>(s.size()));
    buf.insert(buf.end(), s.begin(), s.end());
    return *this;
  }
  Writer& put_bytes(const Buf& b) {
    put(static_cast<std::uint32_t>(b.size()));
    buf.insert(buf.end(), b.begin(), b.end());
    return *this;
  }
};

Writer& put_route(Writer& w, const rkv::ReplyTo& r) {
  return w.put(r.node).put(r.actor).put(r.request_id).put(r.created_at);
}

Buf op(rkv::Op op, const rkv::ReplyTo& reply, const std::string& key,
       const Buf& value) {
  Writer w;
  w.put(static_cast<std::uint8_t>(op));
  put_route(w, reply);
  w.put_str(key).put_bytes(value);
  return w.buf;
}

Buf paxos(std::uint64_t ballot, std::uint64_t slot, const Buf& value) {
  Writer w;
  w.put(ballot).put(slot).put(std::uint64_t{0}).put_bytes(value);
  return w.buf;
}

Buf client_reply(rkv::Status status, const Buf& value = {}) {
  Writer w;
  w.put(static_cast<std::uint8_t>(status)).put_bytes(value);
  return w.buf;
}

Buf key_read(const rkv::ReplyTo& reply, const std::string& key) {
  Writer w;
  put_route(w, reply);
  w.put_str(key);
  return w.buf;
}

/// What the apply path sent to the memtable: the stored op decoded into
/// owned fields and re-encoded, with a blank route on a follower.
Buf apply(const Buf& stored, bool leader) {
  wire::Reader r(stored);
  std::uint8_t code = 0;
  rkv::ReplyTo reply;
  std::string key;
  Buf value;
  EXPECT_TRUE(r.get(code) && rkv::ReplyTo::decode(r, reply) &&
              r.get_str(key) && r.get_bytes(value));
  if (!leader) reply = rkv::ReplyTo{};
  return op(static_cast<rkv::Op>(code), reply, key, value);
}

}  // namespace ref

netsim::Packet packet(netsim::NodeId src, ActorId src_actor,
                      std::uint16_t type, Buf payload) {
  netsim::Packet pkt;
  pkt.src = src;
  pkt.src_actor = src_actor;
  pkt.msg_type = type;
  pkt.payload = std::move(payload);
  return pkt;
}

/// Take every frame sent so far (the handler under test is done with
/// them, so delivering one cannot invalidate another).
std::vector<test::FakeEnv::Sent> drain(test::FakeEnv& env) {
  return std::exchange(env.sent, {});
}

constexpr ActorId kConsensus = 7;
constexpr ActorId kMemtable = 9;
constexpr ActorId kSstRead = 11;
constexpr ActorId kCompaction = 12;

rkv::RkvParams group_params(std::size_t self) {
  rkv::RkvParams params;
  params.replicas = {0, 1, 2};
  params.self_index = self;
  params.peer_consensus_actor = kConsensus;
  return params;
}

Buf value_of(std::size_t len, std::uint8_t seed) {
  Buf v(len);
  for (std::size_t i = 0; i < len; ++i) {
    v[i] = static_cast<std::uint8_t>(seed + i * 7);
  }
  return v;
}

// ------------------------------------------------- payload pinning --

TEST(RkvWire, PutPathPayloadsMatchReference) {
  rkv::ConsensusActor leader(group_params(0), kMemtable);
  rkv::ConsensusActor follower(group_params(1), kMemtable);
  test::FakeEnv lenv(kConsensus);
  test::FakeEnv fenv(kConsensus);
  const std::uint64_t ballot = 3;  // replicas.size() + self_index 0

  const std::string key = "key0000000000042";
  const Buf value = value_of(448, 5);
  const rkv::ReplyTo route{100, 5, 42, 1234};
  netsim::Packet put = packet(100, 5, rkv::kClientPut,
                              rkv::ClientReq{rkv::Op::kPut, key, value}.encode());
  put.request_id = 42;
  put.created_at = 1234;
  leader.handle(lenv, put);

  // Accept: one frame per peer, identical bytes.
  const Buf op = ref::op(rkv::Op::kPut, route, key, value);
  auto accepts = drain(lenv);
  ASSERT_EQ(accepts.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(accepts[i].node, i + 1);
    EXPECT_EQ(accepts[i].actor, kConsensus);
    EXPECT_EQ(accepts[i].type, rkv::kPaxosAccept);
    EXPECT_EQ(accepts[i].payload, ref::paxos(ballot, 0, op));
  }

  // Accepted: the follower's ack.
  follower.handle(fenv, packet(0, kConsensus, rkv::kPaxosAccept,
                               accepts[0].payload));
  auto acked = drain(fenv);
  ASSERT_EQ(acked.size(), 1u);
  EXPECT_EQ(acked[0].type, rkv::kPaxosAccepted);
  EXPECT_EQ(acked[0].payload, ref::paxos(ballot, 0, {}));

  // Learn broadcast, then the leader's apply (route intact).
  leader.handle(lenv, packet(1, kConsensus, rkv::kPaxosAccepted,
                             acked[0].payload));
  auto chosen = drain(lenv);
  ASSERT_EQ(chosen.size(), 3u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(chosen[i].type, rkv::kPaxosLearn);
    EXPECT_EQ(chosen[i].node, i + 1);
    EXPECT_EQ(chosen[i].payload, ref::paxos(ballot, 0, op));
  }
  EXPECT_TRUE(chosen[2].is_local);
  EXPECT_EQ(chosen[2].actor, kMemtable);
  EXPECT_EQ(chosen[2].type, rkv::kApplyOp);
  EXPECT_EQ(chosen[2].payload, ref::apply(op, /*leader=*/true));
  EXPECT_EQ(chosen[2].payload, op);

  // The follower's apply carries a blank route.
  follower.handle(fenv, packet(0, kConsensus, rkv::kPaxosLearn,
                               chosen[0].payload));
  auto applied = drain(fenv);
  ASSERT_EQ(applied.size(), 1u);
  EXPECT_EQ(applied[0].type, rkv::kApplyOp);
  EXPECT_EQ(applied[0].payload, ref::apply(op, /*leader=*/false));

  // The leader's memtable acks the client.
  rkv::MemtableActor mem(group_params(0), kSstRead, kCompaction);
  test::FakeEnv menv(kMemtable);
  mem.init(menv);
  mem.handle(menv, packet(0, kConsensus, rkv::kApplyOp, chosen[2].payload));
  auto replies = drain(menv);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].type, rkv::kClientReply);
  EXPECT_EQ(replies[0].node, 100u);
  EXPECT_EQ(replies[0].actor, 5u);
  EXPECT_EQ(replies[0].request_id, 42u);
  EXPECT_EQ(replies[0].payload, ref::client_reply(rkv::Status::kOk));

  // A follower's apply replies to nobody.
  mem.handle(menv, packet(0, kConsensus, rkv::kApplyOp, applied[0].payload));
  EXPECT_TRUE(drain(menv).empty());

  // Reads: a hit replies with the value, a miss forwards to the host.
  const rkv::ReplyTo reader{101, 6, 43, 99};
  mem.handle(menv, packet(0, kConsensus, rkv::kMemGet,
                          ref::key_read(reader, key)));
  auto hit = drain(menv);
  ASSERT_EQ(hit.size(), 1u);
  EXPECT_EQ(hit[0].payload, ref::client_reply(rkv::Status::kOk, value));
  mem.handle(menv, packet(0, kConsensus, rkv::kMemGet,
                          ref::key_read(reader, "key-not-present")));
  auto miss = drain(menv);
  ASSERT_EQ(miss.size(), 1u);
  EXPECT_EQ(miss[0].type, rkv::kSstGet);
  EXPECT_EQ(miss[0].actor, kSstRead);
  EXPECT_EQ(miss[0].payload, ref::key_read(reader, "key-not-present"));
}

TEST(RkvWire, ApplyForwardsOnlyTheParsedOp) {
  // An accepted value with bytes after the op: the apply carries the op
  // fields alone, as a decode and re-encode did.
  rkv::ConsensusActor follower(group_params(2), kMemtable);
  test::FakeEnv env(kConsensus);
  Buf stored = ref::op(rkv::Op::kDel, {100, 5, 77, 1}, "gone", {});
  const Buf op = stored;
  stored.insert(stored.end(), {0xDE, 0xAD, 0xBE});
  follower.handle(env, packet(0, kConsensus, rkv::kPaxosLearn,
                              ref::paxos(3, 0, stored)));
  auto sent = drain(env);
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].type, rkv::kApplyOp);
  EXPECT_EQ(sent[0].payload, ref::apply(op, /*leader=*/false));
}

TEST(RkvWire, FlushBatchMatchesReference) {
  // Fill a memtable past a small flush threshold with puts, overwrites
  // and a delete; the flush payload must equal the scan-then-encode
  // bytes: entries in key order, newest value, tombstone flag.
  rkv::RkvParams params = group_params(0);
  params.memtable_flush_bytes = 8 * 1024;
  rkv::MemtableActor mem(params, kSstRead, kCompaction);
  test::FakeEnv env(kMemtable);
  mem.init(env);

  std::map<std::string, std::pair<Buf, bool>> model;
  Rng rng(2024);
  Buf batch;
  std::size_t applied = 0;
  for (int i = 0; batch.empty(); ++i, ++applied) {
    ASSERT_LT(i, 10'000) << "memtable never flushed";
    char key[17];
    std::snprintf(key, sizeof key, "%016llx",
                  static_cast<unsigned long long>(rng.uniform_u64(40)));
    const bool del = rng.uniform_u64(8) == 0;
    const Buf value = del ? Buf{} : value_of(1 + rng.uniform_u64(600),
                                             static_cast<std::uint8_t>(i));
    model[key] = {value, del};
    mem.handle(env, packet(0, kConsensus, rkv::kApplyOp,
                           ref::op(del ? rkv::Op::kDel : rkv::Op::kPut,
                                   rkv::ReplyTo{}, key, value)));
    for (auto& s : drain(env)) {
      if (s.type == rkv::kFlushBatch) {
        EXPECT_EQ(s.actor, kCompaction);
        batch = std::move(s.payload);
      }
    }
  }
  ASSERT_GT(applied, model.size()) << "no overwrite exercised";
  ASSERT_TRUE(std::any_of(model.begin(), model.end(),
                          [](const auto& kv) { return kv.second.second; }))
      << "no tombstone exercised";
  ref::Writer w;
  w.put(static_cast<std::uint32_t>(model.size()));
  for (const auto& [key, entry] : model) {
    w.put(static_cast<std::uint8_t>(entry.second ? 1 : 0));
    w.put_str(key).put_bytes(entry.first);
  }
  EXPECT_EQ(batch, w.buf);
  EXPECT_EQ(mem.list().size(), 0u);
}

TEST(RkvWire, EncodersMatchReference) {
  const std::string key = "k";
  const Buf value = value_of(33, 1);
  const rkv::ReplyTo route{1, 2, 3, 4};
  EXPECT_EQ(rkv::OpView::encode(rkv::Op::kPut, route, key, value),
            ref::op(rkv::Op::kPut, route, key, value));
  EXPECT_EQ(rkv::KeyReadView::encode(route, key), ref::key_read(route, key));
  EXPECT_EQ((rkv::PaxosMsg{9, 8, 0, value}.encode()), ref::paxos(9, 8, value));
  EXPECT_EQ((rkv::ClientReply{rkv::Status::kNotFound, value}.encode()),
            ref::client_reply(rkv::Status::kNotFound, value));
  ref::Writer w;
  w.put(static_cast<std::uint8_t>(rkv::Op::kGet)).put_str(key).put_bytes(value);
  EXPECT_EQ((rkv::ClientReq{rkv::Op::kGet, key, value}.encode()), w.buf);
}

// ------------------------------------------ view decoder mutation --

/// The view decoders, each reduced to the spans it returned.
struct Decoded {
  bool ok = false;
  std::vector<std::pair<const void*, std::size_t>> views;
  std::size_t size = 0;  ///< parsed prefix, when the format reports one
};

using Decoder = Decoded (*)(wire::Bytes);

Decoded decode_client_req(wire::Bytes b) {
  const auto v = rkv::ClientReqView::decode(b);
  if (!v) return {};
  return {true, {{v->key.data(), v->key.size()},
                 {v->value.data(), v->value.size()}}, 0};
}
Decoded decode_client_reply(wire::Bytes b) {
  const auto v = rkv::ClientReplyView::decode(b);
  if (!v) return {};
  return {true, {{v->value.data(), v->value.size()}}, 0};
}
Decoded decode_paxos(wire::Bytes b) {
  const auto v = rkv::PaxosView::decode(b);
  if (!v) return {};
  return {true, {{v->value.data(), v->value.size()}}, 0};
}
Decoded decode_op(wire::Bytes b) {
  const auto v = rkv::OpView::decode(b);
  if (!v) return {};
  return {true, {{v->key.data(), v->key.size()},
                 {v->value.data(), v->value.size()}}, v->size};
}
Decoded decode_key_read(wire::Bytes b) {
  const auto v = rkv::KeyReadView::decode(b);
  if (!v) return {};
  return {true, {{v->key.data(), v->key.size()}}, v->size};
}

void expect_inside(const Decoded& d, wire::Bytes input, const char* what) {
  if (!d.ok) return;
  const auto* lo = input.data();
  const auto* hi = input.data() + input.size();
  for (const auto& [ptr, len] : d.views) {
    if (len == 0) continue;
    const auto* p = static_cast<const std::uint8_t*>(ptr);
    EXPECT_TRUE(p >= lo && p + len <= hi) << what << ": view leaves input";
  }
  EXPECT_LE(d.size, input.size()) << what;
}

TEST(RkvWire, ViewDecodersSurviveTruncationAndBitFlips) {
  const rkv::ReplyTo route{3, 4, 5, 6};
  const Buf value = value_of(40, 9);
  const struct {
    const char* name;
    Decoder decode;
    Buf valid;
  } formats[] = {
      {"ClientReq", decode_client_req,
       rkv::ClientReq{rkv::Op::kPut, "key00001", value}.encode()},
      {"ClientReply", decode_client_reply,
       rkv::ClientReply{rkv::Status::kOk, value}.encode()},
      {"PaxosMsg", decode_paxos, rkv::PaxosMsg{1, 2, 3, value}.encode()},
      {"Op", decode_op,
       rkv::OpView::encode(rkv::Op::kPut, route, "key00001", value)},
      {"KeyRead", decode_key_read, rkv::KeyReadView::encode(route, "key1")},
  };
  Rng rng(0x5EED);
  for (const auto& f : formats) {
    ASSERT_TRUE(f.decode(f.valid).ok) << f.name;
    // Every strict prefix lacks bytes of its last field.  Each input is
    // its own exact-size allocation, so an overread is an ASan error.
    for (std::size_t len = 0; len < f.valid.size(); ++len) {
      const Buf cut(f.valid.begin(),
                    f.valid.begin() + static_cast<std::ptrdiff_t>(len));
      const Decoded d = f.decode(cut);
      EXPECT_FALSE(d.ok) << f.name << " prefix " << len;
      expect_inside(d, cut, f.name);
    }
    for (int round = 0; round < 2000; ++round) {
      Buf mutant = f.valid;
      const auto flips = 1 + rng.uniform_u64(4);
      for (std::uint64_t i = 0; i < flips; ++i) {
        const auto bit = rng.uniform_u64(mutant.size() * 8);
        mutant[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      }
      if (rng.bernoulli(0.3)) mutant.resize(rng.uniform_u64(mutant.size() + 1));
      expect_inside(f.decode(mutant), mutant, f.name);
    }
  }
}

// --------------------------------------------- length prefix limits --

TEST(Wire, OverLongFieldsAreRejected) {
  const std::string longest(std::numeric_limits<std::uint16_t>::max(), 'k');
  wire::Writer w;
  w.put_str(longest);
  const Buf frame = w.take();
  wire::Reader r(frame);
  std::string_view back;
  ASSERT_TRUE(r.get_str(back));
  EXPECT_EQ(back.size(), longest.size());
  EXPECT_TRUE(r.done());

  // One byte more does not fit the u16 prefix: a silent truncation of
  // the length would make the reader misparse every later field.
  wire::Writer over;
  EXPECT_THROW(over.put_str(longest + "k"), std::length_error);
  EXPECT_EQ(over.size(), 0u);
  EXPECT_THROW((void)(rkv::ClientReq{rkv::Op::kPut, longest + "k", {}}.encode()),
               std::length_error);
}

// ------------------------------------------------- log with holes --
//
// A follower that missed accepts has holes; learns fill some of them.
// The expected values are the ones the std::map log produced.

std::uint64_t fnv1a(const Buf& bytes, std::uint64_t h = 0xcbf29ce484222325ULL) {
  for (const auto b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The log's entry count, read from the working set a handler charges
/// (log size * 96 B, at least 4096).
std::uint64_t log_entries(rkv::ConsensusActor& actor, test::FakeEnv& env) {
  actor.handle(env, packet(0, kConsensus, rkv::kHeartbeatAck,
                           rkv::PaxosMsg{0, 0, 0, {}}.encode()));
  drain(env);
  return env.last_mem_ws() / 96;
}

TEST(RkvLog, HolesKeepMapSemantics) {
  rkv::ConsensusActor follower(group_params(1), kMemtable);
  test::FakeEnv fenv(kConsensus);
  const auto op_at = [](std::uint64_t slot) {
    return ref::op(rkv::Op::kPut, {100, 5, slot + 1, 0},
                   "key" + std::to_string(1000 + slot),
                   value_of(8 + slot % 5, static_cast<std::uint8_t>(slot)));
  };
  // Accepts for slots 0..99 except s % 7 == 3 (missed).
  for (std::uint64_t s = 0; s < 100; ++s) {
    if (s % 7 == 3) continue;
    follower.handle(fenv, packet(0, kConsensus, rkv::kPaxosAccept,
                                 ref::paxos(3, s, op_at(s))));
  }
  // Learns for 0..49 except 30: the holes below 50 fill in.
  for (std::uint64_t s = 0; s < 50; ++s) {
    if (s == 30) continue;
    follower.handle(fenv, packet(0, kConsensus, rkv::kPaxosLearn,
                                 ref::paxos(3, s, op_at(s))));
  }
  drain(fenv);
  EXPECT_EQ(follower.next_apply(), 30u);
  EXPECT_EQ(follower.chosen_count(), 49u);
  EXPECT_EQ(follower.next_slot(), 100u);
  EXPECT_EQ(log_entries(follower, fenv), 93u);  // 86 accepted + 7 filled

  // Catch-up batches stop at the first absent or unchosen slot.
  const auto catchup = [&](std::uint64_t from) {
    follower.handle(fenv, packet(2, kConsensus, rkv::kCatchupReq,
                                 ref::paxos(3, from, {})));
    auto sent = drain(fenv);
    EXPECT_EQ(sent.size(), 1u);
    EXPECT_EQ(fenv.last_mem_ws(), 93u * 96);
    return sent.empty() ? Buf{} : sent[0].payload;
  };
  const auto batch_slots = [](const Buf& payload) {
    std::vector<std::uint64_t> slots;
    const auto m = rkv::CatchupMsg::decode(payload);
    EXPECT_TRUE(m.has_value());
    if (m) {
      EXPECT_EQ(m->watermark, 30u);
      for (const auto& e : m->entries) slots.push_back(e.slot);
    }
    return slots;
  };
  const Buf from0 = catchup(0);
  const Buf from31 = catchup(31);
  const Buf from52 = catchup(52);
  EXPECT_EQ(batch_slots(from0).size(), 30u);
  EXPECT_EQ(batch_slots(from31).size(), 19u);
  EXPECT_TRUE(batch_slots(from52).empty());
  EXPECT_EQ(fnv1a(from52, fnv1a(from31, fnv1a(from0))),
            0x1864f0314f85c849ULL);

  // Promise to a candidate (node 2, ballot 5): every present slot at or
  // above its watermark, ascending.
  follower.handle(fenv, packet(2, kConsensus, rkv::kPaxosPrepare,
                               ref::paxos(5, 20, {})));
  auto promised = drain(fenv);
  ASSERT_EQ(promised.size(), 1u);
  EXPECT_EQ(promised[0].type, rkv::kPaxosPromise);
  EXPECT_EQ(fenv.last_mem_ws(), 93u * 96);
  const auto promise = rkv::PromiseMsg::decode(promised[0].payload);
  ASSERT_TRUE(promise.has_value());
  std::vector<std::uint64_t> want;
  for (std::uint64_t s = 20; s < 100; ++s) {
    if (s % 7 != 3 || s < 50) want.push_back(s);
  }
  std::vector<std::uint64_t> got;
  for (const auto& e : promise->accepted) got.push_back(e.slot);
  EXPECT_EQ(got, want);
  EXPECT_EQ(promise->next_slot, 100u);
  EXPECT_EQ(fnv1a(promised[0].payload), 0x7ca5819190dabd98ULL);

  // The candidate adopts the promised entries (holes at 0..19 and at
  // the missed slots above 50), wins, and re-drives 0..99: the holes
  // become present no-ops.
  rkv::ConsensusActor candidate(group_params(2), kMemtable);
  test::FakeEnv cenv(kConsensus);
  netsim::Packet trigger;
  trigger.msg_type = rkv::ConsensusActor::kElectTrigger;
  candidate.handle(cenv, trigger);
  ASSERT_EQ(candidate.ballot(), 5u);
  drain(cenv);
  candidate.handle(cenv, packet(1, kConsensus, rkv::kPaxosPromise,
                                promised[0].payload));
  ASSERT_TRUE(candidate.is_leader());
  auto redrive = drain(cenv);
  EXPECT_EQ(redrive.size(), 200u);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& s : redrive) {
    EXPECT_EQ(s.type, rkv::kPaxosAccept);
    h = fnv1a(s.payload, h);
  }
  EXPECT_EQ(h, 0xceca9ccbdad4b471ULL);
  EXPECT_EQ(log_entries(candidate, cenv), 100u);
}

}  // namespace
}  // namespace ipipe
