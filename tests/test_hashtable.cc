#include <gtest/gtest.h>

#include <unordered_map>

#include "apps/common/wire.h"
#include "apps/dt/dt_actors.h"
#include "apps/dt/hashtable.h"
#include "fake_env.h"

namespace ipipe::dt {
namespace {

std::vector<std::uint8_t> val(const std::string& s) {
  return {s.begin(), s.end()};
}

TEST(DmoHashTable, PutGetRoundTrip) {
  test::FakeEnv env;
  DmoHashTable table;
  table.create(env);
  EXPECT_TRUE(table.put(env, "alpha", val("1")));
  EXPECT_TRUE(table.put(env, "beta", val("2")));
  const auto a = table.get(env, "alpha");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->value, val("1"));
  EXPECT_EQ(a->version, 1u);
  EXPECT_FALSE(a->locked);
  EXPECT_FALSE(table.get(env, "gamma").has_value());
}

TEST(DmoHashTable, VersionBumpsOnUpdate) {
  test::FakeEnv env;
  DmoHashTable table;
  table.create(env);
  EXPECT_TRUE(table.put(env, "k", val("v1")));
  EXPECT_TRUE(table.put(env, "k", val("v2")));
  EXPECT_TRUE(table.put(env, "k", val("v3")));
  const auto r = table.get(env, "k");
  EXPECT_EQ(r->version, 3u);
  EXPECT_EQ(r->value, val("v3"));
  EXPECT_EQ(table.size(), 1u);
}

TEST(DmoHashTable, SplitsGrowDirectory) {
  test::FakeEnv env;
  DmoHashTable table;
  table.create(env, 1);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(table.put(env, "key" + std::to_string(i), val("v")))
        << "insert " << i;
  }
  EXPECT_EQ(table.size(), 500u);
  EXPECT_GT(table.splits(), 10u);
  EXPECT_GT(table.global_depth(), 3u);
  for (int i = 0; i < 500; ++i) {
    EXPECT_TRUE(table.get(env, "key" + std::to_string(i)).has_value()) << i;
  }
}

TEST(DmoHashTable, LockSemantics) {
  test::FakeEnv env;
  DmoHashTable table;
  table.create(env);
  EXPECT_TRUE(table.put(env, "k", val("v")));

  const auto v1 = table.lock(env, "k");
  ASSERT_TRUE(v1.has_value());
  EXPECT_EQ(*v1, 1u);
  // Second lock fails (phase-1 abort condition).
  EXPECT_FALSE(table.lock(env, "k").has_value());
  // A locked record is visible as locked to readers.
  EXPECT_TRUE(table.get(env, "k")->locked);

  EXPECT_TRUE(table.unlock(env, "k"));
  EXPECT_TRUE(table.lock(env, "k").has_value());
}

TEST(DmoHashTable, LockAbsentKeyCreatesPlaceholder) {
  test::FakeEnv env;
  DmoHashTable table;
  table.create(env);
  const auto v = table.lock(env, "new-key");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 0u);
  EXPECT_TRUE(table.get(env, "new-key")->locked);
}

TEST(DmoHashTable, CommitWritesBumpsAndUnlocks) {
  test::FakeEnv env;
  DmoHashTable table;
  table.create(env);
  EXPECT_TRUE(table.put(env, "k", val("old")));
  const auto locked = table.lock(env, "k");
  ASSERT_TRUE(locked.has_value());
  EXPECT_EQ(*locked, 1u);
  // The coordinator's target: one past the version the lock saw.
  EXPECT_TRUE(table.commit_at(env, "k", val("new"), *locked + 1));
  const auto r = table.get(env, "k");
  EXPECT_EQ(r->value, val("new"));
  EXPECT_EQ(r->version, 2u);
  EXPECT_FALSE(r->locked);
}

TEST(DtParticipant, CommitWithoutTargetIsDropped) {
  // The coordinator always appends the version target; a kCommit
  // without one is malformed: no write, no unlock, no ack.
  test::FakeEnv env;
  ParticipantActor part;
  part.init(env);
  auto msg = [](std::uint16_t type, std::vector<std::uint8_t> payload) {
    netsim::Packet pkt;
    pkt.src = 7;
    pkt.msg_type = type;
    pkt.payload = std::move(payload);
    return pkt;
  };
  auto head = [] {
    wire::Writer w;
    w.put(std::uint64_t{1}).put(std::uint8_t{0}).put_str("k");
    return w;
  };
  part.handle(env, msg(kLock, head().take()));
  ASSERT_EQ(part.locked_count(), 1u);
  const std::size_t sent = env.sent.size();

  part.handle(env, msg(kCommit, head().put_bytes(val("new")).take()));
  auto r = part.store().get(env, "k");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->version, 0u);
  EXPECT_TRUE(r->value.empty());
  EXPECT_TRUE(r->locked);
  EXPECT_EQ(part.locked_count(), 1u);
  EXPECT_EQ(env.sent.size(), sent);

  // The same commit with its target applies, unlocks and acks.
  part.handle(env, msg(kCommit, head()
                                    .put_bytes(val("new"))
                                    .put(std::uint32_t{1})
                                    .take()));
  r = part.store().get(env, "k");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->version, 1u);
  EXPECT_EQ(r->value, val("new"));
  EXPECT_FALSE(r->locked);
  EXPECT_EQ(part.locked_count(), 0u);
  ASSERT_EQ(env.sent.size(), sent + 1);
  EXPECT_EQ(env.sent.back().type, kCommitAck);
}

TEST(DmoHashTable, MatchesUnorderedMapOracle) {
  test::FakeEnv env;
  DmoHashTable table;
  table.create(env, 2);
  std::unordered_map<std::string, std::pair<std::string, std::uint32_t>> oracle;
  Rng rng(777);
  for (int op = 0; op < 4000; ++op) {
    const std::string key = "k" + std::to_string(rng.uniform_u64(400));
    if (rng.uniform() < 0.6) {
      const std::string value = "v" + std::to_string(rng.next() % 1000);
      ASSERT_TRUE(table.put(env, key, val(value)));
      auto& slot = oracle[key];
      slot.first = value;
      ++slot.second;
    } else {
      const auto got = table.get(env, key);
      const auto it = oracle.find(key);
      if (it == oracle.end()) {
        EXPECT_FALSE(got.has_value());
      } else {
        ASSERT_TRUE(got.has_value()) << key;
        EXPECT_EQ(got->value, val(it->second.first));
        EXPECT_EQ(got->version, it->second.second);
      }
    }
  }
  EXPECT_EQ(table.size(), oracle.size());
}

TEST(DmoHashTable, SurvivesMigration) {
  test::FakeEnv env;
  DmoHashTable table;
  table.create(env);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(table.put(env, "k" + std::to_string(i), val("v")));
  }
  env.table().migrate_all(1, MemSide::kHost);
  env.set_on_nic(false);
  for (int i = 0; i < 64; ++i) {
    EXPECT_TRUE(table.get(env, "k" + std::to_string(i)).has_value());
  }
  EXPECT_TRUE(table.put(env, "post", val("ok")));
}

TEST(DmoHashTable, RejectsOversizedValues) {
  test::FakeEnv env;
  DmoHashTable table;
  table.create(env);
  const std::vector<std::uint8_t> big(DmoHashTable::kInlineValue + 1, 0);
  EXPECT_FALSE(table.put(env, "k", big));
}

}  // namespace
}  // namespace ipipe::dt
