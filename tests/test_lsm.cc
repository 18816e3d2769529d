#include <gtest/gtest.h>

#include <map>

#include "apps/rkv/lsm.h"
#include "apps/rkv/skiplist.h"
#include "common/rng.h"
#include "fake_env.h"

namespace ipipe::rkv {
namespace {

std::vector<std::uint8_t> val(const std::string& s) {
  return {s.begin(), s.end()};
}

std::vector<SstEntry> sorted_entries(
    std::initializer_list<std::pair<std::string, std::string>> kvs) {
  std::vector<SstEntry> entries;
  for (const auto& [k, v] : kvs) entries.push_back({k, val(v), false});
  std::sort(entries.begin(), entries.end(),
            [](const SstEntry& a, const SstEntry& b) { return a.key < b.key; });
  return entries;
}

TEST(SsTable, BinarySearchLookup) {
  SsTable table(sorted_entries({{"a", "1"}, {"c", "3"}, {"e", "5"}}));
  SsTable::LookupStats stats;
  const auto* e = table.get("c", &stats);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->value, val("3"));
  EXPECT_GT(stats.probes, 0u);
  EXPECT_EQ(table.get("b"), nullptr);
  EXPECT_EQ(table.get("z"), nullptr);
}

TEST(LsmTree, NewestTableWinsInL0) {
  LsmTree lsm;
  lsm.add_l0(sorted_entries({{"k", "old"}}));
  lsm.add_l0(sorted_entries({{"k", "new"}}));
  EXPECT_EQ(lsm.get("k").value(), val("new"));
}

TEST(LsmTree, TombstoneHidesOlderValue) {
  LsmTree lsm;
  lsm.add_l0(sorted_entries({{"k", "value"}}));
  std::vector<SstEntry> del{{"k", {}, true}};
  lsm.add_l0(std::move(del));
  EXPECT_FALSE(lsm.get("k").has_value());
}

TEST(LsmTree, CompactionPreservesData) {
  LsmTree::Config cfg;
  cfg.level0_bytes = 512;
  cfg.level0_max_tables = 2;
  LsmTree lsm(cfg);
  std::map<std::string, std::string> oracle;
  Rng rng(10);
  for (int batch = 0; batch < 30; ++batch) {
    std::vector<SstEntry> entries;
    for (int i = 0; i < 20; ++i) {
      const std::string k = "key" + std::to_string(rng.uniform_u64(200));
      const std::string v = "v" + std::to_string(batch) + "_" + std::to_string(i);
      entries.push_back({k, val(v), false});
    }
    std::sort(entries.begin(), entries.end(),
              [](const SstEntry& a, const SstEntry& b) { return a.key < b.key; });
    entries.erase(std::unique(entries.begin(), entries.end(),
                              [](const SstEntry& a, const SstEntry& b) {
                                return a.key == b.key;
                              }),
                  entries.end());
    for (const auto& e : entries) {
      oracle[e.key] = std::string(e.value.begin(), e.value.end());
    }
    lsm.add_l0(std::move(entries));
    lsm.maybe_compact();
  }
  EXPECT_GT(lsm.compactions(), 0u);
  for (const auto& [k, v] : oracle) {
    const auto got = lsm.get(k);
    ASSERT_TRUE(got.has_value()) << k;
    EXPECT_EQ(*got, val(v)) << k;
  }
}

TEST(LsmTree, CompactionDropsTombstonesAtBottom) {
  LsmTree::Config cfg;
  cfg.level0_bytes = 64;
  cfg.level0_max_tables = 1;
  cfg.max_levels = 3;
  LsmTree lsm(cfg);
  lsm.add_l0(sorted_entries({{"a", "1"}, {"b", "2"}}));
  std::vector<SstEntry> del{{"a", {}, true}};
  lsm.add_l0(std::move(del));
  lsm.maybe_compact();
  EXPECT_FALSE(lsm.get("a").has_value());
  EXPECT_TRUE(lsm.get("b").has_value());
}

TEST(MergeRuns, NewestWinsDedup) {
  const std::vector<SstEntry> newer{{"a", val("new"), false},
                                    {"b", val("b1"), false}};
  const std::vector<SstEntry> older{{"a", val("old"), false},
                                    {"c", val("c1"), false}};
  const auto merged = merge_runs({&newer, &older}, false);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].key, "a");
  EXPECT_EQ(merged[0].value, val("new"));
  EXPECT_EQ(merged[1].key, "b");
  EXPECT_EQ(merged[2].key, "c");
}

TEST(LsmTree, GetStatsCountProbes) {
  LsmTree lsm;
  std::vector<SstEntry> entries;
  for (int i = 0; i < 100; ++i) {
    entries.push_back({"key" + std::to_string(1000 + i), val("v"), false});
  }
  std::sort(entries.begin(), entries.end(),
            [](const SstEntry& a, const SstEntry& b) { return a.key < b.key; });
  lsm.add_l0(std::move(entries));
  LsmTree::GetStats stats;
  EXPECT_TRUE(lsm.get("key1050", &stats).has_value());
  EXPECT_GE(stats.probes, 5u);
  EXPECT_EQ(stats.tables_probed, 1u);
}

// ------------------------------------------------ snapshot scanners --

TEST(LsmScanner, MergesLevelsNewestWinsAndSkipsTombstones) {
  LsmTree lsm;
  lsm.add_l0(sorted_entries({{"a", "old"}, {"b", "b1"}, {"d", "d1"}}));
  std::vector<SstEntry> newer{{"a", val("new"), false}, {"d", {}, true}};
  lsm.add_l0(std::move(newer));

  auto scan = lsm.scan();
  ASSERT_TRUE(scan.valid());
  EXPECT_EQ(scan.key(), "a");
  EXPECT_EQ(scan.value(), val("new"));
  scan.next();
  ASSERT_TRUE(scan.valid());
  EXPECT_EQ(scan.key(), "b");
  scan.next();
  EXPECT_FALSE(scan.valid());  // "d" is deleted

  auto sought = lsm.scan();
  sought.seek("b");
  ASSERT_TRUE(sought.valid());
  EXPECT_EQ(sought.key(), "b");
  sought.seek("c");
  EXPECT_FALSE(sought.valid());  // only the tombstoned "d" remains
}

TEST(LsmScanner, StaysValidAcrossMidScanCompaction) {
  // Regression: a scan pins its tables, so a compaction that rewrites
  // every level mid-scan must not invalidate the iterator or change
  // what it observes.  The churn's merges are mixed: the scanner pins
  // the tables it started with, not the ones added mid-scan, so the
  // merge moves entries out of some inputs and copies from others.
  LsmTree::Config cfg;
  cfg.level0_bytes = 256;
  cfg.level0_max_tables = 2;
  LsmTree lsm(cfg);
  std::map<std::string, std::string> oracle;
  for (int batch = 0; batch < 9; ++batch) {
    std::vector<SstEntry> entries;
    for (int i = 0; i < 16; ++i) {
      const std::string k =
          "key" + std::to_string(100 + batch * 16 + i);
      entries.push_back({k, val("b" + std::to_string(batch)), false});
      oracle[k] = "b" + std::to_string(batch);
    }
    std::sort(entries.begin(), entries.end(),
              [](const SstEntry& a, const SstEntry& b) {
                return a.key < b.key;
              });
    lsm.add_l0(std::move(entries));
    if (batch < 8) lsm.maybe_compact();  // the last batch stays in L0
  }
  // Pinned tables on both levels the first churn merge reads.
  ASSERT_GT(lsm.tables_at(0), 0u);
  ASSERT_GT(lsm.tables_at(1), 0u);

  auto scan = lsm.scan();
  auto expect = oracle.begin();
  std::size_t seen = 0;
  bool churned = false;
  while (scan.valid()) {
    ASSERT_NE(expect, oracle.end());
    EXPECT_EQ(scan.key(), expect->first);
    EXPECT_EQ(scan.value(), val(expect->second));
    if (seen == oracle.size() / 2) {
      // Mid-scan: force a full compaction churn underneath the scanner
      // (new batches shadowing every key, then merges).
      for (int batch = 0; batch < 6; ++batch) {
        std::vector<SstEntry> entries;
        for (int i = 0; i < 16; ++i) {
          const std::string k =
              "key" + std::to_string(100 + batch * 16 + i);
          entries.push_back({k, val("post-scan"), false});
        }
        std::sort(entries.begin(), entries.end(),
                  [](const SstEntry& a, const SstEntry& b) {
                    return a.key < b.key;
                  });
        lsm.add_l0(std::move(entries));
      }
      churned = lsm.maybe_compact() > 0;
    }
    scan.next();
    ++expect;
    ++seen;
  }
  EXPECT_EQ(seen, oracle.size());
  EXPECT_TRUE(churned) << "compaction never ran; test exercises nothing";
  // The tree holds every key's newest value, whether the merge moved it
  // out of an unpinned table or copied it from a pinned one.
  for (int batch = 0; batch < 6; ++batch) {
    for (int i = 0; i < 16; ++i) {
      oracle["key" + std::to_string(100 + batch * 16 + i)] = "post-scan";
    }
  }
  auto fresh = lsm.scan();
  for (const auto& [key, value] : oracle) {
    ASSERT_TRUE(fresh.valid());
    EXPECT_EQ(fresh.key(), key);
    EXPECT_EQ(fresh.value(), val(value));
    EXPECT_EQ(lsm.get(key), val(value)) << key;
    fresh.next();
  }
  EXPECT_FALSE(fresh.valid());
}

// ----------------------------------- memtable flush regression paths --

/// Flush the skip-list memtable into L0 the way FlushActor does:
/// in-order scan -> sorted run -> add_l0 -> clear.
void flush_memtable(test::FakeEnv& env, DmoSkipList& mem, LsmTree& lsm) {
  std::vector<SstEntry> entries;
  for (auto& [key, value, tombstone] : mem.scan_all(env)) {
    entries.push_back({key, std::move(value), tombstone});
  }
  lsm.add_l0(std::move(entries));
  mem.clear(env);
  lsm.maybe_compact();
}

TEST(LsmFlush, GetAfterDeleteAfterReinsertAcrossFlushes) {
  // Regression: put / flush / delete / flush / reinsert / flush must
  // resolve to the reinserted value no matter how the runs compact.
  test::FakeEnv env;
  DmoSkipList mem;
  mem.create(env);
  LsmTree::Config cfg;
  cfg.level0_max_tables = 1;  // compact eagerly: worst case for ordering
  LsmTree lsm(cfg);

  const auto v1 = val("first");
  const auto v2 = val("second");
  ASSERT_TRUE(mem.insert(env, "k", v1));
  flush_memtable(env, mem, lsm);
  EXPECT_EQ(lsm.get("k"), std::optional(v1));

  ASSERT_TRUE(mem.insert(env, "k", {}, /*tombstone=*/true));
  flush_memtable(env, mem, lsm);
  EXPECT_FALSE(lsm.get("k").has_value());

  ASSERT_TRUE(mem.insert(env, "k", v2));
  flush_memtable(env, mem, lsm);
  EXPECT_EQ(lsm.get("k"), std::optional(v2));

  // The scanner agrees with point lookups.
  auto scan = lsm.scan();
  ASSERT_TRUE(scan.valid());
  EXPECT_EQ(scan.key(), "k");
  EXPECT_EQ(scan.value(), v2);
}

TEST(LsmFlush, DeleteStaysDeletedThroughCompactionToBottom) {
  test::FakeEnv env;
  DmoSkipList mem;
  mem.create(env);
  LsmTree::Config cfg;
  cfg.level0_max_tables = 1;
  LsmTree lsm(cfg);

  ASSERT_TRUE(mem.insert(env, "gone", val("v")));
  ASSERT_TRUE(mem.insert(env, "kept", val("w")));
  flush_memtable(env, mem, lsm);
  ASSERT_TRUE(mem.insert(env, "gone", {}, /*tombstone=*/true));
  flush_memtable(env, mem, lsm);

  EXPECT_FALSE(lsm.get("gone").has_value());
  EXPECT_TRUE(lsm.get("kept").has_value());
  // Fully merged: the tombstone and the value it shadows are both gone.
  auto scan = lsm.scan();
  ASSERT_TRUE(scan.valid());
  EXPECT_EQ(scan.key(), "kept");
  scan.next();
  EXPECT_FALSE(scan.valid());
}

}  // namespace
}  // namespace ipipe::rkv
