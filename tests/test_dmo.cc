#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "common/rng.h"
#include "ipipe/dmo.h"

namespace ipipe {
namespace {

TEST(RegionAllocator, AllocatesAlignedNonOverlapping) {
  RegionAllocator alloc(0x1000, 64 * 1024);
  std::map<std::uint64_t, std::uint64_t> live;
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const auto size = 1 + rng.uniform_u64(500);
    const auto addr = alloc.alloc(size);
    ASSERT_TRUE(addr.has_value());
    EXPECT_EQ(*addr % 16, 0u);
    // No overlap with any live allocation.
    for (const auto& [a, s] : live) {
      EXPECT_TRUE(*addr + size <= a || a + s <= *addr);
    }
    live[*addr] = size;
  }
}

TEST(RegionAllocator, ExhaustionAndReuse) {
  RegionAllocator alloc(0, 1024);
  const auto a = alloc.alloc(512);
  const auto b = alloc.alloc(512);
  ASSERT_TRUE(a && b);
  EXPECT_FALSE(alloc.alloc(16).has_value());
  EXPECT_TRUE(alloc.free(*a, 512));
  const auto c = alloc.alloc(256);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(*c, *a);
}

TEST(RegionAllocator, CoalescingRestoresFullBlock) {
  RegionAllocator alloc(0, 4096);
  std::vector<std::uint64_t> addrs;
  for (int i = 0; i < 8; ++i) addrs.push_back(*alloc.alloc(512));
  EXPECT_EQ(alloc.bytes_free(), 0u);
  // Free in interleaved order to exercise both coalescing directions.
  for (const int i : {1, 3, 5, 7, 0, 2, 4, 6}) {
    EXPECT_TRUE(alloc.free(addrs[static_cast<std::size_t>(i)], 512));
  }
  EXPECT_EQ(alloc.bytes_free(), 4096u);
  EXPECT_EQ(alloc.free_block_count(), 1u);
  EXPECT_EQ(alloc.largest_free_block(), 4096u);
}

TEST(RegionAllocator, DoubleFreeRejected) {
  RegionAllocator alloc(0, 1024);
  const auto a = alloc.alloc(100);
  EXPECT_TRUE(alloc.free(*a, 100));
  EXPECT_FALSE(alloc.free(*a, 100));
  EXPECT_FALSE(alloc.free(0xdeadbeef, 100));
}

TEST(RegionAllocator, FreeOutsideRegionOrOverlappingFreeSpaceRejected) {
  RegionAllocator alloc(0x1000, 1024);
  const auto a = alloc.alloc(64);
  const auto b = alloc.alloc(64);
  const auto c = alloc.alloc(64);
  ASSERT_TRUE(a && b && c);
  // Outside the region, or running past its end.
  EXPECT_FALSE(alloc.free(0x0ff0, 16));
  EXPECT_FALSE(alloc.free(0x1000 + 1024, 16));
  EXPECT_FALSE(alloc.free(0x1000 + 1008, 32));
  EXPECT_FALSE(alloc.free(0x1000, ~std::uint64_t{0} - 8));
  // The tail of the region was never allocated.
  EXPECT_FALSE(alloc.free(*c + 64, 16));
  // A double free of a block that has since coalesced with a neighbour.
  ASSERT_TRUE(alloc.free(*b, 64));
  ASSERT_TRUE(alloc.free(*a, 64));
  EXPECT_FALSE(alloc.free(*b, 64));
  EXPECT_FALSE(alloc.free(*a, 16));
  // A block straddling live and free space.
  EXPECT_FALSE(alloc.free(*c - 16, 32));
  EXPECT_EQ(alloc.bytes_used(), 64u);
  EXPECT_TRUE(alloc.free(*c, 64));
  EXPECT_EQ(alloc.free_block_count(), 1u);
}

TEST(RegionAllocator, FragmentationProbe) {
  RegionAllocator alloc(0, 16 * 1024);
  std::vector<std::uint64_t> addrs;
  for (int i = 0; i < 16; ++i) addrs.push_back(*alloc.alloc(1024));
  for (std::size_t i = 0; i < addrs.size(); i += 2) alloc.free(addrs[i], 1024);
  // Half free, but fragmented: no block bigger than 1KB.
  EXPECT_EQ(alloc.bytes_free(), 8 * 1024u);
  EXPECT_EQ(alloc.largest_free_block(), 1024u);
  EXPECT_FALSE(alloc.alloc(2048).has_value());
}

TEST(RegionAllocator, FreeListInvariantsHoldUnderChurn) {
  // Property test: after any interleaving of allocs and frees the free
  // list must stay sorted, fully coalesced (no adjacent blocks), and its
  // bookkeeping must agree with bytes_free()/largest_free_block().
  constexpr std::uint64_t kRegion = 64 * 1024;
  RegionAllocator alloc(0x4000, kRegion);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> live;  // addr, size
  Rng rng(99);
  for (int step = 0; step < 2000; ++step) {
    if (live.empty() || rng.bernoulli(0.6)) {
      const std::uint64_t size = 1 + rng.uniform_u64(700);
      const auto addr = alloc.alloc(size);
      if (addr) live.emplace_back(*addr, size);
    } else {
      const auto idx = static_cast<std::size_t>(
          rng.uniform_u64(live.size() - 1));
      ASSERT_TRUE(alloc.free(live[idx].first, live[idx].second));
      live[idx] = live.back();
      live.pop_back();
    }

    const auto blocks = alloc.free_blocks();
    std::uint64_t sum = 0;
    std::uint64_t largest = 0;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      ASSERT_GT(blocks[i].second, 0u);
      if (i > 0) {
        // Sorted and coalesced: strictly increasing with a gap between
        // consecutive blocks (adjacent free blocks must have merged).
        ASSERT_LT(blocks[i - 1].first + blocks[i - 1].second,
                  blocks[i].first);
      }
      sum += blocks[i].second;
      largest = std::max(largest, blocks[i].second);
    }
    ASSERT_EQ(sum, alloc.bytes_free());
    ASSERT_EQ(largest, alloc.largest_free_block());
    ASSERT_LE(alloc.largest_free_block(), alloc.bytes_free());
    ASSERT_EQ(alloc.bytes_used() + alloc.bytes_free(), kRegion);
  }
}

class ObjectTableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table.register_actor(1, 1 << 20);
    table.register_actor(2, 1 << 20);
  }
  ObjectTable table;
};

TEST_F(ObjectTableTest, AllocWriteReadRoundTrip) {
  ObjId id = kInvalidObj;
  ASSERT_EQ(table.alloc(1, 128, MemSide::kNic, id), DmoStatus::kOk);
  const std::vector<std::uint8_t> data{1, 2, 3, 4, 5};
  ASSERT_EQ(table.write(1, id, 10, data), DmoStatus::kOk);
  std::vector<std::uint8_t> out(5);
  ASSERT_EQ(table.read(1, id, 10, out), DmoStatus::kOk);
  EXPECT_EQ(out, data);
}

TEST_F(ObjectTableTest, IsolationTrapOnForeignAccess) {
  ObjId id = kInvalidObj;
  ASSERT_EQ(table.alloc(1, 64, MemSide::kNic, id), DmoStatus::kOk);
  std::vector<std::uint8_t> buf(8);
  EXPECT_EQ(table.read(2, id, 0, buf), DmoStatus::kWrongOwner);
  EXPECT_EQ(table.write(2, id, 0, buf), DmoStatus::kWrongOwner);
  EXPECT_EQ(table.free(2, id), DmoStatus::kWrongOwner);
  EXPECT_EQ(table.traps(), 3u);
}

TEST_F(ObjectTableTest, OutOfBoundsTrap) {
  ObjId id = kInvalidObj;
  ASSERT_EQ(table.alloc(1, 64, MemSide::kNic, id), DmoStatus::kOk);
  std::vector<std::uint8_t> buf(32);
  EXPECT_EQ(table.read(1, id, 40, buf), DmoStatus::kOutOfBounds);
  EXPECT_EQ(table.write(1, id, 64, buf), DmoStatus::kOutOfBounds);
  EXPECT_EQ(table.traps(), 2u);
}

TEST_F(ObjectTableTest, MemsetOffsetPlusLenOverflowTraps) {
  // Regression: the bounds check used to compute offset + len in 32 bits,
  // so a length near 2^32 wrapped past the object size and memset scribbled
  // over the heap.  The sum must be evaluated in 64 bits and trap.
  ObjId id = kInvalidObj;
  ASSERT_EQ(table.alloc(1, 64, MemSide::kNic, id), DmoStatus::kOk);
  const auto traps_before = table.traps();
  EXPECT_EQ(table.memset(1, id, 0xFF, 8, 0xFFFFFFF8u),
            DmoStatus::kOutOfBounds);
  // offset + len == 2^32 exactly — the classic wrap-to-zero case.
  EXPECT_EQ(table.memset(1, id, 0xFF, 16, 0xFFFFFFF0u),
            DmoStatus::kOutOfBounds);
  EXPECT_EQ(table.traps(), traps_before + 2);
  // Object content untouched (memset never ran).
  std::vector<std::uint8_t> out(64);
  ASSERT_EQ(table.read(1, id, 0, out), DmoStatus::kOk);
  for (const auto v : out) EXPECT_EQ(v, 0u);
}

TEST_F(ObjectTableTest, ReadWriteOffsetOverflowTraps) {
  ObjId id = kInvalidObj;
  ASSERT_EQ(table.alloc(1, 64, MemSide::kNic, id), DmoStatus::kOk);
  std::vector<std::uint8_t> huge(16);
  // offset chosen so that a 32-bit offset + size wraps below the object
  // size; the 64-bit check must still reject it.
  EXPECT_EQ(table.read(1, id, 0xFFFFFFF8u, huge), DmoStatus::kOutOfBounds);
  EXPECT_EQ(table.write(1, id, 0xFFFFFFF8u, huge), DmoStatus::kOutOfBounds);
  EXPECT_EQ(table.traps(), 2u);
}

TEST_F(ObjectTableTest, MemcpyObjOverflowTrapsBeforeCopy) {
  ObjId a = kInvalidObj;
  ObjId b = kInvalidObj;
  ASSERT_EQ(table.alloc(1, 64, MemSide::kNic, a), DmoStatus::kOk);
  ASSERT_EQ(table.alloc(1, 64, MemSide::kNic, b), DmoStatus::kOk);
  // Both the src and dst ranges must be validated with 64-bit arithmetic
  // BEFORE any staging buffer is sized from len.
  EXPECT_EQ(table.memcpy_obj(1, b, 8, a, 0, 0xFFFFFFF8u),
            DmoStatus::kOutOfBounds);
  EXPECT_EQ(table.memcpy_obj(1, b, 0, a, 8, 0xFFFFFFF8u),
            DmoStatus::kOutOfBounds);
  EXPECT_EQ(table.traps(), 2u);
}

TEST_F(ObjectTableTest, WrongSideRejectedWithoutTrap) {
  ObjId id = kInvalidObj;
  ASSERT_EQ(table.alloc(1, 64, MemSide::kNic, id), DmoStatus::kOk);
  const std::vector<std::uint8_t> data{1, 2, 3};
  ASSERT_EQ(table.write(1, id, 0, data), DmoStatus::kOk);

  // Host-side execution touching a NIC-resident object: rejected with
  // kWrongSide, no payload transfer, no isolation trap.
  std::vector<std::uint8_t> out(3, 0xEE);
  EXPECT_EQ(table.read(1, id, 0, out, MemSide::kHost),
            DmoStatus::kWrongSide);
  EXPECT_EQ(out[0], 0xEE);  // read did not happen
  EXPECT_EQ(table.write(1, id, 0, data, MemSide::kHost),
            DmoStatus::kWrongSide);
  EXPECT_EQ(table.memset(1, id, 0x55, 0, 8, MemSide::kHost),
            DmoStatus::kWrongSide);
  EXPECT_EQ(table.wrong_side_hits(), 3u);
  EXPECT_EQ(table.traps(), 0u);

  // Matching side — and side-agnostic (runtime-internal) access — succeed.
  EXPECT_EQ(table.read(1, id, 0, out, MemSide::kNic), DmoStatus::kOk);
  EXPECT_EQ(out, data);
  EXPECT_EQ(table.read(1, id, 0, out), DmoStatus::kOk);

  // After migration the host side is the local one.
  ASSERT_EQ(table.migrate(1, id, MemSide::kHost), DmoStatus::kOk);
  EXPECT_EQ(table.read(1, id, 0, out, MemSide::kHost), DmoStatus::kOk);
  EXPECT_EQ(table.read(1, id, 0, out, MemSide::kNic),
            DmoStatus::kWrongSide);
  EXPECT_EQ(table.wrong_side_hits(), 4u);
}

TEST_F(ObjectTableTest, MigrateAllReportsPartialFailure) {
  // Target (host) region too small for everything: migrate_all must move
  // what fits, count the stragglers, and leave them readable on the NIC.
  table.register_actor(7, 8192);
  std::vector<ObjId> ids(4);
  for (auto& id : ids) {
    ASSERT_EQ(table.alloc(7, 1500, MemSide::kNic, id), DmoStatus::kOk);
  }
  // Fill most of the host region so only one 1500B object fits.
  ObjId blocker = kInvalidObj;
  ASSERT_EQ(table.alloc(7, 6600, MemSide::kHost, blocker), DmoStatus::kOk);

  const MigrateResult res = table.migrate_all(7, MemSide::kHost);
  EXPECT_FALSE(res.complete());
  EXPECT_EQ(res.moved_objects, 1u);
  EXPECT_EQ(res.failed_objects, 3u);
  EXPECT_EQ(res.payload_bytes, 1500u);
  EXPECT_GE(res.padded_bytes, res.payload_bytes);

  // Split residency is visible, and the stragglers stay usable.
  std::size_t on_host = 0;
  for (const ObjId id : ids) {
    if (table.find(id)->side == MemSide::kHost) ++on_host;
    std::vector<std::uint8_t> out(8);
    EXPECT_EQ(table.read(7, id, 0, out), DmoStatus::kOk);
  }
  EXPECT_EQ(on_host, 1u);
}

TEST_F(ObjectTableTest, RegionExhaustion) {
  table.register_actor(3, 1024);
  ObjId id = kInvalidObj;
  EXPECT_EQ(table.alloc(3, 900, MemSide::kNic, id), DmoStatus::kOk);
  ObjId id2 = kInvalidObj;
  EXPECT_EQ(table.alloc(3, 900, MemSide::kNic, id2), DmoStatus::kNoMemory);
  // The other side has its own region, still usable.
  EXPECT_EQ(table.alloc(3, 900, MemSide::kHost, id2), DmoStatus::kOk);
}

TEST_F(ObjectTableTest, MemsetAndCopy) {
  ObjId a = kInvalidObj;
  ObjId b = kInvalidObj;
  ASSERT_EQ(table.alloc(1, 32, MemSide::kNic, a), DmoStatus::kOk);
  ASSERT_EQ(table.alloc(1, 32, MemSide::kNic, b), DmoStatus::kOk);
  ASSERT_EQ(table.memset(1, a, 0xAB, 0, 32), DmoStatus::kOk);
  ASSERT_EQ(table.memcpy_obj(1, b, 0, a, 0, 32), DmoStatus::kOk);
  std::vector<std::uint8_t> out(32);
  ASSERT_EQ(table.read(1, b, 0, out), DmoStatus::kOk);
  for (const auto v : out) EXPECT_EQ(v, 0xAB);
}

TEST_F(ObjectTableTest, MigratePreservesContent) {
  ObjId id = kInvalidObj;
  ASSERT_EQ(table.alloc(1, 64, MemSide::kNic, id), DmoStatus::kOk);
  const std::vector<std::uint8_t> data{9, 8, 7};
  ASSERT_EQ(table.write(1, id, 0, data), DmoStatus::kOk);
  ASSERT_EQ(table.migrate(1, id, MemSide::kHost), DmoStatus::kOk);
  EXPECT_EQ(table.find(id)->side, MemSide::kHost);
  std::vector<std::uint8_t> out(3);
  ASSERT_EQ(table.read(1, id, 0, out), DmoStatus::kOk);
  EXPECT_EQ(out, data);
  // NIC-side region bytes are freed.
  EXPECT_EQ(table.actor_bytes(1, MemSide::kNic), 0u);
  EXPECT_GT(table.actor_bytes(1, MemSide::kHost), 0u);
}

TEST_F(ObjectTableTest, MigrateAllMovesEverything) {
  std::vector<ObjId> ids(10);
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto size = static_cast<std::uint32_t>(16 * (i + 1));
    ASSERT_EQ(table.alloc(1, size, MemSide::kNic, ids[i]), DmoStatus::kOk);
    expected += size;
  }
  const MigrateResult res = table.migrate_all(1, MemSide::kHost);
  EXPECT_EQ(res.payload_bytes, expected);
  EXPECT_EQ(res.moved_objects, ids.size());
  EXPECT_EQ(res.failed_objects, 0u);
  EXPECT_TRUE(res.complete());
  // All sizes here are 16-aligned, so padded == payload.
  EXPECT_EQ(res.padded_bytes, expected);
  for (const ObjId id : ids) EXPECT_EQ(table.find(id)->side, MemSide::kHost);
  const MigrateResult again = table.migrate_all(1, MemSide::kHost);
  EXPECT_EQ(again.payload_bytes, 0u);  // idempotent
  EXPECT_EQ(again.moved_objects, 0u);
}

TEST_F(ObjectTableTest, DeregisterFreesObjects) {
  ObjId id = kInvalidObj;
  ASSERT_EQ(table.alloc(1, 64, MemSide::kNic, id), DmoStatus::kOk);
  table.deregister_actor(1);
  EXPECT_EQ(table.find(id), nullptr);
  EXPECT_FALSE(table.actor_registered(1));
}

TEST_F(ObjectTableTest, WorkingSetTracksLiveBytes) {
  ObjId a = kInvalidObj;
  ObjId b = kInvalidObj;
  ASSERT_EQ(table.alloc(1, 100, MemSide::kNic, a), DmoStatus::kOk);
  ASSERT_EQ(table.alloc(1, 200, MemSide::kHost, b), DmoStatus::kOk);
  // Working set counts allocator bytes (16B-aligned): 112 + 208.
  EXPECT_EQ(table.working_set(1), 320u);
  ASSERT_EQ(table.free(1, a), DmoStatus::kOk);
  EXPECT_EQ(table.working_set(1), 208u);
}


TEST_F(ObjectTableTest, StaleIdAfterSlotReuseNeverReachesNewObject) {
  ObjId old_id = kInvalidObj;
  ASSERT_EQ(table.alloc(1, 64, MemSide::kNic, old_id), DmoStatus::kOk);
  ASSERT_EQ(table.free(1, old_id), DmoStatus::kOk);
  // Same size and owner: the freed table slot is the first one reused.
  ObjId new_id = kInvalidObj;
  ASSERT_EQ(table.alloc(1, 64, MemSide::kNic, new_id), DmoStatus::kOk);
  ASSERT_NE(new_id, old_id);
  const std::vector<std::uint8_t> data(64, 0x5A);
  ASSERT_EQ(table.write(1, new_id, 0, data), DmoStatus::kOk);

  std::vector<std::uint8_t> out(8, 0xEE);
  const std::vector<std::uint8_t> junk(8, 0x11);
  EXPECT_EQ(table.find(old_id), nullptr);
  EXPECT_EQ(table.read(1, old_id, 0, out), DmoStatus::kNoSuchObject);
  EXPECT_EQ(out[0], 0xEE);
  EXPECT_EQ(table.write(1, old_id, 0, junk), DmoStatus::kNoSuchObject);
  EXPECT_EQ(table.memset(1, old_id, 0x22, 0, 8), DmoStatus::kNoSuchObject);
  EXPECT_EQ(table.memcpy_obj(1, old_id, 0, new_id, 0, 8),
            DmoStatus::kNoSuchObject);
  EXPECT_EQ(table.migrate(1, old_id, MemSide::kHost), DmoStatus::kNoSuchObject);
  EXPECT_EQ(table.free(1, old_id), DmoStatus::kNoSuchObject);
  EXPECT_EQ(table.traps(), 0u);

  // The new object is untouched and still owned, sized and placed as
  // allocated.
  const DmoRecord* rec = table.find(new_id);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->owner, 1u);
  EXPECT_EQ(rec->size, 64u);
  EXPECT_EQ(rec->side, MemSide::kNic);
  std::vector<std::uint8_t> back(64);
  ASSERT_EQ(table.read(1, new_id, 0, back), DmoStatus::kOk);
  EXPECT_EQ(back, data);
  EXPECT_EQ(table.actor_object_count(1), 1u);
  EXPECT_EQ(table.find(kInvalidObj), nullptr);
}

TEST_F(ObjectTableTest, TrapsHoldOnReusedSlots) {
  // Actor 1's large object is freed; actor 2 then allocates a smaller one
  // of the same size class, so it may land in the same slot with a
  // payload buffer larger than the object.  Bounds come from the object,
  // ownership from the new owner.
  ObjId big = kInvalidObj;
  ASSERT_EQ(table.alloc(1, 120, MemSide::kNic, big), DmoStatus::kOk);
  ASSERT_EQ(table.free(1, big), DmoStatus::kOk);
  ObjId small = kInvalidObj;
  ASSERT_EQ(table.alloc(2, 70, MemSide::kNic, small), DmoStatus::kOk);

  std::vector<std::uint8_t> buf(8);
  EXPECT_EQ(table.read(1, small, 0, buf), DmoStatus::kWrongOwner);
  EXPECT_EQ(table.write(1, small, 0, buf), DmoStatus::kWrongOwner);
  EXPECT_EQ(table.memset(1, small, 0, 0, 8), DmoStatus::kWrongOwner);
  EXPECT_EQ(table.migrate(1, small, MemSide::kHost), DmoStatus::kWrongOwner);
  EXPECT_EQ(table.free(1, small), DmoStatus::kWrongOwner);
  EXPECT_EQ(table.traps(), 5u);

  EXPECT_EQ(table.read(2, small, 64, buf), DmoStatus::kOutOfBounds);
  EXPECT_EQ(table.write(2, small, 63, buf), DmoStatus::kOutOfBounds);
  EXPECT_EQ(table.memset(2, small, 0, 70, 1), DmoStatus::kOutOfBounds);
  EXPECT_EQ(table.memset(2, small, 0, 8, 0xFFFFFFF8u), DmoStatus::kOutOfBounds);
  EXPECT_EQ(table.read(2, small, 0xFFFFFFFCu, buf), DmoStatus::kOutOfBounds);
  EXPECT_EQ(table.traps(), 10u);
  // The last in-bounds byte is fine.
  EXPECT_EQ(table.read(2, small, 62, buf), DmoStatus::kOk);
  EXPECT_EQ(table.traps(), 10u);
  EXPECT_EQ(table.actor_object_count(1), 0u);
  EXPECT_EQ(table.actor_object_count(2), 1u);
}

// Allocates ten objects with interleaved frees so that table slot order
// and allocation order differ, writes a distinct byte into each, and
// returns the survivors in allocation order.
std::vector<ObjId> interleaved_objects(ObjectTable& table, ActorId actor) {
  const std::uint32_t sizes[] = {48, 100, 16, 300, 64, 200, 32, 80};
  std::vector<ObjId> ids;
  for (const std::uint32_t size : sizes) {
    ObjId id = kInvalidObj;
    EXPECT_EQ(table.alloc(actor, size, MemSide::kNic, id), DmoStatus::kOk);
    ids.push_back(id);
  }
  EXPECT_EQ(table.free(actor, ids[1]), DmoStatus::kOk);
  EXPECT_EQ(table.free(actor, ids[4]), DmoStatus::kOk);
  ids.erase(ids.begin() + 4);
  ids.erase(ids.begin() + 1);
  for (const std::uint32_t size : {120u, 70u}) {
    ObjId id = kInvalidObj;
    EXPECT_EQ(table.alloc(actor, size, MemSide::kNic, id), DmoStatus::kOk);
    ids.push_back(id);
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::vector<std::uint8_t> tag{static_cast<std::uint8_t>(0xA0 + i)};
    EXPECT_EQ(table.write(actor, ids[i], 0, tag), DmoStatus::kOk);
  }
  return ids;
}

TEST_F(ObjectTableTest, MigrateAllVisitsAllocationOrder) {
  table.register_actor(9, 64 * 1024);
  const std::vector<ObjId> ids = interleaved_objects(table, 9);
  const MigrateResult res = table.migrate_all(9, MemSide::kHost);
  EXPECT_TRUE(res.complete());
  EXPECT_EQ(res.moved_objects, 8u);
  EXPECT_EQ(res.payload_bytes, 48u + 16 + 300 + 200 + 32 + 80 + 120 + 70);
  EXPECT_EQ(res.padded_bytes, 48u + 16 + 304 + 208 + 32 + 80 + 128 + 80);
  // First fit in visit order: each object lands right after the previous
  // one in the fresh host region.
  const std::uint64_t expected[] = {
      0x10cf0400000, 0x10cf0400030, 0x10cf0400040, 0x10cf0400170,
      0x10cf0400240, 0x10cf0400260, 0x10cf04002b0, 0x10cf0400330};
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const DmoRecord* rec = table.find(ids[i]);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->side, MemSide::kHost);
    EXPECT_EQ(rec->addr, expected[i]) << "object " << i;
    std::vector<std::uint8_t> tag(1);
    ASSERT_EQ(table.read(9, ids[i], 0, tag), DmoStatus::kOk);
    EXPECT_EQ(tag[0], 0xA0 + i);
  }
  EXPECT_EQ(table.actor_bytes(9, MemSide::kNic), 0u);
  EXPECT_EQ(table.actor_bytes(9, MemSide::kHost), res.padded_bytes);
}

TEST_F(ObjectTableTest, EvacuateAllVisitsAllocationOrder) {
  table.register_actor(9, 64 * 1024);
  const std::vector<ObjId> ids = interleaved_objects(table, 9);
  const EvacResult res = table.evacuate_all(9, /*mirror=*/false);
  EXPECT_TRUE(res.complete());
  EXPECT_EQ(res.moved_objects, 8u);
  EXPECT_EQ(res.lost_bytes, res.payload_bytes);
  const std::uint64_t expected[] = {
      0x10cf0400000, 0x10cf0400030, 0x10cf0400040, 0x10cf0400170,
      0x10cf0400240, 0x10cf0400260, 0x10cf04002b0, 0x10cf0400330};
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const DmoRecord* rec = table.find(ids[i]);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->side, MemSide::kHost);
    EXPECT_EQ(rec->addr, expected[i]) << "object " << i;
    // No mirror: the NIC-resident bytes died with the device.
    std::vector<std::uint8_t> tag(1, 0xFF);
    ASSERT_EQ(table.read(9, ids[i], 0, tag), DmoStatus::kOk);
    EXPECT_EQ(tag[0], 0u);
  }
  EXPECT_EQ(table.actor_bytes(9, MemSide::kNic), 0u);
}

// Reference model for the churn test: every live object's owner, side,
// address, size and bytes in a std::map, each (actor, side)'s live
// address ranges, each actor's objects in allocation order, and first fit
// predicted from the ranges.
class DmoModel {
 public:
  struct Obj {
    ActorId owner;
    MemSide side;
    std::uint64_t addr;
    std::uint32_t size;
    std::vector<std::uint8_t> bytes;
  };

  static std::uint64_t padded(std::uint32_t size) {
    return (std::uint64_t{size == 0 ? 1u : size} + 15) & ~std::uint64_t{15};
  }

  // Free blocks of (actor, side): the gaps between live ranges.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> free_blocks(
      ActorId actor, MemSide side, std::uint64_t base,
      std::uint64_t size) const {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    std::uint64_t cursor = base;
    const auto it = ranges_.find({actor, side});
    if (it != ranges_.end()) {
      for (const auto& [addr, len] : it->second) {
        if (addr > cursor) out.emplace_back(cursor, addr - cursor);
        cursor = addr + len;
      }
    }
    if (base + size > cursor) out.emplace_back(cursor, base + size - cursor);
    return out;
  }

  // First-fit address for `size` bytes, or nullopt on exhaustion.
  std::optional<std::uint64_t> first_fit(ActorId actor, MemSide side,
                                         std::uint64_t base,
                                         std::uint64_t region,
                                         std::uint32_t size) const {
    for (const auto& [addr, len] : free_blocks(actor, side, base, region)) {
      if (len >= padded(size)) return addr;
    }
    return std::nullopt;
  }

  std::uint64_t bytes(ActorId actor, MemSide side) const {
    const auto it = used_.find({actor, side});
    return it == used_.end() ? 0 : it->second;
  }

  void add(ObjId id, Obj obj) {
    place(obj);
    order[obj.owner].push_back(id);
    objs.emplace(id, std::move(obj));
  }

  void move(ObjId id, MemSide to, std::uint64_t addr) {
    Obj& obj = objs.at(id);
    unplace(obj);
    obj.side = to;
    obj.addr = addr;
    place(obj);
  }

  void erase(ObjId id) {
    const Obj& obj = objs.at(id);
    unplace(obj);
    auto& list = order[obj.owner];
    list.erase(std::find(list.begin(), list.end(), id));
    objs.erase(id);
  }

  std::map<ObjId, Obj> objs;
  std::map<ActorId, std::vector<ObjId>> order;  // allocation order

 private:
  void place(const Obj& obj) {
    ranges_[{obj.owner, obj.side}][obj.addr] = padded(obj.size);
    used_[{obj.owner, obj.side}] += padded(obj.size);
  }
  void unplace(const Obj& obj) {
    ranges_[{obj.owner, obj.side}].erase(obj.addr);
    used_[{obj.owner, obj.side}] -= padded(obj.size);
  }

  std::map<std::pair<ActorId, MemSide>, std::map<std::uint64_t, std::uint64_t>>
      ranges_;
  std::map<std::pair<ActorId, MemSide>, std::uint64_t> used_;
};

TEST(ObjectTableChurn, MatchesReferenceModel) {
  constexpr std::uint64_t kRegion = 96 * 1024;
  constexpr ActorId kActors[] = {3, 5, 8};
  ObjectTable table;
  DmoModel model;
  for (const ActorId a : kActors) table.register_actor(a, kRegion);

  Rng rng(0xD110);
  std::set<ObjId> issued;
  std::vector<ObjId> dead;
  std::uint64_t traps = 0;
  const auto base_of = [&](ActorId a, MemSide side) {
    return table.allocator_of(a, side)->region_base();
  };
  const auto random_live = [&](ObjId& id) {
    if (model.objs.empty()) return false;
    auto it = model.objs.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(
                         rng.uniform_u64(model.objs.size())));
    id = it->first;
    return true;
  };
  const auto other = [](MemSide s) {
    return s == MemSide::kNic ? MemSide::kHost : MemSide::kNic;
  };
  const auto check_totals = [&] {
    for (const ActorId a : kActors) {
      const std::uint64_t nic = model.bytes(a, MemSide::kNic);
      const std::uint64_t host = model.bytes(a, MemSide::kHost);
      ASSERT_EQ(table.actor_bytes(a, MemSide::kNic), nic);
      ASSERT_EQ(table.actor_bytes(a, MemSide::kHost), host);
      ASSERT_EQ(table.working_set(a), nic + host);
      ASSERT_EQ(table.actor_object_count(a), model.order[a].size());
    }
  };
  const auto check_free_blocks = [&] {
    for (const ActorId a : kActors) {
      for (const MemSide s : {MemSide::kNic, MemSide::kHost}) {
        ASSERT_EQ(table.allocator_of(a, s)->free_blocks(),
                  model.free_blocks(a, s, base_of(a, s), kRegion));
      }
    }
  };
  const auto check_bytes = [&] {
    for (const auto& [id, obj] : model.objs) {
      const DmoRecord* rec = table.find(id);
      ASSERT_NE(rec, nullptr);
      ASSERT_EQ(rec->owner, obj.owner);
      ASSERT_EQ(rec->side, obj.side);
      ASSERT_EQ(rec->addr, obj.addr);
      ASSERT_EQ(rec->size, obj.size);
      std::vector<std::uint8_t> out(obj.size);
      ASSERT_EQ(table.read(obj.owner, id, 0, out), DmoStatus::kOk);
      ASSERT_EQ(out, obj.bytes);
    }
  };
  const auto migrate_model = [&](ObjId id, MemSide to) {
    const DmoModel::Obj& obj = model.objs.at(id);
    const auto addr =
        model.first_fit(obj.owner, to, base_of(obj.owner, to), kRegion,
                        obj.size);
    if (addr) model.move(id, to, *addr);
    return addr.has_value();
  };

  for (int op = 0; op < 100'000; ++op) {
    const double dice = rng.uniform();
    ObjId id = kInvalidObj;
    if (dice < 0.30) {
      const ActorId a = kActors[rng.uniform_u64(3)];
      const MemSide side = rng.bernoulli(0.5) ? MemSide::kNic : MemSide::kHost;
      const auto size = static_cast<std::uint32_t>(
          rng.bernoulli(0.05) ? 0 : 1 + rng.uniform_u64(1200));
      const auto want =
          model.first_fit(a, side, base_of(a, side), kRegion, size);
      const DmoStatus st = table.alloc(a, size, side, id);
      if (!want) {
        ASSERT_EQ(st, DmoStatus::kNoMemory);
        ASSERT_EQ(id, kInvalidObj);
      } else {
        ASSERT_EQ(st, DmoStatus::kOk);
        ASSERT_TRUE(issued.insert(id).second) << "id issued twice";
        ASSERT_EQ(table.find(id)->addr, *want);
        model.add(id, {a, side, *want, size,
                       std::vector<std::uint8_t>(size, 0)});
      }
    } else if (dice < 0.45) {
      if (!random_live(id)) continue;
      const ActorId owner = model.objs.at(id).owner;
      if (rng.bernoulli(0.05)) {
        const ActorId intruder = owner == kActors[0] ? kActors[1] : kActors[0];
        ASSERT_EQ(table.free(intruder, id), DmoStatus::kWrongOwner);
        ++traps;
      } else {
        ASSERT_EQ(table.free(owner, id), DmoStatus::kOk);
        model.erase(id);
        dead.push_back(id);
      }
    } else if (dice < 0.65) {
      if (!random_live(id)) continue;
      DmoModel::Obj& obj = model.objs.at(id);
      if (obj.size > 0 && rng.bernoulli(0.03)) {
        // One byte past the end traps and writes nothing.
        const std::vector<std::uint8_t> in(2, 0xEE);
        ASSERT_EQ(table.write(obj.owner, id, obj.size - 1, in),
                  DmoStatus::kOutOfBounds);
        ++traps;
        continue;
      }
      const auto off =
          static_cast<std::uint32_t>(rng.uniform_u64(obj.size + 1));
      const auto len =
          static_cast<std::uint32_t>(rng.uniform_u64(obj.size - off + 1));
      std::vector<std::uint8_t> in(len);
      for (auto& b : in) b = static_cast<std::uint8_t>(rng.next());
      ASSERT_EQ(table.write(obj.owner, id, off, in, obj.side), DmoStatus::kOk);
      std::copy(in.begin(), in.end(), obj.bytes.begin() + off);
    } else if (dice < 0.85) {
      if (!random_live(id)) continue;
      const DmoModel::Obj& obj = model.objs.at(id);
      const auto off =
          static_cast<std::uint32_t>(rng.uniform_u64(obj.size + 1));
      const auto len =
          static_cast<std::uint32_t>(rng.uniform_u64(obj.size - off + 1));
      std::vector<std::uint8_t> out(len);
      if (rng.bernoulli(0.1)) {
        ASSERT_EQ(table.read(obj.owner, id, off, out, other(obj.side)),
                  DmoStatus::kWrongSide);
        continue;
      }
      ASSERT_EQ(table.read(obj.owner, id, off, out), DmoStatus::kOk);
      ASSERT_TRUE(std::equal(out.begin(), out.end(), obj.bytes.begin() + off));
    } else if (dice < 0.87) {
      if (!random_live(id)) continue;
      DmoModel::Obj& obj = model.objs.at(id);
      const auto value = static_cast<std::uint8_t>(rng.next());
      ASSERT_EQ(table.memset(obj.owner, id, value, 0, obj.size),
                DmoStatus::kOk);
      std::fill(obj.bytes.begin(), obj.bytes.end(), value);
    } else if (dice < 0.95) {
      if (!random_live(id)) continue;
      const ActorId owner = model.objs.at(id).owner;
      const MemSide to = other(model.objs.at(id).side);
      const bool fits = migrate_model(id, to);
      ASSERT_EQ(table.migrate(owner, id, to),
                fits ? DmoStatus::kOk : DmoStatus::kNoMemory);
    } else if (dice < 0.97) {
      if (dead.empty()) continue;
      // A freed id never reaches a live object, whatever reused its slot.
      const ObjId stale = dead[rng.uniform_u64(dead.size())];
      std::vector<std::uint8_t> out(1);
      const ActorId a = kActors[rng.uniform_u64(3)];
      ASSERT_EQ(table.find(stale), nullptr);
      ASSERT_EQ(table.read(a, stale, 0, out), DmoStatus::kNoSuchObject);
      ASSERT_EQ(table.write(a, stale, 0, out), DmoStatus::kNoSuchObject);
      ASSERT_EQ(table.free(a, stale), DmoStatus::kNoSuchObject);
    } else if (dice < 0.9985) {
      const ActorId a = kActors[rng.uniform_u64(3)];
      const MemSide to = rng.bernoulli(0.5) ? MemSide::kNic : MemSide::kHost;
      MigrateResult want;
      for (const ObjId obj_id : model.order[a]) {
        const DmoModel::Obj& obj = model.objs.at(obj_id);
        if (obj.side == to) continue;
        if (migrate_model(obj_id, to)) {
          want.payload_bytes += obj.size;
          want.padded_bytes += DmoModel::padded(obj.size);
          ++want.moved_objects;
        } else {
          ++want.failed_objects;
        }
      }
      const MigrateResult got = table.migrate_all(a, to);
      ASSERT_EQ(got.payload_bytes, want.payload_bytes);
      ASSERT_EQ(got.padded_bytes, want.padded_bytes);
      ASSERT_EQ(got.moved_objects, want.moved_objects);
      ASSERT_EQ(got.failed_objects, want.failed_objects);
    } else {
      // Deregistration drops the actor's objects; it comes back with a
      // fresh, empty region.
      const ActorId a = kActors[rng.uniform_u64(3)];
      while (!model.order[a].empty()) {
        dead.push_back(model.order[a].back());
        model.erase(model.order[a].back());
      }
      table.deregister_actor(a);
      ASSERT_EQ(table.working_set(a), 0u);
      ASSERT_EQ(table.actor_object_count(a), 0u);
      table.register_actor(a, kRegion);
    }
    ASSERT_NO_FATAL_FAILURE(check_totals());
    ASSERT_EQ(table.traps(), traps);
    if (op % 97 == 0) {
      ASSERT_NO_FATAL_FAILURE(check_free_blocks());
    }
    if (op % 10'000 == 0) {
      ASSERT_NO_FATAL_FAILURE(check_bytes());
    }
  }
  ASSERT_NO_FATAL_FAILURE(check_free_blocks());
  ASSERT_NO_FATAL_FAILURE(check_bytes());
  // Every id ever issued was distinct.
  EXPECT_GT(issued.size(), 20'000u);
}

}  // namespace
}  // namespace ipipe
