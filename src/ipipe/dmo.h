// Distributed Memory Objects (DMO), §3.3.
//
// A DMO is a contiguous, actor-private buffer addressed by *object id*
// rather than pointer, so the runtime can move it between NIC and host
// without invalidating the actor's state.  Each registered actor owns a
// fixed-size memory region on each side; objects are carved out of the
// owning region by a real first-fit free-list allocator (standing in for
// the firmware's dlmalloc2), so capacity pressure and fragmentation are
// genuine.  Object payloads are real bytes: applications store skip-list
// nodes, hash buckets and log entries in them.
//
// Isolation (§3.4): every access is checked against the owning actor and
// object bounds; violations raise a trap that the runtime turns into
// actor deregistration (the paper's TLB-trap path).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/trace.h"
#include "netsim/packet.h"

namespace ipipe {

using ObjId = std::uint64_t;
constexpr ObjId kInvalidObj = 0;

using netsim::ActorId;

enum class MemSide : std::uint8_t { kNic = 0, kHost = 1 };

/// First-fit free-list allocator with immediate coalescing over a
/// simulated address range.  Like a sized delete, a free names the size
/// it allocated, so the allocator keeps no record of live blocks.
class RegionAllocator {
 public:
  /// Every block starts on and is padded to this granularity.
  static constexpr std::uint64_t kAlign = 16;
  /// Bytes an allocation of `size` occupies (a zero-byte one takes one
  /// granule).
  [[nodiscard]] static constexpr std::uint64_t padded(
      std::uint64_t size) noexcept {
    return ((size == 0 ? 1 : size) + kAlign - 1) & ~(kAlign - 1);
  }

  RegionAllocator(std::uint64_t base, std::uint64_t size);

  /// Returns the allocated address or nullopt when no block fits.
  [[nodiscard]] std::optional<std::uint64_t> alloc(std::uint64_t size);
  /// Frees the `size`-byte allocation at `addr`.  Returns false and
  /// changes nothing when the block is not inside the region or overlaps
  /// free space (an out-of-region or double free).
  bool free(std::uint64_t addr, std::uint64_t size);

  [[nodiscard]] std::uint64_t bytes_used() const noexcept { return used_; }
  [[nodiscard]] std::uint64_t bytes_free() const noexcept { return size_ - used_; }
  [[nodiscard]] std::uint64_t region_base() const noexcept { return base_; }
  [[nodiscard]] std::uint64_t region_size() const noexcept { return size_; }
  /// Largest single allocatable block (external fragmentation probe).
  [[nodiscard]] std::uint64_t largest_free_block() const noexcept;
  [[nodiscard]] std::size_t free_block_count() const noexcept {
    return free_blocks_.size();
  }
  /// Snapshot of the free list as (addr, size) pairs in address order —
  /// introspection for invariant checks (tests) and fragmentation dumps.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>>
  free_blocks() const {
    return {free_blocks_.begin(), free_blocks_.end()};
  }

 private:
  std::uint64_t base_;
  std::uint64_t size_;
  std::uint64_t used_ = 0;
  std::map<std::uint64_t, std::uint64_t> free_blocks_;  // addr -> size
};

/// Outcome of a checked DMO access.
enum class DmoStatus {
  kOk,
  kNoSuchObject,
  kWrongOwner,   ///< isolation trap: touching another actor's object
  kOutOfBounds,  ///< isolation trap: past the end of the object
  kNoMemory,     ///< region exhausted (the paper: "DMO allocation fails")
  kWrongSide,    ///< object currently lives on the other side of PCIe
  kQuotaExceeded,  ///< tenant quota group over cap (not an isolation trap)
};

struct DmoRecord {
  ObjId id = kInvalidObj;
  ActorId owner = 0;
  std::uint64_t addr = 0;  ///< simulated address within the owner's region
  std::uint32_t size = 0;
  MemSide side = MemSide::kNic;
  std::vector<std::uint8_t> data;  ///< real payload bytes
};

/// Outcome of `ObjectTable::migrate_all`.  A mid-loop allocation failure
/// on the target side no longer passes silently: the caller sees exactly
/// how much moved and how many objects stayed behind (split residency).
struct MigrateResult {
  std::uint64_t payload_bytes = 0;  ///< sum of rec->size actually moved
  std::uint64_t padded_bytes = 0;   ///< allocator bytes consumed on the target
  std::uint64_t moved_objects = 0;
  std::uint64_t failed_objects = 0;  ///< kNoMemory on the target region
  [[nodiscard]] bool complete() const noexcept { return failed_objects == 0; }
};

/// Outcome of `ObjectTable::evacuate_all` — the crash-consistent variant
/// of migrate_all used when the NIC side is unreachable.  With the host
/// mirror enabled the payload is replayed from the mirror copy
/// (`replayed_bytes`); without it the NIC-resident bytes died with the
/// device and the objects come back zero-filled (`lost_bytes`).
struct EvacResult {
  std::uint64_t payload_bytes = 0;
  std::uint64_t moved_objects = 0;
  std::uint64_t failed_objects = 0;  ///< host region exhausted
  std::uint64_t replayed_bytes = 0;  ///< restored from the host mirror
  std::uint64_t lost_bytes = 0;      ///< no mirror: content zero-filled
  [[nodiscard]] bool complete() const noexcept { return failed_objects == 0; }
};

/// Object table (one logical table spanning both sides, with per-object
/// location, Figure 12-a).  The runtime consults `side` to decide
/// whether an access is local; actors never observe raw addresses.
///
/// Every operation costs O(1) host work apart from the region allocator's
/// free-list walk.  Records live in a slot vector, and an id is the pair
/// (generation << 32 | slot + 1), so a lookup is one index and one
/// compare, and a fresh table hands out 1, 2, 3, ...  Freeing a slot
/// bumps its generation, which makes every earlier id of that slot miss;
/// a slot whose generation is spent is retired, so an id never names a
/// later object.  A freed slot keeps its payload buffer and waits in a
/// pool for the next object of its size class, so steady-state churn
/// allocates nothing.
class ObjectTable {
  struct QuotaGroup;
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

 public:
  /// One actor's private memory: a region on each side of PCIe, its live
  /// objects in allocation order (a list through the table's slots) and
  /// its quota group.  The table never erases a region: deregistration
  /// empties it in place, so a pointer from `region()` stays valid for
  /// the table's lifetime and reads an empty working set once the actor
  /// is gone.
  class Region {
   public:
    /// Allocator bytes in use on both sides.  (Padded sizes slightly
    /// overstate the working set; irrelevant for cost modeling.)
    [[nodiscard]] std::uint64_t working_set() const noexcept {
      return nic_.bytes_used() + host_.bytes_used();
    }

   private:
    friend class ObjectTable;
    [[nodiscard]] RegionAllocator& side(MemSide s) noexcept {
      return s == MemSide::kNic ? nic_ : host_;
    }
    [[nodiscard]] const RegionAllocator& side(MemSide s) const noexcept {
      return s == MemSide::kNic ? nic_ : host_;
    }

    RegionAllocator nic_{0, 0};
    RegionAllocator host_{0, 0};
    bool registered_ = false;
    QuotaGroup* quota_ = nullptr;
    std::uint32_t head_ = kNoSlot;  ///< oldest live object's slot
    std::uint32_t tail_ = kNoSlot;  ///< newest live object's slot
    std::uint64_t count_ = 0;
  };

  /// Register an actor with a `region_bytes` private region on `side`.
  /// Each actor's region exists independently on both sides so objects
  /// can migrate; capacity is tracked per (actor, side).
  void register_actor(ActorId actor, std::uint64_t region_bytes);
  void deregister_actor(ActorId actor);
  [[nodiscard]] bool actor_registered(ActorId actor) const noexcept;

  /// dmo_malloc: allocate `size` bytes for `actor` on `side`.
  [[nodiscard]] DmoStatus alloc(ActorId actor, std::uint32_t size, MemSide side,
                                ObjId& out_id);
  /// dmo_free.
  DmoStatus free(ActorId actor, ObjId id);

  /// Checked read/write (dmo_memcpy to/from actor scratch).  When
  /// `exec_side` is given, the access is additionally checked against the
  /// object's current residency: touching an object on the far side of
  /// PCIe returns kWrongSide *without* performing the access, and the
  /// runtime decides whether to charge the DMA cost and retry or to trap.
  DmoStatus read(ActorId actor, ObjId id, std::uint32_t offset,
                 std::span<std::uint8_t> out,
                 std::optional<MemSide> exec_side = std::nullopt) const;
  DmoStatus write(ActorId actor, ObjId id, std::uint32_t offset,
                  std::span<const std::uint8_t> in,
                  std::optional<MemSide> exec_side = std::nullopt);
  /// dmo_memset.
  DmoStatus memset(ActorId actor, ObjId id, std::uint8_t value,
                   std::uint32_t offset, std::uint32_t len,
                   std::optional<MemSide> exec_side = std::nullopt);
  /// dmo_memcpy between two objects of the same actor.
  DmoStatus memcpy_obj(ActorId actor, ObjId dst, std::uint32_t dst_off,
                       ObjId src, std::uint32_t src_off, std::uint32_t len);

  /// dmo_migrate: move one object to the other side (payload travels with
  /// it; the caller charges the PCIe time).
  DmoStatus migrate(ActorId actor, ObjId id, MemSide to);

  /// Move *all* of an actor's objects to `to` (migration phase 3 /
  /// Fig. 18).  Partial failure (target region exhausted mid-loop) is
  /// reported, not swallowed: the result distinguishes payload bytes
  /// (what the caller charges PCIe time for) from padded allocator bytes
  /// (what the target region actually consumed) and counts stragglers.
  MigrateResult migrate_all(ActorId actor, MemSide to);

  /// Crash-consistent emergency evacuation: force every NIC-resident
  /// object of `actor` onto the host side *without* touching the (dead)
  /// NIC.  No PCIe transfer happens — with `mirror` the host mirror copy
  /// provides the bytes; without it the payload is zero-filled and
  /// reported lost.  The NIC-side allocator is wiped for those objects
  /// (the firmware's heap is gone anyway).
  EvacResult evacuate_all(ActorId actor, bool mirror);

  /// The live object `id`, or nullptr.  The pointer is valid until the
  /// next alloc.
  [[nodiscard]] const DmoRecord* find(ObjId id) const;
  /// `actor`'s region, registered or not, or nullptr when it never was:
  /// resolve it once and read `working_set()` on every access.
  [[nodiscard]] const Region* region(ActorId actor) const;
  /// The allocator behind `actor`'s region on `side`, or nullptr when
  /// the actor is not registered (fragmentation probes, tests).
  [[nodiscard]] const RegionAllocator* allocator_of(ActorId actor,
                                                    MemSide side) const;
  [[nodiscard]] std::uint64_t actor_bytes(ActorId actor, MemSide side) const;
  [[nodiscard]] std::uint64_t actor_object_count(ActorId actor) const;
  /// Total resident bytes across an actor's live objects (working set).
  [[nodiscard]] std::uint64_t working_set(ActorId actor) const;

  // ---- tenant quota groups -------------------------------------------------
  /// Cap the combined DMO footprint of a set of actors: every member of
  /// quota group `group` charges its (padded) allocations against the
  /// shared `cap_bytes`; an alloc that would exceed the cap returns
  /// kQuotaExceeded instead of consuming region memory.  Unlike kNoMemory
  /// this is a policy denial, not capacity exhaustion — other groups'
  /// regions are untouched.  Re-calling updates the cap; group 0 = none.
  void set_quota(ActorId actor, std::uint32_t group, std::uint64_t cap_bytes);
  [[nodiscard]] std::uint64_t quota_used(std::uint32_t group) const noexcept;
  [[nodiscard]] std::uint64_t quota_cap(std::uint32_t group) const noexcept;
  /// Allocations denied with kQuotaExceeded.
  [[nodiscard]] std::uint64_t quota_denials() const noexcept {
    return quota_denials_;
  }

  [[nodiscard]] std::uint64_t traps() const noexcept { return traps_; }
  /// Accesses rejected with kWrongSide (remote-residency hits).  These
  /// are not isolation traps: the runtime normally retries them as
  /// DMA-charged remote accesses.
  [[nodiscard]] std::uint64_t wrong_side_hits() const noexcept {
    return wrong_side_hits_;
  }

  /// Optional event tracer (DMO traps + migrations land on tid::kDmo).
  void set_tracer(trace::Tracer* tracer) noexcept { tracer_ = tracer; }

 private:
  struct QuotaGroup {
    std::uint64_t cap = 0;
    std::uint64_t used = 0;
  };

  struct Slot {
    DmoRecord rec;  ///< rec.id == kInvalidObj while the slot is free
    Region* region = nullptr;
    std::uint32_t generation = 0;  ///< high half of the slot's next id
    std::uint32_t prev = kNoSlot;  ///< allocation-order neighbours
    std::uint32_t next = kNoSlot;
  };

  /// The slot an id names; kNoSlot for kInvalidObj.
  [[nodiscard]] static std::uint32_t slot_of(ObjId id) noexcept {
    return static_cast<std::uint32_t>(id) - 1;
  }
  [[nodiscard]] QuotaGroup* quota_of(ActorId actor);
  [[nodiscard]] Region* registered_region(ActorId actor);
  DmoRecord* find_mut(ObjId id);
  /// A free slot for an object of `size` bytes (pooled or new).
  std::uint32_t take_slot(std::uint32_t size);
  /// Return a slot to its pool with its generation bumped, or retire it.
  void release_slot(std::uint32_t slot);
  void link(Region& region, std::uint32_t slot);
  void unlink(Region& region, std::uint32_t slot);
  /// Return `size` charged bytes to the region's quota group, if any.
  static void release_quota(const Region& region, std::uint32_t size);
  /// Count an isolation trap and trace it.
  DmoStatus trap(ActorId actor, DmoStatus status) const;

  std::unordered_map<ActorId, Region> regions_;
  std::vector<Slot> slots_;
  /// Free slots by size class (bit width of the last size), used LIFO.
  std::array<std::vector<std::uint32_t>, 33> free_slots_;
  std::unordered_map<std::uint32_t, QuotaGroup> quota_groups_;
  std::unordered_map<ActorId, std::uint32_t> actor_quota_;
  mutable std::uint64_t traps_ = 0;
  mutable std::uint64_t wrong_side_hits_ = 0;
  std::uint64_t quota_denials_ = 0;
  std::uint64_t next_region_base_ = 0x10f0000000ULL;
  trace::Tracer* tracer_ = nullptr;
};

}  // namespace ipipe
