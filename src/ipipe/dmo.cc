#include "ipipe/dmo.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <utility>

namespace ipipe {
namespace {

constexpr std::uint64_t align_up(std::uint64_t v, std::uint64_t a) noexcept {
  return (v + a - 1) & ~(a - 1);
}

/// The free-slot pool for an object of `size` bytes: its bit width.
std::size_t size_class(std::uint32_t size) noexcept {
  return static_cast<std::size_t>(std::bit_width(size));
}

}  // namespace

RegionAllocator::RegionAllocator(std::uint64_t base, std::uint64_t size)
    : base_(base), size_(size) {
  if (size > 0) free_blocks_[base] = size;
}

std::optional<std::uint64_t> RegionAllocator::alloc(std::uint64_t size) {
  if (size > size_) return std::nullopt;  // and padding cannot wrap
  const std::uint64_t need = padded(size);
  for (auto it = free_blocks_.begin(); it != free_blocks_.end(); ++it) {
    const std::uint64_t addr = it->first;
    const std::uint64_t block = it->second;
    const std::uint64_t aligned = align_up(addr, kAlign);
    const std::uint64_t slack = aligned - addr;
    if (block < slack + need) continue;

    free_blocks_.erase(it);
    if (slack > 0) free_blocks_[addr] = slack;
    const std::uint64_t rest = block - slack - need;
    if (rest > 0) free_blocks_[aligned + need] = rest;

    used_ += need;
    return aligned;
  }
  return std::nullopt;
}

bool RegionAllocator::free(std::uint64_t addr, std::uint64_t size) {
  if (addr < base_ || addr - base_ >= size_ || size > size_) return false;
  size = padded(size);  // cannot wrap: size <= size_
  if (size > size_ - (addr - base_)) return false;
  // A block that overlaps free space was never allocated, or was freed
  // already: coalescing keeps every free byte inside one of these blocks.
  auto next = free_blocks_.lower_bound(addr);
  if (next != free_blocks_.end() && next->first < addr + size) return false;
  if (next != free_blocks_.begin()) {
    const auto prev = std::prev(next);
    if (prev->first + prev->second > addr) return false;
  }
  used_ -= size;

  // Coalesce with the following block.
  if (next != free_blocks_.end() && addr + size == next->first) {
    size += next->second;
    next = free_blocks_.erase(next);
  }
  // Coalesce with the preceding block.
  if (next != free_blocks_.begin()) {
    auto prev = std::prev(next);
    if (prev->first + prev->second == addr) {
      prev->second += size;
      return true;
    }
  }
  free_blocks_[addr] = size;
  return true;
}

std::uint64_t RegionAllocator::largest_free_block() const noexcept {
  std::uint64_t best = 0;
  for (const auto& [addr, size] : free_blocks_) {
    (void)addr;
    best = std::max(best, size);
  }
  return best;
}

void ObjectTable::register_actor(ActorId actor, std::uint64_t region_bytes) {
  Region& region = regions_[actor];
  if (region.registered_) return;
  const std::uint64_t nic_base = next_region_base_;
  const std::uint64_t host_base = next_region_base_ + 0xfc00000000ULL;
  next_region_base_ += align_up(region_bytes, 1 << 20) + (1 << 20);
  region.nic_ = RegionAllocator(nic_base, region_bytes);
  region.host_ = RegionAllocator(host_base, region_bytes);
  region.registered_ = true;
  region.quota_ = quota_of(actor);
}

void ObjectTable::deregister_actor(ActorId actor) {
  Region* region = registered_region(actor);
  if (region == nullptr) return;
  for (std::uint32_t slot = region->head_; slot != kNoSlot;) {
    const std::uint32_t next = slots_[slot].next;
    release_quota(*region, slots_[slot].rec.size);
    release_slot(slot);
    slot = next;
  }
  *region = Region{};
  actor_quota_.erase(actor);
}

void ObjectTable::set_quota(ActorId actor, std::uint32_t group,
                            std::uint64_t cap_bytes) {
  Region* region = registered_region(actor);
  if (group == 0) {
    actor_quota_.erase(actor);
    if (region != nullptr) region->quota_ = nullptr;
    return;
  }
  actor_quota_[actor] = group;
  QuotaGroup& quota = quota_groups_[group];
  quota.cap = cap_bytes;
  if (region != nullptr) region->quota_ = &quota;
}

std::uint64_t ObjectTable::quota_used(std::uint32_t group) const noexcept {
  const auto it = quota_groups_.find(group);
  return it == quota_groups_.end() ? 0 : it->second.used;
}

std::uint64_t ObjectTable::quota_cap(std::uint32_t group) const noexcept {
  const auto it = quota_groups_.find(group);
  return it == quota_groups_.end() ? 0 : it->second.cap;
}

ObjectTable::QuotaGroup* ObjectTable::quota_of(ActorId actor) {
  const auto it = actor_quota_.find(actor);
  if (it == actor_quota_.end()) return nullptr;
  const auto git = quota_groups_.find(it->second);
  return git == quota_groups_.end() ? nullptr : &git->second;
}

void ObjectTable::release_quota(const Region& region, std::uint32_t size) {
  if (region.quota_ == nullptr) return;
  const std::uint64_t charge = RegionAllocator::padded(size);
  region.quota_->used -= std::min(region.quota_->used, charge);
}

ObjectTable::Region* ObjectTable::registered_region(ActorId actor) {
  const auto it = regions_.find(actor);
  return it != regions_.end() && it->second.registered_ ? &it->second : nullptr;
}

const ObjectTable::Region* ObjectTable::region(ActorId actor) const {
  const auto it = regions_.find(actor);
  return it == regions_.end() ? nullptr : &it->second;
}

const RegionAllocator* ObjectTable::allocator_of(ActorId actor,
                                                 MemSide side) const {
  const Region* r = region(actor);
  return r != nullptr && r->registered_ ? &r->side(side) : nullptr;
}

bool ObjectTable::actor_registered(ActorId actor) const noexcept {
  const Region* r = region(actor);
  return r != nullptr && r->registered_;
}

std::uint32_t ObjectTable::take_slot(std::uint32_t size) {
  auto& pool = free_slots_[size_class(size)];
  if (!pool.empty()) {
    const std::uint32_t slot = pool.back();
    pool.pop_back();
    return slot;
  }
  assert(slots_.size() < kNoSlot);  // slot + 1 must fit the low half
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void ObjectTable::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.rec.id = kInvalidObj;
  // A spent generation would wrap back to ids already handed out: retire
  // the slot instead of pooling it.
  if (s.generation == 0xFFFFFFFFu) {
    s.rec.data = {};
    return;
  }
  ++s.generation;
  free_slots_[size_class(s.rec.size)].push_back(slot);
}

void ObjectTable::link(Region& region, std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.prev = region.tail_;
  s.next = kNoSlot;
  (region.tail_ != kNoSlot ? slots_[region.tail_].next : region.head_) = slot;
  region.tail_ = slot;
  ++region.count_;
}

void ObjectTable::unlink(Region& region, std::uint32_t slot) {
  const Slot& s = slots_[slot];
  (s.prev != kNoSlot ? slots_[s.prev].next : region.head_) = s.next;
  (s.next != kNoSlot ? slots_[s.next].prev : region.tail_) = s.prev;
  --region.count_;
}

DmoStatus ObjectTable::alloc(ActorId actor, std::uint32_t size, MemSide side,
                             ObjId& out_id) {
  out_id = kInvalidObj;
  Region* region = registered_region(actor);
  if (region == nullptr) return DmoStatus::kWrongOwner;
  QuotaGroup* quota = region->quota_;
  // The quota charge is the padded footprint: what the region loses.
  const std::uint64_t charge = RegionAllocator::padded(size);
  if (quota != nullptr && quota->cap != 0 && quota->used + charge > quota->cap) {
    ++quota_denials_;
    return DmoStatus::kQuotaExceeded;
  }
  const auto addr = region->side(side).alloc(size);
  if (!addr) return DmoStatus::kNoMemory;
  if (quota != nullptr) quota->used += charge;

  const std::uint32_t slot = take_slot(size);
  Slot& s = slots_[slot];
  s.rec.id = (ObjId{s.generation} << 32) | (slot + 1);
  s.rec.owner = actor;
  s.rec.addr = *addr;
  s.rec.size = size;
  s.rec.side = side;
  s.rec.data.assign(size, 0);  // reuses the pooled buffer
  s.region = region;
  link(*region, slot);
  out_id = s.rec.id;
  return DmoStatus::kOk;
}

DmoStatus ObjectTable::trap(ActorId actor, DmoStatus status) const {
  ++traps_;
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->instant(trace::Cat::kDmo, "dmo_trap", trace::tid::kDmo, actor,
                     {"status", static_cast<double>(status)});
  }
  return status;
}

DmoStatus ObjectTable::free(ActorId actor, ObjId id) {
  DmoRecord* rec = find_mut(id);
  if (rec == nullptr) return DmoStatus::kNoSuchObject;
  if (rec->owner != actor) return trap(actor, DmoStatus::kWrongOwner);
  const std::uint32_t slot = slot_of(id);
  Region& region = *slots_[slot].region;
  const bool freed = region.side(rec->side).free(rec->addr, rec->size);
  assert(freed);
  (void)freed;
  release_quota(region, rec->size);
  unlink(region, slot);
  release_slot(slot);
  return DmoStatus::kOk;
}

DmoStatus ObjectTable::read(ActorId actor, ObjId id, std::uint32_t offset,
                            std::span<std::uint8_t> out,
                            std::optional<MemSide> exec_side) const {
  const DmoRecord* rec = find(id);
  if (rec == nullptr) return DmoStatus::kNoSuchObject;
  if (rec->owner != actor) return trap(actor, DmoStatus::kWrongOwner);
  // 64-bit sum: with 32-bit offset + 32-bit length the check
  // `offset + len > size` wraps (e.g. offset=8, len=0xFFFFFFF8) and
  // admits a heap overflow past the object payload.
  if (std::uint64_t{offset} + out.size() > rec->size) {
    return trap(actor, DmoStatus::kOutOfBounds);
  }
  if (exec_side.has_value() && *exec_side != rec->side) {
    ++wrong_side_hits_;
    return DmoStatus::kWrongSide;
  }
  // A zero-byte object has no buffer: data() may be null, which the
  // mem* functions do not accept even for a zero length.
  if (!out.empty()) {
    std::memcpy(out.data(), rec->data.data() + offset, out.size());
  }
  return DmoStatus::kOk;
}

DmoStatus ObjectTable::write(ActorId actor, ObjId id, std::uint32_t offset,
                             std::span<const std::uint8_t> in,
                             std::optional<MemSide> exec_side) {
  DmoRecord* rec = find_mut(id);
  if (rec == nullptr) return DmoStatus::kNoSuchObject;
  if (rec->owner != actor) return trap(actor, DmoStatus::kWrongOwner);
  if (std::uint64_t{offset} + in.size() > rec->size) {
    return trap(actor, DmoStatus::kOutOfBounds);
  }
  if (exec_side.has_value() && *exec_side != rec->side) {
    ++wrong_side_hits_;
    return DmoStatus::kWrongSide;
  }
  if (!in.empty()) {
    std::memcpy(rec->data.data() + offset, in.data(), in.size());
  }
  return DmoStatus::kOk;
}

DmoStatus ObjectTable::memset(ActorId actor, ObjId id, std::uint8_t value,
                              std::uint32_t offset, std::uint32_t len,
                              std::optional<MemSide> exec_side) {
  DmoRecord* rec = find_mut(id);
  if (rec == nullptr) return DmoStatus::kNoSuchObject;
  if (rec->owner != actor) return trap(actor, DmoStatus::kWrongOwner);
  if (std::uint64_t{offset} + len > rec->size) {
    return trap(actor, DmoStatus::kOutOfBounds);
  }
  if (exec_side.has_value() && *exec_side != rec->side) {
    ++wrong_side_hits_;
    return DmoStatus::kWrongSide;
  }
  if (len > 0) std::memset(rec->data.data() + offset, value, len);
  return DmoStatus::kOk;
}

DmoStatus ObjectTable::memcpy_obj(ActorId actor, ObjId dst, std::uint32_t dst_off,
                                  ObjId src, std::uint32_t src_off,
                                  std::uint32_t len) {
  // Validate both ranges (64-bit, same rationale as read/write) *before*
  // allocating scratch: a hostile len of ~4 GiB must trap, not allocate.
  const DmoRecord* s = find(src);
  if (s == nullptr) return DmoStatus::kNoSuchObject;
  if (s->owner != actor) return trap(actor, DmoStatus::kWrongOwner);
  if (std::uint64_t{src_off} + len > s->size) {
    return trap(actor, DmoStatus::kOutOfBounds);
  }
  const DmoRecord* d = find(dst);
  if (d == nullptr) return DmoStatus::kNoSuchObject;
  if (d->owner != actor) return trap(actor, DmoStatus::kWrongOwner);
  if (std::uint64_t{dst_off} + len > d->size) {
    return trap(actor, DmoStatus::kOutOfBounds);
  }
  std::vector<std::uint8_t> tmp(len);
  if (const auto st = read(actor, src, src_off, tmp); st != DmoStatus::kOk)
    return st;
  return write(actor, dst, dst_off, tmp);
}

DmoStatus ObjectTable::migrate(ActorId actor, ObjId id, MemSide to) {
  DmoRecord* rec = find_mut(id);
  if (rec == nullptr) return DmoStatus::kNoSuchObject;
  if (rec->owner != actor) return trap(actor, DmoStatus::kWrongOwner);
  if (rec->side == to) return DmoStatus::kOk;

  Region& region = *slots_[slot_of(id)].region;
  const auto new_addr = region.side(to).alloc(rec->size);
  if (!new_addr) return DmoStatus::kNoMemory;
  region.side(rec->side).free(rec->addr, rec->size);
  rec->addr = *new_addr;
  rec->side = to;
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->instant(trace::Cat::kDmo, "dmo_migrate", trace::tid::kDmo, actor,
                     {"bytes", static_cast<double>(rec->size)},
                     {"to_host", to == MemSide::kHost ? 1.0 : 0.0});
  }
  return DmoStatus::kOk;
}

MigrateResult ObjectTable::migrate_all(ActorId actor, MemSide to) {
  MigrateResult result;
  Region* region = registered_region(actor);
  if (region == nullptr) return result;
  const RegionAllocator& target = region->side(to);
  for (std::uint32_t slot = region->head_; slot != kNoSlot;
       slot = slots_[slot].next) {
    const DmoRecord& rec = slots_[slot].rec;
    if (rec.side == to) continue;
    const std::uint64_t target_used_before = target.bytes_used();
    switch (migrate(actor, rec.id, to)) {
      case DmoStatus::kOk:
        result.payload_bytes += rec.size;
        result.padded_bytes += target.bytes_used() - target_used_before;
        ++result.moved_objects;
        break;
      case DmoStatus::kNoMemory:
        // Target region exhausted: the object stays behind.  Keep going —
        // smaller objects may still fit — but report the split residency
        // instead of swallowing it.
        ++result.failed_objects;
        break;
      default:
        ++result.failed_objects;
        break;
    }
  }
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->instant(
        trace::Cat::kDmo, "dmo_migrate_all", trace::tid::kDmo, actor,
        {"payload_bytes", static_cast<double>(result.payload_bytes)},
        {"failed_objects", static_cast<double>(result.failed_objects)});
  }
  return result;
}

EvacResult ObjectTable::evacuate_all(ActorId actor, bool mirror) {
  EvacResult result;
  Region* region = registered_region(actor);
  if (region == nullptr) return result;
  for (std::uint32_t slot = region->head_; slot != kNoSlot;
       slot = slots_[slot].next) {
    DmoRecord* rec = &slots_[slot].rec;
    if (rec->side == MemSide::kHost) continue;
    const auto new_addr = region->host_.alloc(rec->size);
    if (!new_addr) {
      // Host region exhausted: the object cannot be rehomed.  It stays
      // marked NIC-side (unreachable) and the caller decides whether
      // that is fatal for the actor.
      ++result.failed_objects;
      continue;
    }
    region->nic_.free(rec->addr, rec->size);
    rec->addr = *new_addr;
    rec->side = MemSide::kHost;
    result.payload_bytes += rec->size;
    ++result.moved_objects;
    if (mirror) {
      result.replayed_bytes += rec->size;
    } else {
      // The bytes lived only in NIC SRAM and died with the firmware.
      std::fill(rec->data.begin(), rec->data.end(), std::uint8_t{0});
      result.lost_bytes += rec->size;
    }
  }
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->instant(
        trace::Cat::kDmo, "dmo_evacuate", trace::tid::kDmo, actor,
        {"replayed_bytes", static_cast<double>(result.replayed_bytes)},
        {"lost_bytes", static_cast<double>(result.lost_bytes)});
  }
  return result;
}

const DmoRecord* ObjectTable::find(ObjId id) const {
  const std::uint32_t slot = slot_of(id);
  if (slot >= slots_.size()) return nullptr;
  const DmoRecord& rec = slots_[slot].rec;
  return rec.id == id ? &rec : nullptr;
}

DmoRecord* ObjectTable::find_mut(ObjId id) {
  return const_cast<DmoRecord*>(std::as_const(*this).find(id));
}

std::uint64_t ObjectTable::actor_bytes(ActorId actor, MemSide side) const {
  const Region* r = region(actor);
  return r == nullptr ? 0 : r->side(side).bytes_used();
}

std::uint64_t ObjectTable::actor_object_count(ActorId actor) const {
  const Region* r = region(actor);
  return r == nullptr ? 0 : r->count_;
}

std::uint64_t ObjectTable::working_set(ActorId actor) const {
  const Region* r = region(actor);
  return r == nullptr ? 0 : r->working_set();
}

}  // namespace ipipe
