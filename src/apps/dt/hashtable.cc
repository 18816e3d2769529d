#include "apps/dt/hashtable.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace ipipe::dt {

std::uint64_t DmoHashTable::hash_key(std::string_view key) noexcept {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : key) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

void DmoHashTable::create(ActorEnv& env, unsigned initial_global_depth) {
  global_depth_ = initial_global_depth;
  const std::size_t buckets = std::size_t{1} << global_depth_;
  directory_.assign(buckets, kInvalidObj);
  for (std::size_t i = 0; i < buckets; ++i) {
    const ObjId id = env.dmo_alloc(sizeof(Bucket));
    Bucket b{};
    b.local_depth = global_depth_;
    env.dmo_put(id, b);
    directory_[i] = id;
    bucket_ids_.push_back(id);
  }
}

bool DmoHashTable::load_bucket(ActorEnv& env, std::string_view key, ObjId& id,
                               Bucket& bucket, int& entry) const {
  if (directory_.empty() || key.size() > kKeyLen) return false;
  id = directory_[dir_index(hash_key(key))];
  if (!env.dmo_get(id, bucket)) return false;
  entry = -1;
  for (std::uint32_t i = 0; i < bucket.count; ++i) {
    const Entry& e = bucket.entries[i];
    if (std::string_view(e.key, e.key_len) == key) {
      entry = static_cast<int>(i);
      break;
    }
  }
  return true;
}

std::optional<DmoHashTable::Record> DmoHashTable::get(
    ActorEnv& env, std::string_view key) const {
  ObjId id;
  Bucket bucket;
  int idx;
  if (!load_bucket(env, key, id, bucket, idx) || idx < 0) return std::nullopt;
  const Entry& e = bucket.entries[idx];
  Record rec;
  rec.version = e.version;
  rec.locked = e.locked != 0;
  rec.value.assign(e.value, e.value + e.value_len);
  return rec;
}

bool DmoHashTable::insert_entry(ActorEnv& env, std::string_view key,
                                std::span<const std::uint8_t> value,
                                std::uint32_t version, bool locked) {
  if (key.size() > kKeyLen || value.size() > kInlineValue) return false;
  ObjId id;
  Bucket bucket;
  int idx;
  if (!load_bucket(env, key, id, bucket, idx)) return false;

  if (idx < 0 && bucket.count >= kBucketCap) {
    if (!split_bucket(env, dir_index(hash_key(key)))) return false;
    return insert_entry(env, key, value, version, locked);
  }

  Entry& e = idx >= 0 ? bucket.entries[idx] : bucket.entries[bucket.count];
  if (idx < 0) {
    e = Entry{};
    e.key_len = static_cast<std::uint8_t>(key.size());
    if (!key.empty()) std::memcpy(e.key, key.data(), key.size());
    ++bucket.count;
    ++size_;
  }
  e.version = version;
  e.locked = locked ? 1 : 0;
  e.value_len = static_cast<std::uint16_t>(value.size());
  // Placeholder locks insert empty values: data() is null there, and
  // memcpy(_, nullptr, 0) is still UB.
  if (!value.empty()) std::memcpy(e.value, value.data(), value.size());
  return env.dmo_put(id, bucket);
}

bool DmoHashTable::split_bucket(ActorEnv& env, std::size_t dir_idx) {
  const ObjId old_id = directory_[dir_idx];
  Bucket old_bucket;
  if (!env.dmo_get(old_id, old_bucket)) return false;

  if (old_bucket.local_depth == global_depth_) {
    // Double the directory.
    if (global_depth_ >= 20) return false;  // sanity cap: 1M entries
    const std::size_t old_size = directory_.size();
    directory_.resize(old_size * 2);
    for (std::size_t i = 0; i < old_size; ++i) {
      directory_[old_size + i] = directory_[i];
    }
    ++global_depth_;
  }

  // Allocate the sibling and redistribute by the new distinguishing bit.
  const ObjId new_id = env.dmo_alloc(sizeof(Bucket));
  if (new_id == kInvalidObj) return false;
  ++splits_;
  bucket_ids_.push_back(new_id);

  Bucket low{};
  Bucket high{};
  const std::uint32_t new_depth = old_bucket.local_depth + 1;
  low.local_depth = high.local_depth = new_depth;
  const std::uint64_t bit = 1ULL << old_bucket.local_depth;
  for (std::uint32_t i = 0; i < old_bucket.count; ++i) {
    const Entry& e = old_bucket.entries[i];
    const std::uint64_t h = hash_key(std::string_view(e.key, e.key_len));
    Bucket& target = (h & bit) ? high : low;
    target.entries[target.count++] = e;
  }

  if (!env.dmo_put(old_id, low)) return false;
  if (!env.dmo_put(new_id, high)) return false;

  // Rewire directory entries that referenced the old bucket: those whose
  // new distinguishing bit is set now point at the sibling.
  for (std::size_t i = 0; i < directory_.size(); ++i) {
    if (directory_[i] == old_id && (i & bit) != 0) directory_[i] = new_id;
  }
  (void)dir_idx;
  return true;
}

bool DmoHashTable::put(ActorEnv& env, std::string_view key,
                       std::span<const std::uint8_t> value) {
  ObjId id;
  Bucket bucket;
  int idx;
  if (!load_bucket(env, key, id, bucket, idx)) return false;
  const std::uint32_t version =
      idx >= 0 ? bucket.entries[idx].version + 1 : 1;
  return insert_entry(env, key, value, version, /*locked=*/false);
}

std::optional<std::uint32_t> DmoHashTable::lock(ActorEnv& env,
                                                std::string_view key) {
  ObjId id;
  Bucket bucket;
  int idx;
  if (!load_bucket(env, key, id, bucket, idx)) return std::nullopt;
  if (idx >= 0) {
    Entry& e = bucket.entries[idx];
    if (e.locked != 0) return std::nullopt;
    e.locked = 1;
    if (!env.dmo_put(id, bucket)) return std::nullopt;
    return e.version;
  }
  // Absent: create a locked placeholder at version 0.
  if (!insert_entry(env, key, {}, 0, /*locked=*/true)) return std::nullopt;
  return 0;
}

bool DmoHashTable::unlock(ActorEnv& env, std::string_view key) {
  ObjId id;
  Bucket bucket;
  int idx;
  if (!load_bucket(env, key, id, bucket, idx) || idx < 0) return false;
  bucket.entries[idx].locked = 0;
  return env.dmo_put(id, bucket);
}

bool DmoHashTable::commit_at(ActorEnv& env, std::string_view key,
                             std::span<const std::uint8_t> value,
                             std::uint32_t target, bool leave_locked) {
  if (value.size() > kInlineValue) return false;
  ObjId id;
  Bucket bucket;
  int idx;
  if (!load_bucket(env, key, id, bucket, idx)) return false;
  if (idx < 0) {
    return insert_entry(env, key, value, target, leave_locked);
  }
  Entry& e = bucket.entries[idx];
  e.value_len = static_cast<std::uint16_t>(value.size());
  std::memcpy(e.value, value.data(), value.size());
  e.version = target;
  e.locked = leave_locked ? 1 : 0;
  return env.dmo_put(id, bucket);
}

}  // namespace ipipe::dt
