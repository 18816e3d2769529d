// Extendible hash table over distributed memory objects — the data store
// of the transaction system (§4: "a traditional extensible hashtable",
// realized with distributed shared objects).
//
// Directory entries map hash prefixes to bucket DMOs; buckets split (and
// the directory doubles) on overflow, the classic extendible-hashing
// scheme.  Records carry a version counter and a lock bit to support the
// OCC/2PC protocol.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ipipe/actor.h"

namespace ipipe::dt {

class DmoHashTable {
 public:
  static constexpr std::size_t kKeyLen = 16;
  static constexpr std::size_t kInlineValue = 64;
  static constexpr std::size_t kBucketCap = 8;

  DmoHashTable() = default;

  /// Allocate the initial directory/buckets (call from actor init).
  void create(ActorEnv& env, unsigned initial_global_depth = 2);

  struct Record {
    std::vector<std::uint8_t> value;
    std::uint32_t version = 0;
    bool locked = false;
  };

  [[nodiscard]] std::optional<Record> get(ActorEnv& env,
                                          std::string_view key) const;

  /// Insert or update (no lock semantics): bumps the version.
  bool put(ActorEnv& env, std::string_view key,
           std::span<const std::uint8_t> value);

  /// OCC lock: fails when the record is already locked.  Creates a
  /// zero-version placeholder when the key is absent.
  /// On success returns the record's current version.
  [[nodiscard]] std::optional<std::uint32_t> lock(ActorEnv& env,
                                                  std::string_view key);
  bool unlock(ActorEnv& env, std::string_view key);

  /// Idempotent 2PC commit to an explicit version (`target`, one past
  /// the version the lock saw; replays after a crash land on it again):
  /// writes value, sets version = `target` and releases the lock (unless
  /// `leave_locked`).  Creates the record when absent, so a participant
  /// that lost its store can still converge on the committed state.
  bool commit_at(ActorEnv& env, std::string_view key,
                 std::span<const std::uint8_t> value, std::uint32_t target,
                 bool leave_locked = false);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] unsigned global_depth() const noexcept { return global_depth_; }
  [[nodiscard]] std::size_t bucket_count() const noexcept {
    return bucket_ids_.size();
  }
  [[nodiscard]] std::uint64_t splits() const noexcept { return splits_; }

 private:
  struct Entry {
    char key[kKeyLen];
    std::uint8_t key_len = 0;
    std::uint8_t locked = 0;
    std::uint16_t value_len = 0;
    std::uint32_t version = 0;
    std::uint8_t value[kInlineValue];
  };
  struct Bucket {
    std::uint32_t local_depth = 0;
    std::uint32_t count = 0;
    Entry entries[kBucketCap];
  };
  static_assert(std::is_trivially_copyable_v<Bucket>);

  [[nodiscard]] static std::uint64_t hash_key(std::string_view key) noexcept;
  [[nodiscard]] std::size_t dir_index(std::uint64_t hash) const noexcept {
    return global_depth_ == 0
               ? 0
               : static_cast<std::size_t>(hash & ((1ULL << global_depth_) - 1));
  }
  /// Returns (bucket id, bucket copy, entry index or -1).
  [[nodiscard]] bool load_bucket(ActorEnv& env, std::string_view key,
                                 ObjId& id, Bucket& bucket, int& entry) const;
  bool insert_entry(ActorEnv& env, std::string_view key,
                    std::span<const std::uint8_t> value, std::uint32_t version,
                    bool locked);
  bool split_bucket(ActorEnv& env, std::size_t dir_idx);

  std::vector<ObjId> directory_;
  std::vector<ObjId> bucket_ids_;  // unique buckets (for stats)
  unsigned global_depth_ = 0;
  std::size_t size_ = 0;
  std::uint64_t splits_ = 0;
};

}  // namespace ipipe::dt
