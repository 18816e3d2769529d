// Skip-list Memtable built on distributed memory objects (Figure 12-b).
//
// Every node is a DMO; links are *object ids*, not pointers, so the whole
// structure survives actor migration between NIC and host unchanged.
// Values live in their own DMOs referenced by id (exactly the paper's
// "DMO SkipList node": val_object + forward_obj_id[MAX_LEVEL]).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "ipipe/actor.h"

namespace ipipe::rkv {

class DmoSkipList {
 public:
  static constexpr std::size_t kKeyLen = 16;
  static constexpr std::size_t kMaxLevel = 12;

  DmoSkipList() = default;

  /// Create the head node (call once from the owning actor's init).
  void create(ActorEnv& env);

  /// Insert or update.  A tombstone insert records a deletion marker
  /// (LSM-style delete).  Returns false on DMO exhaustion.
  bool insert(ActorEnv& env, std::string_view key,
              std::span<const std::uint8_t> value, bool tombstone = false);

  struct GetResult {
    std::vector<std::uint8_t> value;
    bool tombstone = false;
  };
  /// Point lookup; nullopt when the key has never been written.
  [[nodiscard]] std::optional<GetResult> get(ActorEnv& env,
                                             std::string_view key) const;

  /// In-order walk over every entry (a memtable flush).  For each entry
  /// `sink.value(key, len, tombstone)` returns a `len`-byte buffer that
  /// the value is read into; when that read fails, `sink.drop()`
  /// discards the entry and the walk ends.
  template <typename Sink>
  void scan(ActorEnv& env, Sink& sink) const;

  /// In-order copy of all entries: scan() into tuples.
  [[nodiscard]] std::vector<std::tuple<std::string, std::vector<std::uint8_t>, bool>>
  scan_all(ActorEnv& env) const;

  /// Free every node and value object, leaving an empty list.
  void clear(ActorEnv& env);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::uint64_t value_bytes() const noexcept { return value_bytes_; }
  [[nodiscard]] ObjId head() const noexcept { return head_; }

 private:
  struct Node {
    char key[kKeyLen];
    std::uint8_t key_len = 0;
    std::uint8_t level = 0;
    std::uint8_t tombstone = 0;
    std::uint8_t pad = 0;
    std::uint32_t value_len = 0;
    ObjId value = kInvalidObj;
    ObjId forward[kMaxLevel];
  };
  static_assert(std::is_trivially_copyable_v<Node>);

  [[nodiscard]] static int random_level(ActorEnv& env);
  [[nodiscard]] static std::string_view node_key(const Node& n) {
    return {n.key, n.key_len};
  }

  ObjId head_ = kInvalidObj;
  std::size_t size_ = 0;
  std::uint64_t value_bytes_ = 0;
};

template <typename Sink>
void DmoSkipList::scan(ActorEnv& env, Sink& sink) const {
  if (head_ == kInvalidObj) return;
  Node cur;
  if (!env.dmo_get(head_, cur)) return;
  ObjId next_id = cur.forward[0];
  while (next_id != kInvalidObj) {
    Node node;
    if (!env.dmo_get(next_id, node)) return;
    const std::span<std::uint8_t> value =
        sink.value(node_key(node), node.value_len, node.tombstone != 0);
    if (node.value != kInvalidObj && node.value_len > 0 &&
        !env.dmo_read(node.value, 0, value)) {
      sink.drop();
      return;
    }
    next_id = node.forward[0];
  }
}

}  // namespace ipipe::rkv
