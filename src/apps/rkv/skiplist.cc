#include "apps/rkv/skiplist.h"

#include <cstring>
#include <tuple>

namespace ipipe::rkv {

void DmoSkipList::create(ActorEnv& env) {
  head_ = env.dmo_alloc(sizeof(Node));
  Node head{};
  head.level = kMaxLevel;
  for (auto& f : head.forward) f = kInvalidObj;
  env.dmo_put(head_, head);
  size_ = 0;
  value_bytes_ = 0;
}

int DmoSkipList::random_level(ActorEnv& env) {
  int level = 1;
  while (level < static_cast<int>(kMaxLevel) && env.rng().bernoulli(0.5)) {
    ++level;
  }
  return level;
}

bool DmoSkipList::insert(ActorEnv& env, std::string_view key,
                         std::span<const std::uint8_t> value, bool tombstone) {
  if (key.size() > kKeyLen || head_ == kInvalidObj) return false;

  ObjId update[kMaxLevel];
  Node cur;
  if (!env.dmo_get(head_, cur)) return false;
  ObjId cur_id = head_;

  for (int lvl = static_cast<int>(kMaxLevel) - 1; lvl >= 0; --lvl) {
    while (cur.forward[lvl] != kInvalidObj) {
      Node next;
      if (!env.dmo_get(cur.forward[lvl], next)) return false;
      if (node_key(next) < key) {
        cur_id = cur.forward[lvl];
        cur = next;
      } else {
        break;
      }
    }
    update[lvl] = cur_id;
  }

  // Check whether the key already exists at level 0.
  if (cur.forward[0] != kInvalidObj) {
    Node candidate;
    if (!env.dmo_get(cur.forward[0], candidate)) return false;
    if (node_key(candidate) == key) {
      // Update in place: replace the value object.
      if (candidate.value != kInvalidObj) {
        value_bytes_ -= candidate.value_len;
        env.dmo_free(candidate.value);
        candidate.value = kInvalidObj;
      }
      candidate.tombstone = tombstone ? 1 : 0;
      candidate.value_len = static_cast<std::uint32_t>(value.size());
      if (!value.empty()) {
        candidate.value = env.dmo_alloc(static_cast<std::uint32_t>(value.size()));
        if (candidate.value == kInvalidObj) return false;
        if (!env.dmo_write(candidate.value, 0, value)) return false;
        value_bytes_ += value.size();
      }
      return env.dmo_put(cur.forward[0], candidate);
    }
  }

  // Fresh node.
  const int level = random_level(env);
  Node node{};
  node.key_len = static_cast<std::uint8_t>(key.size());
  std::memcpy(node.key, key.data(), key.size());
  node.level = static_cast<std::uint8_t>(level);
  node.tombstone = tombstone ? 1 : 0;
  node.value_len = static_cast<std::uint32_t>(value.size());
  for (auto& f : node.forward) f = kInvalidObj;
  if (!value.empty()) {
    node.value = env.dmo_alloc(static_cast<std::uint32_t>(value.size()));
    if (node.value == kInvalidObj) return false;
    if (!env.dmo_write(node.value, 0, value)) return false;
  }

  const ObjId node_id = env.dmo_alloc(sizeof(Node));
  if (node_id == kInvalidObj) {
    if (node.value != kInvalidObj) env.dmo_free(node.value);
    return false;
  }

  for (int lvl = 0; lvl < level; ++lvl) {
    Node prev;
    if (!env.dmo_get(update[lvl], prev)) return false;
    node.forward[lvl] = prev.forward[lvl];
    prev.forward[lvl] = node_id;
    if (!env.dmo_put(update[lvl], prev)) return false;
  }
  if (!env.dmo_put(node_id, node)) return false;
  ++size_;
  value_bytes_ += value.size();
  return true;
}

std::optional<DmoSkipList::GetResult> DmoSkipList::get(
    ActorEnv& env, std::string_view key) const {
  if (head_ == kInvalidObj) return std::nullopt;
  Node cur;
  if (!env.dmo_get(head_, cur)) return std::nullopt;

  for (int lvl = static_cast<int>(kMaxLevel) - 1; lvl >= 0; --lvl) {
    while (cur.forward[lvl] != kInvalidObj) {
      Node next;
      if (!env.dmo_get(cur.forward[lvl], next)) return std::nullopt;
      if (node_key(next) < key) {
        cur = next;
      } else {
        break;
      }
    }
  }
  if (cur.forward[0] == kInvalidObj) return std::nullopt;
  Node candidate;
  if (!env.dmo_get(cur.forward[0], candidate)) return std::nullopt;
  if (node_key(candidate) != key) return std::nullopt;

  GetResult result;
  result.tombstone = candidate.tombstone != 0;
  if (candidate.value != kInvalidObj && candidate.value_len > 0) {
    result.value.resize(candidate.value_len);
    if (!env.dmo_read(candidate.value, 0, result.value)) return std::nullopt;
  }
  return result;
}

std::vector<std::tuple<std::string, std::vector<std::uint8_t>, bool>>
DmoSkipList::scan_all(ActorEnv& env) const {
  struct Sink {
    std::vector<std::tuple<std::string, std::vector<std::uint8_t>, bool>> out;
    std::span<std::uint8_t> value(std::string_view key, std::uint32_t len,
                                  bool tombstone) {
      return std::get<1>(out.emplace_back(std::string(key),
                                          std::vector<std::uint8_t>(len),
                                          tombstone));
    }
    void drop() { out.pop_back(); }
  } sink;
  scan(env, sink);
  return std::move(sink.out);
}

void DmoSkipList::clear(ActorEnv& env) {
  if (head_ == kInvalidObj) return;
  Node cur;
  if (!env.dmo_get(head_, cur)) return;
  ObjId next_id = cur.forward[0];
  while (next_id != kInvalidObj) {
    Node node;
    if (!env.dmo_get(next_id, node)) break;
    if (node.value != kInvalidObj) env.dmo_free(node.value);
    const ObjId this_id = next_id;
    next_id = node.forward[0];
    env.dmo_free(this_id);
  }
  for (auto& f : cur.forward) f = kInvalidObj;
  env.dmo_put(head_, cur);
  size_ = 0;
  value_bytes_ = 0;
}

}  // namespace ipipe::rkv
