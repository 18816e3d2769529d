// The consensus replica's client-request dedup table: request id -> the
// log slot the request was proposed in, bounded by a cap with FIFO
// eviction in first-insert order (updating a present id keeps its
// place).
//
// Entries sit in a ring in insertion order; an open-addressing index
// (linear probing, backward-shift deletion) maps an id to its ring
// position.  Both start small and double as the table fills, up to the
// first power of two at or above the cap, so a replica that sees few
// requests never pays for the cap.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ipipe::rkv {

class RequestTable {
 public:
  explicit RequestTable(std::size_t cap) : cap_(cap) {}

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// The slot `id` was remembered with, nullptr when absent.
  [[nodiscard]] const std::uint64_t* find(std::uint64_t id) const noexcept {
    if (size_ == 0) return nullptr;
    const std::size_t at = probe(id);
    return index_[at] == 0 ? nullptr : &ring_[index_[at] - 1].slot;
  }

  /// Remember `id -> slot`: an id already present takes the new slot in
  /// place; a new id is the newest entry, evicting the oldest when the
  /// table holds `cap` entries.
  void remember(std::uint64_t id, std::uint64_t slot) {
    if (size_ != 0) {
      const std::size_t at = probe(id);
      if (index_[at] != 0) {
        ring_[index_[at] - 1].slot = slot;
        return;
      }
    }
    if (cap_ == 0) return;
    if (size_ == cap_) {
      evict_oldest();
    } else if (size_ == ring_.size()) {
      grow();
    }
    const std::size_t pos = (head_ + size_) & (ring_.size() - 1);
    ring_[pos] = Entry{id, slot};
    ++size_;
    index_[probe(id)] = static_cast<std::uint32_t>(pos + 1);
  }

  /// Forget every entry (keeps the storage).
  void clear() noexcept {
    std::fill(index_.begin(), index_.end(), 0);
    head_ = 0;
    size_ = 0;
  }

 private:
  struct Entry {
    std::uint64_t id;
    std::uint64_t slot;
  };

  [[nodiscard]] std::size_t home(std::uint64_t id) const noexcept {
    // Fibonacci hashing: request ids are (node, sequence) packed, so
    // their low bits alone cluster.
    return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ULL) >>
                                    (64 - index_bits_));
  }

  /// The index cell holding `id`, or the empty cell its probe ends at.
  [[nodiscard]] std::size_t probe(std::uint64_t id) const noexcept {
    const std::size_t mask = index_.size() - 1;
    std::size_t at = home(id);
    while (index_[at] != 0 && ring_[index_[at] - 1].id != id) {
      at = (at + 1) & mask;
    }
    return at;
  }

  void evict_oldest() noexcept {
    std::size_t hole = probe(ring_[head_].id);
    head_ = (head_ + 1) & (ring_.size() - 1);
    --size_;
    // Backward-shift deletion: pull later cells of the probe run into
    // the hole unless that would move one before its home cell.
    const std::size_t mask = index_.size() - 1;
    for (std::size_t at = (hole + 1) & mask; index_[at] != 0;
         at = (at + 1) & mask) {
      const std::size_t want = home(ring_[index_[at] - 1].id);
      if (((at - want) & mask) >= ((at - hole) & mask)) {
        index_[hole] = index_[at];
        hole = at;
      }
    }
    index_[hole] = 0;
  }

  /// Double the ring (first-insert order kept, oldest at 0) and rebuild
  /// the index at twice the ring's size.
  void grow() {
    const std::size_t cap = std::max<std::size_t>(
        8, std::min(ring_.size() * 2, std::bit_ceil(cap_)));
    std::vector<Entry> ring(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      ring[i] = ring_[(head_ + i) & (ring_.size() - 1)];
    }
    ring_ = std::move(ring);
    head_ = 0;
    index_bits_ = std::countr_zero(cap) + 1;
    index_.assign(std::size_t{1} << index_bits_, 0);
    for (std::size_t i = 0; i < size_; ++i) {
      index_[probe(ring_[i].id)] = static_cast<std::uint32_t>(i + 1);
    }
  }

  std::size_t cap_;
  std::vector<Entry> ring_;             ///< power-of-two size
  std::vector<std::uint32_t> index_;    ///< ring position + 1; 0 = empty
  int index_bits_ = 0;
  std::size_t head_ = 0;                ///< ring position of the oldest
  std::size_t size_ = 0;
};

}  // namespace ipipe::rkv
