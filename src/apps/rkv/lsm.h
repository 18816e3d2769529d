// LSM tree: SSTables organized into exponentially-growing levels with
// minor/major compaction (§4, "Replicated key-value store").
//
// SSTables live on the host side (they "interact with persistent
// storage"), so they are plain sorted runs in host memory; the host-side
// actors charge simulated I/O and merge costs when using them.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ipipe::rkv {

struct SstEntry {
  std::string key;
  std::vector<std::uint8_t> value;
  bool tombstone = false;
};

/// One immutable sorted run.
class SsTable {
 public:
  /// `entries` must be sorted by key, duplicates resolved (newest kept).
  explicit SsTable(std::vector<SstEntry> entries);

  struct LookupStats {
    std::size_t probes = 0;
  };
  [[nodiscard]] const SstEntry* get(std::string_view key,
                                    LookupStats* stats = nullptr) const;

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }
  [[nodiscard]] const std::vector<SstEntry>& entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] const std::string& min_key() const { return entries_.front().key; }
  [[nodiscard]] const std::string& max_key() const { return entries_.back().key; }

 private:
  friend class LsmTree;  // compaction moves entries out of unpinned tables

  std::vector<SstEntry> entries_;
  std::uint64_t bytes_ = 0;
};

/// Merged snapshot iterator over a set of sorted runs, newest first.
/// The scanner holds shared ownership of every table it reads, so a
/// scan started before a compaction (or flush) stays valid and sees a
/// consistent point-in-time view while the tree replaces its tables.
/// Shadowed duplicates are resolved to the newest entry; deleted keys
/// (tombstones) are skipped.
class LsmScanner {
 public:
  [[nodiscard]] bool valid() const noexcept { return cur_ != nullptr; }
  [[nodiscard]] const std::string& key() const { return cur_->key; }
  [[nodiscard]] const std::vector<std::uint8_t>& value() const {
    return cur_->value;
  }
  /// Advance to the next live key (ascending order).
  void next();
  /// Reposition to the first live key >= `key`.
  void seek(const std::string& key);

 private:
  friend class LsmTree;
  explicit LsmScanner(std::vector<std::shared_ptr<const SsTable>> tables);

  struct Cursor {
    std::shared_ptr<const SsTable> table;
    std::size_t pos = 0;
  };
  void advance();

  std::vector<Cursor> cursors_;  ///< newest first (resolves key ties)
  const SstEntry* cur_ = nullptr;
};

/// Leveled LSM structure.  Level L holds at most base_bytes * growth^L.
/// Tables are immutable while shared and reference-counted: readers
/// (LsmScanner snapshots) keep a table alive after compaction drops it
/// from the tree.  Compaction moves the entries out of tables that only
/// the tree holds and copies them from tables a scanner pins.
class LsmTree {
 public:
  struct Config {
    std::uint64_t level0_bytes = 256 * 1024;
    double growth = 10.0;
    std::size_t max_levels = 6;
    std::size_t level0_max_tables = 4;
  };

  LsmTree();  // default Config
  explicit LsmTree(Config cfg) : cfg_(cfg), levels_(cfg.max_levels) {}

  /// Minor compaction: a flushed memtable becomes a new L0 table.
  void add_l0(std::vector<SstEntry> sorted_entries);

  struct GetStats {
    std::size_t tables_probed = 0;
    std::size_t probes = 0;
  };
  /// Search newest-to-oldest, L0 downwards.  Honors tombstones.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> get(
      std::string_view key, GetStats* stats = nullptr) const;

  /// Run compactions until all level size limits hold.  Returns bytes
  /// merged (cost accounting).
  std::uint64_t maybe_compact();

  /// Point-in-time merged scan over every table currently in the tree.
  /// The snapshot survives subsequent add_l0()/maybe_compact() calls.
  [[nodiscard]] LsmScanner scan() const;

  [[nodiscard]] std::size_t table_count() const;
  [[nodiscard]] std::uint64_t total_bytes() const;
  [[nodiscard]] std::size_t level_count() const noexcept { return levels_.size(); }
  [[nodiscard]] std::size_t tables_at(std::size_t level) const {
    return levels_[level].size();
  }
  [[nodiscard]] std::uint64_t compactions() const noexcept { return compactions_; }

 private:
  [[nodiscard]] std::uint64_t level_limit(std::size_t level) const;
  std::uint64_t compact_level(std::size_t level);

  Config cfg_;
  // levels_[0] = newest first; tables shared with in-flight scanners.
  std::vector<std::vector<std::shared_ptr<SsTable>>> levels_;
  std::uint64_t compactions_ = 0;
};

/// Merge sorted runs, newest first, dropping shadowed entries; drops
/// tombstones when `drop_tombstones` (bottom level).
[[nodiscard]] std::vector<SstEntry> merge_runs(
    std::vector<const std::vector<SstEntry>*> newest_first,
    bool drop_tombstones);

}  // namespace ipipe::rkv
