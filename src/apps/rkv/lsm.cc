#include "apps/rkv/lsm.h"

#include <algorithm>
#include <cassert>

namespace ipipe::rkv {
namespace {

/// One sorted input of a merge.  `owned` is the same run when nobody
/// else reads it, so its entries may be moved out; null when pinned.
struct MergeRun {
  const std::vector<SstEntry>* entries = nullptr;
  std::vector<SstEntry>* owned = nullptr;
};

/// K-way merge of sorted runs, newest first, preferring the newest run
/// on key ties and dropping shadowed entries (and tombstones when
/// `drop_tombstones`).  Each surviving entry is moved out of an owned
/// run or copied from a pinned one, once, into the result.
std::vector<SstEntry> merge(const std::vector<MergeRun>& newest_first,
                            bool drop_tombstones) {
  struct Cursor {
    const MergeRun* run;
    std::size_t pos = 0;
    std::size_t age;  // lower = newer
  };
  std::vector<Cursor> cursors;
  std::size_t total = 0;
  for (std::size_t i = 0; i < newest_first.size(); ++i) {
    const auto& run = newest_first[i];
    if (!run.entries->empty()) cursors.push_back({&run, 0, i});
    total += run.entries->size();
  }

  std::vector<SstEntry> out;
  out.reserve(total);
  while (true) {
    const Cursor* best = nullptr;
    for (const auto& c : cursors) {
      if (c.pos >= c.run->entries->size()) continue;
      const auto& key = (*c.run->entries)[c.pos].key;
      if (best == nullptr) {
        best = &c;
        continue;
      }
      const auto& best_key = (*best->run->entries)[best->pos].key;
      if (key < best_key || (key == best_key && c.age < best->age)) best = &c;
    }
    if (best == nullptr) break;

    // The winner is the newest run holding this key; advance every cursor
    // past the key so shadowed duplicates are dropped, then take the
    // winner (it is still intact while the cursors compare against it).
    const std::size_t at = best->pos;
    const SstEntry& entry = (*best->run->entries)[at];
    for (auto& c : cursors) {
      while (c.pos < c.run->entries->size() &&
             (*c.run->entries)[c.pos].key == entry.key) {
        ++c.pos;
      }
    }
    if (drop_tombstones && entry.tombstone) continue;
    if (best->run->owned != nullptr) {
      out.push_back(std::move((*best->run->owned)[at]));
    } else {
      out.push_back(entry);
    }
  }
  return out;
}

}  // namespace

SsTable::SsTable(std::vector<SstEntry> entries) : entries_(std::move(entries)) {
  assert(std::is_sorted(entries_.begin(), entries_.end(),
                        [](const SstEntry& a, const SstEntry& b) {
                          return a.key < b.key;
                        }));
  for (const auto& e : entries_) bytes_ += e.key.size() + e.value.size() + 1;
}

const SstEntry* SsTable::get(std::string_view key, LookupStats* stats) const {
  std::size_t lo = 0;
  std::size_t hi = entries_.size();
  std::size_t probes = 0;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    ++probes;
    if (entries_[mid].key < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (stats != nullptr) stats->probes = probes;
  if (lo < entries_.size() && entries_[lo].key == key) return &entries_[lo];
  return nullptr;
}

LsmTree::LsmTree() : LsmTree(Config{}) {}

void LsmTree::add_l0(std::vector<SstEntry> sorted_entries) {
  if (sorted_entries.empty()) return;
  levels_[0].insert(levels_[0].begin(),
                    std::make_shared<SsTable>(std::move(sorted_entries)));
}

std::optional<std::vector<std::uint8_t>> LsmTree::get(std::string_view key,
                                                      GetStats* stats) const {
  GetStats local;
  for (const auto& level : levels_) {
    for (const auto& table : level) {
      if (table->size() == 0) continue;
      if (key < table->min_key() || key > table->max_key()) continue;
      ++local.tables_probed;
      SsTable::LookupStats ls;
      if (const SstEntry* e = table->get(key, &ls)) {
        local.probes += ls.probes;
        if (stats != nullptr) *stats = local;
        if (e->tombstone) return std::nullopt;
        return e->value;
      }
      local.probes += ls.probes;
    }
  }
  if (stats != nullptr) *stats = local;
  return std::nullopt;
}

std::uint64_t LsmTree::level_limit(std::size_t level) const {
  double limit = static_cast<double>(cfg_.level0_bytes);
  for (std::size_t i = 0; i < level; ++i) limit *= cfg_.growth;
  return static_cast<std::uint64_t>(limit);
}

std::uint64_t LsmTree::compact_level(std::size_t level) {
  if (level + 1 >= levels_.size()) return 0;
  ++compactions_;

  // Only the tree holds a table with use_count() == 1: its entries can
  // be moved out, because the table is dropped below.
  std::vector<MergeRun> runs;
  for (const std::size_t l : {level, level + 1}) {
    for (const auto& t : levels_[l]) {
      runs.push_back({&t->entries_, t.use_count() == 1 ? &t->entries_ : nullptr});
    }
  }

  const bool bottom = (level + 2 == levels_.size()) ||
                      (levels_.size() > level + 2 &&
                       std::all_of(levels_.begin() +
                                       static_cast<std::ptrdiff_t>(level) + 2,
                                   levels_.end(),
                                   [](const auto& l) { return l.empty(); }));
  auto merged = merge(runs, bottom);

  std::uint64_t bytes = 0;
  for (const auto& e : merged) bytes += e.key.size() + e.value.size() + 1;

  levels_[level].clear();
  levels_[level + 1].clear();
  if (!merged.empty()) {
    levels_[level + 1].push_back(std::make_shared<SsTable>(std::move(merged)));
  }
  return bytes;
}

LsmScanner::LsmScanner(std::vector<std::shared_ptr<const SsTable>> tables) {
  cursors_.reserve(tables.size());
  for (auto& t : tables) {
    if (t->size() > 0) cursors_.push_back(Cursor{std::move(t), 0});
  }
  advance();
}

void LsmScanner::advance() {
  cur_ = nullptr;
  while (true) {
    // Smallest key wins; on ties the newest cursor (lowest index) wins.
    const Cursor* best = nullptr;
    for (const auto& c : cursors_) {
      if (c.pos >= c.table->size()) continue;
      if (best == nullptr ||
          c.table->entries()[c.pos].key <
              best->table->entries()[best->pos].key) {
        best = &c;
      }
    }
    if (best == nullptr) return;  // exhausted
    const SstEntry& e = best->table->entries()[best->pos];
    for (auto& c : cursors_) {
      while (c.pos < c.table->size() &&
             c.table->entries()[c.pos].key == e.key) {
        ++c.pos;
      }
    }
    if (!e.tombstone) {
      cur_ = &e;  // points into a pinned (shared) immutable table
      return;
    }
  }
}

void LsmScanner::next() { advance(); }

void LsmScanner::seek(const std::string& key) {
  for (auto& c : cursors_) {
    const auto& entries = c.table->entries();
    c.pos = static_cast<std::size_t>(
        std::lower_bound(entries.begin(), entries.end(), key,
                         [](const SstEntry& e, const std::string& k) {
                           return e.key < k;
                         }) -
        entries.begin());
  }
  advance();
}

LsmScanner LsmTree::scan() const {
  std::vector<std::shared_ptr<const SsTable>> tables;
  tables.reserve(table_count());
  for (const auto& level : levels_) {
    for (const auto& t : level) tables.push_back(t);
  }
  return LsmScanner(std::move(tables));
}

std::uint64_t LsmTree::maybe_compact() {
  std::uint64_t merged_bytes = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    if (levels_[0].size() > cfg_.level0_max_tables) {
      merged_bytes += compact_level(0);
      changed = true;
      continue;
    }
    for (std::size_t level = 0; level + 1 < levels_.size(); ++level) {
      std::uint64_t bytes = 0;
      for (const auto& t : levels_[level]) bytes += t->bytes();
      if (bytes > level_limit(level)) {
        merged_bytes += compact_level(level);
        changed = true;
        break;
      }
    }
  }
  return merged_bytes;
}

std::size_t LsmTree::table_count() const {
  std::size_t n = 0;
  for (const auto& level : levels_) n += level.size();
  return n;
}

std::uint64_t LsmTree::total_bytes() const {
  std::uint64_t bytes = 0;
  for (const auto& level : levels_) {
    for (const auto& t : level) bytes += t->bytes();
  }
  return bytes;
}

std::vector<SstEntry> merge_runs(
    std::vector<const std::vector<SstEntry>*> newest_first,
    bool drop_tombstones) {
  std::vector<MergeRun> runs;
  runs.reserve(newest_first.size());
  for (const auto* run : newest_first) runs.push_back({run, nullptr});
  return merge(runs, drop_tombstones);
}

}  // namespace ipipe::rkv
