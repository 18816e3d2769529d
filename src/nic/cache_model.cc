#include "nic/cache_model.h"

#include <algorithm>
#include <cassert>

namespace ipipe::nic {

CacheModel::CacheModel(std::vector<MemLevel> levels, std::uint32_t cache_line)
    : levels_(std::move(levels)), line_(cache_line) {
  assert(!levels_.empty());
  memo_ns_ = access_ns(memo_ws_);
}

CacheModel CacheModel::for_nic(const NicConfig& cfg) {
  return CacheModel({cfg.l1, cfg.l2, cfg.dram}, cfg.cache_line);
}

CacheModel CacheModel::intel_host() {
  // Table 2, "Host Intel server": L1 1.2ns, L2 6.0ns, L3 22.4ns, DRAM 62.2ns.
  return CacheModel({{32 * KiB, 1.2},
                     {256 * KiB, 6.0},
                     {30 * MiB, 22.4},
                     {64 * GiB, 62.2}},
                    64);
}

double CacheModel::access_ns(std::uint64_t working_set) const noexcept {
  // P(hit level i | missed all faster levels): with inclusive caches and a
  // random working set, the access resolves at the first level whose
  // capacity covers the line.  P(resolve at i) = min(1, C_i/W) - covered.
  double covered = 0.0;
  double total = 0.0;
  const double ws = static_cast<double>(std::max<std::uint64_t>(working_set, 1));
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    const bool last = (i + 1 == levels_.size());
    const double cap = static_cast<double>(levels_[i].capacity_bytes);
    const double reach = last ? 1.0 : std::min(1.0, cap / ws);
    const double p = std::max(0.0, reach - covered);
    total += p * levels_[i].latency_ns;
    covered = std::max(covered, reach);
    if (covered >= 1.0) break;
  }
  return total;
}

Ns CacheModel::chase_ns(std::uint64_t working_set, std::uint64_t n) const noexcept {
  return static_cast<Ns>(expected_access_ns(working_set) * static_cast<double>(n));
}

double CacheModel::llc_miss_prob(std::uint64_t working_set) const noexcept {
  if (levels_.size() < 2) return 0.0;
  const auto& llc = levels_[levels_.size() - 2];
  const double ws = static_cast<double>(std::max<std::uint64_t>(working_set, 1));
  return 1.0 - std::min(1.0, static_cast<double>(llc.capacity_bytes) / ws);
}

Ns CacheModel::access(Rng& rng, std::uint64_t working_set) noexcept {
  ++accesses_;
  const double ws = static_cast<double>(std::max<std::uint64_t>(working_set, 1));
  double covered = 0.0;
  const double u = rng.uniform();
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    const bool last = (i + 1 == levels_.size());
    const double cap = static_cast<double>(levels_[i].capacity_bytes);
    const double reach = last ? 1.0 : std::min(1.0, cap / ws);
    if (u < reach || last) {
      if (last && levels_.size() >= 2) ++llc_misses_;
      return static_cast<Ns>(levels_[i].latency_ns);
    }
    covered = reach;
  }
  (void)covered;
  return static_cast<Ns>(levels_.back().latency_ns);
}

Ns CacheModel::stream_ns(std::uint64_t working_set, std::uint64_t bytes) const noexcept {
  const std::uint64_t lines = (bytes + line_ - 1) / line_;
  // Streaming gets hardware prefetch; charge ~1/4 of the random-access
  // latency per line, floor of 1ns per line.
  const double per_line = std::max(1.0, expected_access_ns(working_set) / 4.0);
  return static_cast<Ns>(per_line * static_cast<double>(std::max<std::uint64_t>(lines, 1)));
}

}  // namespace ipipe::nic
