// Analytic cache/memory-hierarchy model.
//
// Reproduces the pointer-chase latencies of Table 2 and supplies the
// cost hooks that turn real data-structure operations (skip-list walks,
// hash probes, TCAM scans, ...) into simulated time plus IPC/MPKI-style
// microarchitectural statistics for Table 3.
//
// The model is probabilistic: a random access within a working set of W
// bytes hits a level of capacity C with probability min(1, C/W) (fully
// inclusive hierarchy, random replacement).  That is exactly the regime a
// random-stride pointer chase measures, and it is cheap enough to invoke
// on every simulated data-structure operation.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "nic/nic_config.h"

namespace ipipe::nic {

class CacheModel {
 public:
  /// Levels must be ordered fastest-first; the last entry is treated as
  /// main memory (always hits regardless of its capacity field).
  CacheModel(std::vector<MemLevel> levels, std::uint32_t cache_line);

  /// Hierarchy of a NicConfig (L1, L2, DRAM).
  [[nodiscard]] static CacheModel for_nic(const NicConfig& cfg);
  /// The paper's host server: Xeon E5-2680 v3 (Table 2 bottom row).
  [[nodiscard]] static CacheModel intel_host();

  /// Expected latency of one random access within a working set.  The
  /// last answer is kept: a DMO access asks twice for the same set, and
  /// the set changes only when the actor allocates or frees.
  [[nodiscard]] double expected_access_ns(
      std::uint64_t working_set) const noexcept {
    if (working_set != memo_ws_) {
      memo_ns_ = access_ns(working_set);
      memo_ws_ = working_set;
    }
    return memo_ns_;
  }

  /// Expected latency of `n` *dependent* accesses (pointer chase).
  [[nodiscard]] Ns chase_ns(std::uint64_t working_set, std::uint64_t n) const noexcept;

  /// Probability that an access within `working_set` misses the last
  /// private/shared cache level (i.e. goes to DRAM).
  [[nodiscard]] double llc_miss_prob(std::uint64_t working_set) const noexcept;

  /// Sample one access; updates internal access/miss counters.
  Ns access(Rng& rng, std::uint64_t working_set) noexcept;

  /// Sequential streaming touch of `bytes` within `working_set`:
  /// one access per cache line, spatial locality discounted.
  Ns stream_ns(std::uint64_t working_set, std::uint64_t bytes) const noexcept;

  [[nodiscard]] std::uint64_t accesses() const noexcept { return accesses_; }
  [[nodiscard]] std::uint64_t llc_misses() const noexcept { return llc_misses_; }

  [[nodiscard]] std::uint32_t cache_line() const noexcept { return line_; }
  [[nodiscard]] const std::vector<MemLevel>& levels() const noexcept {
    return levels_;
  }

 private:
  [[nodiscard]] double access_ns(std::uint64_t working_set) const noexcept;

  std::vector<MemLevel> levels_;
  std::uint32_t line_;
  // The expected_access_ns memo.  Unsynchronized: a model belongs to one
  // device, and only that device's engine domain queries it.
  mutable std::uint64_t memo_ws_ = 0;
  mutable double memo_ns_ = 0.0;
  std::uint64_t accesses_ = 0;
  std::uint64_t llc_misses_ = 0;
};

}  // namespace ipipe::nic
