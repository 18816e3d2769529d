// Domain-specific accelerator bank (Table 3, right half).
//
// Timing model: a batch-k invocation over items of `bytes` each costs
//   invoke_ns + k * per_item_ns * (bytes / 1024)
// i.e. a fixed engine-invocation overhead amortized over the batch plus a
// per-byte streaming cost.  The (invoke, per_item) pairs are fitted from
// the paper's measured per-request latencies at batch sizes 1 and 32 with
// 1KB requests; the fit reproduces the paper's batch-8 column within
// ~0.2µs for every engine.
//
// Functional behaviour for the engines the applications rely on (CRC,
// MD5, SHA-1, AES) is delegated to the real `crypto::` implementations by
// callers; this class only accounts for time and usage statistics.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "common/units.h"

namespace ipipe::nic {

enum class AccelKind : std::uint8_t {
  kCrc = 0,
  kMd5,
  kSha1,
  kTripleDes,
  kAes,
  kKasumi,
  kSms4,
  kSnow3g,
  kFau,      // fetch-and-add / atomic unit
  kZip,      // compression
  kDfa,      // pattern matching (deterministic finite automaton)
  kCount,
};

constexpr std::size_t kNumAccelKinds = static_cast<std::size_t>(AccelKind::kCount);

[[nodiscard]] std::string_view accel_name(AccelKind kind) noexcept;

struct AccelTiming {
  double invoke_ns;    ///< fixed invocation overhead
  double per_item_ns;  ///< per-item cost for a 1KB item
  bool batchable;      ///< ZIP is not batchable in the paper's table
};

/// Fitted Table-3 timings for the LiquidIOII CN2350 engines.
[[nodiscard]] const std::array<AccelTiming, kNumAccelKinds>& liquidio_accel_timings() noexcept;

class AcceleratorBank {
 public:
  AcceleratorBank() : timings_(liquidio_accel_timings()) {}
  explicit AcceleratorBank(std::array<AccelTiming, kNumAccelKinds> timings)
      : timings_(timings) {}

  /// Core-blocking cost of processing a batch of `batch` items of `bytes`
  /// each on engine `kind` (the NIC core waits for completion, §2.2.3).
  [[nodiscard]] Ns batch_cost(AccelKind kind, std::uint32_t bytes,
                              std::uint32_t batch) const noexcept;

  /// Per-item amortized cost (what Table 3 reports).
  [[nodiscard]] double per_item_us(AccelKind kind, std::uint32_t bytes,
                                   std::uint32_t batch) const noexcept;

  void record_use(AccelKind kind, std::uint64_t items) noexcept {
    uses_[static_cast<std::size_t>(kind)] += items;
  }
  [[nodiscard]] std::uint64_t uses(AccelKind kind) const noexcept {
    return uses_[static_cast<std::size_t>(kind)];
  }

  /// Chaos hook: mark one engine bank dead (accel-fail) or recovered.
  /// A failed bank still computes the right answer — callers fall back
  /// to a software path on the NIC cores — it just stops being cheap.
  void set_failed(AccelKind kind, bool failed) noexcept {
    failed_[static_cast<std::size_t>(kind)] = failed;
  }
  [[nodiscard]] bool failed(AccelKind kind) const noexcept {
    return failed_[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] bool any_failed() const noexcept {
    for (const bool f : failed_) {
      if (f) return true;
    }
    return false;
  }

 private:
  std::array<AccelTiming, kNumAccelKinds> timings_;
  std::array<std::uint64_t, kNumAccelKinds> uses_{};
  std::array<bool, kNumAccelKinds> failed_{};
};

}  // namespace ipipe::nic
