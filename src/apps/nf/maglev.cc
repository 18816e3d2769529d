#include "apps/nf/maglev.h"

#include <algorithm>
#include <functional>

namespace ipipe::nf {
namespace {

std::uint64_t hash_str(const std::string& s, std::uint64_t salt) {
  std::uint64_t h = 1469598103934665603ULL ^ salt;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

bool is_prime(std::size_t n) {
  if (n < 2) return false;
  if (n % 2 == 0) return n == 2;
  for (std::size_t d = 3; d * d <= n; d += 2) {
    if (n % d == 0) return false;
  }
  return true;
}

// Maglev's permutation (offset + j*skip mod m) only cycles through every
// slot when skip is coprime with m; a prime m makes every skip in
// [1, m-1] coprime.  A composite m lets a backend whose skip shares a
// factor with m visit only m/gcd slots — once that cycle fills, the
// inner preference scan never finds an empty slot and populate() spins
// forever.  Rounding up to a prime removes the failure mode entirely.
std::size_t next_prime(std::size_t n) {
  if (n < 2) return 2;
  while (!is_prime(n)) ++n;
  return n;
}

}  // namespace

MaglevTable::MaglevTable(std::vector<std::string> backends,
                         std::size_t table_size)
    : backends_(std::move(backends)),
      alive_(backends_.size(), true),
      entries_(next_prime(table_size), kNoBackend) {
  populate();
}

std::size_t MaglevTable::alive_count() const noexcept {
  std::size_t n = 0;
  for (const bool a : alive_) {
    if (a) ++n;
  }
  return n;
}

bool MaglevTable::populate() {
  const std::size_t m = entries_.size();
  const std::size_t n = backends_.size();
  std::fill(entries_.begin(), entries_.end(), kNoBackend);

  // No live backend: the table stays empty and every lookup resolves to
  // kNoBackend.  The caller decides what "no backend" means (the NF
  // stage drops the packet) — asserting here turns a recoverable state
  // into an abort in debug builds and an infinite loop in release.
  if (alive_count() == 0) return false;

  // Per-backend permutation (offset + j * skip) mod m, Maglev §3.4.
  // pos[i] is backend i's next preference; skip < m, so one subtraction
  // keeps each step inside the table.
  std::vector<std::size_t> pos(n);
  std::vector<std::size_t> skip(n);
  for (std::size_t i = 0; i < n; ++i) {
    pos[i] = hash_str(backends_[i], 0xA11CE) % m;
    skip[i] = hash_str(backends_[i], 0xB0B) % (m - 1) + 1;
  }
  auto advance = [m](std::size_t c, std::size_t step) {
    c += step;
    return c >= m ? c - m : c;
  };

  std::size_t filled = 0;
  while (filled < m) {
    for (std::size_t i = 0; i < n && filled < m; ++i) {
      if (!alive_[i]) continue;
      // Find this backend's next preferred empty slot.  m is prime so
      // the permutation visits every slot and the scan terminates.
      std::size_t c = pos[i];
      while (entries_[c] != kNoBackend) c = advance(c, skip[i]);
      entries_[c] = i;
      pos[i] = advance(c, skip[i]);
      ++filled;
    }
  }
  return true;
}

double MaglevTable::remove_backend(std::size_t idx) {
  if (idx >= backends_.size() || !alive_[idx]) return 0.0;
  const std::vector<std::size_t> before = entries_;
  alive_[idx] = false;
  populate();
  std::size_t changed = 0;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i] != before[i]) ++changed;
  }
  return static_cast<double>(changed) / static_cast<double>(entries_.size());
}

std::vector<std::size_t> MaglevTable::load_distribution() const {
  std::vector<std::size_t> counts(backends_.size(), 0);
  for (const std::size_t e : entries_) {
    if (e < counts.size()) ++counts[e];
  }
  return counts;
}

}  // namespace ipipe::nf
