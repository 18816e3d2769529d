// Seeded text mutation for the grammar fuzz tests (FaultPlan, nfp specs).
// Each mutant is a few edits of a known-good input: bit flips, token
// drops, duplicates and swaps, digit edits, and splices of what number
// parsers get wrong ('-', "e99", "nan").  No external fuzzer: one seed
// always yields the same mutant, so a failure names its input exactly.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace ipipe::fuzztest {

/// [begin, end) of every maximal run of characters that is neither
/// whitespace nor one of the grammars' separators.
inline std::vector<std::pair<std::size_t, std::size_t>> token_spans(
    const std::string& s) {
  const auto sep = [](char c) {
    return std::string_view(" \t\n,|()=#").find(c) != std::string_view::npos;
  };
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  for (std::size_t i = 0; i < s.size();) {
    if (sep(s[i])) {
      ++i;
      continue;
    }
    const std::size_t begin = i;
    while (i < s.size() && !sep(s[i])) ++i;
    spans.emplace_back(begin, i);
  }
  return spans;
}

/// One random edit of `s`.
inline std::string mutate_once(std::string s, Rng& rng) {
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_u64(n));
  };
  const auto spans = token_spans(s);
  if (s.empty() || spans.empty()) return s + "nan";
  const auto [b, e] = spans[pick(spans.size())];
  switch (rng.uniform_u64(7)) {
    case 0:  // bit flip
      s[pick(s.size())] ^= static_cast<char>(1u << pick(8));
      break;
    case 1:  // token drop
      s.erase(b, e - b);
      break;
    case 2:  // token duplicate
      s.insert(e, " " + s.substr(b, e - b));
      break;
    case 3: {  // token swap (with a later token, if any)
      const auto [b2, e2] = spans[pick(spans.size())];
      if (b2 <= b) break;
      s = s.substr(0, b) + s.substr(b2, e2 - b2) + s.substr(e, b2 - e) +
          s.substr(b, e - b) + s.substr(e2);
      break;
    }
    case 4: {  // digit edit: replace, insert or delete one digit
      std::vector<std::size_t> digits;
      for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] >= '0' && s[i] <= '9') digits.push_back(i);
      }
      if (digits.empty()) break;
      const std::size_t at = digits[pick(digits.size())];
      const char d = static_cast<char>('0' + pick(10));
      switch (pick(3)) {
        case 0:
          s[at] = d;
          break;
        case 1:
          s.insert(s.begin() + static_cast<std::ptrdiff_t>(at), d);
          break;
        default:
          s.erase(at, 1);
          break;
      }
      break;
    }
    case 5: {  // splice before a token, after it, or anywhere
      static constexpr const char* kSplices[] = {"-", "e99", "nan"};
      const std::size_t where = pick(3);
      const std::size_t at =
          where == 0 ? b : where == 1 ? e : pick(s.size() + 1);
      s.insert(at, kSplices[pick(3)]);
      break;
    }
    default:  // replace a token with a splice
      s.replace(b, e - b, pick(2) == 0 ? "-1" : "nan");
      break;
  }
  return s;
}

/// One to three edits of `s`.
inline std::string mutate(std::string s, Rng& rng) {
  const std::size_t edits = 1 + static_cast<std::size_t>(rng.uniform_u64(3));
  for (std::size_t i = 0; i < edits; ++i) s = mutate_once(std::move(s), rng);
  return s;
}

}  // namespace ipipe::fuzztest
