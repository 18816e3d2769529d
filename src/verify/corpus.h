// The tests/corpus case format: one verify_fuzz run and its expected
// verdict, replayed by `verify_fuzz --replay-corpus`.
//
//   # comment
//   app rkv|dt|shard
//   seed <n>
//   duration <seconds, > 0>
//   inject none|stale-read|lost-abort|stale-cache   (optional)
//   expect pass|fail
//   plan:                                            (optional)
//   <FaultPlan text, to the end of the file>
//
// The reader is strict: each keyword appears at most once with exactly
// one value, `app`, `seed`, `duration` and `expect` are required, numbers
// are whole tokens, and an unknown keyword or value is an error, so a
// mistyped file cannot replay a different case.  Without `plan:` the run
// uses the seed-derived fault plan.
#pragma once

#include <optional>
#include <string>

#include "verify/fuzz.h"

namespace ipipe::verify {

struct CorpusCase {
  FuzzOptions fo;  ///< app, seed, duration, injection and plan
  bool expect_fail = false;
};

/// Parses corpus text.  On error returns nullopt and, when `error` is
/// set, a message naming the line and the keyword.
[[nodiscard]] std::optional<CorpusCase> parse_corpus(const std::string& text,
                                                     std::string* error = nullptr);

/// Renders `c` so parse_corpus() reads back the same case.
[[nodiscard]] std::string corpus_to_text(const CorpusCase& c);

/// "rkv", "dt" or "shard".
[[nodiscard]] const char* app_name(FuzzApp app);

}  // namespace ipipe::verify
