// Text pipeline specs.
//
// Grammar (whitespace-insensitive):
//   pipeline := stage ( '|' stage )*
//   stage    := name [ '(' arg ( ',' arg )* ')' ]
//   arg      := number-with-unit | key '=' number-with-unit
//
// Numbers accept rate suffixes (Kbps/Mbps/Gbps -> bits/sec) and size
// suffixes (K/M/G -> *1024).  Example:
//   firewall(rules=128) | ratelimit(1Gbps) | maglev(8) | counter
//
// Positional args map onto each stage's canonical first parameters (see
// the table in make_stage); key=val args address any parameter by name.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "nfp/stage.h"

namespace ipipe::nfp {

struct StageSpec {
  std::string kind;                    ///< stage name, e.g. "ratelimit"
  std::vector<double> args;            ///< positional arguments
  std::map<std::string, double> kv;    ///< key=value arguments

  /// args[i] if present, kv[key] if present, else fallback.
  [[nodiscard]] double param(std::size_t i, const std::string& key,
                             double fallback) const;
};

struct PipelineSpec {
  std::vector<StageSpec> stages;
  std::string text;  ///< normalized form; parses back to equal stages

  [[nodiscard]] std::size_t depth() const noexcept { return stages.size(); }
};

/// Parse a pipeline spec; throws std::invalid_argument with a
/// position-annotated message on malformed input.
[[nodiscard]] PipelineSpec parse_pipeline(const std::string& text);

/// Parse "1Gbps" / "500Mbps" / "64K" / "1024" into a finite double.
/// Throws std::invalid_argument on malformed or non-finite input.
[[nodiscard]] double parse_number(const std::string& token);

/// Instantiate one stage from its spec (seeded deterministically from
/// `seed`, so two pipelines built from the same text behave identically).
/// Throws std::invalid_argument for an unknown stage kind.
[[nodiscard]] std::unique_ptr<Stage> make_stage(const StageSpec& spec,
                                                std::uint64_t seed = 42);

/// All stage kinds make_stage accepts (for --help and error messages).
[[nodiscard]] const std::vector<std::string>& stage_kinds();

/// Canonical positional parameter names of `kind`, in positional order
/// (the table make_stage binds against).  nullptr for unknown kinds —
/// those still parse and only fail at make_stage, so spec-level argument
/// validation skips them.
[[nodiscard]] const std::vector<std::string>* stage_param_names(
    const std::string& kind);

}  // namespace ipipe::nfp
