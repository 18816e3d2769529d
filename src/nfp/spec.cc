#include "nfp/spec.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "common/exact_text.h"

namespace ipipe::nfp {
namespace {

[[noreturn]] void fail(const std::string& text, std::size_t pos,
                       const std::string& what) {
  std::ostringstream os;
  os << "pipeline spec error at offset " << pos << ": " << what << " in \""
     << text << '"';
  throw std::invalid_argument(os.str());
}

bool ident_char(char c) noexcept {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

void skip_ws(const std::string& s, std::size_t& i) {
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i])) != 0) {
    ++i;
  }
}

std::string read_ident(const std::string& s, std::size_t& i) {
  const std::size_t start = i;
  while (i < s.size() && ident_char(s[i])) ++i;
  return s.substr(start, i - start);
}

}  // namespace

double parse_number(const std::string& token) {
  if (token.empty()) throw std::invalid_argument("empty numeric value");
  std::size_t used = 0;
  double v = 0;
  try {
    v = std::stod(token, &used);
  } catch (const std::exception&) {
    throw std::invalid_argument("malformed number '" + token + "'");
  }
  std::string suffix = token.substr(used);
  std::transform(suffix.begin(), suffix.end(), suffix.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  constexpr std::pair<std::string_view, double> kUnits[] = {
      {"", 1},           {"kbps", 1e3},        {"mbps", 1e6},
      {"gbps", 1e9},     {"k", 1024.0},        {"m", 1024.0 * 1024},
      {"g", 1024.0 * 1024 * 1024}};
  for (const auto& [unit, scale] : kUnits) {
    if (suffix != unit) continue;
    // NaN never equals itself and an infinity reaches the stages' integer
    // casts, so neither is a parameter (nor could it round-trip).
    if (!std::isfinite(v * scale)) {
      throw std::invalid_argument("non-finite number '" + token + "'");
    }
    return v * scale;
  }
  throw std::invalid_argument("unknown unit suffix '" + suffix + "' in '" +
                              token + "' (use Kbps/Mbps/Gbps or K/M/G)");
}

PipelineSpec parse_pipeline(const std::string& text) {
  PipelineSpec out;
  std::size_t i = 0;
  skip_ws(text, i);
  if (i >= text.size()) fail(text, i, "empty pipeline");
  while (true) {
    skip_ws(text, i);
    StageSpec stage;
    stage.kind = read_ident(text, i);
    if (stage.kind.empty()) fail(text, i, "expected stage name");
    skip_ws(text, i);
    if (i < text.size() && text[i] == '(') {
      ++i;  // consume '('
      skip_ws(text, i);
      // Known kinds get their argument bindings checked against the
      // canonical parameter table; unknown kinds (which only fail later,
      // at make_stage) skip validation so they keep round-tripping.
      const std::vector<std::string>* params = stage_param_names(stage.kind);
      bool seen_named = false;
      while (i < text.size() && text[i] != ')') {
        // Either `key=value` or a bare positional value; values may carry
        // a unit suffix so read the full token up to ',' / ')'.
        const std::size_t tok_start = i;
        std::size_t tok_end = i;
        while (tok_end < text.size() && text[tok_end] != ',' &&
               text[tok_end] != ')' && text[tok_end] != '=') {
          ++tok_end;
        }
        if (tok_end < text.size() && text[tok_end] == '=') {
          std::string key = text.substr(tok_start, tok_end - tok_start);
          key.erase(std::remove_if(key.begin(), key.end(),
                                   [](unsigned char c) {
                                     return std::isspace(c) != 0;
                                   }),
                    key.end());
          if (key.empty()) fail(text, tok_start, "empty parameter name");
          if (stage.kv.count(key) != 0) {
            fail(text, tok_start, "duplicate parameter '" + key + "'");
          }
          if (params != nullptr) {
            const auto it = std::find(params->begin(), params->end(), key);
            if (it == params->end()) {
              fail(text, tok_start,
                   "unknown parameter '" + key + "' for stage '" + stage.kind +
                       "'");
            }
            const auto idx =
                static_cast<std::size_t>(it - params->begin());
            if (idx < stage.args.size()) {
              // Silent last-write-wins used to hide this: param() prefers
              // kv, so the positional binding would be dead on arrival.
              fail(text, tok_start,
                   "parameter '" + key + "' already bound positionally");
            }
          }
          seen_named = true;
          i = tok_end + 1;  // past '='
          std::size_t val_end = i;
          while (val_end < text.size() && text[val_end] != ',' &&
                 text[val_end] != ')') {
            ++val_end;
          }
          std::string val = text.substr(i, val_end - i);
          val.erase(std::remove_if(val.begin(), val.end(),
                                   [](unsigned char c) {
                                     return std::isspace(c) != 0;
                                   }),
                    val.end());
          try {
            stage.kv[key] = parse_number(val);
          } catch (const std::invalid_argument& e) {
            fail(text, i, e.what());
          }
          i = val_end;
        } else {
          std::string val = text.substr(tok_start, tok_end - tok_start);
          val.erase(std::remove_if(val.begin(), val.end(),
                                   [](unsigned char c) {
                                     return std::isspace(c) != 0;
                                   }),
                    val.end());
          if (val.empty()) fail(text, tok_start, "empty argument");
          if (seen_named) {
            // A positional after a named argument has no well-defined
            // slot — and if its slot's name was already given, param()
            // would silently prefer the kv binding.
            fail(text, tok_start, "positional argument after named argument");
          }
          if (params != nullptr && stage.args.size() >= params->size()) {
            fail(text, tok_start,
                 "too many positional arguments for stage '" + stage.kind +
                     "'");
          }
          try {
            stage.args.push_back(parse_number(val));
          } catch (const std::invalid_argument& e) {
            fail(text, tok_start, e.what());
          }
          i = tok_end;
        }
        skip_ws(text, i);
        if (i < text.size() && text[i] == ',') {
          ++i;
          skip_ws(text, i);
          if (i < text.size() && text[i] == ')') {
            fail(text, i, "trailing comma");
          }
        }
      }
      if (i >= text.size()) fail(text, i, "unterminated '('");
      ++i;  // consume ')'
    }
    out.stages.push_back(std::move(stage));
    skip_ws(text, i);
    if (i >= text.size()) break;
    if (text[i] != '|') fail(text, i, "expected '|' between stages");
    ++i;
    skip_ws(text, i);
    if (i >= text.size()) fail(text, i, "dangling '|'");
  }

  // Normalized form; numbers print exactly, so it parses back to `out`.
  std::ostringstream os;
  for (std::size_t s = 0; s < out.stages.size(); ++s) {
    if (s != 0) os << " | ";
    const auto& st = out.stages[s];
    os << st.kind;
    if (!st.args.empty() || !st.kv.empty()) {
      os << '(';
      bool first = true;
      for (const double a : st.args) {
        if (!first) os << ',';
        os << exact_text(a);
        first = false;
      }
      for (const auto& [k, v] : st.kv) {
        if (!first) os << ',';
        os << k << '=' << exact_text(v);
        first = false;
      }
      os << ')';
    }
  }
  out.text = os.str();
  return out;
}

}  // namespace ipipe::nfp
