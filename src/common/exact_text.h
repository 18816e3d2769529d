// Shortest exact decimal text for a double: the fewest digits that parse
// back (std::from_chars, strtod) to the same value, so a printed plan or
// spec replays bit for bit; and the strict whole-token number reader the
// text grammars share.
#pragma once

#include <charconv>
#include <cmath>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace ipipe {

[[nodiscard]] inline std::string exact_text(double x) {
  char buf[32];  // the longest shortest form, "-2.2250738585072014e-308", fits
  return {buf, std::to_chars(buf, buf + sizeof buf, x).ptr};
}

/// The whole token as a T: an unsigned integer with no sign that fits, or
/// a finite double.
template <typename T>
[[nodiscard]] bool parse_exact(std::string_view tok, T* out) {
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, *out);
  if (ec != std::errc{} || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) return std::isfinite(*out);
  return true;
}

}  // namespace ipipe
