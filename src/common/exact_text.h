// Shortest exact decimal text for a double: the fewest digits that parse
// back (std::from_chars, strtod) to the same value, so a printed plan or
// spec replays bit for bit.
#pragma once

#include <charconv>
#include <string>

namespace ipipe {

[[nodiscard]] inline std::string exact_text(double x) {
  char buf[32];  // the longest shortest form, "-2.2250738585072014e-308", fits
  return {buf, std::to_chars(buf, buf + sizeof buf, x).ptr};
}

}  // namespace ipipe
