// Small helpers shared by the acceptance benches: `--name=value` flag
// parsing, the FNV-1a digests their stdout ends with, and the 2 µs echo
// actor their latency probes target.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>

#include "ipipe/actor.h"

namespace ipipe::bench {

/// The value of `arg` if it is `name=value`, else nullptr.
inline const char* flag_value(const char* arg, const char* name) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') return arg + n + 1;
  return nullptr;
}

inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

inline std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}
inline std::uint64_t fnv1a_str(std::uint64_t h, const std::string& s) {
  return fnv1a(h, s.data(), s.size());
}
inline std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  return fnv1a(h, &v, sizeof(v));
}

/// Replies (type 2, empty) to every request after 2 µs of work.
class EchoActor final : public Actor {
 public:
  EchoActor() : Actor("echo") {}
  void handle(ActorEnv& env, const netsim::Packet& req) override {
    env.charge(usec(2));
    env.reply(req, 2, {});
  }
};

}  // namespace ipipe::bench
