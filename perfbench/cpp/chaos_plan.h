// The shard_rkv fault schedule, built the way bench/sharded_rkv builds
// it, with its time arithmetic guarded: every subtraction on the
// unsigned Ns clock is checked, so a short run yields a short plan
// instead of a wrapped-around loop bound.
#pragma once

#include <cstdint>
#include <optional>

#include "netsim/chaos.h"

namespace perfbench {

/// Shortest run, in simulated seconds, the builder accepts.
inline constexpr double kMinChaosRunS = 1.0;

/// Fault schedule for a `duration_s` run over `groups` three-replica
/// groups: fixed crashes, NIC crashes, a leader partition and a lossy
/// link window, then a seeded random tail of crashes until one second
/// before traffic stops.  nullopt when duration_s < kMinChaosRunS (or
/// is not a number).  Seed 1 at 10 s reproduces the acceptance plan.
[[nodiscard]] std::optional<ipipe::netsim::FaultPlan> shard_chaos_plan(
    double duration_s, std::uint64_t seed, int groups);

}  // namespace perfbench
