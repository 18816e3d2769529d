#include "chaos_plan.h"

#include "common/rng.h"
#include "common/units.h"

namespace perfbench {

using namespace ipipe;

std::optional<netsim::FaultPlan> shard_chaos_plan(double duration_s,
                                                  std::uint64_t seed,
                                                  int groups) {
  // Written as a negated >= so NaN is refused too.
  if (!(duration_s >= kMinChaosRunS) || groups < 1) return std::nullopt;
  constexpr int kReplicas = 3;
  const Ns total = sec(duration_s);
  const Ns traffic_end = total - sec(duration_s * 0.25);
  // The random tail stops one second before traffic does; on runs too
  // short for that it is empty (an unguarded `traffic_end - sec(1)`
  // would wrap to ~584 years and never stop adding faults).
  const Ns tail_end = traffic_end > sec(1) ? traffic_end - sec(1) : 0;

  netsim::FaultPlan plan;
  plan.crash(1, sec(2), msec(1500));                          // group 0 follower
  plan.nic_crash(0, total * 3 / 10, msec(800));               // group 0 cache NIC
  plan.nic_crash(3, total * 9 / 20, msec(800));               // group 1 cache NIC
  plan.crash(6, total * 1 / 2, msec(1200));                   // group 2 leader
  plan.partition({9}, {10, 11}, total * 11 / 20, msec(900));  // group 3 leader
  netsim::FaultModel lossy;
  lossy.drop_prob = 0.005;
  lossy.corrupt_prob = 0.005;
  plan.link_fault(lossy, total * 3 / 5, msec(600));
  Rng prng(0x5AA3DEDULL + seed);
  for (Ns t = total / 4; t < tail_end;) {
    const auto g =
        static_cast<int>(prng.uniform_u64(static_cast<std::uint64_t>(groups)));
    const auto victim = static_cast<netsim::NodeId>(
        g * kReplicas + static_cast<int>(prng.uniform_u64(kReplicas)));
    if (prng.uniform_u64(3) == 0) {
      plan.nic_crash(victim, t,
                     msec(400) + static_cast<Ns>(prng.uniform_u64(msec(600))));
    } else {
      plan.crash(victim, t,
                 msec(500) + static_cast<Ns>(prng.uniform_u64(sec(1))));
    }
    t += sec(1) + static_cast<Ns>(prng.uniform_u64(sec(1)));
  }
  return plan;
}

}  // namespace perfbench
