// The shard_rkv chaos-plan builder at and around the shortest run it
// accepts.  An unguarded `traffic_end - sec(1)` on the unsigned clock
// makes the random-tail loop run until memory is exhausted for runs
// shorter than 4/3 s; the guarded builder must return promptly with a
// plan whose every fault starts inside the run.
#include <cmath>
#include <cstdio>

#include "chaos_plan.h"
#include "common/units.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what, double duration_s) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s (duration %.9g s)\n", what, duration_s);
    ++failures;
  }
}

void expect_plan_inside_run(double duration_s) {
  const auto plan = perfbench::shard_chaos_plan(duration_s, 1, 8);
  expect(plan.has_value(), "plan accepted", duration_s);
  if (!plan) return;
  // Six fixed faults; the random tail adds at most one per second.
  expect(plan->size() >= 6, "fixed faults present", duration_s);
  expect(plan->size() <= 6 + static_cast<std::size_t>(duration_s) + 1,
         "random tail bounded", duration_s);
  const ipipe::Ns total = ipipe::sec(duration_s);
  for (const auto& a : plan->actions) {
    // The fixed follower crash sits at 2 s, past the end of runs shorter
    // than that; every other fault starts inside the run.
    if (a.at == ipipe::sec(2)) continue;
    expect(a.at < total, "fault starts inside the run", duration_s);
  }
}

}  // namespace

int main() {
  using perfbench::kMinChaosRunS;
  // The shortest accepted run, the two lengths that used to hang, the
  // last one that still underflowed, and the default run.
  for (const double d : {kMinChaosRunS, 1.25, 1.5, 4.0 / 3.0 - 1e-9, 8.0, 10.0}) {
    expect_plan_inside_run(d);
  }
  // Below the shortest accepted run, and not-a-number, are refused.
  for (const double d : {std::nextafter(kMinChaosRunS, 0.0), 0.5, 0.0, -1.0,
                         std::nan("")}) {
    expect(!perfbench::shard_chaos_plan(d, 1, 8).has_value(),
           "short run refused", d);
  }
  expect(!perfbench::shard_chaos_plan(10.0, 1, 0).has_value(),
         "no groups refused", 10.0);
  if (failures == 0) std::printf("chaos_plan_test: ok\n");
  return failures == 0 ? 0 : 1;
}
