// perfbench_sim: runs one benchmark workload and prints one JSON report
// line.
//
//   perfbench_sim --workload <shard_rkv|nf_chain|rkv_write> --seed <n>
//                 --seconds <budget> --trace <0|1>
//                 [--acceptance 1]   (shard_rkv: the acceptance scenario)
//
// The budget sets how many repetitions (set-up + run) are made: the
// budget divided by the workload's nominal repetition length, a constant.
// So two commits measured with the same budget are measured over the same
// number of repetitions, however fast each is.
//
// Host time is calibrated against the machine's current speed (bench.h,
// calibrated).  Untraced (--trace 0): reports the end-to-end metrics:
// wall_per_sim_s sums, over the steps of the run, the fastest
// repetition's time; setup_s is a median over batches of set-ups; the
// virtual-time ones come from the first repetition (every repetition
// must repeat them exactly).  Traced (--trace 1): alternates
// untraced and traced repetitions and reports the per-layer metrics; the
// traced run must reproduce the untraced run's virtual-time outcome
// exactly.
//
// Exit status: 0 when every output check passed, 1 when one failed,
// 2 on bad arguments.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

using namespace ipipe;

/// How a workload is repeated.  `rep_s` is about the wall seconds one
/// set-up + run takes on the machine in perfbench/README.md;
/// set-up time is the median over kSetupBatches batches of `setup_batch`
/// set-ups (about 30 ms a batch).
struct Plan {
  const char* workload;
  double rep_s;
  std::size_t setup_batch;
};
constexpr Plan kPlans[] = {
    {"shard_rkv", 5.0, 4},
    {"nf_chain", 6.0, 200},
    {"rkv_write", 3.3, 10},
};
constexpr std::size_t kSetupBatches = 15;

struct Args {
  std::string workload;
  Options opts;
  double seconds = 10.0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      args.opts.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(v, "1") == 0;
    } else if (flag == "--acceptance") {
      args.opts.acceptance = std::strcmp(v, "1") == 0;
    } else {
      std::fprintf(stderr, "perfbench_sim: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return !args.workload.empty() && args.seconds > 0;
}

std::unique_ptr<Workload> make(const Args& args) {
  if (args.workload == "shard_rkv") return make_shard_rkv(args.opts);
  if (args.workload == "nf_chain") return make_nf_chain(args.opts);
  if (args.workload == "rkv_write") return make_rkv_write(args.opts);
  return nullptr;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double sum(const std::vector<double>& v) {
  double total = 0.0;
  for (const double x : v) total += x;
  return total;
}

/// Nearest-rank percentile of a sorted sample.
double percentile(const std::vector<Ns>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return static_cast<double>(sorted[std::max<std::size_t>(rank, 1) - 1]);
}

/// Digest of every virtual-time field: equal digests = identical runs.
std::uint64_t outcome_digest(const Outcome& o) {
  std::uint64_t h = kFnvBasis;
  for (const Ns l : o.latencies) h = fnv1a_u64(h, l);
  for (const std::uint64_t v :
       {o.attempted, o.failed, o.completed, o.violations, o.events, o.ops}) {
    h = fnv1a_u64(h, v);
  }
  h = fnv1a(h, &o.busy_cores, sizeof(o.busy_cores));
  for (const auto& [name, value] : o.layer) {
    h = fnv1a(h, name.data(), name.size());
    h = fnv1a(h, &value, sizeof(value));
  }
  for (const auto& [name, value] : o.digests) {
    h = fnv1a(h, value.data(), value.size());
  }
  return h;
}

struct Rep {
  Outcome outcome;
  std::uint64_t digest = 0;
  [[nodiscard]] double wall_s() const { return sum(outcome.step_wall_s); }
  [[nodiscard]] double ref_s() const { return sum(outcome.step_ref_s); }
};

/// Repetitions run identical work step by step, so the fastest
/// repetition of each step is the one least disturbed by other load.
/// Returns the sum over steps of that fastest calibrated time.
double fastest_per_step_s(const std::vector<Rep>& reps) {
  std::vector<double> best = reps.front().outcome.step_ref_s;
  for (const Rep& r : reps) {
    const auto& steps = r.outcome.step_ref_s;
    for (std::size_t i = 0; i < best.size() && i < steps.size(); ++i) {
      best[i] = std::min(best[i], steps[i]);
    }
  }
  return sum(best);
}

Rep run_rep(const Args& args, Probe* probe) {
  Rep rep;
  auto w = make(args);
  w->setup(probe);
  rep.outcome = w->run(probe);
  rep.digest = outcome_digest(rep.outcome);
  return rep;
}

class Json {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", std::isfinite(v) ? v : 0.0);
    field(key, buf);
  }
  void str(const std::string& key, const std::string& v) {
    field(key, "\"" + v + "\"");
  }
  void raw(const std::string& key, const std::string& v) { field(key, v); }
  [[nodiscard]] std::string done() const { return "{" + body_ + "}"; }

 private:
  void field(const std::string& key, const std::string& v) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + v;
  }
  std::string body_;
};

std::string num_list(const std::vector<double>& v) {
  std::string out;
  for (const double x : v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.6g", out.empty() ? "" : ", ", x);
    out += buf;
  }
  return "[" + out + "]";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

int run(const Args& args, const Plan& plan) {
  const std::size_t reps = std::max<std::size_t>(
      1, static_cast<std::size_t>(args.seconds / plan.rep_s));
  // A traced run spends its budget on untraced + traced pairs.
  const std::size_t rounds =
      args.trace ? std::max<std::size_t>(1, reps / 2) : reps;
  std::vector<Rep> plain;
  std::vector<Rep> traced;
  std::vector<std::unique_ptr<Probe>> probes;
  double rss_mb = 0.0;
  const unsigned threads = make(args)->threads();

  for (std::size_t i = 0; i < rounds; ++i) {
    plain.push_back(run_rep(args, nullptr));
    // Repetitions are identical: read the peak after the first, and keep
    // only its latency sample (the digest still covers every one).
    if (i == 0) {
      rss_mb = peak_rss_mb();
    } else {
      std::vector<Ns>().swap(plain.back().outcome.latencies);
    }
    if (args.trace) {
      probes.push_back(std::make_unique<Probe>());
      traced.push_back(run_rep(args, probes.back().get()));
      std::vector<Ns>().swap(traced.back().outcome.latencies);
    }
  }
  // Set-up time: the mean of each batch, calibrated, and the median over
  // batches.
  std::vector<double> setups;
  for (std::size_t b = 0; !args.trace && b < kSetupBatches; ++b) {
    // Untimed: allocate, touch and free a 16 MiB block before every
    // batch.  Without it shard_rkv's set-ups settled, per process, near
    // either 3.5 or 8.5 ms; with it every process tried ran near 3.5 ms.
    // The allocator's state is the likely cause; it is not known.
    {
      std::vector<std::uint64_t> block(2 * 1024 * 1024, 1);
      asm volatile("" : : "r"(block.data()) : "memory");
    }
    double wall = 0.0;
    const double before = calibration_s();
    for (std::size_t i = 0; i < plan.setup_batch; ++i) {
      auto w = make(args);
      const auto t0 = Clock::now();
      w->setup(nullptr);
      wall += seconds_since(t0);
    }
    setups.push_back(calibrated(wall / static_cast<double>(plan.setup_batch),
                                before, calibration_s()));
  }

  const Outcome& o = plain.front().outcome;
  bool deterministic = true;
  for (const Rep& r : plain) deterministic &= r.digest == plain.front().digest;
  bool invariant = true;
  for (const Rep& r : traced) invariant &= r.digest == plain.front().digest;

  Json metrics;
  std::vector<double> walls_s;
  for (const Rep& r : plain) walls_s.push_back(r.wall_s());
  std::vector<Ns> lat = o.latencies;
  std::sort(lat.begin(), lat.end());
  if (!args.trace) {
    metrics.num("wall_per_sim_s", fastest_per_step_s(plain) / o.sim_s);
    metrics.num("setup_s", median(setups));
    metrics.num("peak_rss_mb", rss_mb);
    metrics.num("vt_lat_p50_us", percentile(lat, 50.0) / 1e3);
    metrics.num("vt_lat_p99_us", percentile(lat, 99.0) / 1e3);
    metrics.num("vt_lat_p999_us", percentile(lat, 99.9) / 1e3);
    metrics.num("vt_goodput_kops",
                o.window_s > 0 ? static_cast<double>(o.completed) /
                                     o.window_s / 1e3
                               : 0.0);
    metrics.num("busy_cores", o.busy_cores);
  } else {
    for (const auto& [name, value] : o.layer) metrics.num(name, value);
    metrics.num("gen.fail_ratio", o.attempted > 0
                                      ? static_cast<double>(o.failed) /
                                            static_cast<double>(o.attempted)
                                      : 0.0);
    std::vector<double> nic_wall, host_wall, make_wall, residual, cluster_s,
        deploy_s, plan_s, run_thread_s;
    CallStats nic, host;
    for (std::size_t i = 0; i < traced.size(); ++i) {
      const Probe& p = *probes[i];
      nic = p.nic_total();
      host = p.host_total();
      nic_wall.push_back(nic.wall_s);
      host_wall.push_back(host.wall_s);
      make_wall.push_back(p.make_stats().wall_s);
      // Layer time is thread-seconds of the timed steps; so is the run
      // time it is charged to.
      const double thread_s = traced[i].wall_s() * threads;
      run_thread_s.push_back(thread_s);
      residual.push_back(thread_s - nic.wall_s - host.wall_s -
                         p.make_stats().wall_s);
      cluster_s.push_back(p.span_total("setup.cluster"));
      deploy_s.push_back(p.span_total("setup.deploy"));
      plan_s.push_back(p.span_total("setup.plan"));
    }
    metrics.num("nic.fw_calls", static_cast<double>(nic.calls));
    metrics.num("nic.fw_idle_calls", static_cast<double>(nic.idle));
    metrics.num("nic.fw_useful_ratio",
                nic.calls > 0 ? 1.0 - static_cast<double>(nic.idle) /
                                          static_cast<double>(nic.calls)
                              : 0.0);
    metrics.num("nic.fw_wall_s", median(nic_wall));
    metrics.num("host.rt_calls", static_cast<double>(host.calls));
    metrics.num("host.rt_idle_calls", static_cast<double>(host.idle));
    metrics.num("host.rt_wall_s", median(host_wall));
    metrics.num("gen.make_wall_s", median(make_wall));
    metrics.num("sim.residual_wall_s", median(residual));
    metrics.num("sim.traced_thread_s", median(run_thread_s));
    metrics.num("sim.events_per_wall_s",
                static_cast<double>(o.events) / median(walls_s));
    metrics.num("setup.cluster_s", median(cluster_s));
    metrics.num("setup.deploy_s", median(deploy_s));
    metrics.num("setup.plan_s", median(plan_s));
    // Same statistic and the same number of repetitions on both sides.
    metrics.num("trace.overhead_wall_per_sim_s",
                (fastest_per_step_s(traced) - fastest_per_step_s(plain)) /
                    o.sim_s);
  }

  Json checks;
  bool correct = deterministic && invariant && o.violations == 0;
  for (const auto& [name, ok] : o.checks) {
    checks.raw(name, ok ? "true" : "false");
    correct &= ok;
  }
  checks.raw("virtual-time results repeat across repetitions",
             deterministic ? "true" : "false");
  if (args.trace) {
    checks.raw("traced run reproduces the untraced run",
               invariant ? "true" : "false");
  }
  Json digests;
  for (const auto& [name, value] : o.digests) digests.str(name, value);
  digests.str("outcome", hex64(plain.front().digest));

  std::vector<double> rep_wall, rep_ref;
  for (const Rep& r : plain) {
    rep_wall.push_back(r.wall_s() / o.sim_s);
    rep_ref.push_back(r.ref_s() / o.sim_s);
  }
  Json report;
  report.str("workload", args.workload);
  report.num("seed", static_cast<double>(args.opts.seed));
  report.num("threads", threads);
  report.num("sim_s", o.sim_s);
  report.num("window_s", o.window_s);
  report.num("reps", static_cast<double>(plain.size()));
  report.raw("rep_wall_per_sim_s", num_list(rep_wall));
  report.raw("rep_ref_per_sim_s", num_list(rep_ref));
  report.num("setups", static_cast<double>(setups.size() * plan.setup_batch));
  report.num("samples", static_cast<double>(lat.size()));
  report.num("attempted", static_cast<double>(o.attempted));
  report.num("failed", static_cast<double>(o.failed));
  report.num("violations", static_cast<double>(o.violations));
  report.num("events", static_cast<double>(o.events));
  report.raw("correct", correct ? "true" : "false");
  report.raw("metrics", metrics.done());
  report.raw("checks", checks.done());
  report.raw("digests", digests.done());
  std::printf("%s\n", report.done().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Keep freed memory in the process, so that repeated set-ups and runs
  // reuse pages instead of faulting fresh ones in.
  mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024);
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_sim --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--acceptance 1]\n");
    return 2;
  }
  const perfbench::Plan* plan = nullptr;
  for (const auto& p : perfbench::kPlans) {
    if (args.workload == p.workload) plan = &p;
  }
  if (plan == nullptr) {
    std::fprintf(stderr, "perfbench_sim: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  try {
    return perfbench::run(args, *plan);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_sim: %s\n", e.what());
    return 2;
  }
}
