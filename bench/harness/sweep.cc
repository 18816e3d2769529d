#include "harness/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <thread>

#include "common/exact_text.h"

namespace ipipe::bench {

namespace {

using WallClock = std::chrono::steady_clock;

double seconds_since(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();
}

}  // namespace

void fill_perf(PointPerf& perf, testbed::ParallelCluster& cluster) {
  perf.events = cluster.engine().executed();
  perf.sim_seconds = to_sec(cluster.client_sim().now());
}

SweepOpts parse_sweep_opts(int argc, char** argv) {
  SweepOpts opts;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    bool ok = true;
    if (arg.rfind("--jobs=", 0) == 0) {
      ok = parse_exact(arg.substr(7), &opts.jobs);
    } else if (arg.rfind("--bench-json=", 0) == 0) {
      opts.bench_json = std::string(arg.substr(13));
    } else if (arg == "--help") {
      std::fprintf(
          stderr,
          "shared harness flags:\n"
          "  --jobs=N         run N sweep points concurrently (default 1);\n"
          "                   stdout stays byte-identical to --jobs=1\n"
          "  --bench-json=P   write a machine-readable perf baseline to P\n"
          "  --help           this text\n"
          "benches may add their own flags.\n");
      std::exit(0);
    }
    if (!ok) {
      std::fprintf(stderr, "%s: malformed number in %s\n", argv[0], argv[i]);
      std::exit(1);
    }
  }
  opts.jobs = std::max(opts.jobs, 1u);
  return opts;
}

void SweepRunner::run_indexed(std::size_t n,
                              const std::function<void(std::size_t)>& task) {
  const std::size_t base = perf_.size() - n;
  auto timed = [&](std::size_t i) {
    const auto start = WallClock::now();
    task(i);
    perf_[base + i].wall_seconds = seconds_since(start);
  };
  const std::size_t jobs = std::min<std::size_t>(opts_.jobs, n);
  if (jobs <= 1) {
    for (std::size_t i = 0; i < n; ++i) timed(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      timed(i);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(jobs - 1);
  for (std::size_t t = 0; t + 1 < jobs; ++t) pool.emplace_back(worker);
  worker();  // the caller participates
  for (auto& t : pool) t.join();
}

double SweepRunner::wall_seconds() const noexcept {
  double total = 0.0;
  for (const auto& p : perf_) total += p.wall_seconds;
  return total;
}

bool SweepRunner::write_json(const std::string& bench_name) const {
  if (opts_.bench_json.empty()) return true;
  std::FILE* f = std::fopen(opts_.bench_json.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench-json: cannot open %s\n",
                 opts_.bench_json.c_str());
    return false;
  }
  std::uint64_t events = 0;
  double sim_s = 0.0;
  double wall_s = 0.0;
  for (const auto& p : perf_) {
    events += p.events;
    sim_s += p.sim_seconds;
    wall_s += p.wall_seconds;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"jobs\": %u,\n",
               bench_name.c_str(), opts_.jobs);
  std::fprintf(f, "  \"points\": [\n");
  for (std::size_t i = 0; i < perf_.size(); ++i) {
    const auto& p = perf_[i];
    const double eps = p.wall_seconds > 0
                           ? static_cast<double>(p.events) / p.wall_seconds
                           : 0.0;
    const double spw =
        p.wall_seconds > 0 ? p.sim_seconds / p.wall_seconds : 0.0;
    std::fprintf(f,
                 "    {\"label\": \"%s\", \"events\": %llu, "
                 "\"sim_seconds\": %.6f, \"wall_seconds\": %.6f, "
                 "\"events_per_sec\": %.0f, \"sim_per_wall\": %.4f}%s\n",
                 p.label.c_str(), static_cast<unsigned long long>(p.events),
                 p.sim_seconds, p.wall_seconds, eps, spw,
                 i + 1 < perf_.size() ? "," : "");
  }
  const double eps = wall_s > 0 ? static_cast<double>(events) / wall_s : 0.0;
  const double spw = wall_s > 0 ? sim_s / wall_s : 0.0;
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"totals\": {\"points\": %zu, \"events\": %llu, "
               "\"sim_seconds\": %.6f, \"wall_seconds\": %.6f, "
               "\"events_per_sec\": %.0f, \"sim_per_wall\": %.4f}\n}\n",
               perf_.size(), static_cast<unsigned long long>(events), sim_s,
               wall_s, eps, spw);
  std::fclose(f);
  return true;
}

}  // namespace ipipe::bench
