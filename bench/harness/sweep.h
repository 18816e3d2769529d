// Parallel deterministic sweep runner for the bench binaries.
//
// A bench "sweep" is a list of independent sim points (load levels, window
// sizes, scheduler variants).  Each point builds its own cluster /
// Simulation / Rng from scratch, so points share no mutable state and can
// run on a thread pool without changing any simulated result.  The runner
// computes all points (in parallel under --jobs=N), collects results
// ordered by point index, and leaves printing to the caller — stdout is
// byte-identical to the sequential run by construction.
//
// It also records per-point perf (events executed, simulated seconds, wall
// seconds) and can emit a machine-readable JSON baseline via
// --bench-json=<path>, so regressions across PRs are tracked by CI rather
// than by eye.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "testbed/cluster.h"

namespace ipipe::bench {

/// Perf record for one sim point.  The point function fills label/events/
/// sim_seconds (see `fill_perf`); the runner stamps wall_seconds.
struct PointPerf {
  std::string label;
  std::uint64_t events = 0;   ///< sim events executed by this point
  double sim_seconds = 0.0;   ///< simulated time covered
  double wall_seconds = 0.0;  ///< wall-clock time, stamped by the runner
};

/// Convenience: record a finished point's cluster into its perf slot
/// (events + simulated seconds; the label is the caller's).
void fill_perf(PointPerf& perf, testbed::ParallelCluster& cluster);

struct SweepOpts {
  unsigned jobs = 1;          ///< --jobs=N worker threads (1 = sequential)
  unsigned sim_threads = 1;   ///< --sim-threads=N engine workers per point
  std::string bench_json;     ///< --bench-json=<path>, empty = no emission
};

/// Scan argv for --jobs=N / --sim-threads=N / --bench-json=<path>.
/// Unknown arguments are ignored so benches keep their own flag handling.
/// A --jobs or --sim-threads value that is not a whole unsigned decimal
/// prints a line on stderr and exits 1; 0 reads as 1.  `--help` prints
/// the shared harness flags and exits.
///
/// Both parallelism axes are deterministic (sweep points share no state;
/// the parallel engine is thread-count invariant), but they multiply:
/// jobs x sim_threads OS threads run at once.  When sim_threads > 1 and
/// the product exceeds hardware_concurrency the runner clamps `jobs` down
/// (keeping the requested sim_threads) and warns on stderr; plain --jobs
/// oversubscription stays allowed, and a sim_threads value that
/// alone exceeds the machine is kept, with a warning, since
/// oversubscription changes wall time only, never results.
[[nodiscard]] SweepOpts parse_sweep_opts(int argc, char** argv);

class SweepRunner {
 public:
  explicit SweepRunner(SweepOpts opts) : opts_(std::move(opts)) {}

  /// Run `fn(index, perf)` for every index in [0, n) and return the
  /// results ordered by index.  With jobs > 1 the points execute on a
  /// thread pool; determinism is the point function's contract: it must
  /// build all of its own state (cluster, Rng seeds) from `index` alone.
  template <typename Fn>
  auto map(std::size_t n, Fn&& fn)
      -> std::vector<decltype(fn(std::size_t{0},
                                 std::declval<PointPerf&>()))> {
    using R = decltype(fn(std::size_t{0}, std::declval<PointPerf&>()));
    std::vector<R> results(n);
    const std::size_t base = perf_.size();
    perf_.resize(base + n);
    run_indexed(n, [&](std::size_t i) {
      results[i] = fn(i, perf_[base + i]);
    });
    return results;
  }

  /// Perf records accumulated across every map() call so far.
  [[nodiscard]] const std::vector<PointPerf>& points() const noexcept {
    return perf_;
  }

  /// Total wall seconds spent inside point functions.
  [[nodiscard]] double wall_seconds() const noexcept;

  /// Write the --bench-json document (no-op when the flag was not given).
  /// Returns false if the file could not be opened.
  bool write_json(const std::string& bench_name) const;

 private:
  /// Executes task(i) for i in [0, n), stamping wall_seconds around each
  /// call.  jobs==1 (or n<=1) runs inline, in index order.
  void run_indexed(std::size_t n,
                   const std::function<void(std::size_t)>& task);

  SweepOpts opts_;
  std::vector<PointPerf> perf_;
};

}  // namespace ipipe::bench
