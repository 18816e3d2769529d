// Shared --trace-out plumbing for the bench binaries: parse the flags,
// turn tracing on for a cluster's runtimes, and dump every server's
// tracer + metrics registry into one Chrome-trace JSON (open in Perfetto
// UI or chrome://tracing) and/or a plain-text table.
#pragma once

#include <string>

#include "common/trace.h"
#include "testbed/cluster.h"

namespace ipipe::bench {

struct TraceOpts {
  std::string json_path;  ///< --trace-out=<file>  (Chrome/Perfetto JSON)
  std::string text_path;  ///< --trace-txt=<file>  (plain table dump)

  [[nodiscard]] bool enabled() const noexcept {
    return !json_path.empty() || !text_path.empty();
  }
  /// Enable tracing on every server of `cluster` (call after the servers
  /// are added, before anything runs).
  void apply(testbed::ParallelCluster& cluster) const;
};

/// Scan argv for --trace-out= / --trace-txt= (unknown args are ignored so
/// benches keep their own flag handling).
[[nodiscard]] TraceOpts parse_trace_opts(int argc, char** argv);

/// Write one multi-process trace document covering all servers of the
/// cluster (pid = server index).  No-op for paths the opts leave empty.
/// Returns false if an output file could not be opened.
bool write_cluster_trace(const TraceOpts& opts,
                         testbed::ParallelCluster& cluster,
                         const std::string& label);

}  // namespace ipipe::bench
