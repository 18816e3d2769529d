#include "harness/trace_opts.h"

#include <cstdio>
#include <cstring>
#include <fstream>

namespace ipipe::bench {

TraceOpts parse_trace_opts(int argc, char** argv) {
  TraceOpts opts;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--trace-out=", 12) == 0) {
      opts.json_path = arg + 12;
    } else if (std::strncmp(arg, "--trace-txt=", 12) == 0) {
      opts.text_path = arg + 12;
    }
  }
  return opts;
}

void TraceOpts::apply(testbed::ParallelCluster& cluster) const {
  if (!enabled()) return;
  for (std::size_t i = 0; i < cluster.server_count(); ++i) {
    cluster.server(i).runtime().enable_tracing();
  }
}

bool write_cluster_trace(const TraceOpts& opts,
                         testbed::ParallelCluster& cluster,
                         const std::string& label) {
  if (!opts.enabled()) return true;
  bool ok = true;

  if (!opts.json_path.empty()) {
    std::ofstream ofs(opts.json_path);
    if (!ofs) {
      std::fprintf(stderr, "trace: cannot open %s\n", opts.json_path.c_str());
      ok = false;
    } else {
      trace::ChromeTraceWriter writer(ofs);
      for (std::size_t i = 0; i < cluster.server_count(); ++i) {
        Runtime& rt = cluster.server(i).runtime();
        writer.add_process(static_cast<int>(i),
                           label + "/server" + std::to_string(i), rt.tracer(),
                           &rt.metrics());
      }
      writer.finish();
      std::fprintf(stderr, "trace: wrote %s\n", opts.json_path.c_str());
    }
  }

  if (!opts.text_path.empty()) {
    std::ofstream ofs(opts.text_path);
    if (!ofs) {
      std::fprintf(stderr, "trace: cannot open %s\n", opts.text_path.c_str());
      ok = false;
    } else {
      for (std::size_t i = 0; i < cluster.server_count(); ++i) {
        Runtime& rt = cluster.server(i).runtime();
        ofs << "== " << label << "/server" << i << " ==\n";
        trace::export_text(ofs, rt.tracer(), &rt.metrics());
        ofs << "\n";
      }
      std::fprintf(stderr, "trace: wrote %s\n", opts.text_path.c_str());
    }
  }
  return ok;
}

}  // namespace ipipe::bench
