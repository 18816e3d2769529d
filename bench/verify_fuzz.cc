// Verification fuzzing driver: sweep seeds, each pairing a randomized
// workload mix with a randomized fault plan, run the history checkers
// (linearizability for RKV, serializability + atomicity for DT) on every
// run, and SHRINK any failing fault plan to a minimal reproducing
// schedule (greedy ddmin: drop events, halve windows, re-run
// deterministically).  The minimized plan is printed in the FaultPlan
// text grammar alongside the seed so the failure replays exactly.
//
//   verify_fuzz [--seeds=N] [--seed-base=N] [--seed=N]
//               [--app=rkv|dt|shard|mix] [--duration-s=N] [--max-states=N]
//               [--inject=none|stale-read|lost-abort|stale-cache]
//               [--expect-fail] [--no-shrink] [--no-chaos] [--out-dir=DIR]
//               [--replay-corpus=DIR] [--trace-out=<json>]
//
// --inject arms one of the known-bug mutations (stale follower reads in
// RKV, lost abort in DT, invalidation-dropping NIC cache in the sharded
// RKV) as a checker self-test; with --expect-fail the driver exits 0
// only when every run is caught.  --replay-corpus runs each *.corpus
// file (tests/corpus/) and checks its recorded expectation.
#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/trace.h"
#include "verify/corpus.h"
#include "verify/fuzz.h"

using namespace ipipe;

namespace {

struct Options {
  std::uint64_t seeds = 10;
  std::uint64_t seed_base = 1;
  std::string app = "mix";
  unsigned duration_s = 25;
  std::uint64_t max_states = 4'000'000;
  std::string inject = "none";
  bool expect_fail = false;
  bool shrink = true;
  bool chaos = true;
  std::string out_dir;
  std::string replay_corpus;
  std::string trace_out;
};

bool parse_flag(const char* arg, const char* name, std::string* out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *out = arg + n + 1;
  return true;
}

verify::FuzzOptions base_options(const Options& opt, std::uint64_t seed,
                                 verify::FuzzApp app, trace::Tracer* tracer) {
  verify::FuzzOptions fo;
  fo.seed = seed;
  fo.app = app;
  fo.duration_s = opt.duration_s;
  fo.chaos = opt.chaos;
  fo.max_states = opt.max_states;
  fo.tracer = tracer;
  if (opt.inject == "stale-read") fo.inject_stale_reads = true;
  if (opt.inject == "lost-abort") fo.inject_lost_abort = true;
  if (opt.inject == "stale-cache") fo.inject_stale_cache = true;
  return fo;
}

void print_verdict(std::uint64_t seed, verify::FuzzApp app,
                   const verify::FuzzVerdict& v) {
  std::printf("seed=%llu app=%s %s", static_cast<unsigned long long>(seed),
              verify::app_name(app), v.ok ? "PASS" : "FAIL");
  if (app != verify::FuzzApp::kDt) {
    std::printf(" kv_ops=%llu completed=%llu states=%llu",
                static_cast<unsigned long long>(v.kv_ops),
                static_cast<unsigned long long>(v.kv_completed),
                static_cast<unsigned long long>(v.states_explored));
  } else {
    std::printf(" committed=%llu aborted=%llu",
                static_cast<unsigned long long>(v.txns_committed),
                static_cast<unsigned long long>(v.txns_aborted));
  }
  if (v.inconclusive) std::printf(" (inconclusive: budget exhausted)");
  if (!v.ok) std::printf(" checker=%s", v.checker.c_str());
  std::printf("\n");
  if (!v.ok) std::printf("%s", v.detail.c_str());
}

void write_minimized(const Options& opt, std::uint64_t seed,
                     verify::FuzzApp app, const verify::ShrinkResult& sr) {
  if (opt.out_dir.empty()) return;
  ::mkdir(opt.out_dir.c_str(), 0755);
  const std::string path = opt.out_dir + "/seed-" + std::to_string(seed) +
                           "-" + verify::app_name(app) + ".corpus";
  verify::CorpusCase c{base_options(opt, seed, app, nullptr), true};
  c.fo.plan_override = sr.plan;
  std::ofstream os(path);
  os << "# minimized by verify_fuzz --seed=" << seed << "\n"
     << verify::corpus_to_text(c);
  std::printf("minimized plan written to %s\n", path.c_str());
}

/// One run + optional shrink.  Returns true when the run PASSED.
bool run_one(const Options& opt, std::uint64_t seed, verify::FuzzApp app,
             trace::Tracer* tracer) {
  const verify::FuzzOptions fo = base_options(opt, seed, app, tracer);
  const verify::FuzzVerdict v = verify::run_verify_once(fo);
  print_verdict(seed, app, v);
  if (v.ok) return true;
  if (opt.shrink) {
    const verify::ShrinkResult sr = verify::shrink_fault_plan(fo, v.plan);
    std::printf("shrink: %u runs, %zu -> %zu events\n", sr.runs,
                v.plan.size(), sr.plan.size());
    for (const auto& step : sr.steps) std::printf("  %s\n", step.c_str());
    std::printf("minimal reproducing plan (seed=%llu app=%s):\n%s",
                static_cast<unsigned long long>(seed), verify::app_name(app),
                sr.plan.empty() ? "<empty: workload alone reproduces>\n"
                                : sr.plan.to_text().c_str());
    write_minimized(opt, seed, app, sr);
  }
  return false;
}

// ---- corpus replay ---------------------------------------------------------

/// One tests/corpus file, or nullopt (with the reason on stderr).
std::optional<verify::CorpusCase> load_corpus(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    std::fprintf(stderr, "%s: cannot read\n", path.c_str());
    return std::nullopt;
  }
  std::stringstream text;
  text << is.rdbuf();
  std::string err;
  auto c = verify::parse_corpus(text.str(), &err);
  if (!c) std::fprintf(stderr, "%s: %s\n", path.c_str(), err.c_str());
  return c;
}

int replay_corpus(const Options& opt, trace::Tracer* tracer) {
  std::vector<std::string> files;
  DIR* dir = ::opendir(opt.replay_corpus.c_str());
  if (dir == nullptr) {
    std::fprintf(stderr, "cannot open corpus dir %s\n",
                 opt.replay_corpus.c_str());
    return 2;
  }
  while (dirent* ent = ::readdir(dir)) {
    const std::string name = ent->d_name;
    if (name.size() > 7 && name.substr(name.size() - 7) == ".corpus") {
      files.push_back(opt.replay_corpus + "/" + name);
    }
  }
  ::closedir(dir);
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    std::fprintf(stderr, "no *.corpus files in %s\n",
                 opt.replay_corpus.c_str());
    return 2;
  }

  int bad = 0;
  for (const auto& path : files) {
    auto c = load_corpus(path);
    if (!c) {
      ++bad;
      continue;
    }
    c->fo.tracer = tracer;
    const verify::FuzzVerdict v = verify::run_verify_once(c->fo);
    const bool matched = v.ok != c->expect_fail;
    std::printf("%s: %s (expected %s) %s\n", path.c_str(),
                v.ok ? "pass" : "fail", c->expect_fail ? "fail" : "pass",
                matched ? "OK" : "MISMATCH");
    if (!matched) {
      if (!v.ok) std::printf("%s", v.detail.c_str());
      ++bad;
    }
  }
  std::printf("corpus: %zu cases, %d mismatches\n", files.size(), bad);
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string val;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (parse_flag(arg, "--seeds", &val)) {
      opt.seeds = std::strtoull(val.c_str(), nullptr, 10);
    } else if (parse_flag(arg, "--seed-base", &val)) {
      opt.seed_base = std::strtoull(val.c_str(), nullptr, 10);
    } else if (parse_flag(arg, "--seed", &val)) {
      opt.seed_base = std::strtoull(val.c_str(), nullptr, 10);
      opt.seeds = 1;
    } else if (parse_flag(arg, "--app", &val)) {
      opt.app = val;
    } else if (parse_flag(arg, "--duration-s", &val)) {
      opt.duration_s =
          static_cast<unsigned>(std::strtoul(val.c_str(), nullptr, 10));
    } else if (parse_flag(arg, "--max-states", &val)) {
      opt.max_states = std::strtoull(val.c_str(), nullptr, 10);
    } else if (parse_flag(arg, "--inject", &val)) {
      opt.inject = val;
    } else if (std::strcmp(arg, "--expect-fail") == 0) {
      opt.expect_fail = true;
    } else if (std::strcmp(arg, "--no-shrink") == 0) {
      opt.shrink = false;
    } else if (std::strcmp(arg, "--no-chaos") == 0) {
      opt.chaos = false;
    } else if (parse_flag(arg, "--out-dir", &val)) {
      opt.out_dir = val;
    } else if (parse_flag(arg, "--replay-corpus", &val)) {
      opt.replay_corpus = val;
    } else if (parse_flag(arg, "--trace-out", &val)) {
      opt.trace_out = val;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      return 2;
    }
  }
  if (opt.inject != "none" && opt.inject != "stale-read" &&
      opt.inject != "lost-abort" && opt.inject != "stale-cache") {
    std::fprintf(stderr, "bad --inject value: %s\n", opt.inject.c_str());
    return 2;
  }
  if (opt.duration_s < 15) {
    std::fprintf(stderr, "--duration-s must be >= 15\n");
    return 2;
  }

  trace::Tracer tracer;
  trace::Tracer* tp = nullptr;
  if (!opt.trace_out.empty()) {
    tracer.enable();
    tp = &tracer;
  }

  int rc = 0;
  if (!opt.replay_corpus.empty()) {
    rc = replay_corpus(opt, tp);
  } else {
    std::uint64_t failures = 0;
    std::uint64_t runs = 0;
    for (std::uint64_t s = 0; s < opt.seeds; ++s) {
      const std::uint64_t seed = opt.seed_base + s;
      std::vector<verify::FuzzApp> apps;
      if (opt.app == "rkv") {
        apps = {verify::FuzzApp::kRkv};
      } else if (opt.app == "dt") {
        apps = {verify::FuzzApp::kDt};
      } else if (opt.app == "shard") {
        apps = {verify::FuzzApp::kShard};
      } else {
        apps = {s % 3 == 0   ? verify::FuzzApp::kRkv
                : s % 3 == 1 ? verify::FuzzApp::kDt
                             : verify::FuzzApp::kShard};
      }
      for (const auto app : apps) {
        ++runs;
        if (!run_one(opt, seed, app, tp)) ++failures;
      }
    }
    std::printf("verify_fuzz: %llu runs, %llu failures%s\n",
                static_cast<unsigned long long>(runs),
                static_cast<unsigned long long>(failures),
                opt.expect_fail ? " (failures expected)" : "");
    if (opt.expect_fail) {
      rc = failures == runs ? 0 : 1;  // every armed run must be caught
    } else {
      rc = failures == 0 ? 0 : 1;
    }
  }

  if (tp != nullptr) {
    std::ofstream os(opt.trace_out);
    trace::export_chrome_json(os, tracer);
    std::printf("trace written to %s\n", opt.trace_out.c_str());
  }
  return rc;
}
