#include "verify/corpus.h"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/exact_text.h"

namespace ipipe::verify {
namespace {

constexpr std::pair<std::string_view, FuzzApp> kApps[] = {
    {"rkv", FuzzApp::kRkv}, {"dt", FuzzApp::kDt}, {"shard", FuzzApp::kShard}};

/// The injections a case can arm, each wired into one app only; `inject
/// none` arms nothing.
struct Inject {
  std::string_view name;
  bool FuzzOptions::*flag;
  FuzzApp app;
};
constexpr Inject kInjects[] = {
    {"stale-read", &FuzzOptions::inject_stale_reads, FuzzApp::kRkv},
    {"lost-abort", &FuzzOptions::inject_lost_abort, FuzzApp::kDt},
    {"stale-cache", &FuzzOptions::inject_stale_cache, FuzzApp::kShard}};

const Inject* find_inject(std::string_view name) {
  const auto* it =
      std::find_if(std::begin(kInjects), std::end(kInjects),
                   [&](const Inject& i) { return i.name == name; });
  return it == std::end(kInjects) ? nullptr : it;
}

std::string_view inject_name(const FuzzOptions& fo) {
  for (const Inject& i : kInjects) {
    if (fo.*i.flag) return i.name;
  }
  return "none";
}

}  // namespace

std::optional<FuzzApp> inject_app(std::string_view name) {
  const Inject* i = find_inject(name);
  if (i == nullptr) return std::nullopt;
  return i->app;
}

const char* app_name(FuzzApp app) {
  for (const auto& [name, a] : kApps) {
    if (a == app) return name.data();
  }
  return "?";
}

std::optional<CorpusCase> parse_corpus(const std::string& text,
                                       std::string* error) {
  // The first kRequired keywords must appear; `inject` may be left out.
  constexpr std::string_view kKeywords[] = {"app", "seed", "duration", "expect",
                                            "inject"};
  constexpr std::size_t kRequired = 4;
  bool seen[std::size(kKeywords)] = {};
  const Inject* inject = nullptr;
  int inject_line = 0;
  CorpusCase c;
  std::istringstream is(text);
  std::string line;
  int line_no = 0;
  const auto fail = [&](const std::string& msg) -> std::optional<CorpusCase> {
    if (error != nullptr) *error = "line " + std::to_string(line_no) + ": " + msg;
    return std::nullopt;
  };
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string kw, value, extra;
    ls >> kw >> value >> extra;
    if (kw == "plan:") {
      if (!value.empty()) return fail("plan: takes no value");
      std::string plan_text;
      while (std::getline(is, line)) plan_text += line + "\n";
      std::string err;
      auto plan = netsim::FaultPlan::parse(plan_text, &err);
      if (!plan) return fail("plan: " + err);
      c.fo.plan_override = std::move(*plan);
      break;
    }
    const std::size_t k = static_cast<std::size_t>(
        std::find(std::begin(kKeywords), std::end(kKeywords), kw) -
        std::begin(kKeywords));
    if (k == std::size(kKeywords)) return fail("unknown keyword '" + kw + "'");
    if (seen[k]) return fail(kw + ": repeated");
    seen[k] = true;
    if (value.empty() || !extra.empty()) return fail(kw + ": takes one value");
    const auto bad = [&] { return fail(kw + ": bad value '" + value + "'"); };
    if (kw == "app") {
      const auto* it = std::find_if(std::begin(kApps), std::end(kApps),
                                    [&](const auto& a) { return a.first == value; });
      if (it == std::end(kApps)) return bad();
      c.fo.app = it->second;
    } else if (kw == "seed") {
      if (!parse_exact(value, &c.fo.seed)) return bad();
    } else if (kw == "duration") {
      if (!parse_exact(value, &c.fo.duration_s) || c.fo.duration_s == 0) return bad();
    } else if (kw == "expect") {
      if (value != "pass" && value != "fail") return bad();
      c.expect_fail = value == "fail";
    } else if (value != "none") {
      inject = find_inject(value);
      if (inject == nullptr) return bad();
      inject_line = line_no;
      c.fo.*inject->flag = true;
    }
  }
  for (std::size_t k = 0; k < kRequired; ++k) {
    if (!seen[k]) {
      if (error != nullptr) *error = std::string(kKeywords[k]) + ": missing";
      return std::nullopt;
    }
  }
  if (inject != nullptr && inject->app != c.fo.app) {
    line_no = inject_line;
    return fail("inject: " + std::string(inject->name) +
                " runs only under app " + app_name(inject->app));
  }
  return c;
}

std::string corpus_to_text(const CorpusCase& c) {
  std::string out;
  out += "app " + std::string(app_name(c.fo.app)) + "\n";
  out += "seed " + std::to_string(c.fo.seed) + "\n";
  out += "duration " + std::to_string(c.fo.duration_s) + "\n";
  out += "inject " + std::string(inject_name(c.fo)) + "\n";
  out += std::string("expect ") + (c.expect_fail ? "fail" : "pass") + "\n";
  if (c.fo.plan_override) out += "plan:\n" + c.fo.plan_override->to_text();
  return out;
}

}  // namespace ipipe::verify
