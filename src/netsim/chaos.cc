#include "netsim/chaos.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/exact_text.h"

namespace ipipe::netsim {

// ------------------------------------------------------------ verb table --

/// Everything the parser, the printer, the dispatcher and the controller
/// know about one node-scoped verb.
struct NodeVerb {
  /// The clause between the node and the window.  A rate only shapes the
  /// fault; a bank names part of the target, so both log lines carry it.
  /// A verb without a clause logs its outage length instead.
  enum class Arg : std::uint8_t { kNone, kRate, kBank };
  /// The outage a verb takes its node into.  A verb whose node is already
  /// in that outage, or wholly down, logs skipped(down) and never heals.
  enum class Outage : std::uint8_t { kNone, kNode, kNic };

  FaultAction::Kind kind;
  const char* name;  ///< grammar word, and the fire line's word
  Arg arg;
  const char* heal;  ///< the heal line's word
  Outage outage;
  /// Calls the node's hook: `fault` is true at the fire, false at the heal.
  void (*hook)(const NodeHooks& h, const FaultAction& a, bool fault);
};

namespace {

using Kind = FaultAction::Kind;
using Arg = NodeVerb::Arg;

void nic_hook(const NodeHooks& h, const FaultAction&, bool fault) {
  const auto& f = fault ? h.nic_crash : h.nic_restore;
  if (f) f();
}

constexpr NodeVerb kNodeVerbs[] = {
    {Kind::kCrash, "crash", Arg::kNone, "restore", NodeVerb::Outage::kNode,
     [](const NodeHooks& h, const FaultAction&, bool fault) {
       const auto& f = fault ? h.crash : h.restore;
       if (f) f();
     }},
    {Kind::kPcieCorrupt, "pcie-corrupt", Arg::kRate, "pcie-heal",
     NodeVerb::Outage::kNone,
     [](const NodeHooks& h, const FaultAction& a, bool fault) {
       if (h.pcie_corrupt) h.pcie_corrupt(fault ? a.rate : 0.0);
     }},
    {Kind::kNicCrash, "nic-crash", Arg::kNone, "nic-restore",
     NodeVerb::Outage::kNic, nic_hook},
    {Kind::kNicReset, "nic-reset", Arg::kNone, "nic-restore",
     NodeVerb::Outage::kNic, nic_hook},
    {Kind::kPcieFlap, "pcie-flap", Arg::kNone, "pcie-up",
     NodeVerb::Outage::kNone,
     [](const NodeHooks& h, const FaultAction&, bool fault) {
       if (h.pcie_flap) h.pcie_flap(fault);
     }},
    {Kind::kAccelFail, "accel-fail", Arg::kBank, "accel-heal",
     NodeVerb::Outage::kNone,
     [](const NodeHooks& h, const FaultAction& a, bool fault) {
       if (h.accel_fail) h.accel_fail(a.bank, fault);
     }},
};

const NodeVerb* node_verb(Kind kind) {
  for (const NodeVerb& v : kNodeVerbs) {
    if (v.kind == kind) return &v;
  }
  return nullptr;
}

const NodeVerb* node_verb(std::string_view name) {
  for (const NodeVerb& v : kNodeVerbs) {
    if (v.name == name) return &v;
  }
  return nullptr;
}

/// link-fault's probability knobs (jitter, a time, is parsed on its own).
constexpr std::pair<std::string_view, double FaultModel::*> kProbKnobs[] = {
    {"drop", &FaultModel::drop_prob},
    {"dup", &FaultModel::dup_prob},
    {"corrupt", &FaultModel::corrupt_prob},
};

// ------------------------------------------------------- token helpers --

bool parse_prob(std::string_view tok, double* out) {
  return parse_exact(tok, out) && *out >= 0.0 && *out <= 1.0;
}

/// "250ms" / "3s" / "1500ns" / "2.5us": finite, non-negative, and it fits
/// in Ns.  Whole numbers convert exactly; fractions truncate to the ns.
bool parse_time(std::string_view tok, Ns* out) {
  constexpr std::pair<std::string_view, Ns> kUnits[] = {
      {"ns", 1}, {"us", kNsPerUs}, {"ms", kNsPerMs}, {"s", kNsPerSec}};
  for (const auto& [unit, scale] : kUnits) {
    if (!tok.ends_with(unit)) continue;
    const std::string_view num = tok.substr(0, tok.size() - unit.size());
    Ns whole = 0;
    if (parse_exact(num, &whole)) {
      if (whole > std::numeric_limits<Ns>::max() / scale) return false;
      *out = whole * scale;
      return true;
    }
    double v = 0.0;
    if (!parse_exact(num, &v) || v < 0.0) return false;
    const double ns = v * static_cast<double>(scale);
    if (!(ns < 0x1p64)) return false;
    *out = static_cast<Ns>(ns);
    return true;
  }
  return false;
}

/// "0,1,2" -> {0, 1, 2}; every member a node id.
bool parse_group(std::string_view tok, std::vector<NodeId>* out) {
  for (std::size_t start = 0;;) {
    const std::size_t comma = tok.find(',', start);
    NodeId node = 0;
    if (!parse_exact(tok.substr(start, comma - start), &node)) return false;
    out->push_back(node);
    if (comma == std::string_view::npos) return true;
    start = comma + 1;
  }
}

std::string groups_text(const FaultAction& a) {
  std::string out;
  for (std::size_t i = 0; i < a.group_a.size(); ++i) {
    out += (i == 0 ? "" : ",") + std::to_string(a.group_a[i]);
  }
  out += '|';
  for (std::size_t i = 0; i < a.group_b.size(); ++i) {
    out += (i == 0 ? "" : ",") + std::to_string(a.group_b[i]);
  }
  return out;
}

/// Parses one directive, `t[0]` being its verb, into `a`.  Returns why it
/// is malformed, or "" when it is not.
std::string parse_directive(const std::vector<std::string>& t,
                            FaultAction* a) {
  std::size_t i = 1;
  const auto fail = [&](const std::string& why) { return t[0] + ": " + why; };
  // "<kw> <value>" at the cursor: the value, or nullptr.
  const auto clause = [&](std::string_view kw) -> const std::string* {
    if (i + 1 >= t.size() || t[i] != kw) return nullptr;
    i += 2;
    return &t[i - 1];
  };

  if (const NodeVerb* v = node_verb(t[0])) {
    a->kind = v->kind;
    if (i >= t.size()) return fail("missing node");
    if (!parse_exact(t[i], &a->node)) return fail("bad node '" + t[i] + "'");
    ++i;
    if (v->arg == Arg::kRate) {
      const std::string* p = clause("rate");
      if (p == nullptr || !parse_prob(*p, &a->rate)) {
        return fail("expected 'rate <p>' with 0 <= p <= 1");
      }
    } else if (v->arg == Arg::kBank) {
      const std::string* b = clause("bank");
      if (b == nullptr || !parse_exact(*b, &a->bank)) {
        return fail("expected 'bank <b>'");
      }
    }
  } else if (t[0] == "partition") {
    a->kind = Kind::kPartition;
    if (i >= t.size()) return fail("missing groups");
    const std::string& spec = t[i++];
    const auto bar = spec.find('|');
    if (bar == std::string::npos ||
        !parse_group(std::string_view(spec).substr(0, bar), &a->group_a) ||
        !parse_group(std::string_view(spec).substr(bar + 1), &a->group_b)) {
      return fail("expected '<a,..>|<b,..>', got '" + spec + "'");
    }
  } else if (t[0] == "link-fault") {
    a->kind = Kind::kLinkFault;
    for (; i < t.size() && t[i] != "at"; ++i) {
      const auto eq = t[i].find('=');
      if (eq == std::string::npos) return fail("bad knob '" + t[i] + "'");
      const std::string_view key = std::string_view(t[i]).substr(0, eq);
      const std::string_view val = std::string_view(t[i]).substr(eq + 1);
      const auto knob =
          std::find_if(std::begin(kProbKnobs), std::end(kProbKnobs),
                       [&](const auto& k) { return k.first == key; });
      bool ok = false;
      if (knob != std::end(kProbKnobs)) {
        ok = parse_prob(val, &(a->fault.*knob->second));
      } else if (key == "jitter") {
        ok = parse_time(val, &a->fault.reorder_jitter);
      } else {
        return fail("unknown knob '" + std::string(key) + "'");
      }
      if (!ok) return fail("bad value in '" + t[i] + "'");
    }
  } else {
    return "unknown directive '" + t[0] + "'";
  }

  const std::string* at = clause("at");
  if (at == nullptr || !parse_time(*at, &a->at)) {
    return fail("expected 'at <time>'");
  }
  const std::string* dur = clause("for");
  if (dur == nullptr || !parse_time(*dur, &a->duration)) {
    return fail("expected 'for <duration>'");
  }
  if (i < t.size()) return fail("unexpected '" + t[i] + "' after the window");
  return "";
}

/// printf into a std::string: the event log's pinned field formats.
[[gnu::format(printf, 1, 2)]] std::string strf(const char* fmt, ...) {
  char buf[160];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

}  // namespace

// ------------------------------------------------------------- FaultPlan --

FaultPlan& FaultPlan::add(FaultAction a) {
  actions.push_back(std::move(a));
  return *this;
}

FaultPlan& FaultPlan::crash(NodeId node, Ns at, Ns downtime) {
  return add({.kind = Kind::kCrash, .at = at, .duration = downtime,
              .node = node});
}

FaultPlan& FaultPlan::partition(std::vector<NodeId> a, std::vector<NodeId> b,
                                Ns at, Ns duration) {
  return add({.kind = Kind::kPartition, .at = at, .duration = duration,
              .group_a = std::move(a), .group_b = std::move(b)});
}

FaultPlan& FaultPlan::pcie_corrupt(NodeId node, double rate, Ns at,
                                   Ns duration) {
  return add({.kind = Kind::kPcieCorrupt, .at = at, .duration = duration,
              .node = node, .rate = rate});
}

FaultPlan& FaultPlan::link_fault(FaultModel fm, Ns at, Ns duration) {
  return add({.kind = Kind::kLinkFault, .at = at, .duration = duration,
              .fault = fm});
}

FaultPlan& FaultPlan::nic_crash(NodeId node, Ns at, Ns downtime) {
  return add({.kind = Kind::kNicCrash, .at = at, .duration = downtime,
              .node = node});
}

FaultPlan& FaultPlan::nic_reset(NodeId node, Ns at, Ns downtime) {
  return add({.kind = Kind::kNicReset, .at = at, .duration = downtime,
              .node = node});
}

FaultPlan& FaultPlan::pcie_flap(NodeId node, Ns at, Ns duration) {
  return add({.kind = Kind::kPcieFlap, .at = at, .duration = duration,
              .node = node});
}

FaultPlan& FaultPlan::accel_fail(NodeId node, std::uint32_t bank, Ns at,
                                 Ns duration) {
  return add({.kind = Kind::kAccelFail, .at = at, .duration = duration,
              .node = node, .bank = bank});
}

std::optional<FaultPlan> FaultPlan::parse(const std::string& text,
                                          std::string* error) {
  FaultPlan plan;
  std::istringstream lines(text);
  std::string line;
  for (int line_no = 1; std::getline(lines, line); ++line_no) {
    std::istringstream words(line.substr(0, line.find('#')));
    std::vector<std::string> tokens;
    for (std::string tok; words >> tok;) tokens.push_back(std::move(tok));
    if (tokens.empty()) continue;  // blank / comment-only line
    FaultAction a;
    const std::string why = parse_directive(tokens, &a);
    if (!why.empty()) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_no) + ": " + why;
      }
      return std::nullopt;
    }
    plan.add(std::move(a));
  }
  return plan;
}

std::string FaultPlan::to_text() const {
  std::string out;
  for (const FaultAction& a : actions) {
    if (const NodeVerb* v = node_verb(a.kind)) {
      out += std::string(v->name) + ' ' + std::to_string(a.node);
      if (v->arg == Arg::kRate) out += " rate " + exact_text(a.rate);
      if (v->arg == Arg::kBank) out += " bank " + std::to_string(a.bank);
    } else if (a.kind == Kind::kPartition) {
      out += "partition " + groups_text(a);
    } else {
      out += "link-fault";
      for (const auto& [key, field] : kProbKnobs) {
        if (a.fault.*field > 0.0) {
          out += ' ' + std::string(key) + '=' + exact_text(a.fault.*field);
        }
      }
      if (a.fault.reorder_jitter > 0) {
        out += " jitter=" + std::to_string(a.fault.reorder_jitter) + "ns";
      }
    }
    out += " at " + std::to_string(a.at) + "ns for " +
           std::to_string(a.duration) + "ns\n";
  }
  return out;
}

// ------------------------------------------------------- ChaosController --

ChaosController::OutageState* ChaosController::outage(const NodeVerb& v) {
  if (v.outage == NodeVerb::Outage::kNone) return nullptr;
  return v.outage == NodeVerb::Outage::kNode ? &node_out_ : &nic_out_;
}

void ChaosController::execute(const FaultPlan& plan) {
  for (const FaultAction& a : plan.actions) {
    const std::uint64_t seq = next_seq_;
    next_seq_ += 2;  // fire line, then its heal line
    const NodeVerb* v = node_verb(a.kind);
    if (v == nullptr) {
      sim::Simulation& s = net_.sim();
      s.schedule_at(a.at, [this, &s, a, seq] {
        if (a.kind == Kind::kPartition) {
          fire_partition(s, a, seq);
        } else {
          fire_link_fault(s, a, seq);
        }
      });
      continue;
    }
    if (OutageState* o = outage(*v)) o->down[a.node];
    const sim::DomainId d = net_.node_domain(a.node);
    sim::Simulation& s =
        d == sim::kNoDomain ? net_.sim() : net_.engine().domain(d);
    s.schedule_at(a.at, [this, &s, v, a, seq] { fire_node(s, *v, a, seq); });
  }
}

void ChaosController::fire_node(sim::Simulation& s, const NodeVerb& v,
                                const FaultAction& a, std::uint64_t seq) {
  std::string line = strf("%s node=%u", v.name, a.node);
  if (OutageState* o = outage(v)) {
    std::atomic<bool>& down = o->down[a.node];
    if (down.load(std::memory_order_relaxed) || node_down(a.node)) {
      log_line(s.now(), seq, line + " skipped(down)");
      return;
    }
    down.store(true, std::memory_order_relaxed);
    o->begun.fetch_add(1, std::memory_order_relaxed);
  }
  const auto hooks = hooks_.find(a.node);
  if (hooks != hooks_.end()) v.hook(hooks->second, a, true);
  switch (v.arg) {
    case Arg::kNone:
      line += strf(" down_ns=%lld", static_cast<long long>(a.duration));
      break;
    case Arg::kRate:
      line += strf(" rate=%g", a.rate);
      break;
    case Arg::kBank:
      line += strf(" bank=%u", a.bank);
      break;
  }
  log_line(s.now(), seq, line);

  s.schedule(a.duration, [this, &s, &v, a, seq] {
    if (OutageState* o = outage(v)) {
      o->down[a.node].store(false, std::memory_order_relaxed);
      o->ended.fetch_add(1, std::memory_order_relaxed);
    }
    const auto h = hooks_.find(a.node);
    if (h != hooks_.end()) v.hook(h->second, a, false);
    std::string heal = strf("%s node=%u", v.heal, a.node);
    if (v.arg == Arg::kBank) heal += strf(" bank=%u", a.bank);
    log_line(s.now(), seq + 1, heal);
  });
}

void ChaosController::fire_partition(sim::Simulation& s, const FaultAction& a,
                                     std::uint64_t seq) {
  for (const NodeId x : a.group_a) {
    for (const NodeId y : a.group_b) net_.block_pair(x, y);
  }
  partitions_.fetch_add(1, std::memory_order_relaxed);
  log_line(s.now(), seq,
           "partition " + groups_text(a) +
               " heal_ns=" + std::to_string(a.duration));

  s.schedule(a.duration, [this, &s, a, seq] {
    for (const NodeId x : a.group_a) {
      for (const NodeId y : a.group_b) net_.unblock_pair(x, y);
    }
    heals_.fetch_add(1, std::memory_order_relaxed);
    log_line(s.now(), seq + 1, "heal");
  });
}

void ChaosController::fire_link_fault(sim::Simulation& s, const FaultAction& a,
                                      std::uint64_t seq) {
  const FaultModel saved = net_.fault_model();
  net_.set_fault_model(a.fault);
  log_line(s.now(), seq,
           strf("link-fault drop=%g dup=%g corrupt=%g jitter=%lld",
                a.fault.drop_prob, a.fault.dup_prob, a.fault.corrupt_prob,
                static_cast<long long>(a.fault.reorder_jitter)));

  s.schedule(a.duration, [this, &s, saved, seq] {
    net_.set_fault_model(saved);
    log_line(s.now(), seq + 1, "link-heal");
  });
}

void ChaosController::log_line(Ns t, std::uint64_t seq,
                               const std::string& body) {
  std::string line = "t=" + std::to_string(t) + ' ' + body;
  const std::lock_guard<std::mutex> guard(log_mu_);
  recs_.push_back(LogRec{t, seq, std::move(line)});
}

const std::vector<std::string>& ChaosController::event_log() const {
  // (t, seq) is a total order — seqs are unique — so the merged view is
  // independent of which domain's worker appended first.
  const std::lock_guard<std::mutex> guard(log_mu_);
  std::sort(recs_.begin(), recs_.end(),
            [](const LogRec& x, const LogRec& y) {
              if (x.t != y.t) return x.t < y.t;
              return x.seq < y.seq;
            });
  log_.clear();
  log_.reserve(recs_.size());
  for (const LogRec& r : recs_) log_.push_back(r.line);
  return log_;
}

std::string ChaosController::event_log_text() const {
  std::string out;
  for (const std::string& line : event_log()) {
    out += line;
    out += '\n';
  }
  return out;
}

}  // namespace ipipe::netsim
