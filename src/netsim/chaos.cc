#include "netsim/chaos.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace ipipe::netsim {

// ------------------------------------------------------------- FaultPlan --

FaultPlan& FaultPlan::crash(NodeId node, Ns at, Ns downtime) {
  FaultAction a;
  a.kind = FaultAction::Kind::kCrash;
  a.node = node;
  a.at = at;
  a.duration = downtime;
  actions.push_back(std::move(a));
  return *this;
}

FaultPlan& FaultPlan::partition(std::vector<NodeId> ga, std::vector<NodeId> gb,
                                Ns at, Ns duration) {
  FaultAction a;
  a.kind = FaultAction::Kind::kPartition;
  a.group_a = std::move(ga);
  a.group_b = std::move(gb);
  a.at = at;
  a.duration = duration;
  actions.push_back(std::move(a));
  return *this;
}

FaultPlan& FaultPlan::pcie_corrupt(NodeId node, double rate, Ns at,
                                   Ns duration) {
  FaultAction a;
  a.kind = FaultAction::Kind::kPcieCorrupt;
  a.node = node;
  a.rate = rate;
  a.at = at;
  a.duration = duration;
  actions.push_back(std::move(a));
  return *this;
}

FaultPlan& FaultPlan::link_fault(FaultModel fm, Ns at, Ns duration) {
  FaultAction a;
  a.kind = FaultAction::Kind::kLinkFault;
  a.fault = fm;
  a.at = at;
  a.duration = duration;
  actions.push_back(std::move(a));
  return *this;
}

FaultPlan& FaultPlan::nic_crash(NodeId node, Ns at, Ns downtime) {
  FaultAction a;
  a.kind = FaultAction::Kind::kNicCrash;
  a.node = node;
  a.at = at;
  a.duration = downtime;
  actions.push_back(std::move(a));
  return *this;
}

FaultPlan& FaultPlan::nic_reset(NodeId node, Ns at, Ns downtime) {
  FaultAction a;
  a.kind = FaultAction::Kind::kNicReset;
  a.node = node;
  a.at = at;
  a.duration = downtime;
  actions.push_back(std::move(a));
  return *this;
}

FaultPlan& FaultPlan::pcie_flap(NodeId node, Ns at, Ns duration) {
  FaultAction a;
  a.kind = FaultAction::Kind::kPcieFlap;
  a.node = node;
  a.at = at;
  a.duration = duration;
  actions.push_back(std::move(a));
  return *this;
}

FaultPlan& FaultPlan::accel_fail(NodeId node, std::uint32_t bank, Ns at,
                                 Ns duration) {
  FaultAction a;
  a.kind = FaultAction::Kind::kAccelFail;
  a.node = node;
  a.bank = bank;
  a.at = at;
  a.duration = duration;
  actions.push_back(std::move(a));
  return *this;
}

namespace {

/// "250ms" / "3s" / "1500ns" / "2us" -> Ns.  Returns false on bad input.
bool parse_time(const std::string& tok, Ns* out) {
  std::size_t pos = 0;
  double value = 0.0;
  try {
    value = std::stod(tok, &pos);
  } catch (...) {
    return false;
  }
  const std::string suffix = tok.substr(pos);
  double scale = 0.0;
  if (suffix == "ns") {
    scale = 1.0;
  } else if (suffix == "us") {
    scale = 1e3;
  } else if (suffix == "ms") {
    scale = 1e6;
  } else if (suffix == "s") {
    scale = 1e9;
  } else {
    return false;
  }
  *out = static_cast<Ns>(value * scale);
  return true;
}

bool parse_double(const std::string& tok, double* out) {
  try {
    std::size_t pos = 0;
    *out = std::stod(tok, &pos);
    return pos == tok.size();
  } catch (...) {
    return false;
  }
}

/// "0,1,2" -> {0, 1, 2}.
bool parse_group(const std::string& tok, std::vector<NodeId>* out) {
  std::stringstream ss(tok);
  std::string part;
  while (std::getline(ss, part, ',')) {
    try {
      std::size_t pos = 0;
      const unsigned long v = std::stoul(part, &pos);
      if (pos != part.size()) return false;
      out->push_back(static_cast<NodeId>(v));
    } catch (...) {
      return false;
    }
  }
  return !out->empty();
}

/// Consume "at <time> for <duration>" from the token stream.
bool parse_window(std::stringstream& ss, Ns* at, Ns* duration,
                  std::string* err) {
  std::string kw;
  std::string tok;
  if (!(ss >> kw >> tok) || kw != "at" || !parse_time(tok, at)) {
    *err = "expected 'at <time>'";
    return false;
  }
  if (!(ss >> kw >> tok) || kw != "for" || !parse_time(tok, duration)) {
    *err = "expected 'for <duration>'";
    return false;
  }
  return true;
}

}  // namespace

std::optional<FaultPlan> FaultPlan::parse(const std::string& text,
                                          std::string* error) {
  FaultPlan plan;
  std::stringstream lines(text);
  std::string line;
  int line_no = 0;
  const auto fail = [&](const std::string& why) -> std::optional<FaultPlan> {
    if (error != nullptr) {
      *error = "line " + std::to_string(line_no) + ": " + why;
    }
    return std::nullopt;
  };

  while (std::getline(lines, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::stringstream ss(line);
    std::string verb;
    if (!(ss >> verb)) continue;  // blank / comment-only line

    std::string err;
    if (verb == "crash") {
      unsigned long node = 0;
      std::string tok;
      if (!(ss >> tok)) return fail("crash: missing node");
      try {
        node = std::stoul(tok);
      } catch (...) {
        return fail("crash: bad node '" + tok + "'");
      }
      Ns at = 0;
      Ns dur = 0;
      if (!parse_window(ss, &at, &dur, &err)) return fail("crash: " + err);
      plan.crash(static_cast<NodeId>(node), at, dur);
    } else if (verb == "partition") {
      std::string spec;
      if (!(ss >> spec)) return fail("partition: missing groups");
      const auto bar = spec.find('|');
      if (bar == std::string::npos) {
        return fail("partition: expected '<a,..>|<b,..>'");
      }
      std::vector<NodeId> ga;
      std::vector<NodeId> gb;
      if (!parse_group(spec.substr(0, bar), &ga) ||
          !parse_group(spec.substr(bar + 1), &gb)) {
        return fail("partition: bad group in '" + spec + "'");
      }
      Ns at = 0;
      Ns dur = 0;
      if (!parse_window(ss, &at, &dur, &err)) return fail("partition: " + err);
      plan.partition(std::move(ga), std::move(gb), at, dur);
    } else if (verb == "pcie-corrupt") {
      unsigned long node = 0;
      std::string tok;
      if (!(ss >> tok)) return fail("pcie-corrupt: missing node");
      try {
        node = std::stoul(tok);
      } catch (...) {
        return fail("pcie-corrupt: bad node '" + tok + "'");
      }
      std::string kw;
      double rate = 0.0;
      if (!(ss >> kw >> tok) || kw != "rate" || !parse_double(tok, &rate)) {
        return fail("pcie-corrupt: expected 'rate <p>'");
      }
      Ns at = 0;
      Ns dur = 0;
      if (!parse_window(ss, &at, &dur, &err)) {
        return fail("pcie-corrupt: " + err);
      }
      plan.pcie_corrupt(static_cast<NodeId>(node), rate, at, dur);
    } else if (verb == "nic-crash" || verb == "nic-reset" ||
               verb == "pcie-flap") {
      unsigned long node = 0;
      std::string tok;
      if (!(ss >> tok)) return fail(verb + ": missing node");
      try {
        node = std::stoul(tok);
      } catch (...) {
        return fail(verb + ": bad node '" + tok + "'");
      }
      Ns at = 0;
      Ns dur = 0;
      if (!parse_window(ss, &at, &dur, &err)) return fail(verb + ": " + err);
      if (verb == "nic-crash") {
        plan.nic_crash(static_cast<NodeId>(node), at, dur);
      } else if (verb == "nic-reset") {
        plan.nic_reset(static_cast<NodeId>(node), at, dur);
      } else {
        plan.pcie_flap(static_cast<NodeId>(node), at, dur);
      }
    } else if (verb == "accel-fail") {
      unsigned long node = 0;
      std::string tok;
      if (!(ss >> tok)) return fail("accel-fail: missing node");
      try {
        node = std::stoul(tok);
      } catch (...) {
        return fail("accel-fail: bad node '" + tok + "'");
      }
      std::string kw;
      unsigned long bank = 0;
      if (!(ss >> kw >> tok) || kw != "bank") {
        return fail("accel-fail: expected 'bank <b>'");
      }
      bool bank_ok = true;
      try {
        std::size_t pos = 0;
        bank = std::stoul(tok, &pos);
        bank_ok = pos == tok.size();
      } catch (...) {
        bank_ok = false;
      }
      if (!bank_ok) return fail("accel-fail: bad bank '" + tok + "'");
      Ns at = 0;
      Ns dur = 0;
      if (!parse_window(ss, &at, &dur, &err)) {
        return fail("accel-fail: " + err);
      }
      plan.accel_fail(static_cast<NodeId>(node),
                      static_cast<std::uint32_t>(bank), at, dur);
    } else if (verb == "link-fault") {
      FaultModel fm;
      Ns at = 0;
      Ns dur = 0;
      bool have_window = false;
      std::string tok;
      while (ss >> tok) {
        if (tok == "at") {
          // Rewind "at" into a window parse.
          std::string t2;
          if (!(ss >> t2) || !parse_time(t2, &at)) {
            return fail("link-fault: expected 'at <time>'");
          }
          std::string kw;
          if (!(ss >> kw >> t2) || kw != "for" || !parse_time(t2, &dur)) {
            return fail("link-fault: expected 'for <duration>'");
          }
          have_window = true;
          break;
        }
        const auto eq = tok.find('=');
        if (eq == std::string::npos) {
          return fail("link-fault: bad knob '" + tok + "'");
        }
        const std::string key = tok.substr(0, eq);
        const std::string val = tok.substr(eq + 1);
        if (key == "jitter") {
          if (!parse_time(val, &fm.reorder_jitter)) {
            return fail("link-fault: bad jitter '" + val + "'");
          }
        } else {
          double p = 0.0;
          if (!parse_double(val, &p)) {
            return fail("link-fault: bad value '" + val + "'");
          }
          if (key == "drop") {
            fm.drop_prob = p;
          } else if (key == "dup") {
            fm.dup_prob = p;
          } else if (key == "corrupt") {
            fm.corrupt_prob = p;
          } else {
            return fail("link-fault: unknown knob '" + key + "'");
          }
        }
      }
      if (!have_window) return fail("link-fault: missing 'at ... for ...'");
      plan.link_fault(fm, at, dur);
    } else {
      return fail("unknown directive '" + verb + "'");
    }
  }
  return plan;
}

std::string FaultPlan::to_text() const {
  std::ostringstream os;
  for (const FaultAction& a : actions) {
    switch (a.kind) {
      case FaultAction::Kind::kCrash:
        os << "crash " << a.node;
        break;
      case FaultAction::Kind::kPartition: {
        os << "partition ";
        for (std::size_t i = 0; i < a.group_a.size(); ++i) {
          os << (i == 0 ? "" : ",") << a.group_a[i];
        }
        os << "|";
        for (std::size_t i = 0; i < a.group_b.size(); ++i) {
          os << (i == 0 ? "" : ",") << a.group_b[i];
        }
        break;
      }
      case FaultAction::Kind::kPcieCorrupt:
        os << "pcie-corrupt " << a.node << " rate " << a.rate;
        break;
      case FaultAction::Kind::kLinkFault:
        os << "link-fault";
        if (a.fault.drop_prob > 0.0) os << " drop=" << a.fault.drop_prob;
        if (a.fault.dup_prob > 0.0) os << " dup=" << a.fault.dup_prob;
        if (a.fault.corrupt_prob > 0.0) {
          os << " corrupt=" << a.fault.corrupt_prob;
        }
        if (a.fault.reorder_jitter > 0) {
          os << " jitter=" << a.fault.reorder_jitter << "ns";
        }
        break;
      case FaultAction::Kind::kNicCrash:
        os << "nic-crash " << a.node;
        break;
      case FaultAction::Kind::kNicReset:
        os << "nic-reset " << a.node;
        break;
      case FaultAction::Kind::kPcieFlap:
        os << "pcie-flap " << a.node;
        break;
      case FaultAction::Kind::kAccelFail:
        os << "accel-fail " << a.node << " bank " << a.bank;
        break;
    }
    os << " at " << a.at << "ns for " << a.duration << "ns\n";
  }
  return os.str();
}

// ------------------------------------------------------- ChaosController --

sim::Simulation& ChaosController::action_sim(const FaultAction& a) {
  switch (a.kind) {
    case FaultAction::Kind::kCrash:
    case FaultAction::Kind::kPcieCorrupt:
    case FaultAction::Kind::kNicCrash:
    case FaultAction::Kind::kNicReset:
    case FaultAction::Kind::kPcieFlap:
    case FaultAction::Kind::kAccelFail: {
      const sim::DomainId d = net_.node_domain(a.node);
      if (d != sim::kNoDomain) return net_.engine().domain(d);
      break;
    }
    case FaultAction::Kind::kPartition:
    case FaultAction::Kind::kLinkFault:
      break;
  }
  return net_.sim();
}

void ChaosController::execute(const FaultPlan& plan) {
  for (const FaultAction& a : plan.actions) {
    sim::Simulation& s = action_sim(a);
    const std::uint64_t seq = next_seq_;
    next_seq_ += 2;  // fire line, then its heal/restore line
    if (a.kind == FaultAction::Kind::kCrash) down_[a.node];
    if (a.kind == FaultAction::Kind::kNicCrash ||
        a.kind == FaultAction::Kind::kNicReset) {
      nic_down_[a.node];
    }
    switch (a.kind) {
      case FaultAction::Kind::kCrash:
        s.schedule_at(a.at, [this, &s, a, seq] { fire_crash(s, a, seq); });
        break;
      case FaultAction::Kind::kPartition:
        s.schedule_at(a.at, [this, &s, a, seq] { fire_partition(s, a, seq); });
        break;
      case FaultAction::Kind::kPcieCorrupt:
        s.schedule_at(a.at,
                      [this, &s, a, seq] { fire_pcie_corrupt(s, a, seq); });
        break;
      case FaultAction::Kind::kLinkFault:
        s.schedule_at(a.at,
                      [this, &s, a, seq] { fire_link_fault(s, a, seq); });
        break;
      case FaultAction::Kind::kNicCrash:
      case FaultAction::Kind::kNicReset:
        s.schedule_at(a.at, [this, &s, a, seq] { fire_nic_crash(s, a, seq); });
        break;
      case FaultAction::Kind::kPcieFlap:
        s.schedule_at(a.at, [this, &s, a, seq] { fire_pcie_flap(s, a, seq); });
        break;
      case FaultAction::Kind::kAccelFail:
        s.schedule_at(a.at,
                      [this, &s, a, seq] { fire_accel_fail(s, a, seq); });
        break;
    }
  }
}

void ChaosController::fire_crash(sim::Simulation& s, const FaultAction& a,
                                 std::uint64_t seq) {
  char buf[96];
  std::atomic<bool>& flag = down_[a.node];
  if (flag.load(std::memory_order_relaxed)) {
    std::snprintf(buf, sizeof(buf), "t=%lld crash node=%u skipped(down)",
                  static_cast<long long>(s.now()), a.node);
    log_line(s.now(), seq, buf);
    return;
  }
  flag.store(true, std::memory_order_relaxed);
  crashes_.fetch_add(1, std::memory_order_relaxed);
  const auto it = hooks_.find(a.node);
  if (it != hooks_.end() && it->second.crash) it->second.crash();
  std::snprintf(buf, sizeof(buf), "t=%lld crash node=%u down_ns=%lld",
                static_cast<long long>(s.now()), a.node,
                static_cast<long long>(a.duration));
  log_line(s.now(), seq, buf);

  s.schedule(a.duration, [this, &s, node = a.node, seq] {
    down_[node].store(false, std::memory_order_relaxed);
    restores_.fetch_add(1, std::memory_order_relaxed);
    const auto h = hooks_.find(node);
    if (h != hooks_.end() && h->second.restore) h->second.restore();
    char b[64];
    std::snprintf(b, sizeof(b), "t=%lld restore node=%u",
                  static_cast<long long>(s.now()), node);
    log_line(s.now(), seq + 1, b);
  });
}

void ChaosController::fire_partition(sim::Simulation& s, const FaultAction& a,
                                     std::uint64_t seq) {
  for (const NodeId x : a.group_a) {
    for (const NodeId y : a.group_b) {
      net_.block_pair(x, y);
    }
  }
  partitions_.fetch_add(1, std::memory_order_relaxed);
  std::ostringstream os;
  os << "t=" << s.now() << " partition";
  for (std::size_t i = 0; i < a.group_a.size(); ++i) {
    os << (i == 0 ? " " : ",") << a.group_a[i];
  }
  os << "|";
  for (std::size_t i = 0; i < a.group_b.size(); ++i) {
    os << (i == 0 ? "" : ",") << a.group_b[i];
  }
  os << " heal_ns=" << a.duration;
  log_line(s.now(), seq, os.str());

  s.schedule(a.duration, [this, &s, ga = a.group_a, gb = a.group_b, seq] {
    for (const NodeId x : ga) {
      for (const NodeId y : gb) {
        net_.unblock_pair(x, y);
      }
    }
    heals_.fetch_add(1, std::memory_order_relaxed);
    char b[48];
    std::snprintf(b, sizeof(b), "t=%lld heal",
                  static_cast<long long>(s.now()));
    log_line(s.now(), seq + 1, b);
  });
}

void ChaosController::fire_pcie_corrupt(sim::Simulation& s,
                                        const FaultAction& a,
                                        std::uint64_t seq) {
  const auto it = hooks_.find(a.node);
  if (it != hooks_.end() && it->second.pcie_corrupt) {
    it->second.pcie_corrupt(a.rate);
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf), "t=%lld pcie-corrupt node=%u rate=%g",
                static_cast<long long>(s.now()), a.node, a.rate);
  log_line(s.now(), seq, buf);

  s.schedule(a.duration, [this, &s, node = a.node, seq] {
    const auto h = hooks_.find(node);
    if (h != hooks_.end() && h->second.pcie_corrupt) h->second.pcie_corrupt(0.0);
    char b[64];
    std::snprintf(b, sizeof(b), "t=%lld pcie-heal node=%u",
                  static_cast<long long>(s.now()), node);
    log_line(s.now(), seq + 1, b);
  });
}

void ChaosController::fire_link_fault(sim::Simulation& s, const FaultAction& a,
                                      std::uint64_t seq) {
  const FaultModel saved = net_.fault_model();
  net_.set_fault_model(a.fault);
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "t=%lld link-fault drop=%g dup=%g corrupt=%g jitter=%lld",
                static_cast<long long>(s.now()), a.fault.drop_prob,
                a.fault.dup_prob, a.fault.corrupt_prob,
                static_cast<long long>(a.fault.reorder_jitter));
  log_line(s.now(), seq, buf);

  s.schedule(a.duration, [this, &s, saved, seq] {
    net_.set_fault_model(saved);
    char b[48];
    std::snprintf(b, sizeof(b), "t=%lld link-heal",
                  static_cast<long long>(s.now()));
    log_line(s.now(), seq + 1, b);
  });
}

void ChaosController::fire_nic_crash(sim::Simulation& s, const FaultAction& a,
                                     std::uint64_t seq) {
  const char* verb =
      a.kind == FaultAction::Kind::kNicReset ? "nic-reset" : "nic-crash";
  char buf[96];
  std::atomic<bool>& flag = nic_down_[a.node];
  if (flag.load(std::memory_order_relaxed) ||
      node_down(a.node)) {
    std::snprintf(buf, sizeof(buf), "t=%lld %s node=%u skipped(down)",
                  static_cast<long long>(s.now()), verb, a.node);
    log_line(s.now(), seq, buf);
    return;
  }
  flag.store(true, std::memory_order_relaxed);
  nic_crashes_.fetch_add(1, std::memory_order_relaxed);
  const auto it = hooks_.find(a.node);
  if (it != hooks_.end() && it->second.nic_crash) it->second.nic_crash();
  std::snprintf(buf, sizeof(buf), "t=%lld %s node=%u down_ns=%lld",
                static_cast<long long>(s.now()), verb, a.node,
                static_cast<long long>(a.duration));
  log_line(s.now(), seq, buf);

  s.schedule(a.duration, [this, &s, node = a.node, seq] {
    nic_down_[node].store(false, std::memory_order_relaxed);
    nic_restores_.fetch_add(1, std::memory_order_relaxed);
    const auto h = hooks_.find(node);
    if (h != hooks_.end() && h->second.nic_restore) h->second.nic_restore();
    char b[64];
    std::snprintf(b, sizeof(b), "t=%lld nic-restore node=%u",
                  static_cast<long long>(s.now()), node);
    log_line(s.now(), seq + 1, b);
  });
}

void ChaosController::fire_pcie_flap(sim::Simulation& s, const FaultAction& a,
                                     std::uint64_t seq) {
  const auto it = hooks_.find(a.node);
  if (it != hooks_.end() && it->second.pcie_flap) it->second.pcie_flap(true);
  char buf[96];
  std::snprintf(buf, sizeof(buf), "t=%lld pcie-flap node=%u down_ns=%lld",
                static_cast<long long>(s.now()), a.node,
                static_cast<long long>(a.duration));
  log_line(s.now(), seq, buf);

  s.schedule(a.duration, [this, &s, node = a.node, seq] {
    const auto h = hooks_.find(node);
    if (h != hooks_.end() && h->second.pcie_flap) h->second.pcie_flap(false);
    char b[64];
    std::snprintf(b, sizeof(b), "t=%lld pcie-up node=%u",
                  static_cast<long long>(s.now()), node);
    log_line(s.now(), seq + 1, b);
  });
}

void ChaosController::fire_accel_fail(sim::Simulation& s, const FaultAction& a,
                                      std::uint64_t seq) {
  const auto it = hooks_.find(a.node);
  if (it != hooks_.end() && it->second.accel_fail) {
    it->second.accel_fail(a.bank, true);
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf), "t=%lld accel-fail node=%u bank=%u",
                static_cast<long long>(s.now()), a.node, a.bank);
  log_line(s.now(), seq, buf);

  s.schedule(a.duration, [this, &s, node = a.node, bank = a.bank, seq] {
    const auto h = hooks_.find(node);
    if (h != hooks_.end() && h->second.accel_fail) {
      h->second.accel_fail(bank, false);
    }
    char b[80];
    std::snprintf(b, sizeof(b), "t=%lld accel-heal node=%u bank=%u",
                  static_cast<long long>(s.now()), node, bank);
    log_line(s.now(), seq + 1, b);
  });
}

void ChaosController::log_line(Ns t, std::uint64_t seq, std::string line) {
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
