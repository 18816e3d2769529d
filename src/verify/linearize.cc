#include "verify/linearize.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

namespace ipipe::verify {
namespace {

/// Abstract register state: value present, or key absent.
using State = std::optional<std::vector<std::uint8_t>>;

struct Entry {
  bool required = false;
  bool is_mutation = false;
  State value;  ///< mutation: state installed; read: state expected
  Ns inv = 0;
  Ns res = kPendingNs;  ///< kPendingNs for optional ops
  std::size_t op_index = 0;
};

std::string render_value(const State& v) {
  if (!v) return "<absent>";
  char buf[4];
  std::string out = "0x";
  const std::size_t n = std::min<std::size_t>(v->size(), 8);
  for (std::size_t i = 0; i < n; ++i) {
    std::snprintf(buf, sizeof buf, "%02x", (*v)[i]);
    out += buf;
  }
  if (v->size() > 8) out += "...";
  return out;
}

std::string render_op(const KvOp& op) {
  const char* name = op.op == rkv::Op::kPut   ? "Put"
                     : op.op == rkv::Op::kDel ? "Del"
                                              : "Get";
  std::string out = name;
  out += "(" + op.key + ")";
  if (op.op == rkv::Op::kPut) out += "=" + render_value(State{op.arg});
  if (op.op == rkv::Op::kGet && op.has_status &&
      op.status == rkv::Status::kOk) {
    out += "->" + render_value(State{op.result});
  }
  out += " rid=" + std::to_string(op.request_id);
  out += " [" + std::to_string(op.invoke) + ",";
  out += op.response == kPendingNs ? "inf" : std::to_string(op.response);
  out += "]";
  if (op.has_status) {
    static const char* kStatus[] = {"Ok", "NotFound", "NotLeader", "Error"};
    out += std::string(" ") + kStatus[static_cast<unsigned>(op.status) & 3];
  } else {
    out += " pending";
  }
  return out;
}

/// Per-key search context.
class KeySearch {
 public:
  KeySearch(std::vector<Entry> entries, std::uint64_t budget,
            std::uint64_t* explored)
      : entries_(std::move(entries)), budget_(budget), explored_(explored) {
    words_ = (entries_.size() + 63) / 64;
    state_ids_[State{}] = 0;  // initial state: absent
    states_.push_back(State{});
  }

  /// 1 = linearizable, 0 = not (check budget_hit() to disambiguate).
  bool run() {
    std::vector<std::uint64_t> mask(words_, 0);
    return dfs(mask, 0);
  }
  [[nodiscard]] bool budget_hit() const noexcept { return budget_hit_; }

 private:
  std::uint32_t intern(const State& s) {
    const auto [it, fresh] =
        state_ids_.emplace(s, static_cast<std::uint32_t>(states_.size()));
    if (fresh) states_.push_back(s);
    return it->second;
  }

  [[nodiscard]] static bool bit(const std::vector<std::uint64_t>& m,
                                std::size_t i) {
    return (m[i / 64] >> (i % 64)) & 1;
  }

  bool dfs(std::vector<std::uint64_t>& mask, std::uint32_t state_id) {
    if (budget_hit_) return false;
    if (++*explored_ > budget_) {
      budget_hit_ = true;
      return false;
    }

    Ns min_res = kPendingNs;
    bool any_required = false;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (bit(mask, i) || !entries_[i].required) continue;
      any_required = true;
      min_res = std::min(min_res, entries_[i].res);
    }
    if (!any_required) return true;  // optionals never have to linearize

    std::string memo(reinterpret_cast<const char*>(mask.data()),
                     words_ * sizeof(std::uint64_t));
    memo.append(reinterpret_cast<const char*>(&state_id), sizeof state_id);
    if (!visited_.insert(std::move(memo)).second) return false;

    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (bit(mask, i)) continue;
      const Entry& e = entries_[i];
      if (e.inv > min_res) continue;  // would linearize after a pending res
      // Index states_ afresh each time: intern() below may grow it.
      if (!e.is_mutation && e.value != states_[state_id]) continue;  // read mismatch
      mask[i / 64] |= 1ULL << (i % 64);
      const std::uint32_t next =
          e.is_mutation ? intern(e.value) : state_id;
      if (dfs(mask, next)) return true;
      mask[i / 64] &= ~(1ULL << (i % 64));
      if (budget_hit_) return false;
    }
    return false;
  }

  std::vector<Entry> entries_;
  std::uint64_t budget_;
  std::uint64_t* explored_;
  std::size_t words_ = 0;
  bool budget_hit_ = false;
  std::vector<State> states_;
  std::map<State, std::uint32_t> state_ids_;
  std::unordered_set<std::string> visited_;
};

}  // namespace

LinearizeResult check_kv_linearizable(const KvHistory& h,
                                      std::uint64_t max_states) {
  LinearizeResult out;

  // Partition by key, preserving history order within each partition.
  std::map<std::string, std::vector<std::size_t>> by_key;
  for (std::size_t i = 0; i < h.ops.size(); ++i) {
    by_key[h.ops[i].key].push_back(i);
  }

  for (const auto& [key, indices] : by_key) {
    std::vector<Entry> entries;
    entries.reserve(indices.size());
    for (const std::size_t idx : indices) {
      const KvOp& op = h.ops[idx];
      Entry e;
      e.inv = op.invoke;
      e.op_index = idx;
      const bool acked_ok = op.has_status && op.status == rkv::Status::kOk;
      switch (op.op) {
        case rkv::Op::kPut:
        case rkv::Op::kDel:
          e.is_mutation = true;
          e.value = op.op == rkv::Op::kPut ? State{op.arg} : State{};
          e.required = acked_ok;
          e.res = acked_ok ? op.response : kPendingNs;
          break;
        case rkv::Op::kGet:
          if (acked_ok) {
            e.value = State{op.result};
          } else if (op.has_status && op.status == rkv::Status::kNotFound) {
            e.value = State{};
          } else {
            continue;  // observed nothing: drop
          }
          e.required = true;
          e.res = op.response;
          break;
      }
      entries.push_back(std::move(e));
    }
    if (entries.empty()) continue;

    // Prune optional mutations that cannot matter.  An unacknowledged
    // put can only affect the check if some read actually observed its
    // value (values are unique per request in the fuzz workloads; a put
    // nobody observed can be dropped from any witness).  Likewise an
    // unacknowledged del only matters when some read observed an absent
    // key.  Without this the search is exponential in the number of
    // requests abandoned during fault windows.
    {
      std::vector<const State*> observed;
      bool absent_observed = false;
      for (const Entry& e : entries) {
        if (e.is_mutation || !e.required) continue;
        if (e.value) {
          observed.push_back(&e.value);
        } else {
          absent_observed = true;
        }
      }
      std::erase_if(entries, [&](const Entry& e) {
        if (!e.is_mutation || e.required) return false;
        if (!e.value) return !absent_observed;
        for (const State* s : observed) {
          if (*s == e.value) return false;
        }
        return true;
      });
    }
    if (entries.empty()) continue;

    // Deterministic candidate order: by invoke, then response.
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) {
                return std::tie(a.inv, a.res, a.op_index) <
                       std::tie(b.inv, b.res, b.op_index);
              });

    KeySearch search(entries, max_states, &out.states_explored);
    const bool linearizable = search.run();
    if (search.budget_hit()) {
      out.inconclusive = true;
      out.detail += "key=" + key + ": search budget exhausted (" +
                    std::to_string(max_states) + " states)\n";
      continue;  // no violation PROVEN for this key
    }
    if (!linearizable) {
      out.ok = false;
      out.detail += "key=" + key + ": not linearizable; ops:\n";
      std::size_t dumped = 0;
      for (const std::size_t idx : indices) {
        if (++dumped > 24) {
          out.detail += "  ... (" +
                        std::to_string(indices.size() - dumped + 1) +
                        " more)\n";
          break;
        }
        out.detail += "  " + render_op(h.ops[idx]) + "\n";
      }
    }
  }
  return out;
}

}  // namespace ipipe::verify
