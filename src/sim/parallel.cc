#include "sim/parallel.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <numeric>
#include <stdexcept>
#include <tuple>
#include <utility>

namespace ipipe::sim {

namespace {
constexpr Ns kNsMax = ~Ns{0};

/// a + b, or kNsMax when the sum would reach it.
constexpr Ns sat_add(Ns a, Ns b) { return a >= kNsMax - b ? kNsMax : a + b; }

constexpr std::uint64_t bit(DomainId d) { return std::uint64_t{1} << (d % 64); }

/// The latest next-event time at which a domain is pending in a run to
/// `until`: a later one (or none, ~0) has an empty window that is not a
/// stall.
constexpr Ns last_pending(Ns until) {
  return until == kNsMax ? kNsMax - 1 : until;
}

/// The first in-edge in [first, last) whose source is at or after `src`.
template <typename It>
It find_src(It first, It last, DomainId src) {
  return std::lower_bound(first, last, src, [](const auto& in, DomainId s) {
    return in.src < s;
  });
}
}  // namespace

DomainId ParallelSimulation::add_domain() {
  assert(!finalized_ && "all domains must be added before the first run()");
  domains_.push_back(std::make_unique<DomainState>());
  stalled_.push_back(0);
  return static_cast<DomainId>(domains_.size() - 1);
}

void ParallelSimulation::set_lookahead(DomainId src, DomainId dst,
                                       Ns lookahead) {
  assert(!finalized_ && "lookahead edges must be declared before run()");
  assert(src < domains_.size() && dst < domains_.size() && src != dst);
  if (lookahead == 0) {
    throw std::invalid_argument(
        "ParallelSimulation::set_lookahead: zero lookahead admits no safe "
        "window");
  }
  edges_.push_back(Edge{src, dst, lookahead});
}

Ns ParallelSimulation::lookahead(DomainId src, DomainId dst) const {
  if (finalized_) return in_lookahead(src, dst);
  Ns la = kNsMax;
  for (const Edge& e : edges_) {
    if (e.src == src && e.dst == dst && e.la < la) la = e.la;
  }
  return la;
}

Ns ParallelSimulation::in_lookahead(DomainId src, DomainId dst) const {
  const InEdge* const first = in_edges_.data() + in_begin_[dst];
  const InEdge* const last = in_edges_.data() + in_begin_[dst + 1];
  const InEdge* const it = find_src(first, last, src);
  return it != last && it->src == src ? it->la : kNsMax;
}

void ParallelSimulation::finalize() {
  if (finalized_) return;
  finalized_ = true;
  const std::size_t D = domains_.size();
  // Sorted by (dst, src, la), the first of each (dst, src) run is the
  // edge's minimum, and each d's in-edges come out sorted by source.
  std::sort(edges_.begin(), edges_.end(), [](const Edge& a, const Edge& b) {
    return std::tie(a.dst, a.src, a.la) < std::tie(b.dst, b.src, b.la);
  });
  in_begin_.assign(D + 1, 0);
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    const Edge& e = edges_[i];
    if (i > 0 && edges_[i - 1].dst == e.dst && edges_[i - 1].src == e.src) {
      continue;
    }
    in_edges_.push_back(InEdge{e.src, e.la});
    ++in_begin_[e.dst + 1];
    Ns& min_in_la = domains_[e.dst]->stats.effective_lookahead;
    min_in_la = std::min(min_in_la, e.la);
  }
  std::partial_sum(in_begin_.begin(), in_begin_.end(), in_begin_.begin());
  bit_words_ = (D + 63) / 64;
  next_ts_.assign(D, kNsMax);
  reach_.assign(D, kNsMax);
  for (DomainId d = 0; d < D; ++d) {
    for (std::uint32_t e = in_begin_[d]; e < in_begin_[d + 1]; ++e) {
      const InEdge& in = in_edges_[e];
      const Ns src_in_la = domains_[in.src]->stats.effective_lookahead;
      reach_[d] = std::min(reach_[d], sat_add(src_in_la, in.la));
    }
  }
}

HandoffId ParallelSimulation::post(DomainId dst, Ns when, EventFn fn) {
  assert(dst < domains_.size());
  const DomainId src = current_;
  if (src == kNoDomain || src == dst) {
    // Setup-time or same-domain: the zero-alloc fast path, no inbox.
    domains_[dst]->sim.schedule_at(when, std::move(fn));
    return HandoffId{};
  }
#ifndef NDEBUG
  const Ns la = in_lookahead(src, dst);
  assert(la != kNsMax &&
         "cross-domain post on an edge with no declared lookahead");
  assert(when >= domains_[src]->sim.now() + la &&
         "handoff violates the conservative lookahead contract");
#endif
  DomainState& to = *domains_[dst];
  // The drain visits only the domains flagged here.
  if (to.inbox.empty()) touched_[dst / 64] |= bit(dst);
  const std::uint64_t seq = to.next_seq++;
  to.inbox.push_back(Handoff{std::move(fn), when, src, seq});
  ++domains_[src]->stats.handoffs_out;
  return HandoffId{src, dst, seq};
}

bool ParallelSimulation::cancel_handoff(const HandoffId& id) {
  if (!id.valid() || !finalized_) return false;
  assert(current_ == kNoDomain || current_ == id.src);
  DomainState& to = *domains_[id.dst];
  // Once a drain moved the seq into the destination queue the event is
  // committed — like a packet already on the wire.
  if (id.seq < to.drained_below) return false;
  for (auto it = to.inbox.rbegin(); it != to.inbox.rend(); ++it) {
    if (it->seq != id.seq) continue;
    assert(it->src == id.src);
    if (!it->fn) return false;  // already cancelled
    it->fn.reset();
    ++domains_[id.src]->stats.handoffs_cancelled;
    return true;
  }
  return false;
}

Ns ParallelSimulation::window_end(DomainId d, Ns gmin) const {
  // W(d) = min over in-edges (s -> d) of earliest_exec(s) + lookahead(s,d)
  // where earliest_exec(s) = min(next_ts(s), gmin + min_in_lookahead(s)).
  //
  // next_ts(s) alone is NOT a safe bound: an idle neighbor can be woken
  // by a handoff drained this very round and then send into d's past.
  // But anything that wakes s must itself arrive over some in-edge of s,
  // every pending event anywhere sits at >= gmin (the global minimum),
  // and each hop adds at least its edge lookahead — so s cannot execute
  // (and therefore cannot send) before gmin + min_in_lookahead(s).  The
  // gmin terms of all in-edges fold into gmin + reach(d).  The domain
  // holding gmin always gets a nonempty window (all lookaheads are
  // positive here), which is the protocol's progress guarantee.
  //
  // A next_ts term from a source with nothing pending is past until + 1,
  // so it cannot lower the bound the round runs to, min(W(d), until + 1).
  // The loop takes whichever is shorter: d's in-edges or the pending set.
  Ns w = sat_add(gmin, reach_[d]);
  const InEdge* edge = in_edges_.data() + in_begin_[d];
  const InEdge* const end = in_edges_.data() + in_begin_[d + 1];
  if (static_cast<std::size_t>(end - edge) <= npending_) {
    for (; edge != end; ++edge) {
      w = std::min(w, sat_add(next_ts_[edge->src], edge->la));
    }
    return w;
  }
  // Pending sources come in increasing order, as d's in-edges do, so
  // each search starts where the last one stopped.
  for (std::size_t i = 0; i < bit_words_; ++i) {
    for (std::uint64_t bits = pending_[i]; bits != 0; bits &= bits - 1) {
      const auto s = static_cast<DomainId>(i * 64 + std::countr_zero(bits));
      edge = find_src(edge, end, s);
      if (edge == end) return w;
      if (edge->src == s) w = std::min(w, sat_add(next_ts_[s], edge->la));
    }
  }
  return w;
}

void ParallelSimulation::begin_round() {
  // A domain with nothing pending has next_ts > last >= every pending
  // one, so gmin over the pending set is the global minimum whenever the
  // set is nonempty; an empty set ends the run.
  Ns gmin = kNsMax;
  std::size_t n = 0;
  for (std::size_t i = 0; i < bit_words_; ++i) {
    std::uint64_t bits = pending_[i];
    n += static_cast<std::size_t>(std::popcount(bits));
    for (; bits != 0; bits &= bits - 1) {
      gmin = std::min(gmin, next_ts_[i * 64 + std::countr_zero(bits)]);
    }
  }
  gmin_ = gmin;
  npending_ = n;
}

void ParallelSimulation::drain_domain(DomainId d, Ns last) {
  DomainState& dom = *domains_[d];
  if (!dom.inbox.empty()) {
    std::vector<DrainRef>& scratch = drain_scratch_;
    scratch.clear();
    dom.stats.ring_high_watermark =
        std::max(dom.stats.ring_high_watermark, dom.inbox.size());
    for (Handoff& h : dom.inbox) {
      if (!h.fn) continue;  // cancelled in flight
      scratch.push_back(DrainRef{h.when, h.src, h.seq, &h});
    }
    // Canonical insertion order — (timestamp, source domain, sequence) —
    // is what makes the event order a pure function of the inputs,
    // independent of the order the sources executed in.
    std::sort(scratch.begin(), scratch.end(),
              [](const DrainRef& a, const DrainRef& b) {
                if (a.when != b.when) return a.when < b.when;
                if (a.src != b.src) return a.src < b.src;
                return a.seq < b.seq;
              });
    for (DrainRef& ref : scratch) {
      dom.sim.schedule_at(ref.when, std::move(ref.h->fn));
    }
    dom.stats.handoffs_in += scratch.size();
    dom.drained_below = dom.next_seq;
    dom.inbox.clear();
  }
  next_ts_[d] = dom.sim.next_event_time();
  std::uint64_t& word = pending_[d / 64];
  word = next_ts_[d] <= last ? word | bit(d) : word & ~bit(d);
}

Ns ParallelSimulation::run(Ns until) {
  finalize();
  if (domains_.empty()) return 0;
  const auto D = static_cast<DomainId>(domains_.size());
  const Ns last = last_pending(until);
  const Ns bound_cap = until == kNsMax ? kNsMax : until + 1;
  pending_.assign(bit_words_, 0);
  touched_.assign(bit_words_, 0);
  for (DomainId d = 0; d < D; ++d) {
    next_ts_[d] = domains_[d]->sim.next_event_time();
    if (next_ts_[d] <= last) pending_[d / 64] |= bit(d);
  }
  for (;;) {
    // Every inbox is empty and every next_ts_ is current here.
    begin_round();
    const Ns gmin = gmin_;
    if (gmin > last) break;
    ++rounds_;
    std::fill(touched_.begin(), touched_.end(), 0);
    for (std::size_t i = 0; i < bit_words_; ++i) {
      for (std::uint64_t bits = pending_[i]; bits != 0; bits &= bits - 1) {
        const auto d = static_cast<DomainId>(i * 64 + std::countr_zero(bits));
        const Ns nt = next_ts_[d];
        if (nt < sat_add(gmin, reach_[d])) {
          const Ns bound = std::min(window_end(d, gmin), bound_cap);
          if (nt < bound) {
            current_ = d;
            domains_[d]->sim.run_before(bound);
            current_ = kNoDomain;
            touched_[i] |= bit(d);
            continue;
          }
        } else {
          assert(nt >= std::min(window_end(d, gmin), bound_cap) &&
                 "the filter skipped a domain with a nonempty window");
        }
        // Pending work inside the horizon but an empty safe window: a
        // synchronization stall, the cost conservative protocols pay.
        ++stalled_[d];
      }
    }
    // Every domain has executed: the inboxes are complete.
    for (std::size_t i = 0; i < bit_words_; ++i) {
      for (std::uint64_t bits = touched_[i]; bits != 0; bits &= bits - 1) {
        drain_domain(static_cast<DomainId>(i * 64 + std::countr_zero(bits)),
                     last);
      }
#ifndef NDEBUG
      // Nothing delivered and nothing executed: the queue head is unchanged.
      const std::size_t hi = std::min<std::size_t>(64, D - i * 64);
      const std::uint64_t all = hi == 64 ? ~std::uint64_t{0} : bit(hi) - 1;
      for (std::uint64_t bits = all & ~touched_[i]; bits != 0;
           bits &= bits - 1) {
        const auto d = static_cast<DomainId>(i * 64 + std::countr_zero(bits));
        assert(next_ts_[d] == domains_[d]->sim.next_event_time() &&
               "a domain's queue changed outside its own execute phase");
      }
#endif
    }
  }
  Ns reached = 0;
  for (DomainId d = 0; d < D; ++d) {
    Simulation& s = domains_[d]->sim;
    if (until != kNsMax && s.now() < until) s.advance_to(until);
    if (s.now() > reached) reached = s.now();
  }
  return reached;
}

std::uint64_t ParallelSimulation::executed() const noexcept {
  std::uint64_t n = 0;
  for (const auto& dom : domains_) n += dom->sim.executed();
  return n;
}

DomainStats ParallelSimulation::stats(DomainId d) const {
  DomainStats s = domains_[d]->stats;
  s.events = domains_[d]->sim.executed();
  s.windows = rounds_;
  s.stalled_windows = stalled_[d];
  return s;
}

}  // namespace ipipe::sim
