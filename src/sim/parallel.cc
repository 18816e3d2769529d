#include "sim/parallel.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <thread>
#include <utility>

namespace ipipe::sim {

namespace {
constexpr Ns kNsMax = ~Ns{0};

/// Which engine/domain the calling thread is executing events for.  Keyed
/// by engine pointer so a post() into a *different* engine (nested setups
/// in tests) takes the plain schedule path instead of a bogus ring.
struct TlsCurrent {
  const void* engine = nullptr;
  DomainId d = kNoDomain;
};
thread_local TlsCurrent tls_current;
}  // namespace

/// Sense-reversing spin barrier.  Rounds are microseconds of simulated
/// work, so spinning (with a yield once the wait drags) beats a futex
/// sleep/wake cycle per phase.  The acquire/release pair on `phase_`
/// (leader RMW releases, waiters acquire) also carries the happens-before
/// edge that makes the lock-free handoff rings race-free: every ring
/// write of phase k is visible to its reader in phase k+1.
struct ParallelSimulation::Barrier {
  explicit Barrier(unsigned n) : n_(n) {}

  void arrive_and_wait() noexcept {
    if (n_ <= 1) return;
    const std::uint64_t phase = phase_.load(std::memory_order_relaxed);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
      arrived_.store(0, std::memory_order_relaxed);
      phase_.fetch_add(1, std::memory_order_acq_rel);
    } else {
      unsigned spins = 0;
      while (phase_.load(std::memory_order_acquire) == phase) {
        if (++spins > 4096) std::this_thread::yield();
      }
    }
  }

  const unsigned n_;
  std::atomic<std::uint32_t> arrived_{0};
  std::atomic<std::uint64_t> phase_{0};
};

ParallelSimulation::ParallelSimulation() = default;
ParallelSimulation::~ParallelSimulation() = default;

DomainId ParallelSimulation::add_domain(std::string name) {
  assert(!finalized_ && "all domains must be added before the first run()");
  auto dom = std::make_unique<DomainState>();
  dom->name = std::move(name);
  domains_.push_back(std::move(dom));
  return static_cast<DomainId>(domains_.size() - 1);
}

void ParallelSimulation::set_lookahead(DomainId src, DomainId dst,
                                       Ns lookahead) {
  assert(!finalized_ && "lookahead edges must be declared before run()");
  assert(src < domains_.size() && dst < domains_.size() && src != dst);
  edges_.push_back(Edge{src, dst, lookahead});
  if (lookahead == 0) has_zero_lookahead_ = true;
}

Ns ParallelSimulation::lookahead(DomainId src, DomainId dst) const {
  if (finalized_) return lookahead_[src * domains_.size() + dst];
  Ns la = kNsMax;
  for (const Edge& e : edges_) {
    if (e.src == src && e.dst == dst && e.la < la) la = e.la;
  }
  return la;
}

DomainId ParallelSimulation::current_domain() noexcept {
  return tls_current.d;
}

void ParallelSimulation::finalize() {
  if (finalized_) return;
  finalized_ = true;
  const std::size_t D = domains_.size();
  lookahead_.assign(D * D, kNsMax);
  for (const Edge& e : edges_) {
    Ns& slot = lookahead_[e.src * D + e.dst];
    if (e.la < slot) slot = e.la;
  }
  rings_.resize(D * D);
  drain_scratch_.resize(D);
  written_scratch_.resize(D);
  inbox_words_ = (D + 63) / 64;
  inbox_lines_ = (inbox_words_ + 7) / 8;
  next_ts_.assign(D, kNsMax);
  for (DomainId d = 0; d < D; ++d) {
    DomainState& dom = *domains_[d];
    Ns min_la = kNsMax;
    for (DomainId s = 0; s < D; ++s) {
      if (s == d) continue;
      const Ns la = lookahead_[s * D + d];
      if (la == kNsMax) continue;
      dom.in_edges.emplace_back(s, la);
      if (la < min_la) min_la = la;
      if (la == 0) has_zero_lookahead_ = true;
    }
    dom.stats.effective_lookahead = min_la;
  }
}

HandoffId ParallelSimulation::post(DomainId dst, Ns when, EventFn fn) {
  assert(dst < domains_.size());
  const DomainId src =
      tls_current.engine == this ? tls_current.d : kNoDomain;
  if (src == kNoDomain || src == dst) {
    // Setup-time or same-domain: the zero-alloc fast path, no ring.
    domains_[dst]->sim.schedule_at(when, std::move(fn));
    return HandoffId{};
  }
#ifndef NDEBUG
  if (!has_zero_lookahead_) {
    const Ns la = lookahead_[src * domains_.size() + dst];
    assert(la != kNsMax &&
           "cross-domain post on an edge with no declared lookahead");
    assert(when >= domains_[src]->sim.now() + la &&
           "handoff violates the conservative lookahead contract");
  }
#endif
  Ring& r = ring(src, dst);
  // Windowed runs drain only the rings flagged here; the sequential
  // fallback drains after every event and keeps no inbox.
  if (r.items.empty() && !has_zero_lookahead_) {
    inbox_row(dst, domains_[src]->worker)[src / 64] |=
        std::uint64_t{1} << (src % 64);
  }
  const std::uint64_t seq = r.next_seq++;
  r.items.push_back(Handoff{std::move(fn), when, seq});
  ++domains_[src]->stats.handoffs_out;
  return HandoffId{src, dst, seq};
}

bool ParallelSimulation::cancel_handoff(const HandoffId& id) {
  if (!id.valid() || !finalized_) return false;
  assert(tls_current.engine != this || tls_current.d == id.src);
  Ring& r = ring(id.src, id.dst);
  // Once a drain moved the seq into the destination queue the event is
  // committed — like a packet already on the wire.
  if (id.seq < r.drained_below) return false;
  for (auto it = r.items.rbegin(); it != r.items.rend(); ++it) {
    if (it->seq != id.seq) continue;
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
  // domain holding gmin always gets a nonempty window (all lookaheads are
  // positive here), which is the protocol's progress guarantee.
  Ns w = kNsMax;
  for (const auto& [s, la] : domains_[d]->in_edges) {
    Ns earliest = next_ts_[s];
    const Ns wake_la = domains_[s]->stats.effective_lookahead;
    if (wake_la != kNsMax && gmin < kNsMax - wake_la &&
        gmin + wake_la < earliest) {
      earliest = gmin + wake_la;
    }
    if (earliest == kNsMax || earliest >= kNsMax - la) continue;
    const Ns bound = earliest + la;
    if (bound < w) w = bound;
  }
  return w;
}

void ParallelSimulation::execute_domain(DomainId d, Ns bound_cap, Ns until,
                                        Ns gmin) {
  DomainState& dom = *domains_[d];
  ++dom.stats.windows;
  const Ns w_end = window_end(d, gmin);
  const Ns bound = w_end < bound_cap ? w_end : bound_cap;
  const Ns nt = next_ts_[d];
  if (nt >= bound) {
    // Pending work inside the horizon but an empty safe window: a
    // synchronization stall, the cost conservative protocols pay.
    if (nt != kNsMax && nt <= until) ++dom.stats.stalled_windows;
    return;
  }
  tls_current = {this, d};
  dom.sim.run_before(bound);
  tls_current = {nullptr, kNoDomain};
  dom.ran = true;
}

void ParallelSimulation::drain_domain(DomainId d) {
  DomainState& dom = *domains_[d];
  auto& written = written_scratch_[d];
  written.clear();
  for (unsigned w = 0; w < assignment_.size(); ++w) {
    std::uint64_t* row = inbox_row(d, w);
    for (std::size_t i = 0; i < inbox_words_; ++i) {
      std::uint64_t bits = row[i];
      if (bits == 0) continue;
      row[i] = 0;
      for (; bits != 0; bits &= bits - 1) {
        const auto s = static_cast<DomainId>(i * 64 + std::countr_zero(bits));
        written.push_back(s);
      }
    }
  }
  // Nothing delivered and nothing executed: the queue head is unchanged.
  if (written.empty() && !dom.ran) {
    assert(next_ts_[d] == dom.sim.next_event_time() &&
           "a domain's queue changed outside its own execute phase");
    return;
  }
  dom.ran = false;
  if (!written.empty()) {
    auto& scratch = drain_scratch_[d];
    scratch.clear();
    std::size_t queued = 0;
    for (const DomainId s : written) {
      Ring& r = ring(s, d);
      queued += r.items.size();
      for (Handoff& h : r.items) {
        if (!h.fn) continue;  // cancelled in flight
        scratch.push_back(DrainRef{h.when, s, h.seq, &h});
      }
    }
    if (queued > dom.stats.ring_high_watermark) {
      dom.stats.ring_high_watermark = queued;
    }
    // Canonical insertion order — (timestamp, source domain, per-pair
    // sequence) — is what makes the event order a pure function of the
    // inputs, independent of which worker drained first.
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
    for (const DomainId s : written) {
      Ring& r = ring(s, d);
      r.drained_below = r.next_seq;
      r.items.clear();
    }
  }
  next_ts_[d] = dom.sim.next_event_time();
}

void ParallelSimulation::worker_loop(unsigned w, Ns until) {
  const Ns bound_cap = until == kNsMax ? kNsMax : until + 1;
  for (;;) {
    // --- barrier: every next_ts_ published, all rings empty ---
    barrier_->arrive_and_wait();
    // Termination is decided symmetrically: each worker derives the same
    // verdict from the same published snapshot, so no serial section and
    // no extra flag broadcast are needed.
    Ns gmin = kNsMax;
    for (const Ns t : next_ts_) {
      if (t < gmin) gmin = t;
    }
    if (gmin == kNsMax || gmin > until) break;
    if (w == 0) ++rounds_;
    for (const DomainId d : assignment_[w]) {
      execute_domain(d, bound_cap, until, gmin);
    }
    // --- barrier: execute phase done, rings complete and frozen ---
    barrier_->arrive_and_wait();
    for (const DomainId d : assignment_[w]) drain_domain(d);
  }
}

Ns ParallelSimulation::run_windowed(Ns until) {
  const auto D = static_cast<DomainId>(domains_.size());
  for (DomainId d = 0; d < D; ++d) {
    next_ts_[d] = domains_[d]->sim.next_event_time();
  }
  unsigned nthreads = threads_ < D ? threads_ : D;
  if (nthreads == 0) nthreads = 1;
  assignment_.assign(nthreads, {});
  for (DomainId d = 0; d < D; ++d) {
    assignment_[d % nthreads].push_back(d);
    domains_[d]->worker = d % nthreads;
  }
  // Every drain clears what it reads, so the inbox is all zero between
  // runs; only its shape follows the worker count.
  inbox_.assign(std::size_t{D} * nthreads * inbox_lines_, InboxLine{});
  barrier_ = std::make_unique<Barrier>(nthreads);
  running_ = true;
  std::vector<std::thread> pool;
  pool.reserve(nthreads - 1);
  for (unsigned w = 1; w < nthreads; ++w) {
    pool.emplace_back([this, w, until] { worker_loop(w, until); });
  }
  worker_loop(0, until);  // the calling thread is worker 0
  for (std::thread& th : pool) th.join();
  running_ = false;
  Ns reached = 0;
  for (DomainId d = 0; d < D; ++d) {
    Simulation& s = domains_[d]->sim;
    if (until != kNsMax && s.now() < until) s.advance_to(until);
    if (s.now() > reached) reached = s.now();
  }
  return reached;
}

Ns ParallelSimulation::run_sequential(Ns until) {
  // Zero-lookahead fallback: no window can be proven safe, so interleave
  // domains one event at a time by (timestamp, domain id) and drain
  // handoffs immediately after each event.  Deterministic by
  // construction; identical for every thread count (all counts land
  // here on such topologies).
  const auto D = static_cast<DomainId>(domains_.size());
  running_ = true;
  for (;;) {
    DomainId best = kNoDomain;
    Ns bt = kNsMax;
    for (DomainId d = 0; d < D; ++d) {
      const Ns t = domains_[d]->sim.next_event_time();
      if (t < bt) {
        bt = t;
        best = d;
      }
    }
    if (best == kNoDomain || bt > until) break;
    tls_current = {this, best};
    domains_[best]->sim.step(bt);
    tls_current = {nullptr, kNoDomain};
    for (DomainId d = 0; d < D; ++d) {
      if (d == best) continue;
      Ring& r = ring(best, d);
      if (r.items.empty()) continue;
      DomainState& dst = *domains_[d];
      if (r.items.size() > dst.stats.ring_high_watermark) {
        dst.stats.ring_high_watermark = r.items.size();
      }
      for (Handoff& h : r.items) {
        if (!h.fn) continue;
        dst.sim.schedule_at(h.when, std::move(h.fn));
        ++dst.stats.handoffs_in;
      }
      r.drained_below = r.next_seq;
      r.items.clear();
    }
  }
  running_ = false;
  Ns reached = 0;
  for (DomainId d = 0; d < D; ++d) {
    Simulation& s = domains_[d]->sim;
    if (until != kNsMax && s.now() < until) s.advance_to(until);
    if (s.now() > reached) reached = s.now();
  }
  return reached;
}

Ns ParallelSimulation::run(Ns until) {
  finalize();
  if (domains_.empty()) return 0;
  return has_zero_lookahead_ ? run_sequential(until) : run_windowed(until);
}

std::uint64_t ParallelSimulation::executed() const noexcept {
  std::uint64_t n = 0;
  for (const auto& dom : domains_) {
    n += dom->sim.executed() - dom->executed_base;
  }
  return n;
}

DomainStats ParallelSimulation::stats(DomainId d) const {
  DomainStats s = domains_[d]->stats;
  s.events = domains_[d]->sim.executed() - domains_[d]->executed_base;
  return s;
}

}  // namespace ipipe::sim
