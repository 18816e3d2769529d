#include "sim/parallel.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <thread>
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
/// write of phase k is visible to its reader in phase k+1.  The last
/// worker to arrive runs `completion` alone, after every other worker's
/// writes of the phase and before any of them is released.
struct ParallelSimulation::Barrier {
  explicit Barrier(unsigned n) : n_(n) {}

  template <typename Completion>
  void arrive_and_wait(Completion&& completion) noexcept {
    if (n_ <= 1) {
      completion();
      return;
    }
    const std::uint64_t phase = phase_.load(std::memory_order_relaxed);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
      completion();
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
  if (finalized_) return lookahead_[dst * domains_.size() + src];
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
    Ns& slot = lookahead_[e.dst * D + e.src];
    if (e.la < slot) slot = e.la;
  }
  rings_.resize(D * D);
  bit_words_ = (D + 63) / 64;
  bit_lines_ = (bit_words_ + 7) / 8;
  next_ts_.assign(D, kNsMax);
  in_begin_.assign(D + 1, 0);
  for (DomainId d = 0; d < D; ++d) {
    in_begin_[d] = static_cast<std::uint32_t>(in_edges_.size());
    Ns& min_in_la = domains_[d]->stats.effective_lookahead;
    for (DomainId s = 0; s < D; ++s) {
      const Ns la = lookahead_[d * D + s];
      if (s == d || la == kNsMax) continue;
      in_edges_.push_back(InEdge{s, la});
      min_in_la = std::min(min_in_la, la);
    }
  }
  in_begin_[D] = static_cast<std::uint32_t>(in_edges_.size());
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
  const DomainId src =
      tls_current.engine == this ? tls_current.d : kNoDomain;
  if (src == kNoDomain || src == dst) {
    // Setup-time or same-domain: the zero-alloc fast path, no ring.
    domains_[dst]->sim.schedule_at(when, std::move(fn));
    return HandoffId{};
  }
#ifndef NDEBUG
  const Ns la = lookahead_[dst * domains_.size() + src];
  assert(la != kNsMax &&
         "cross-domain post on an edge with no declared lookahead");
  assert(when >= domains_[src]->sim.now() + la &&
         "handoff violates the conservative lookahead contract");
#endif
  Ring& r = ring(src, dst);
  // The drain visits only the domains and rings flagged here.
  if (r.items.empty()) {
    const unsigned w = domains_[src]->worker;
    row(inbox_, dst * workers_ + w)[src / 64] |= bit(src);
    row(touched_, w)[dst / 64] |= bit(dst);
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
  // gmin terms of all in-edges fold into gmin + reach(d).  The domain
  // holding gmin always gets a nonempty window (all lookaheads are
  // positive here), which is the protocol's progress guarantee.
  //
  // A next_ts term from a source with nothing pending is past until + 1,
  // so it cannot lower the bound the round runs to, min(W(d), until + 1).
  // The loop takes whichever is shorter: d's in-edges or the pending set.
  Ns w = sat_add(gmin, reach_[d]);
  if (in_begin_[d + 1] - in_begin_[d] <= npending_) {
    for (std::uint32_t e = in_begin_[d]; e < in_begin_[d + 1]; ++e) {
      const InEdge& in = in_edges_[e];
      w = std::min(w, sat_add(next_ts_[in.src], in.la));
    }
    return w;
  }
  // lookahead_ is ~0 for a non-edge (and for s == d), and sat_add with ~0
  // is ~0, so no edge test is needed.
  const Ns* const la = &lookahead_[std::size_t{d} * domains_.size()];
  const std::uint64_t* const pending = pending_all_.front().words;
  for (std::size_t i = 0; i < bit_words_; ++i) {
    for (std::uint64_t bits = pending[i]; bits != 0; bits &= bits - 1) {
      const auto s = static_cast<DomainId>(i * 64 + std::countr_zero(bits));
      w = std::min(w, sat_add(next_ts_[s], la[s]));
    }
  }
  return w;
}

void ParallelSimulation::begin_round(Ns last) {
  // A domain with nothing pending has next_ts > last >= every pending
  // one, so gmin over the pending set is the global minimum whenever the
  // set is nonempty; an empty set ends the run.
  std::uint64_t* const all = pending_all_.front().words;
  Ns gmin = kNsMax;
  std::size_t n = 0;
  for (std::size_t i = 0; i < bit_words_; ++i) {
    std::uint64_t bits = 0;
    for (unsigned w = 0; w < workers_; ++w) bits |= row(pending_, w)[i];
    all[i] = bits;
    n += static_cast<std::size_t>(std::popcount(bits));
    for (; bits != 0; bits &= bits - 1) {
      gmin = std::min(gmin, next_ts_[i * 64 + std::countr_zero(bits)]);
    }
  }
  gmin_ = gmin;
  npending_ = n;
  if (gmin <= last) ++rounds_;
}

void ParallelSimulation::run_domain(DomainId d, Ns bound, unsigned w) {
  tls_current = {this, d};
  domains_[d]->sim.run_before(bound);
  tls_current = {nullptr, kNoDomain};
  row(touched_, w)[d / 64] |= bit(d);
}

void ParallelSimulation::drain_domain(DomainId d, unsigned w, Ns last) {
  DomainState& dom = *domains_[d];
  auto& written = written_scratch_[w];
  written.clear();
  for (unsigned v = 0; v < workers_; ++v) {
    std::uint64_t* in = row(inbox_, d * workers_ + v);
    for (std::size_t i = 0; i < bit_words_; ++i) {
      std::uint64_t bits = in[i];
      if (bits == 0) continue;
      in[i] = 0;
      for (; bits != 0; bits &= bits - 1) {
        written.push_back(
            static_cast<DomainId>(i * 64 + std::countr_zero(bits)));
      }
    }
  }
  if (!written.empty()) {
    auto& scratch = drain_scratch_[w];
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
  std::uint64_t& word = row(pending_, w)[d / 64];
  word = next_ts_[d] <= last ? word | bit(d) : word & ~bit(d);
}

void ParallelSimulation::worker_loop(unsigned w, Ns until) {
  const Ns last = last_pending(until);
  const Ns bound_cap = until == kNsMax ? kNsMax : until + 1;
  std::uint64_t* const touched = row(touched_, w);
  const std::uint64_t* const owned = row(owned_, w);
  const std::uint64_t* const pending = row(pending_, w);
  for (;;) {
    // --- barrier: every next_ts_ published, all rings empty ---
    // The last worker in takes gmin and counts the round; every worker
    // then reads the same verdict, so termination needs no broadcast.
    barrier_->arrive_and_wait([this, last] { begin_round(last); });
    std::fill_n(touched, bit_words_, 0);  // every drain has read it
    const Ns gmin = gmin_;
    if (gmin > last) break;
    for (std::size_t i = 0; i < bit_words_; ++i) {
      for (std::uint64_t bits = pending[i]; bits != 0; bits &= bits - 1) {
        const auto d = static_cast<DomainId>(i * 64 + std::countr_zero(bits));
        const Ns nt = next_ts_[d];
        if (nt < sat_add(gmin, reach_[d])) {
          const Ns bound = std::min(window_end(d, gmin), bound_cap);
          if (nt < bound) {
            run_domain(d, bound, w);
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
    // --- barrier: execute phase done, rings complete and frozen ---
    barrier_->arrive_and_wait([] {});
    for (std::size_t i = 0; i < bit_words_; ++i) {
      std::uint64_t dirty = 0;
      for (unsigned v = 0; v < workers_; ++v) dirty |= row(touched_, v)[i];
      for (std::uint64_t bits = dirty & owned[i]; bits != 0; bits &= bits - 1) {
        const auto d = static_cast<DomainId>(i * 64 + std::countr_zero(bits));
        drain_domain(d, w, last);
      }
#ifndef NDEBUG
      // Nothing delivered and nothing executed: the queue head is unchanged.
      for (std::uint64_t bits = owned[i] & ~dirty; bits != 0;
           bits &= bits - 1) {
        const auto d = static_cast<DomainId>(i * 64 + std::countr_zero(bits));
        assert(next_ts_[d] == domains_[d]->sim.next_event_time() &&
               "a domain's queue changed outside its own execute phase");
      }
#endif
    }
  }
}

Ns ParallelSimulation::run(Ns until) {
  finalize();
  if (domains_.empty()) return 0;
  const auto D = static_cast<DomainId>(domains_.size());
  for (DomainId d = 0; d < D; ++d) {
    next_ts_[d] = domains_[d]->sim.next_event_time();
  }
  workers_ = std::clamp(threads_, 1u, static_cast<unsigned>(D));
  const Ns last = last_pending(until);
  // Every drain clears the inbox rows it reads, so they are all zero
  // between runs; only their shape follows the worker count.
  inbox_.assign(std::size_t{D} * workers_ * bit_lines_, BitLine{});
  touched_.assign(std::size_t{workers_} * bit_lines_, BitLine{});
  owned_.assign(std::size_t{workers_} * bit_lines_, BitLine{});
  pending_.assign(std::size_t{workers_} * bit_lines_, BitLine{});
  pending_all_.assign(bit_lines_, BitLine{});
  for (DomainId d = 0; d < D; ++d) {
    const unsigned w = d % workers_;
    domains_[d]->worker = w;
    row(owned_, w)[d / 64] |= bit(d);
    if (next_ts_[d] <= last) row(pending_, w)[d / 64] |= bit(d);
  }
  drain_scratch_.resize(workers_);
  written_scratch_.resize(workers_);
  barrier_ = std::make_unique<Barrier>(workers_);
  std::vector<std::thread> pool;
  pool.reserve(workers_ - 1);
  for (unsigned w = 1; w < workers_; ++w) {
    pool.emplace_back([this, w, until] { worker_loop(w, until); });
  }
  worker_loop(0, until);  // the calling thread is worker 0
  for (std::thread& th : pool) th.join();
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
