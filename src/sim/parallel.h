// Conservative parallel event engine: sharded per-domain queues with
// fabric-latency lookahead.
//
// A ParallelSimulation owns N `Simulation` instances ("domains" — one per
// simulated node/NIC plus synthetic domains like the switch), a lookahead
// matrix derived from the topology (minimum cross-domain latency: fabric
// and link latency for remote sends, PCIe latency for host<->NIC hops),
// and a worker pool that executes domains concurrently under a
// conservative synchronization protocol:
//
//   * Execution proceeds in rounds.  In each round a domain `d` may
//     safely execute every event strictly below its horizon
//         W(d) = min over in-edges (s -> d) of
//                    earliest_exec(s) + lookahead(s, d)
//     where earliest_exec(s) = min(next_ts(s), gmin + min-in-lookahead(s))
//     and gmin is the global minimum next event time: a neighbor cannot
//     send before it executes, and it cannot execute before its own next
//     event or before anything pending anywhere could reach it.  Every
//     event a neighbor could still send then carries at least the edge's
//     lookahead of extra delay.  Same-domain scheduling is untouched —
//     the PR 3 zero-alloc fast path runs verbatim inside the window.
//   * Cross-domain sends go through per-(src,dst) handoff rings.  A ring
//     is written only by its producer during the execute phase and read
//     only by its consumer during the drain phase; the round barrier
//     separates the phases, so the rings need no locks at all.
//   * A round costs what is pending in it, not the domain count D.  A
//     domain is pending when its next event is at or before the run's
//     `until`; only a pending domain can execute or stall.  Per-worker
//     bitmaps track them, so gmin (taken once, by the last worker into
//     the barrier) and each worker's execute loop visit pending domains
//     only.  Every pending event sits at or after gmin, so
//     W(d) <= gmin + reach(d), where reach(d), fixed by the topology, is
//     the least min-in-lookahead(s) + lookahead(s, d) over d's in-edges:
//     a domain whose next event is at or past that bound has an empty
//     window and is counted as stalled without W(d) being computed.  For
//     the rest, W(d) folds only in-edges from pending sources (an idle
//     source's term lies past until + 1, the run's own cap).  A post
//     that makes a ring non-empty sets the source's bit in the
//     destination's inbox row, and a post or an execute marks the
//     destination in the worker's touched row; the drain visits only
//     touched domains and only their flagged rings.  What is left of D
//     is a scan of D/64 bitmap words per phase.  Every domain still takes
//     part in every round (`windows` counts rounds), so the counters mean
//     what they meant under a full scan.
//   * Determinism is non-negotiable: drained handoffs are inserted into
//     the destination queue sorted by (timestamp, source domain id,
//     per-pair sequence), and per-domain execution is single-threaded, so
//     the complete event order is a pure function of the inputs — byte-
//     identical for any `--sim-threads=N`, including N=1 (which runs the
//     same window protocol inline).
//   * Every edge carries a nonzero lookahead: a zero-lookahead edge
//     admits no safe window, so set_lookahead() rejects it.
//
// The engine reports per-domain counters (events executed, window-sync
// stalls, handoff-ring occupancy, effective lookahead) so parallel-
// efficiency regressions stay visible in metrics snapshots and traces.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/units.h"
#include "sim/simulation.h"

namespace ipipe::sim {

using DomainId = std::uint32_t;
constexpr DomainId kNoDomain = ~DomainId{0};

/// Engine counters for one domain, exported through the PR 2 metrics
/// snapshots and the text exporter.
struct DomainStats {
  std::uint64_t events = 0;           ///< events executed by this domain
  std::uint64_t windows = 0;          ///< rounds this domain participated in
  std::uint64_t stalled_windows = 0;  ///< rounds with pending work but an
                                      ///< empty safe window (sync stalls)
  std::uint64_t handoffs_out = 0;     ///< cross-domain events posted
  std::uint64_t handoffs_in = 0;      ///< cross-domain events received
  std::uint64_t handoffs_cancelled = 0;  ///< in-flight handoffs cancelled
  std::size_t ring_high_watermark = 0;   ///< max queued handoffs at a drain
  Ns effective_lookahead = ~Ns{0};       ///< min incoming-edge lookahead
};

/// Handle for a cross-domain handoff still sitting in its ring.  Only the
/// posting domain may cancel it, and only until the window barrier drains
/// the ring into the destination queue (after that the event belongs to
/// the destination and the handle is stale).
struct HandoffId {
  DomainId src = kNoDomain;
  DomainId dst = kNoDomain;
  std::uint64_t seq = 0;
  [[nodiscard]] bool valid() const noexcept { return src != kNoDomain; }
};

class ParallelSimulation {
 public:
  ParallelSimulation();  // = default, in the .cc (Barrier is incomplete here)
  ParallelSimulation(const ParallelSimulation&) = delete;
  ParallelSimulation& operator=(const ParallelSimulation&) = delete;
  ~ParallelSimulation();

  /// Register a new domain; returns its id (0, 1, 2, ...).  All domains
  /// must be added before the first run().
  DomainId add_domain();

  /// The domain's own event queue.  Components belonging to the domain
  /// are constructed against this Simulation and never see the engine.
  [[nodiscard]] Simulation& domain(DomainId d) { return domains_[d]->sim; }
  [[nodiscard]] const Simulation& domain(DomainId d) const {
    return domains_[d]->sim;
  }
  [[nodiscard]] std::size_t domain_count() const noexcept {
    return domains_.size();
  }

  /// Declare that events posted from `src` into `dst` always carry at
  /// least `lookahead` ns of delay (the minimum cross-domain latency on
  /// that edge).  Repeated calls keep the minimum.  Throws
  /// std::invalid_argument on a zero lookahead.
  void set_lookahead(DomainId src, DomainId dst, Ns lookahead);
  [[nodiscard]] Ns lookahead(DomainId src, DomainId dst) const;

  /// Worker threads used by run() (clamped to the domain count).  1 runs
  /// the identical window protocol inline — same event order, no pool.
  void set_threads(unsigned n) noexcept { threads_ = n == 0 ? 1 : n; }
  [[nodiscard]] unsigned threads() const noexcept { return threads_; }

  /// Schedule `fn` at absolute time `when` on domain `dst`.
  ///
  ///  * Called outside run() (setup) or with dst == the currently
  ///    executing domain: plain schedule_at on the destination queue
  ///    (the zero-alloc fast path; the returned handle is not
  ///    ring-cancellable — use Simulation::cancel instead).
  ///  * Called from inside another domain's event: the handoff is pushed
  ///    onto the (src,dst) ring and drained at the next window barrier.
  ///    `when` must respect the edge lookahead:
  ///    when >= src.now() + lookahead(src, dst).
  HandoffId post(DomainId dst, Ns when, EventFn fn);

  /// Cancel a handoff still in flight in its ring.  Must be called from
  /// the domain that posted it.  Returns false when the handoff has
  /// already been drained into the destination queue (cancel raced the
  /// window barrier and lost) — the caller must then treat the event as
  /// delivered, exactly like a real packet already on the wire.
  bool cancel_handoff(const HandoffId& id);

  /// The domain the calling thread is currently executing events for, or
  /// kNoDomain outside run().
  [[nodiscard]] static DomainId current_domain() noexcept;

  /// Run every domain until all queues drain or `until` is reached
  /// (inclusive, like Simulation::run).  Returns the time reached.
  Ns run(Ns until = ~Ns{0});

  /// Sum of events executed across all domains.
  [[nodiscard]] std::uint64_t executed() const noexcept;
  /// Rounds of the window protocol completed so far.
  [[nodiscard]] std::uint64_t rounds() const noexcept { return rounds_; }
  /// Per-domain engine counters (events filled from the domain queue).
  [[nodiscard]] DomainStats stats(DomainId d) const;

 private:
  struct Handoff {
    EventFn fn;
    Ns when = 0;
    std::uint64_t seq = 0;
  };
  /// One direction of cross-domain traffic.  Written only by the source
  /// domain's worker during the execute phase, read only by the
  /// destination's worker during the drain phase; the round barrier
  /// separates the two, so no lock is needed.
  struct Ring {
    std::vector<Handoff> items;
    std::uint64_t next_seq = 0;
    std::uint64_t drained_below = 0;  ///< seqs < this have left the ring
  };
  /// A domain's queue and its cold state.  What the round loop reads for
  /// every domain lives in the flat arrays below.
  struct DomainState {
    Simulation sim;
    DomainStats stats;  ///< stats() fills in events, windows and stalls
    unsigned worker = 0;  ///< worker that executes and drains it
  };
  struct InEdge {
    DomainId src;
    Ns la;
  };
  /// One cache line of a bitmap row.  Rows are whole lines, so no two
  /// writers ever share one.
  struct alignas(64) BitLine {
    std::uint64_t words[8];
  };

  [[nodiscard]] Ring& ring(DomainId src, DomainId dst) {
    return rings_[src * domains_.size() + dst];
  }
  [[nodiscard]] std::uint64_t* row(std::vector<BitLine>& rows, std::size_t i) {
    return rows[i * bit_lines_].words;
  }
  void finalize();
  [[nodiscard]] Ns window_end(DomainId d, Ns gmin) const;
  void begin_round(Ns last);
  void run_domain(DomainId d, Ns bound, unsigned w);
  void drain_domain(DomainId d, unsigned w, Ns last);
  void worker_loop(unsigned w, Ns until);

  struct Edge {
    DomainId src;
    DomainId dst;
    Ns la;
  };

  std::vector<std::unique_ptr<DomainState>> domains_;
  std::vector<Edge> edges_;          ///< as declared; folded by finalize()
  std::vector<Ring> rings_;          ///< flat [src * D + dst]
  std::vector<Ns> lookahead_;        ///< flat [dst * D + src], ~0 = no edge

  // Round state, one slot per domain.  next_ts_ is published at each
  // round barrier by the domain's worker; stalled_ is written only by
  // that worker; the rest is fixed by finalize().
  std::vector<Ns> next_ts_;
  std::vector<Ns> reach_;  ///< W(d) <= gmin + reach_[d]
  std::vector<std::uint64_t> stalled_;
  std::vector<std::uint32_t> in_begin_;  ///< d's in-edges: [d], [d + 1]
  std::vector<InEdge> in_edges_;

  // Bitmap rows of bit_words_ words, padded to bit_lines_ cache lines.
  //  * pending_, row w: the domains of worker w with an event at or
  //    before `until`.  Written by w for the domains it drains.
  //  * pending_all_, one row: the union, taken by begin_round.
  //  * inbox_, row (dst * workers_ + w): bit s set when ring (s, dst)
  //    went non-empty in worker w's execute phase.  Read and cleared by
  //    dst's worker in the drain phase.
  //  * touched_, row w: bit d set when worker w ran d or posted into it.
  //    Read by every worker in the drain phase; cleared by w after the
  //    next barrier.
  //  * owned_, row w: the domains worker w executes and drains.
  // The round barrier orders every write before every read, as it does
  // for the rings.
  std::vector<BitLine> pending_;
  std::vector<BitLine> pending_all_;
  std::vector<BitLine> inbox_;
  std::vector<BitLine> touched_;
  std::vector<BitLine> owned_;
  std::size_t bit_words_ = 0;  ///< ceil(D / 64)
  std::size_t bit_lines_ = 0;  ///< ceil(bit_words_ / 8)

  struct Barrier;
  std::unique_ptr<Barrier> barrier_;
  unsigned workers_ = 1;  ///< of the current run
  // Published by begin_round at each round barrier.
  Ns gmin_ = 0;
  std::size_t npending_ = 0;  ///< bits in pending_all_
  /// Per-worker drain scratch.
  struct DrainRef {
    Ns when;
    DomainId src;
    std::uint64_t seq;
    Handoff* h;
  };
  std::vector<std::vector<DrainRef>> drain_scratch_;
  std::vector<std::vector<DomainId>> written_scratch_;

  unsigned threads_ = 1;
  bool finalized_ = false;
  std::uint64_t rounds_ = 0;
};

}  // namespace ipipe::sim
