// Conservative windowed event engine: sharded per-domain queues with
// fabric-latency lookahead, run in rounds on the calling thread.
//
// A ParallelSimulation owns N `Simulation` instances ("domains" — one per
// simulated node/NIC plus synthetic domains like the switch) and the
// lookahead edges derived from the topology (minimum cross-domain
// latency: fabric and link latency for remote sends, PCIe latency for
// host<->NIC hops).  It executes the domains under a conservative
// synchronization protocol:
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
//     the zero-alloc fast path runs verbatim inside the window.
//   * Cross-domain sends go into the destination's handoff inbox, which
//     the round's drain phase empties after every domain has executed.
//   * A round costs what is pending in it, not the domain count D.  A
//     domain is pending when its next event is at or before the run's
//     `until`; only a pending domain can execute or stall.  A bitmap
//     tracks them, so gmin and the execute loop visit pending domains
//     only.  Every pending event sits at or after gmin, so
//     W(d) <= gmin + reach(d), where reach(d), fixed by the topology, is
//     the least min-in-lookahead(s) + lookahead(s, d) over d's in-edges:
//     a domain whose next event is at or past that bound has an empty
//     window and is counted as stalled without W(d) being computed.  For
//     the rest, W(d) folds only in-edges from pending sources (an idle
//     source's term lies past until + 1, the run's own cap).  A post or
//     an execute marks the destination in the touched bitmap; the drain
//     visits only touched domains.  What is left of D is a scan of D/64
//     bitmap words per phase.  Every domain still takes part in every
//     round (`windows` counts rounds), so the counters mean what they
//     meant under a full scan.
//   * The event order is a pure function of the inputs: domains execute
//     one at a time, and drained handoffs are inserted into the
//     destination queue sorted by (timestamp, source domain id,
//     per-destination sequence).  The domains and rounds are what fix
//     that order (and every digest and counter built on it), so they
//     stay even though one thread runs them all.
//   * Every edge carries a nonzero lookahead: a zero-lookahead edge
//     admits no safe window, so set_lookahead() rejects it.
//
// Set-up costs O(edges log edges): the lookahead edges are kept only as
// per-destination in-edge lists, sorted by source.
//
// The engine reports per-domain counters (events executed, window-sync
// stalls, handoff-inbox occupancy, effective lookahead) so protocol
// regressions stay visible in metrics snapshots and traces.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/units.h"
#include "sim/simulation.h"

namespace ipipe::sim {

using DomainId = std::uint32_t;
constexpr DomainId kNoDomain = ~DomainId{0};

/// Engine counters for one domain, exported through the metrics
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

/// Handle for a cross-domain handoff still sitting in its destination's
/// inbox.  Only the posting domain may cancel it, and only until the
/// round's drain moves it into the destination queue (after that the
/// event belongs to the destination and the handle is stale).
struct HandoffId {
  DomainId src = kNoDomain;
  DomainId dst = kNoDomain;
  std::uint64_t seq = 0;  ///< per destination
  [[nodiscard]] bool valid() const noexcept { return src != kNoDomain; }
};

class ParallelSimulation {
 public:
  ParallelSimulation() = default;
  ParallelSimulation(const ParallelSimulation&) = delete;
  ParallelSimulation& operator=(const ParallelSimulation&) = delete;

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
  /// The edge's lookahead, or ~0 when there is no edge.
  [[nodiscard]] Ns lookahead(DomainId src, DomainId dst) const;

  /// Schedule `fn` at absolute time `when` on domain `dst`.
  ///
  ///  * Called outside run() (setup) or with dst == the currently
  ///    executing domain: plain schedule_at on the destination queue
  ///    (the zero-alloc fast path; the returned handle is not
  ///    cancellable here — use Simulation::cancel instead).
  ///  * Called from inside another domain's event: the handoff is queued
  ///    in dst's inbox and drained at the end of the round.  `when` must
  ///    respect the edge lookahead: when >= src.now() + lookahead(src, dst).
  HandoffId post(DomainId dst, Ns when, EventFn fn);

  /// Cancel a handoff still in its destination's inbox.  Must be called
  /// from the domain that posted it.  Returns false when the handoff has
  /// already been drained into the destination queue — the caller must
  /// then treat the event as delivered, exactly like a real packet
  /// already on the wire.
  bool cancel_handoff(const HandoffId& id);

  /// The domain whose events are executing, or kNoDomain outside run().
  [[nodiscard]] DomainId current_domain() const noexcept { return current_; }

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
    DomainId src = kNoDomain;
    std::uint64_t seq = 0;
  };
  /// A domain's queue and its cold state.  What the round loop reads for
  /// every domain lives in the flat arrays below.
  struct DomainState {
    Simulation sim;
    DomainStats stats;  ///< stats() fills in events, windows and stalls
    std::vector<Handoff> inbox;  ///< posted into this domain this round
    std::uint64_t next_seq = 0;
    std::uint64_t drained_below = 0;  ///< seqs < this have left the inbox
  };
  struct InEdge {
    DomainId src;
    Ns la;
  };
  struct Edge {
    DomainId src;
    DomainId dst;
    Ns la;
  };

  void finalize();
  /// lookahead(src, dst) from dst's in-edges; ~0 when there is none.
  [[nodiscard]] Ns in_lookahead(DomainId src, DomainId dst) const;
  [[nodiscard]] Ns window_end(DomainId d, Ns gmin) const;
  void begin_round();
  void drain_domain(DomainId d, Ns last);

  std::vector<std::unique_ptr<DomainState>> domains_;
  std::vector<Edge> edges_;  ///< as declared; folded by finalize()

  // Round state, one slot per domain; reach_ and the in-edges are fixed
  // by finalize().
  std::vector<Ns> next_ts_;
  std::vector<Ns> reach_;  ///< W(d) <= gmin + reach_[d]
  std::vector<std::uint64_t> stalled_;
  std::vector<std::uint32_t> in_begin_;  ///< d's in-edges: [d], [d + 1]
  std::vector<InEdge> in_edges_;         ///< sorted by src within each d

  // Bitmaps of bit_words_ words, bit d for domain d.
  //  * pending_: domains with an event at or before `until`.
  //  * touched_: domains run or posted into this round; the drain
  //    visits only these.
  std::vector<std::uint64_t> pending_;
  std::vector<std::uint64_t> touched_;
  std::size_t bit_words_ = 0;  ///< ceil(D / 64)

  // Taken by begin_round at the start of each round.
  Ns gmin_ = 0;
  std::size_t npending_ = 0;  ///< bits in pending_
  /// Drain scratch.
  struct DrainRef {
    Ns when;
    DomainId src;
    std::uint64_t seq;
    Handoff* h;
  };
  std::vector<DrainRef> drain_scratch_;

  DomainId current_ = kNoDomain;
  bool finalized_ = false;
  std::uint64_t rounds_ = 0;
};

}  // namespace ipipe::sim
