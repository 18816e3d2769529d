// Workload-generator client: a network endpoint that issues requests
// (closed-loop with fixed outstanding window, or open-loop Poisson) and
// records end-to-end latencies.  Mirrors the paper's DPDK pkt-gen
// augmented with application-layer packet formats (§2.2.1, §5.1).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/units.h"
#include "netsim/network.h"
#include "sim/simulation.h"

namespace ipipe::workloads {

/// Request-id space shared by every workload generator: 24 bits of node
/// id above 40 bits of per-node sequence.  Disjoint by construction
/// across generators, collision-free for ~10^12 requests per node —
/// sized for million-client deployments (node ids >= 2^24 or sequences
/// >= 2^40 would silently alias, so both are checked).
struct RequestId {
  static constexpr unsigned kSeqBits = 40;
  static constexpr std::uint64_t kSeqMask = (1ULL << kSeqBits) - 1;
  static constexpr netsim::NodeId kMaxNode =
      static_cast<netsim::NodeId>((1ULL << (64 - kSeqBits)) - 1);

  [[nodiscard]] static constexpr std::uint64_t make(netsim::NodeId node,
                                                    std::uint64_t seq) {
    return (static_cast<std::uint64_t>(node) << kSeqBits) | (seq & kSeqMask);
  }
  [[nodiscard]] static constexpr netsim::NodeId node_of(std::uint64_t id) {
    return static_cast<netsim::NodeId>(id >> kSeqBits);
  }
  [[nodiscard]] static constexpr std::uint64_t seq_of(std::uint64_t id) {
    return id & kSeqMask;
  }
};

class ClientGen : public netsim::Endpoint {
 public:
  /// Builds the next request (drawing the frame from `pool`); must set
  /// dst, dst_actor, msg_type, payload and frame_size.  src/request_id/
  /// created_at are filled in by the generator.
  using MakeReq = std::function<netsim::PacketPtr(
      std::uint64_t seq, Rng& rng, netsim::PacketPool& pool)>;

  ClientGen(sim::Simulation& sim, netsim::Network& net, netsim::NodeId self,
            double link_gbps, MakeReq make, std::uint64_t seed = 42);
  ~ClientGen() override;

  /// Closed loop: keep `outstanding` requests in flight until `stop_at`.
  void start_closed_loop(unsigned outstanding, Ns stop_at);
  /// Open loop at `rate_rps`; `poisson` draws exponential gaps.
  void start_open_loop(double rate_rps, Ns stop_at, bool poisson = true);
  /// Ignore latencies recorded before this time (warm-up).
  void set_warmup(Ns until) noexcept { warmup_until_ = until; }

  /// At-least-once delivery knobs: resend an unanswered request (same
  /// request id, so servers can dedup) with exponential backoff.
  struct RetryPolicy {
    Ns timeout = msec(50);      ///< first-attempt patience
    unsigned max_retries = 10;  ///< give up (abandon) after this many
    double backoff = 2.0;       ///< timeout multiplier per retry
    Ns cap = sec(2);            ///< backoff ceiling
  };
  /// Off by default: a lost reply simply never completes.  Every
  /// paper-figure bench's clients run that way, so their latency and
  /// throughput rows carry no retransmits; only the chaos, failover and
  /// durability benches turn retries on.
  void enable_retries(RetryPolicy policy) {
    retry_ = policy;
    retries_on_ = true;
  }
  /// Invoked when a request exhausts its retries (chaos tests assert on
  /// who was abandoned vs. lost).
  void set_on_abandon(std::function<void(std::uint64_t request_id)> fn) {
    on_abandon_ = std::move(fn);
  }
  [[nodiscard]] std::uint64_t retransmits() const noexcept {
    return retransmits_;
  }
  [[nodiscard]] std::uint64_t abandoned() const noexcept { return abandoned_; }

  /// Fire-and-forget bookkeeping bound: without retries a lost reply
  /// would leave its in-flight record behind forever — at open-loop
  /// million-client rates that is an unbounded leak.  Records older
  /// than the horizon are expired (counted in `expired()`) as new
  /// requests are issued.
  void set_inflight_horizon(Ns horizon) noexcept {
    inflight_horizon_ = horizon;
  }
  [[nodiscard]] std::uint64_t expired() const noexcept { return expired_; }
  [[nodiscard]] std::size_t inflight() const noexcept {
    return inflight_.size();
  }

  void receive(netsim::PacketPtr pkt) override;

  [[nodiscard]] const LatencyHistogram& latencies() const noexcept {
    return hist_;
  }
  [[nodiscard]] std::uint64_t sent() const noexcept { return sent_; }
  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }
  [[nodiscard]] std::uint64_t completed_after_warmup() const noexcept {
    return completed_measured_;
  }
  [[nodiscard]] Ns first_measured_completion() const noexcept {
    return first_measured_;
  }
  [[nodiscard]] Ns last_completion() const noexcept { return last_completion_; }
  [[nodiscard]] netsim::NodeId node() const noexcept { return self_; }

  /// Optional hook invoked on every reply (after accounting).  Replaces
  /// all previously registered reply hooks.
  void set_on_reply(std::function<void(const netsim::Packet&)> fn) {
    on_reply_.clear();
    on_reply_.push_back(std::move(fn));
  }
  /// Additional reply hook; all registered hooks run in registration
  /// order (history recorders coexist with workload steering logic).
  void add_on_reply(std::function<void(const netsim::Packet&)> fn) {
    on_reply_.push_back(std::move(fn));
  }
  /// Invoked on the FIRST transmission of each request, after src /
  /// request_id / created_at are filled in (retransmits don't re-fire:
  /// one invocation event per logical operation).
  void set_on_issue(std::function<void(const netsim::Packet&)> fn) {
    on_issue_ = std::move(fn);
  }

 private:
  struct Inflight {
    Ns created = 0;
    unsigned attempts = 1;
    Ns cur_timeout = 0;
    netsim::Packet copy;  ///< retransmission template (retries only)
  };

  void issue_one();
  void schedule_next_open();
  void arm_retry(std::uint64_t request_id, unsigned attempt);
  void on_retry_timeout(std::uint64_t request_id, unsigned attempt);

  sim::Simulation& sim_;
  netsim::Network& net_;
  netsim::NodeId self_;
  MakeReq make_;
  Rng rng_;

  bool closed_loop_ = true;
  double rate_rps_ = 0.0;
  bool poisson_ = true;
  Ns stop_at_ = 0;
  Ns warmup_until_ = 0;

  void expire_stale_inflight();

  std::uint64_t next_seq_ = 1;
  std::uint64_t sent_ = 0;
  Ns inflight_horizon_ = sec(30);
  std::uint64_t expired_ = 0;
  std::deque<std::uint64_t> inflight_order_;
  std::uint64_t completed_ = 0;
  std::uint64_t completed_measured_ = 0;
  Ns first_measured_ = 0;
  Ns last_completion_ = 0;
  std::unordered_map<std::uint64_t, Inflight> inflight_;
  LatencyHistogram hist_;
  std::vector<std::function<void(const netsim::Packet&)>> on_reply_;
  std::function<void(const netsim::Packet&)> on_issue_;

  bool retries_on_ = false;
  RetryPolicy retry_;
  std::uint64_t retransmits_ = 0;
  std::uint64_t abandoned_ = 0;
  std::function<void(std::uint64_t)> on_abandon_;
};

}  // namespace ipipe::workloads
