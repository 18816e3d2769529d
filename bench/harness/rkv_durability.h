// RKV durability kit shared by every chaos bench (chaos_recovery,
// nic_failover, parallel_cluster and the chaos tests): the standard chaos
// schedule for a failover-enabled Paxos group (deployed with
// testbed::deploy_rkv_group), and the probe that proves no acknowledged
// write is lost.
//
// The acked-write probe is one writer client issuing unique keys, each
// logical op retried across kNotLeader redirects and abandoned requests
// until it is acked, plus an optional post-heal read-back client that
// re-reads every acked key.  Both steer by one shared leader hint.  All
// probe clients live in the cluster's client domain, so the shared state
// is single-threaded by construction.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "apps/rkv/rkv_actors.h"
#include "netsim/chaos.h"
#include "testbed/cluster.h"
#include "workloads/client.h"

namespace ipipe::bench {

/// The standard chaos schedule for a 3-replica group on nodes 0..2: a
/// guaranteed backbone (leader crash, partition, corrupting fabric) and a
/// seeded random tail of crashes, partitions, PCIe bursts and fabric
/// faults that ends 130 s before `total` (at total/2 for short runs).
netsim::FaultPlan rkv_chaos_plan(std::uint64_t seed, Ns total);

/// What the probe proved about the acked writes.  `unverified` keys were
/// acked but never got a read-back verdict.
struct DurabilityVerdicts {
  std::uint64_t acked = 0;
  std::uint64_t verified = 0;
  std::uint64_t not_found = 0;   ///< still missing after 5 NotFound retries
  std::uint64_t mismatched = 0;  ///< read back someone else's bytes
  std::uint64_t unverified = 0;
};

/// The default value written under key k: its low three bytes and a
/// 0xA5 tag.
[[nodiscard]] std::vector<std::uint8_t> tagged_value(std::uint64_t k);

/// The caller's view of one group: where it lives and how it encodes keys.
struct RkvProbeGroup {
  std::vector<netsim::NodeId> nodes;  ///< nodes[0] is the first leader guess
  ActorId consensus = 0;
  std::string key_prefix;  ///< key k is stored as key_prefix + to_string(k)
  std::function<std::vector<std::uint8_t>(std::uint64_t key)> value =
      tagged_value;
};

/// One group's acked-write probe (see the file comment).  Its clients'
/// callbacks hold `this`, so the probe must outlive the cluster's run.
class AckedWriteProbe {
 public:
  /// Add the writer client (seeded `seed`) and start it: `rate` unique
  /// keys per second, fixed gaps, until `write_end`.
  AckedWriteProbe(testbed::ParallelCluster& cluster, RkvProbeGroup group,
                  double rate, Ns write_end, std::uint64_t seed);
  AckedWriteProbe(const AckedWriteProbe&) = delete;
  AckedWriteProbe& operator=(const AckedWriteProbe&) = delete;

  /// Add the read-back client (seeded `seed`): at `verify_at` it queues
  /// every key acked so far and reads them at `rate` until `end`.
  void read_back(double rate, Ns verify_at, Ns end, std::uint64_t seed);

  [[nodiscard]] DurabilityVerdicts verdicts() const;
  [[nodiscard]] const std::set<std::uint64_t>& acked() const noexcept {
    return acked_;
  }
  [[nodiscard]] workloads::ClientGen& writer() const noexcept {
    return *writer_.client;
  }
  /// Null unless read_back() was called.
  [[nodiscard]] workloads::ClientGen* reader() const noexcept {
    return reader_.client;
  }

 private:
  /// One client's logical ops: keys waiting to be (re)sent, and the key
  /// behind each in-flight request sequence number.
  struct Lane {
    workloads::ClientGen* client = nullptr;
    std::deque<std::uint64_t> queue;
    std::map<std::uint64_t, std::uint64_t> in_flight;
  };

  netsim::PacketPtr request(Lane& lane, std::uint64_t seq, std::uint64_t key,
                            rkv::Op op, netsim::PacketPool& pool);
  /// The key and decoded reply of an outstanding request (which stops
  /// being outstanding); nullopt for a stale or undecodable reply.
  std::optional<std::pair<std::uint64_t, rkv::ClientReply>> take(
      Lane& lane, const netsim::Packet& pkt);
  void abandon(Lane& lane, std::uint64_t request_id);
  void follow_hint(const rkv::ClientReply& rep);

  testbed::ParallelCluster& cluster_;
  RkvProbeGroup group_;
  netsim::NodeId leader_;
  std::uint64_t next_key_ = 1;
  std::set<std::uint64_t> acked_;
  Lane writer_;
  Lane reader_;
  std::map<std::uint64_t, int> not_found_tries_;
  std::uint64_t verified_ = 0;
  std::uint64_t not_found_ = 0;
  std::uint64_t mismatched_ = 0;
};

}  // namespace ipipe::bench
