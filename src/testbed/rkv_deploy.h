// The one way to deploy RKV (§4) on a testbed cluster: a single Paxos
// group, or a sharded ring of groups behind a consistent-hash route
// table.  Replicas must register the same actors in the same order so
// actor ids agree cluster-wide; these helpers deploy in replica order and
// check that they do.  The caller adds the servers, with its own specs;
// replica r of group g runs on server g * replicas + r.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "apps/rkv/rkv_actors.h"
#include "ipipe/shard.h"
#include "testbed/cluster.h"
#include "workloads/open_loop.h"

namespace ipipe::testbed {

/// Deploy one RKV group on `params.replicas`, in order: replica i gets
/// self_index i, so replicas[0] starts as leader.  Throws
/// std::logic_error if any replica's actor ids differ from replica 0's.
std::vector<rkv::RkvDeployment> deploy_rkv_group(ParallelCluster& cluster,
                                                 rkv::RkvParams params);

/// Route table of a `num_shards`-shard ring holding groups
/// 0..groups-1, stamped `epoch`.  A rebalance grows the ring with it.
[[nodiscard]] shard::RouteTable ring_table(std::uint32_t num_shards,
                                           std::uint32_t groups,
                                           std::uint64_t epoch);

struct ShardedRkv {
  shard::RouteTable table;  ///< epoch 1: the groups that start on the ring
  std::vector<workloads::ShardTarget> targets;  ///< one per group
  std::vector<rkv::RkvDeployment> deployments;  ///< group-major
};

/// Deploy `groups` groups of `replicas` replicas.  The first `on_ring`
/// groups share `base.num_shards` shards under the epoch-1 table; the
/// rest stand by owning none until a rebalance brings them on.  `base`
/// supplies every other RkvParams field; its replicas, shard epoch and
/// owned shards are set per group.
ShardedRkv deploy_sharded_rkv(ParallelCluster& cluster, std::uint32_t groups,
                              std::size_t replicas, std::uint32_t on_ring,
                              rkv::RkvParams base);

}  // namespace ipipe::testbed
