#include "testbed/rkv_deploy.h"

#include <stdexcept>
#include <string>
#include <utility>

namespace ipipe::testbed {

std::vector<rkv::RkvDeployment> deploy_rkv_group(ParallelCluster& cluster,
                                                 rkv::RkvParams params) {
  std::vector<rkv::RkvDeployment> deps;
  for (std::size_t i = 0; i < params.replicas.size(); ++i) {
    params.self_index = i;
    deps.push_back(
        rkv::deploy_rkv(cluster.server(params.replicas[i]).runtime(), params));
    const rkv::RkvDeployment& d = deps.back();
    const rkv::RkvDeployment& first = deps.front();
    if (d.consensus != first.consensus || d.memtable != first.memtable ||
        d.sst_read != first.sst_read || d.compaction != first.compaction ||
        d.hot_cache != first.hot_cache) {
      throw std::logic_error("deploy_rkv_group: replica " + std::to_string(i) +
                             " (node " + std::to_string(params.replicas[i]) +
                             ") got other actor ids than replica 0");
    }
  }
  return deps;
}

shard::RouteTable ring_table(std::uint32_t num_shards, std::uint32_t groups,
                             std::uint64_t epoch) {
  shard::ShardRing ring(num_shards);
  for (std::uint32_t g = 0; g < groups; ++g) ring.add_group(g);
  return ring.table(epoch);
}

ShardedRkv deploy_sharded_rkv(ParallelCluster& cluster, std::uint32_t groups,
                              std::size_t replicas, std::uint32_t on_ring,
                              rkv::RkvParams base) {
  ShardedRkv s;
  s.table = ring_table(base.num_shards, on_ring, /*epoch=*/1);
  base.shard_epoch = s.table.epoch;
  for (std::uint32_t g = 0; g < groups; ++g) {
    base.replicas.clear();
    for (std::size_t r = 0; r < replicas; ++r) {
      base.replicas.push_back(static_cast<netsim::NodeId>(g * replicas + r));
    }
    base.owned_shards = s.table.shards_of(g);
    const auto deps = deploy_rkv_group(cluster, base);
    s.targets.push_back({.replicas = base.replicas,
                         .consensus = deps[0].consensus,
                         .cache = deps[0].hot_cache,
                         .leader_hint = base.replicas[0]});
    s.deployments.insert(s.deployments.end(), deps.begin(), deps.end());
  }
  return s;
}

}  // namespace ipipe::testbed
