// Real-time analytics example (§4): the FlexStorm-style pipeline —
// pattern-matching filter, sliding-window counter, top-n ranker — spread
// over two SmartNIC-equipped servers with an aggregated ranker, processing
// a synthetic tweet stream.
//
// Build & run:  ./build/examples/analytics_pipeline
#include <cstdio>

#include "apps/rta/rta_actors.h"
#include "testbed/cluster.h"
#include "workloads/app_workloads.h"

using namespace ipipe;

int main() {
  testbed::ParallelCluster cluster(testbed::kTorLatency);
  cluster.add_server(testbed::ServerSpec{});  // node 0: worker + aggregator
  cluster.add_server(testbed::ServerSpec{});  // node 1: worker

  rta::RtaParams params;
  params.patterns = {"[a-z]*ing", "data[0-9]+", "net"};
  params.topn = 5;
  params.counter_emit_every = 4;
  params.ranker_emit_every = 8;
  params.aggregator_node = 0;

  auto d0 = rta::deploy_rta(cluster.server(0).runtime(), params);
  params.aggregator_ranker = d0.ranker;
  auto d1 = rta::deploy_rta(cluster.server(1).runtime(), params);
  std::printf("deployed analytics pipeline: filter=%u counter=%u ranker=%u\n",
              d0.filter, d0.counter, d0.ranker);

  // One tweet stream per worker.
  std::vector<workloads::ClientGen*> clients;
  for (netsim::NodeId node : {netsim::NodeId{0}, netsim::NodeId{1}}) {
    workloads::RtaWorkloadParams wl;
    wl.worker = node;
    wl.filter_actor = node == 0 ? d0.filter : d1.filter;
    wl.frame_size = 1024;
    auto& c = cluster.add_client(10.0, workloads::rta_workload(wl),
                                 1234 + node);
    c.start_closed_loop(4, msec(100));
    clients.push_back(&c);
  }
  cluster.run_until(msec(110));

  std::uint64_t batches = 0;
  for (auto* c : clients) batches += c->completed();
  std::printf("\nprocessed %llu tuple batches\n",
              static_cast<unsigned long long>(batches));
  for (std::size_t i = 0; i < 2; ++i) {
    auto& rt = cluster.server(i).runtime();
    const auto& d = i == 0 ? d0 : d1;
    auto* filter = dynamic_cast<rta::FilterActor*>(rt.find_actor(d.filter));
    std::printf("  node %zu filter: %llu admitted / %llu discarded\n", i,
                static_cast<unsigned long long>(filter->admitted()),
                static_cast<unsigned long long>(filter->discarded()));
  }

  auto* agg = dynamic_cast<rta::RankerActor*>(
      cluster.server(0).runtime().find_actor(d0.ranker));
  std::printf("\naggregated top-%zu:\n", params.topn);
  for (const auto& tuple : agg->top()) {
    std::printf("  %-20s %llu\n", tuple.key.c_str(),
                static_cast<unsigned long long>(tuple.count));
  }
  return 0;
}
