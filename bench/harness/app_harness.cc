#include "harness/app_harness.h"

#include <cstdio>

#include "apps/dt/dt_actors.h"
#include "apps/rkv/rkv_actors.h"
#include "apps/rta/rta_actors.h"
#include "testbed/rkv_deploy.h"
#include "workloads/app_workloads.h"

namespace ipipe::bench {

const char* app_name(App app) {
  switch (app) {
    case App::kRta:
      return "RTA";
    case App::kDt:
      return "DT";
    case App::kRkv:
      return "RKV";
  }
  return "?";
}

const char* role_name(Role role) {
  switch (role) {
    case Role::kRtaWorker:
      return "RTA Worker";
    case Role::kDtCoordinator:
      return "DT Coord.";
    case Role::kDtParticipant:
      return "DT Participant";
    case Role::kRkvLeader:
      return "RKV Leader";
    case Role::kRkvFollower:
      return "RKV Follower";
  }
  return "?";
}

App app_of(Role role) {
  switch (role) {
    case Role::kRtaWorker:
      return App::kRta;
    case Role::kDtCoordinator:
    case Role::kDtParticipant:
      return App::kDt;
    case Role::kRkvLeader:
    case Role::kRkvFollower:
      return App::kRkv;
  }
  return App::kRkv;
}

namespace {

testbed::ServerSpec make_spec(const RunConfig& cfg) {
  testbed::ServerSpec spec;
  spec.nic = cfg.use_25g ? nic::liquidio_cn2360() : nic::liquidio_cn2350();
  spec.mode = cfg.mode;
  spec.ipipe = cfg.ipipe;
  return spec;
}

}  // namespace

RunResult run_app(const RunConfig& cfg) {
  testbed::ParallelCluster cluster(testbed::kTorLatency);
  const double link = cfg.use_25g ? 25.0 : 10.0;
  for (int i = 0; i < 3; ++i) cluster.add_server(make_spec(cfg));
  cfg.trace.apply(cluster);

  std::vector<workloads::ClientGen*> clients;
  const ActorLoc loc = cluster.server(0).default_loc();
  (void)loc;

  switch (cfg.app) {
    case App::kRta: {
      // One worker per server, aggregated ranker on node 0; each worker
      // gets its own client stream (§5.1).
      rta::RtaParams params;
      params.aggregator_node = 0;
      std::vector<rta::RtaDeployment> deployments;
      for (std::size_t i = 0; i < 3; ++i) {
        auto d = rta::deploy_rta(cluster.server(i).runtime(), params);
        deployments.push_back(d);
        if (i == 0) params.aggregator_ranker = d.ranker;
        if (cfg.floem_split) {
          // Static Floem placement: counter + ranker on the host.
          auto& rt = cluster.server(i).runtime();
          for (const ActorId id : {d.counter, d.ranker}) {
            auto* ac = rt.control(id);
            ac->loc = ActorLoc::kHost;
            rt.objects().migrate_all(id, MemSide::kHost);
          }
        }
      }
      for (std::size_t i = 0; i < 3; ++i) {
        workloads::RtaWorkloadParams wl;
        wl.worker = static_cast<netsim::NodeId>(i);
        wl.filter_actor = deployments[i].filter;
        wl.frame_size = cfg.frame_size;
        clients.push_back(&cluster.add_client(
            link, workloads::rta_workload(wl), 42 + i));
      }
      break;
    }
    case App::kDt: {
      std::vector<dt::DtDeployment> deployments;
      for (std::size_t i = 0; i < 3; ++i) {
        deployments.push_back(
            dt::deploy_dt(cluster.server(i).runtime(), i == 0));
      }
      workloads::TxnWorkloadParams wl;
      wl.coordinator = 0;
      wl.coordinator_actor = deployments[0].coordinator;
      wl.participants = {1, 2};
      wl.frame_size = cfg.frame_size;
      clients.push_back(&cluster.add_client(link, workloads::txn_workload(wl)));
      break;
    }
    case App::kRkv: {
      const auto deployments =
          testbed::deploy_rkv_group(cluster, {.replicas = {0, 1, 2}});
      workloads::KvWorkloadParams wl;
      wl.server = 0;
      wl.consensus_actor = deployments[0].consensus;
      wl.frame_size = cfg.frame_size;
      wl.num_keys = 100'000;  // scaled for simulation turnaround
      clients.push_back(&cluster.add_client(link, workloads::kv_workload(wl)));
      break;
    }
  }

  // In host-only modes actors must start on the host: re-register is not
  // possible, so deployments above already respected default placement
  // through mode config?  Actors register with initial kNic; for kDpdk /
  // kHostIPipe force them over before traffic starts.
  if (cfg.mode == testbed::Mode::kDpdk ||
      cfg.mode == testbed::Mode::kHostIPipe) {
    for (std::size_t i = 0; i < cluster.server_count(); ++i) {
      auto& rt = cluster.server(i).runtime();
      for (ActorId id = 1; id < 64; ++id) {
        auto* ac = rt.control(id);
        if (ac != nullptr && ac->loc == ActorLoc::kNic) {
          ac->loc = ActorLoc::kHost;
          rt.objects().migrate_all(id, MemSide::kHost);
        }
      }
    }
  }

  const Ns stop = cfg.warmup + cfg.duration;
  for (auto* client : clients) {
    client->set_warmup(cfg.warmup);
    client->start_closed_loop(cfg.outstanding, stop);
  }
  cluster.snapshot_all_at(cfg.warmup);
  cluster.run_until(stop + msec(5));

  RunResult result;
  double completed = 0.0;
  for (auto* client : clients) {
    completed += static_cast<double>(client->completed_after_warmup());
    result.latency.merge(client->latencies());
    result.completed += client->completed();
  }
  result.throughput_rps = completed / to_sec(cfg.duration);
  result.sim_events = cluster.engine().executed();
  result.sim_seconds = to_sec(cluster.client_sim().now());
  result.goodput_gbps =
      result.throughput_rps * cfg.frame_size * 8.0 / 1e9;

  switch (cfg.app) {
    case App::kRta:
      result.host_cores[0] = cluster.server(1).host_cores_used();
      result.host_cores[1] = result.host_cores[0];
      result.nic_cores[0] = cluster.server(1).nic_cores_used();
      break;
    case App::kDt:
      result.host_cores[0] = cluster.server(0).host_cores_used();
      result.host_cores[1] = cluster.server(1).host_cores_used();
      result.nic_cores[0] = cluster.server(0).nic_cores_used();
      result.nic_cores[1] = cluster.server(1).nic_cores_used();
      break;
    case App::kRkv:
      result.host_cores[0] = cluster.server(0).host_cores_used();
      result.host_cores[1] = cluster.server(1).host_cores_used();
      result.nic_cores[0] = cluster.server(0).nic_cores_used();
      result.nic_cores[1] = cluster.server(1).nic_cores_used();
      break;
  }
  for (std::size_t i = 0; i < cluster.server_count(); ++i) {
    result.push_migrations +=
        cluster.server(i).runtime().push_migrations();
    result.downgrades += cluster.server(i).runtime().downgrades();
    result.channel.merge(cluster.server(i).runtime().chan_to_host_stats());
    result.channel.merge(cluster.server(i).runtime().chan_to_nic_stats());
  }
  if (cfg.trace.enabled()) {
    write_cluster_trace(cfg.trace, cluster,
                        std::string(app_name(cfg.app)) + "/" +
                            testbed::mode_name(cfg.mode));
  }
  return result;
}

std::string channel_summary(const RunResult& r) {
  const ChannelDirStats& c = r.channel;
  if (c.sent + c.queued == 0) return {};
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "chan: %llu sent, %llu queued, %llu retx, %llu drops avoided, "
                "%llu corrupt, ring hwm %zuB, backpressure %.1fus (%llu ev)",
                static_cast<unsigned long long>(c.sent),
                static_cast<unsigned long long>(c.queued),
                static_cast<unsigned long long>(c.retransmits),
                static_cast<unsigned long long>(c.drops_avoided),
                static_cast<unsigned long long>(c.corrupt_frames),
                c.ring_high_watermark, to_us(c.backpressure_ns),
                static_cast<unsigned long long>(c.backpressure_events));
  return buf;
}

}  // namespace ipipe::bench
