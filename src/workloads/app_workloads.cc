#include "workloads/app_workloads.h"

#include <algorithm>

#include "apps/dt/dt_actors.h"
#include "apps/rkv/rkv_messages.h"
#include "apps/rta/analytics.h"
#include "apps/rta/rta_actors.h"

namespace ipipe::workloads {

std::string make_key(std::uint64_t id, std::uint32_t len) {
  std::string key = std::to_string(id);
  if (key.size() < len) key.insert(0, len - key.size(), 'k');
  return key;
}

ClientGen::MakeReq kv_workload(KvWorkloadParams params) {
  auto zipf = std::make_shared<ZipfDist>(params.num_keys, params.zipf_theta);
  // `value` is the generator's own scratch: each PUT refills it and the
  // request is encoded from it in one exact-size allocation.
  return [params, zipf, value = std::vector<std::uint8_t>()](
             std::uint64_t /*seq*/, Rng& rng,
             netsim::PacketPool& pool) mutable {
    auto pkt = pool.make();
    pkt->dst = params.server;
    pkt->dst_actor = params.consensus_actor;
    pkt->frame_size = params.frame_size;

    const std::string key = make_key((*zipf)(rng), params.key_len);
    const bool is_read = rng.uniform() < params.read_fraction;
    rkv::Op op = rkv::Op::kGet;
    value.clear();
    if (is_read) {
      pkt->msg_type = rkv::kClientGet;
    } else {
      op = rkv::Op::kPut;
      pkt->msg_type = rkv::kClientPut;
      // Value fills the frame after headers and key (§5.1: "the value
      // size increases with the packet size").
      const std::uint32_t overhead =
          netsim::kHeaderBytes + params.key_len + 16;
      const std::uint32_t vlen =
          params.frame_size > overhead ? params.frame_size - overhead : 16;
      value.assign(vlen, static_cast<std::uint8_t>(rng.next() & 0xFF));
    }
    pkt->payload = rkv::ClientReq::encode(op, key, value);
    pkt->flow = static_cast<std::uint32_t>(std::hash<std::string>{}(key));
    return pkt;
  };
}

ClientGen::MakeReq txn_workload(TxnWorkloadParams params) {
  return [params](std::uint64_t /*seq*/, Rng& rng,
                  netsim::PacketPool& pool) {
    auto pkt = pool.make();
    pkt->dst = params.coordinator;
    pkt->dst_actor = params.coordinator_actor;
    pkt->msg_type = dt::kTxnRequest;
    pkt->frame_size = params.frame_size;

    dt::TxnRequest txn;
    const std::uint32_t overhead = netsim::kHeaderBytes + 80;
    const std::uint32_t vlen = std::min<std::uint32_t>(
        params.frame_size > overhead ? params.frame_size - overhead : 16,
        dt::DmoHashTable::kInlineValue);

    for (unsigned i = 0; i < params.reads; ++i) {
      dt::TxnRead r;
      r.node = params.participants[rng.uniform_u64(params.participants.size())];
      r.key = make_key(rng.uniform_u64(params.num_keys), 16);
      txn.reads.push_back(std::move(r));
    }
    for (unsigned i = 0; i < params.writes; ++i) {
      dt::TxnWrite w;
      w.node = params.participants[rng.uniform_u64(params.participants.size())];
      w.key = make_key(rng.uniform_u64(params.num_keys), 16);
      w.value.assign(vlen, static_cast<std::uint8_t>(rng.next() & 0xFF));
      txn.writes.push_back(std::move(w));
    }
    pkt->payload = txn.encode();
    return pkt;
  };
}

ClientGen::MakeReq rta_workload(RtaWorkloadParams params) {
  // Synthetic tweet vocabulary: a mix of words that do / don't match the
  // default filter patterns.
  auto vocab = std::make_shared<std::vector<std::string>>();
  for (std::size_t i = 0; i < params.vocabulary; ++i) {
    switch (i % 5) {
      case 0:
        vocab->push_back("running" + std::to_string(i));
        break;
      case 1:
        vocab->push_back("data" + std::to_string(i % 100));
        break;
      case 2:
        vocab->push_back("network" + std::to_string(i));
        break;
      case 3:
        vocab->push_back("w" + std::to_string(i));
        break;
      default:
        vocab->push_back("noise" + std::to_string(i * 7));
    }
  }
  return [params, vocab](std::uint64_t /*seq*/, Rng& rng,
                         netsim::PacketPool& pool) {
    auto pkt = pool.make();
    pkt->dst = params.worker;
    pkt->dst_actor = params.filter_actor;
    pkt->msg_type = rta::kTuples;
    pkt->frame_size = params.frame_size;

    // Tuples per request scale with packet size (§5.1): ~24B per tuple.
    const std::uint32_t budget =
        params.frame_size > netsim::kHeaderBytes + 8
            ? params.frame_size - netsim::kHeaderBytes - 8
            : 24;
    const std::size_t n = std::max<std::size_t>(1, budget / 24);
    std::vector<rta::Tuple> tuples;
    tuples.reserve(n);
    // Zipf-ish popularity: favor low vocabulary indices.
    for (std::size_t i = 0; i < n; ++i) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform() * rng.uniform() * static_cast<double>(vocab->size()));
      rta::Tuple t;
      t.key = (*vocab)[std::min(pick, vocab->size() - 1)];
      t.count = 1;
      tuples.push_back(std::move(t));
    }
    pkt->payload = rta::pack_tuples(tuples);
    return pkt;
  };
}

ClientGen::MakeReq echo_workload(EchoWorkloadParams params) {
  return [params](std::uint64_t /*seq*/, Rng& /*rng*/,
                  netsim::PacketPool& pool) {
    auto pkt = pool.make();
    pkt->dst = params.server;
    pkt->dst_actor = params.actor;
    pkt->msg_type = params.msg_type;
    pkt->frame_size = params.frame_size;
    return pkt;
  };
}

}  // namespace ipipe::workloads
