#include "harness/rkv_durability.h"

#include <algorithm>
#include <utility>

namespace ipipe::bench {
namespace {

// Every probe client retries, frames and links the same way.
constexpr workloads::ClientGen::RetryPolicy kRetry{
    .timeout = msec(80), .max_retries = 4, .backoff = 2.0, .cap = msec(600)};
constexpr std::uint32_t kFrameBytes = 256;
constexpr double kLinkGbps = 10.0;

}  // namespace

std::vector<std::uint8_t> tagged_value(std::uint64_t k) {
  return {static_cast<std::uint8_t>(k), static_cast<std::uint8_t>(k >> 8),
          static_cast<std::uint8_t>(k >> 16), 0xA5};
}

netsim::FaultPlan rkv_chaos_plan(std::uint64_t seed, Ns total) {
  constexpr std::uint64_t kNodes = 3;
  const Ns chaos_start = sec(5);
  const Ns chaos_end = total > sec(160) ? total - sec(130) : total / 2;
  netsim::FaultPlan plan;
  plan.crash(0, chaos_start, sec(10));
  plan.partition({1}, {0, 2}, chaos_start + sec(30), sec(5));
  netsim::FaultModel lossy;
  lossy.drop_prob = 0.02;
  lossy.corrupt_prob = 0.02;
  lossy.dup_prob = 0.01;
  plan.link_fault(lossy, chaos_start + sec(45), sec(5));
  Rng prng(0xC4405000ULL + seed);
  Ns t = chaos_start + sec(60);
  while (t < chaos_end) {
    switch (prng.uniform_u64(4)) {
      case 0:
        plan.crash(static_cast<netsim::NodeId>(prng.uniform_u64(kNodes)), t,
                   sec(5) + static_cast<Ns>(prng.uniform_u64(sec(15))));
        break;
      case 1: {
        const auto lone = static_cast<netsim::NodeId>(prng.uniform_u64(kNodes));
        std::vector<netsim::NodeId> rest;
        for (netsim::NodeId n = 0; n < kNodes; ++n) {
          if (n != lone) rest.push_back(n);
        }
        plan.partition({lone}, std::move(rest), t,
                       sec(3) + static_cast<Ns>(prng.uniform_u64(sec(7))));
        break;
      }
      case 2:
        plan.pcie_corrupt(static_cast<netsim::NodeId>(prng.uniform_u64(kNodes)),
                          0.01, t,
                          sec(2) + static_cast<Ns>(prng.uniform_u64(sec(6))));
        break;
      default:
        plan.link_fault(lossy, t,
                        sec(3) + static_cast<Ns>(prng.uniform_u64(sec(7))));
        break;
    }
    t += sec(20) + static_cast<Ns>(prng.uniform_u64(sec(40)));
  }
  return plan;
}

AckedWriteProbe::AckedWriteProbe(testbed::ParallelCluster& cluster,
                                 RkvProbeGroup group, double rate,
                                 Ns write_end, std::uint64_t seed)
    : cluster_(cluster), group_(std::move(group)), leader_(group_.nodes[0]) {
  writer_.client = &cluster_.add_client(
      kLinkGbps,
      [this, write_end](std::uint64_t seq, Rng&, netsim::PacketPool& pool) {
        std::uint64_t key = 0;
        if (!writer_.queue.empty()) {
          key = writer_.queue.front();
          writer_.queue.pop_front();
        } else if (cluster_.client_sim().now() < write_end) {
          key = next_key_++;
        } else {
          return netsim::PacketPtr{};
        }
        return request(writer_, seq, key, rkv::Op::kPut, pool);
      },
      seed);
  writer_.client->enable_retries(kRetry);
  writer_.client->set_on_reply([this](const netsim::Packet& pkt) {
    auto got = take(writer_, pkt);
    if (!got) return;
    const auto& [key, rep] = *got;
    if (rep.status == rkv::Status::kOk) {
      acked_.insert(key);
      return;
    }
    if (rep.status == rkv::Status::kNotLeader) follow_hint(rep);
    writer_.queue.push_back(key);  // not acknowledged: retry the logical op
  });
  writer_.client->set_on_abandon(
      [this](std::uint64_t rid) { abandon(writer_, rid); });
  writer_.client->start_open_loop(rate, write_end, /*poisson=*/false);
}

void AckedWriteProbe::read_back(double rate, Ns verify_at, Ns end,
                                std::uint64_t seed) {
  reader_.client = &cluster_.add_client(
      kLinkGbps,
      [this](std::uint64_t seq, Rng&, netsim::PacketPool& pool) {
        if (reader_.queue.empty()) return netsim::PacketPtr{};
        const std::uint64_t key = reader_.queue.front();
        reader_.queue.pop_front();
        return request(reader_, seq, key, rkv::Op::kGet, pool);
      },
      seed);
  reader_.client->enable_retries(kRetry);
  reader_.client->set_on_reply([this](const netsim::Packet& pkt) {
    auto got = take(reader_, pkt);
    if (!got) return;
    const auto& [key, rep] = *got;
    if (rep.status == rkv::Status::kOk) {
      if (rep.value == group_.value(key)) {
        ++verified_;
      } else {
        ++mismatched_;
      }
      return;
    }
    if (rep.status == rkv::Status::kNotLeader) {
      follow_hint(rep);
      reader_.queue.push_back(key);
      return;
    }
    // NotFound right after a leader change can be apply lag: retry a few
    // times before declaring the acked write lost.
    if (++not_found_tries_[key] <= 5) {
      reader_.queue.push_back(key);
    } else {
      ++not_found_;
    }
  });
  reader_.client->set_on_abandon(
      [this](std::uint64_t rid) { abandon(reader_, rid); });
  cluster_.client_sim().schedule_at(verify_at, [this, rate, end] {
    for (const std::uint64_t key : acked_) reader_.queue.push_back(key);
    reader_.client->start_open_loop(rate, end, /*poisson=*/false);
  });
}

DurabilityVerdicts AckedWriteProbe::verdicts() const {
  DurabilityVerdicts v;
  v.acked = acked_.size();
  v.verified = verified_;
  v.not_found = not_found_;
  v.mismatched = mismatched_;
  v.unverified = v.acked - (verified_ + not_found_ + mismatched_);
  return v;
}

netsim::PacketPtr AckedWriteProbe::request(Lane& lane, std::uint64_t seq,
                                           std::uint64_t key, rkv::Op op,
                                           netsim::PacketPool& pool) {
  lane.in_flight[seq] = key;
  auto pkt = pool.make();
  pkt->dst = leader_;
  pkt->dst_actor = group_.consensus;
  pkt->msg_type = op == rkv::Op::kPut ? rkv::kClientPut : rkv::kClientGet;
  pkt->frame_size = kFrameBytes;
  rkv::ClientReq req;
  req.op = op;
  req.key = group_.key_prefix + std::to_string(key);
  if (op == rkv::Op::kPut) req.value = group_.value(key);
  pkt->payload = req.encode();
  return pkt;
}

std::optional<std::pair<std::uint64_t, rkv::ClientReply>> AckedWriteProbe::take(
    Lane& lane, const netsim::Packet& pkt) {
  const auto it =
      lane.in_flight.find(workloads::RequestId::seq_of(pkt.request_id));
  if (it == lane.in_flight.end()) return std::nullopt;
  auto rep = rkv::ClientReply::decode(pkt.payload);
  if (!rep) return std::nullopt;
  const std::uint64_t key = it->second;
  lane.in_flight.erase(it);
  return std::make_pair(key, std::move(*rep));
}

void AckedWriteProbe::abandon(Lane& lane, std::uint64_t request_id) {
  const auto it = lane.in_flight.find(workloads::RequestId::seq_of(request_id));
  if (it != lane.in_flight.end()) {
    lane.queue.push_back(it->second);
    lane.in_flight.erase(it);
  }
  // Maybe talking to a dead node: try the next replica in node order.
  const auto& nodes = group_.nodes;
  const auto pos = std::find(nodes.begin(), nodes.end(), leader_);
  leader_ = nodes[(static_cast<std::size_t>(pos - nodes.begin()) + 1) %
                  nodes.size()];
}

void AckedWriteProbe::follow_hint(const rkv::ClientReply& rep) {
  const auto& nodes = group_.nodes;
  if (!rep.value.empty() &&
      std::find(nodes.begin(), nodes.end(), rep.value[0]) != nodes.end()) {
    leader_ = rep.value[0];
  }
}

}  // namespace ipipe::bench
