// Application workload factories (§5.1):
//   * KV:   16B keys, 95% read / 5% write, zipf(0.99) over 1M keys,
//           value size scales with packet size.
//   * Txn:  multi-key read-write transactions — two reads and one write
//           spread over the participant nodes.
//   * RTA:  synthetic tweet-derived tuples; tuples per request scale with
//           packet size (Twitter dataset stand-in).
//   * Echo: raw frames of a fixed size (characterization experiments).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "netsim/packet.h"
#include "workloads/client.h"

namespace ipipe::workloads {

struct KvWorkloadParams {
  netsim::NodeId server = 0;
  netsim::ActorId consensus_actor = 0;
  std::uint32_t frame_size = 512;
  std::uint64_t num_keys = 1'000'000;
  double zipf_theta = 0.99;
  double read_fraction = 0.95;
  std::uint32_t key_len = 16;
};

/// Returns a ClientGen::MakeReq closure generating RKV requests.
[[nodiscard]] ClientGen::MakeReq kv_workload(KvWorkloadParams params);

/// Read and write set sizes of every generated DT transaction.
inline constexpr unsigned kTxnReads = 2;
inline constexpr unsigned kTxnWrites = 1;

struct TxnWorkloadParams {
  netsim::NodeId coordinator = 0;
  netsim::ActorId coordinator_actor = 0;
  std::vector<netsim::NodeId> participants;
  std::uint32_t frame_size = 512;
  std::uint64_t num_keys = 100'000;
};

[[nodiscard]] ClientGen::MakeReq txn_workload(TxnWorkloadParams params);

/// Words in the synthetic tweet vocabulary.
inline constexpr std::size_t kRtaVocabulary = 4096;

struct RtaWorkloadParams {
  netsim::NodeId worker = 0;
  netsim::ActorId filter_actor = 0;
  std::uint32_t frame_size = 512;
};

[[nodiscard]] ClientGen::MakeReq rta_workload(RtaWorkloadParams params);

struct EchoWorkloadParams {
  netsim::NodeId server = 0;
  std::uint32_t frame_size = 64;
  netsim::ActorId actor = netsim::kForwardOnly;
  std::uint16_t msg_type = 0;
};

[[nodiscard]] ClientGen::MakeReq echo_workload(EchoWorkloadParams params);

/// Key helper shared with tests: zero-padded zipf key of fixed length.
[[nodiscard]] std::string make_key(std::uint64_t id, std::uint32_t len);

}  // namespace ipipe::workloads
