// Test double for ActorEnv: backs DMO calls with a private ObjectTable,
// records sent messages, and accumulates (but otherwise ignores) cost
// charges.  Lets data-structure and actor tests run without a full
// simulated node.
#pragma once

#include <vector>

#include "ipipe/actor.h"
#include "ipipe/dmo.h"

namespace ipipe::test {

class FakeEnv : public ActorEnv {
 public:
  explicit FakeEnv(ActorId self = 1, std::uint64_t region = 64 * MiB)
      : self_(self), rng_(99) {
    table_.register_actor(self, region);
  }

  struct Sent {
    NodeId node;
    ActorId actor;
    std::uint16_t type;
    std::vector<std::uint8_t> payload;
    bool is_reply = false;
    bool is_local = false;
    std::uint64_t request_id = 0;
  };

  // ---- ActorEnv ----
  [[nodiscard]] Ns now() const override { return now_; }
  [[nodiscard]] bool on_nic() const override { return on_nic_; }
  [[nodiscard]] ActorId self() const override { return self_; }
  [[nodiscard]] NodeId node() const override { return 0; }
  [[nodiscard]] Rng& rng() override { return rng_; }

  void charge(Ns t) override { charged_ += t; }
  void compute(double units) override { charged_ += static_cast<Ns>(units); }
  void mem(std::uint64_t ws, std::uint64_t n) override {
    mem_accesses_ += n;
    last_mem_ws_ = ws;
  }
  void stream(std::uint64_t, std::uint64_t bytes) override {
    streamed_ += bytes;
  }
  void accel(nic::AccelKind, std::uint32_t, std::uint32_t batch) override {
    accel_items_ += batch;
  }

  void send(NodeId dst_node, ActorId dst_actor, std::uint16_t type,
            std::vector<std::uint8_t> payload, std::uint32_t) override {
    sent.push_back({dst_node, dst_actor, type, std::move(payload), false,
                    false, 0});
  }
  void reply(const netsim::Packet& req, std::uint16_t type,
             std::vector<std::uint8_t> payload, std::uint32_t) override {
    sent.push_back({req.src, req.src_actor, type, std::move(payload), true,
                    false, req.request_id});
  }
  void local_send(ActorId dst_actor, std::uint16_t type,
                  std::vector<std::uint8_t> payload) override {
    sent.push_back({0, dst_actor, type, std::move(payload), false, true, 0});
  }

  struct Timer {
    Ns delay;
    std::uint16_t type;
    std::vector<std::uint8_t> payload;
  };
  void schedule_self(Ns delay, std::uint16_t type,
                     std::vector<std::uint8_t> payload = {}) override {
    timers.push_back({delay, type, std::move(payload)});
  }

  [[nodiscard]] ObjId dmo_alloc(std::uint32_t size) override {
    ObjId id = kInvalidObj;
    (void)table_.alloc(self_, size, side(), id);
    return id;
  }
  bool dmo_free(ObjId id) override {
    return table_.free(self_, id) == DmoStatus::kOk;
  }
  [[nodiscard]] bool dmo_read(ObjId id, std::uint32_t off,
                              std::span<std::uint8_t> out) override {
    ++mem_accesses_;
    return table_.read(self_, id, off, out) == DmoStatus::kOk;
  }
  bool dmo_write(ObjId id, std::uint32_t off,
                 std::span<const std::uint8_t> in) override {
    ++mem_accesses_;
    return table_.write(self_, id, off, in) == DmoStatus::kOk;
  }
  bool dmo_memset(ObjId id, std::uint8_t value, std::uint32_t off,
                  std::uint32_t len) override {
    return table_.memset(self_, id, value, off, len) == DmoStatus::kOk;
  }
  [[nodiscard]] std::uint32_t dmo_size(ObjId id) const override {
    const auto* rec = table_.find(id);
    return rec != nullptr ? rec->size : 0;
  }
  [[nodiscard]] std::uint64_t working_set() const override {
    return table_.working_set(self_);
  }

  // ---- test controls ----
  [[nodiscard]] MemSide side() const {
    return on_nic_ ? MemSide::kNic : MemSide::kHost;
  }
  void set_on_nic(bool v) { on_nic_ = v; }
  void set_now(Ns t) { now_ = t; }
  [[nodiscard]] ObjectTable& table() { return table_; }
  [[nodiscard]] Ns charged() const { return charged_; }
  [[nodiscard]] std::uint64_t mem_accesses() const { return mem_accesses_; }
  /// Working set named by the latest mem() charge.
  [[nodiscard]] std::uint64_t last_mem_ws() const { return last_mem_ws_; }

  std::vector<Sent> sent;
  std::vector<Timer> timers;

 private:
  ActorId self_;
  Rng rng_;
  ObjectTable table_;
  bool on_nic_ = true;
  Ns now_ = 0;
  Ns charged_ = 0;
  std::uint64_t mem_accesses_ = 0;
  std::uint64_t last_mem_ws_ = 0;
  std::uint64_t streamed_ = 0;
  std::uint64_t accel_items_ = 0;
};

}  // namespace ipipe::test
