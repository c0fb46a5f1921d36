// Per-user isolation: the qdisc that models an access ISP's subscriber
// enforcement (paper §2.1).
//
// Each user (subscriber) gets a token-bucket contract — the rate they pay
// for — and a dedicated queue; the scheduler round-robins across users whose
// heads conform. Flows *within* one user still share that user's FIFO, which
// is exactly the paper's point: operator isolation is per-user, so the only
// surviving venue for CCA contention is among a single user's own flows.
#pragma once

#include <cstdint>
#include <vector>

#include "queue/packet_fifo.hpp"
#include "queue/token_bucket.hpp"
#include "sim/qdisc.hpp"
#include "util/block_deque.hpp"
#include "util/flat_map.hpp"

namespace ccc::queue {

class PerUserIsolation : public sim::Qdisc {
 public:
  /// `default_contract`: rate applied to users with no explicit plan.
  /// `burst_bytes`: token-bucket burst per user.
  /// `per_user_capacity_bytes`: buffer each user's queue may hold.
  PerUserIsolation(Rate default_contract, ByteCount burst_bytes,
                   ByteCount per_user_capacity_bytes);

  /// Assigns a specific contracted rate to one user (their "plan").
  void set_contract(sim::UserId user, Rate rate);

  bool enqueue(const sim::Packet& pkt, Time now) override;
  std::optional<sim::Packet> dequeue(Time now) override;
  [[nodiscard]] Time next_ready(Time now) const override;
  [[nodiscard]] ByteCount backlog_bytes() const override { return backlog_bytes_; }
  [[nodiscard]] std::size_t backlog_packets() const override { return backlog_packets_; }

 private:
  struct UserQueue {
    explicit UserQueue(TokenBucket tb) : bucket{std::move(tb)} {}
    TokenBucket bucket;
    PacketFifo pkts;
  };

  UserQueue& queue_for(sim::UserId user);

  Rate default_contract_;
  ByteCount burst_;
  ByteCount per_user_capacity_;
  ByteCount backlog_bytes_{0};
  std::size_t backlog_packets_{0};
  util::FlatMap<Rate> contracts_;
  util::FlatMap<std::uint32_t> slots_;        // user -> index in users_
  mutable std::vector<UserQueue> users_;      // buckets refill in next_ready
  util::BlockDeque<std::uint32_t> rr_order_;  // round-robin order of slots
};

}  // namespace ccc::queue
