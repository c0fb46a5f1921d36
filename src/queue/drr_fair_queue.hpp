// Deficit-round-robin fair queueing (Demers/Keshav/Shenker via Shreedhar &
// Varghese's DRR approximation).
//
// The paper's central §2.1 claim is that "a universal deployment of fair
// queueing would entirely eliminate the role of CCA dynamics in determining
// bandwidth allocations." This qdisc is how we test that claim: keyed
// per-flow it isolates flows from each other; keyed per-user it models
// operator isolation that still allows one user's flows to contend.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "queue/packet_fifo.hpp"
#include "sim/qdisc.hpp"
#include "util/block_deque.hpp"

namespace ccc::queue {

/// What a fair queue treats as one "queue".
enum class FairnessKey {
  kPerFlow,  ///< isolate individual flows (ideal FQ)
  kPerUser,  ///< isolate subscribers; a user's own flows share one queue (§2.1)
};

class DrrFairQueue : public sim::Qdisc {
 public:
  /// Maps a packet to the sub-queue it belongs to.
  using KeyFn = std::function<std::uint64_t(const sim::Packet&)>;

  /// `capacity_bytes`: shared buffer across all sub-queues; when exceeded the
  /// longest sub-queue's tail is dropped (buffer stealing, as in fq_codel).
  /// `quantum_bytes`: DRR quantum, typically one MTU.
  DrrFairQueue(ByteCount capacity_bytes, FairnessKey key, ByteCount quantum_bytes = 1514);

  /// Same, with an arbitrary classification function (used by SFQ to key on
  /// a hash bucket). Precondition: key_fn is callable.
  DrrFairQueue(ByteCount capacity_bytes, KeyFn key_fn, ByteCount quantum_bytes = 1514);

  bool enqueue(const sim::Packet& pkt, Time now) override;
  std::optional<sim::Packet> dequeue(Time now) override;
  [[nodiscard]] Time next_ready(Time now) const override;
  [[nodiscard]] ByteCount backlog_bytes() const override { return backlog_bytes_; }
  [[nodiscard]] std::size_t backlog_packets() const override { return backlog_packets_; }

  /// Number of distinct sub-queues currently backlogged.
  [[nodiscard]] std::size_t active_queues() const { return active_.size(); }

 private:
  struct SubQueue {
    PacketFifo pkts;
    ByteCount deficit{0};
    bool active{false};
  };

  [[nodiscard]] std::uint64_t key_of(const sim::Packet& pkt) const;
  void drop_from_longest();

  ByteCount capacity_bytes_;
  KeyFn key_fn_;
  ByteCount quantum_;
  ByteCount backlog_bytes_{0};
  std::size_t backlog_packets_{0};
  std::unordered_map<std::uint64_t, SubQueue> queues_;
  util::BlockDeque<std::uint64_t> active_;  // round-robin order of backlogged keys
};

}  // namespace ccc::queue
