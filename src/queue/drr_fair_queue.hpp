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
#include <vector>

#include "queue/packet_fifo.hpp"
#include "sim/qdisc.hpp"
#include "util/block_deque.hpp"
#include "util/flat_map.hpp"

namespace ccc::queue {

/// What a fair queue treats as one "queue".
enum class FairnessKey {
  kPerFlow,  ///< isolate individual flows (ideal FQ)
  kPerUser,  ///< isolate subscribers; a user's own flows share one queue (§2.1)
};

class DrrFairQueue : public sim::Qdisc {
 public:
  /// `capacity_bytes`: shared buffer across all sub-queues; when exceeded the
  /// tail of the longest sub-queue is dropped (buffer stealing, as in
  /// fq_codel), the highest key losing a tie. `quantum_bytes`: DRR quantum,
  /// typically one MTU.
  DrrFairQueue(ByteCount capacity_bytes, FairnessKey key, ByteCount quantum_bytes = 1514);

  bool enqueue(const sim::Packet& pkt, Time now) override;
  std::optional<sim::Packet> dequeue(Time now) override;
  [[nodiscard]] Time next_ready(Time now) const override;
  [[nodiscard]] ByteCount backlog_bytes() const override { return backlog_bytes_; }
  [[nodiscard]] std::size_t backlog_packets() const override { return backlog_packets_; }

  /// Sub-queues in the round-robin rotation: every backlogged one, plus any
  /// that buffer stealing emptied and dequeue has not reached yet.
  [[nodiscard]] std::size_t active_queues() const { return active_.size(); }

 private:
  struct SubQueue {
    std::uint64_t key{0};
    PacketFifo pkts;
    ByteCount deficit{0};
  };

  /// Buffer stealing: drop the tail of the longest sub-queue (most bytes,
  /// highest key on ties). O(sub-queues in the rotation).
  void drop_from_longest();
  /// Takes the emptied sub-queue at the front of the rotation out of it. Per
  /// DRR it forfeits its deficit; its key is unmapped and its slot reused.
  void retire_front();

  ByteCount capacity_bytes_;
  FairnessKey fairness_;
  ByteCount quantum_;
  ByteCount backlog_bytes_{0};
  std::size_t backlog_packets_{0};
  // A key is mapped to a slot exactly while its sub-queue is in active_.
  std::vector<SubQueue> queues_;
  util::FlatMap<std::uint32_t> slots_;  // key -> index in queues_
  std::vector<std::uint32_t> free_;     // unmapped slots
  util::BlockDeque<std::uint32_t> active_;  // round-robin order of slots
};

}  // namespace ccc::queue
