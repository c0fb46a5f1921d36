// DropTail: the plain FIFO queue with tail drop.
//
// This is the discipline under which CCA contention *can* express itself
// (paper §2.1): with a shared FIFO, the bandwidth split between backlogged
// flows is whatever their CCA dynamics produce. Every contention experiment
// uses DropTail as the "no operator intervention" baseline.
#pragma once

#include "queue/packet_fifo.hpp"
#include "sim/qdisc.hpp"

namespace ccc::queue {

class DropTailQueue : public sim::Qdisc {
 public:
  /// `capacity_bytes`: maximum backlog; arrivals beyond it are dropped.
  /// `ecn_threshold_bytes`: if > 0, ECN-capable packets arriving while the
  /// backlog exceeds this are CE-marked (the classic step-marking AQM that
  /// DCTCP assumes). Precondition: capacity_bytes > 0.
  explicit DropTailQueue(ByteCount capacity_bytes, ByteCount ecn_threshold_bytes = 0);

  bool enqueue(const sim::Packet& pkt, Time now) override;
  std::optional<sim::Packet> dequeue(Time now) override;
  [[nodiscard]] Time next_ready(Time now) const override;
  [[nodiscard]] ByteCount backlog_bytes() const override { return fifo_.bytes(); }
  [[nodiscard]] std::size_t backlog_packets() const override { return fifo_.size(); }

  [[nodiscard]] ByteCount capacity_bytes() const { return capacity_bytes_; }

 private:
  ByteCount capacity_bytes_;
  ByteCount ecn_threshold_;
  PacketFifo fifo_;
};

}  // namespace ccc::queue
