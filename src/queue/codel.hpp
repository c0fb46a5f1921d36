// CoDel (Controlled Delay) AQM, per Nichols & Jacobson / RFC 8289.
//
// AQM keeps standing queues short without per-flow state. In the isolation
// ablation (E1) CoDel represents "modern default home-router queueing":
// it controls delay but, unlike FQ, does not by itself isolate flows, so
// CCA contention still determines shares under CoDel.
#pragma once

#include <cstdint>

#include "queue/packet_fifo.hpp"
#include "sim/qdisc.hpp"

namespace ccc::queue {

/// The RFC 8289 dropping-state machine for one FIFO. CoDelQueue runs one;
/// FqCoDelQueue runs one per bucket (RFC 8290 §4.2: "each queue runs CoDel").
class CoDelState {
 public:
  /// Pops `fifo`'s head, dropping or CE-marking heads per the control law,
  /// and returns the packet to transmit, or nullopt if the FIFO drained.
  /// Drops and marks go to `stats`; counting the dequeue is the caller's.
  /// ECN-capable packets are marked instead of dropped (RFC 8289 §3); the
  /// state machine advances identically either way.
  std::optional<sim::Packet> dequeue(PacketFifo& fifo, Time target, Time interval, Time now,
                                     sim::QdiscStats& stats);

 private:
  /// Has the sojourn exceeded target continuously for an interval? The
  /// standing-queue test reads `fifo`'s own backlog, so under FQ-CoDel one
  /// bulk flow cannot put a sparse flow's queue into dropping state.
  bool should_drop(const sim::Packet& head, const PacketFifo& fifo, Time target, Time interval,
                   Time now);

  bool dropping_{false};
  std::uint32_t count_{0};
  std::uint32_t last_count_{0};
  Time first_above_time_{Time::zero()};
  Time drop_next_{Time::zero()};
};

class CoDelQueue : public sim::Qdisc {
 public:
  /// `target`: acceptable standing sojourn time (RFC default 5 ms).
  /// `interval`: sliding window in which target must be met (default 100 ms).
  CoDelQueue(ByteCount capacity_bytes, Time target = Time::ms(5), Time interval = Time::ms(100));

  bool enqueue(const sim::Packet& pkt, Time now) override;
  std::optional<sim::Packet> dequeue(Time now) override;
  [[nodiscard]] Time next_ready(Time now) const override;
  [[nodiscard]] ByteCount backlog_bytes() const override { return fifo_.bytes(); }
  [[nodiscard]] std::size_t backlog_packets() const override { return fifo_.size(); }

 private:
  ByteCount capacity_bytes_;
  Time target_;
  Time interval_;
  PacketFifo fifo_;
  CoDelState codel_;
};

}  // namespace ccc::queue
