// TCP-like receiver: cumulative ACKs with out-of-order reassembly, SACK
// generation, optional delayed ACKs, and a configurable advertised window
// (the RWndLimited lever of §3.1's analysis).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/packet.hpp"
#include "sim/scheduler.hpp"
#include "sim/timer.hpp"

namespace ccc::flow {

struct ReceiverConfig {
  sim::FlowId flow_id{1};
  sim::UserId user{1};
  /// Advertised flow-control window. Small values make the flow
  /// receiver-limited, reproducing the RWndLimited population of M-Lab data.
  ByteCount advertised_window{1 << 30};
  /// If > zero, in-order data packets are ACKed lazily: every second packet
  /// immediately (RFC 5681's 1-per-2), otherwise after this delay. Zero =
  /// quickack (every packet), the default for crisp rate estimation.
  Time delayed_ack{Time::zero()};
};

class TcpReceiver : public sim::PacketSink {
 public:
  /// ACKs are emitted into `ack_out` (the reverse path).
  TcpReceiver(sim::Scheduler& sched, ReceiverConfig cfg, sim::PacketSink& ack_out);

  /// Back-compat convenience constructor.
  TcpReceiver(sim::Scheduler& sched, sim::FlowId flow, sim::UserId user,
              sim::PacketSink& ack_out, ByteCount advertised_window = 1 << 30);

  /// Data ingress.
  void deliver(const sim::Packet& pkt) override;

  /// Cumulative in-order bytes received.
  [[nodiscard]] ByteCount delivered_bytes() const { return rcv_nxt_; }
  [[nodiscard]] std::uint64_t packets_received() const { return packets_received_; }
  [[nodiscard]] std::uint64_t duplicate_packets() const { return duplicate_packets_; }
  [[nodiscard]] std::uint64_t acks_sent() const { return acks_sent_; }
  /// Idle wake-ups of the delayed-ACK timer (sim::Timer::idle_wakeups).
  [[nodiscard]] std::uint64_t timer_idle_wakeups() const {
    return delayed_ack_timer_.idle_wakeups();
  }
  /// Heap entries pointing at the delayed-ACK timer (sim::Timer::entries).
  [[nodiscard]] std::uint32_t timer_entries() const { return delayed_ack_timer_.entries(); }

 private:
  /// Buffers out-of-order bytes [start, end), start > rcv_nxt_.
  void buffer_out_of_order(std::int64_t start, std::int64_t end);
  /// What an ACK echoes of the data packet it acknowledges.
  struct Echo {
    Time sent_at;
    bool ce;  ///< the data packet's CE mark
  };
  void emit_ack(Echo echo);
  void arm_delayed_ack(Echo echo);
  void on_delayed_ack_fire();

  sim::Scheduler& sched_;
  ReceiverConfig cfg_;
  sim::PacketSink& ack_out_;

  struct Range {
    std::int64_t start;
    std::int64_t end;
  };
  std::int64_t rcv_nxt_{0};
  /// Out-of-order ranges above rcv_nxt_, ascending and disjoint. A range
  /// absorbs the successors it reaches, so one repair joins the run above
  /// it; a range that only touches its predecessor stays separate, which
  /// keeps the newest arrivals in their own SACK blocks. A flat vector, not
  /// a node-based map: the reassembly buffer frees nothing per packet. Its
  /// first range reserves kKeptRanges, and a drain keeps that capacity and
  /// releases only a larger one, so loss episodes do not regrow it.
  std::vector<Range> ooo_;
  static constexpr std::size_t kKeptRanges = 8;
  ByteCount ooo_bytes_{0};  ///< total length of ooo_
  std::uint64_t packets_received_{0};
  std::uint64_t duplicate_packets_{0};
  std::uint64_t acks_sent_{0};

  // Delayed-ACK state.
  int unacked_data_packets_{0};
  sim::Timer<&TcpReceiver::on_delayed_ack_fire> delayed_ack_timer_;
  Echo pending_echo_{Time::zero(), false};  ///< what the delayed ACK will echo
};

}  // namespace ccc::flow
