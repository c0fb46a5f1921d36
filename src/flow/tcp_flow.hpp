// One end-to-end TCP flow: app + CCA + sender + receiver + reverse path,
// wired into a scenario's shared forward path.
//
// Topology per flow (the standard dumbbell used throughout the paper's
// experiments):
//
//   sender --> [shared forward path: qdisc+link] --> demux --> receiver
//      ^                                                          |
//      +------------------ DelayLine (reverse) --------------–----+
#pragma once

#include <cassert>
#include <memory>

#include "app/app.hpp"
#include "cca/cca.hpp"
#include "flow/tcp_receiver.hpp"
#include "flow/tcp_sender.hpp"
#include "sim/demux.hpp"
#include "sim/link.hpp"

namespace ccc::flow {

struct TcpFlowConfig {
  sim::FlowId flow_id{1};
  sim::UserId user{1};
  Time start_at{Time::zero()};
  /// One-way reverse-path delay (ACK return). Forward delay comes from the
  /// shared link; base RTT = forward prop + reverse delay.
  Time reverse_delay{Time::ms(50)};
  ByteCount receiver_window{1 << 30};
  /// Delayed-ACK interval for the receiver (zero = ACK every packet).
  Time delayed_ack{Time::zero()};
  SenderConfig sender;  ///< flow_id/user fields are overwritten from above
};

/// Owns all per-flow objects and registers the receiver with the scenario's
/// demux. Immovable (components hold references to each other).
class TcpFlow {
 public:
  /// `forward` is the entry of the shared data path (usually the bottleneck
  /// link); `demux` is the far-end packet router. Both must outlive us.
  TcpFlow(sim::Scheduler& sched, TcpFlowConfig cfg, std::unique_ptr<cca::CongestionControl> cc,
          std::unique_ptr<app::App> source, sim::PacketSink& forward, sim::FlowDemux& demux);

  TcpFlow(const TcpFlow&) = delete;
  TcpFlow& operator=(const TcpFlow&) = delete;

  [[nodiscard]] TcpSender& sender() { return sender_; }
  [[nodiscard]] const TcpSender& sender() const { return sender_; }
  [[nodiscard]] TcpReceiver& receiver() { return receiver_; }
  [[nodiscard]] const TcpReceiver& receiver() const { return receiver_; }
  [[nodiscard]] app::App& source() { return *app_; }
  [[nodiscard]] sim::FlowId id() const { return cfg_.flow_id; }

  /// Mean goodput between two absolute times, from receiver-delivered bytes.
  /// (Caller supplies byte counts snapshotted at the interval edges.)
  [[nodiscard]] ByteCount delivered_bytes() const { return receiver_.delivered_bytes(); }

  /// True once the scheduler can no longer reach the flow: the sender has
  /// completed (so it started, and neither it nor its app schedules again),
  /// none of its timers (RTO, pacing, delayed ACK) holds a heap entry, and
  /// no ACK is in the reverse pipe. Forward data reaches the receiver only
  /// through the demux, so the owner must have deregistered the flow's id.
  [[nodiscard]] bool quiescent() const {
    return sender_.completed() && sender_.timer_entries() == 0 &&
           receiver_.timer_entries() == 0 && reverse_.in_flight() == 0;
  }
  /// Gives the reverse pipe back to the scheduler, so the flow can be
  /// destroyed mid-run. Precondition: quiescent(); destroy the flow next.
  void release_reverse_path() {
    assert(quiescent() && "only a quiescent flow can be retired");
    reverse_.release();
  }

 private:
  TcpFlowConfig cfg_;
  std::unique_ptr<app::App> app_;
  sim::DelayLine reverse_;   // receiver -> sender (constructed before endpoints)
  TcpSender sender_;
  TcpReceiver receiver_;
};

}  // namespace ccc::flow
