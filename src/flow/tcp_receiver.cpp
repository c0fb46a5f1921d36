#include "flow/tcp_receiver.hpp"

#include <algorithm>
#include <iterator>

namespace ccc::flow {

TcpReceiver::TcpReceiver(sim::Scheduler& sched, ReceiverConfig cfg, sim::PacketSink& ack_out)
    : sched_{sched},
      cfg_{cfg},
      ack_out_{ack_out},
      delayed_ack_timer_{sched, this} {}

TcpReceiver::TcpReceiver(sim::Scheduler& sched, sim::FlowId flow, sim::UserId user,
                         sim::PacketSink& ack_out, ByteCount advertised_window)
    : TcpReceiver{sched,
                  ReceiverConfig{flow, user, advertised_window, Time::zero()},
                  ack_out} {}

void TcpReceiver::deliver(const sim::Packet& pkt) {
  if (pkt.is_ack) return;  // not our direction
  ++packets_received_;

  const std::int64_t start = pkt.seq;
  const std::int64_t end = pkt.seq + pkt.payload_bytes;
  const bool in_order = start <= rcv_nxt_ && end > rcv_nxt_;

  if (end <= rcv_nxt_) {
    ++duplicate_packets_;  // spurious retransmission
  } else if (in_order) {
    rcv_nxt_ = end;
    // Pull the buffered ranges that are now contiguous, in one erase.
    auto pulled = ooo_.begin();
    for (; pulled != ooo_.end() && pulled->start <= rcv_nxt_; ++pulled) {
      rcv_nxt_ = std::max(rcv_nxt_, pulled->end);
      ooo_bytes_ -= pulled->end - pulled->start;
    }
    if (pulled != ooo_.begin()) {
      ooo_.erase(ooo_.begin(), pulled);
      // Between loss episodes keep kKeptRanges' worth, not a burst's.
      if (ooo_.empty() && ooo_.capacity() > kKeptRanges) ooo_ = {};
    }
  } else {
    buffer_out_of_order(start, end);
  }

  // Delayed-ACK policy applies only to clean in-order arrivals; anything
  // out of order, duplicate, or ECN-marked is ACKed immediately so loss
  // recovery and ECN feedback stay prompt (RFC 5681 §4.2).
  const Echo echo{pkt.sent_at, pkt.ecn_marked};
  if (cfg_.delayed_ack > Time::zero() && in_order && ooo_.empty() && !pkt.ecn_marked) {
    arm_delayed_ack(echo);
  } else {
    emit_ack(echo);
  }
}

void TcpReceiver::buffer_out_of_order(std::int64_t start, std::int64_t end) {
  // The first range starting after `start`; only its predecessor can
  // already hold `start`, and then the bytes go into that range rather than
  // being stored (and counted) twice.
  auto it = std::upper_bound(ooo_.begin(), ooo_.end(), start,
                             [](std::int64_t s, const Range& r) { return s < r.start; });
  if (it != ooo_.begin() && std::prev(it)->end > start) {
    --it;
    ooo_bytes_ -= it->end - it->start;
    it->end = std::max(it->end, end);
  } else {
    if (ooo_.capacity() == 0) {
      ooo_.reserve(kKeptRanges);
      it = ooo_.end();  // the buffer was empty
    }
    it = ooo_.insert(it, Range{start, end});
  }
  // Absorb every successor the range now reaches, adjacent ones included.
  auto next = std::next(it);
  for (; next != ooo_.end() && next->start <= it->end; ++next) {
    it->end = std::max(it->end, next->end);
    ooo_bytes_ -= next->end - next->start;
  }
  ooo_bytes_ += it->end - it->start;
  ooo_.erase(std::next(it), next);
}

void TcpReceiver::arm_delayed_ack(Echo echo) {
  pending_echo_ = echo;
  if (++unacked_data_packets_ >= 2) {
    emit_ack(echo);
    return;
  }
  if (!delayed_ack_timer_.armed()) delayed_ack_timer_.arm_after(cfg_.delayed_ack);
}

void TcpReceiver::on_delayed_ack_fire() {
  if (unacked_data_packets_ > 0) emit_ack(pending_echo_);
}

void TcpReceiver::emit_ack(Echo echo) {
  unacked_data_packets_ = 0;
  delayed_ack_timer_.disarm();

  sim::Packet ack;
  ack.flow = cfg_.flow_id;
  ack.user = cfg_.user;
  ack.is_ack = true;
  ack.size_bytes = sim::kAckBytes;
  ack.ack_seq = rcv_nxt_;
  ack.echo_sent_at = echo.sent_at;
  ack.delivered_bytes = rcv_nxt_;
  ack.received_total = rcv_nxt_ + ooo_bytes_;  // every distinct byte arrived
  ack.receiver_window = cfg_.advertised_window;
  ack.ece = echo.ce;
  ack.sent_at = sched_.now();
  // SACK blocks: advertise up to kMaxSack out-of-order ranges (RFC 2018).
  // Report the *highest* ranges: they pin down high_sacked at the sender,
  // which then infers every unsacked segment below it as lost — the
  // information that makes one-RTT burst-loss repair possible.
  for (auto it = ooo_.rbegin(); it != ooo_.rend() && ack.n_sack < sim::Packet::kMaxSack; ++it) {
    ack.sack[ack.n_sack++] = {it->start, it->end};
  }
  ++acks_sent_;
  ack_out_.deliver(ack);
}

}  // namespace ccc::flow
