#include "queue/drop_tail.hpp"

#include <cassert>

namespace ccc::queue {

DropTailQueue::DropTailQueue(ByteCount capacity_bytes, ByteCount ecn_threshold_bytes)
    : capacity_bytes_{capacity_bytes}, ecn_threshold_{ecn_threshold_bytes} {
  assert(capacity_bytes_ > 0);
}

bool DropTailQueue::enqueue(const sim::Packet& pkt, Time now) {
  ++stats_.enqueued_packets;  // offered (see QdiscStats contract)
  if (fifo_.bytes() + pkt.size_bytes > capacity_bytes_) {
    stats_.record_drop(pkt);
    return false;
  }
  const bool mark = ecn_threshold_ > 0 && pkt.ecn_capable && fifo_.bytes() >= ecn_threshold_;
  fifo_.push(pkt, now);
  if (mark) {
    fifo_.back().ecn_marked = true;
    ++stats_.ecn_marked_packets;
  }
  return true;
}

std::optional<sim::Packet> DropTailQueue::dequeue(Time /*now*/) {
  if (fifo_.empty()) return std::nullopt;
  sim::Packet pkt = fifo_.pop_front();
  ++stats_.dequeued_packets;
  return pkt;
}

Time DropTailQueue::next_ready(Time now) const {
  return fifo_.empty() ? Time::never() : now;
}

}  // namespace ccc::queue
