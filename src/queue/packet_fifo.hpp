// The packet FIFO every qdisc stores its packets in.
//
// Each discipline differs in how it picks a queue and when it drops, never
// in how one queue holds packets: a FIFO with a running byte total. Keeping
// that in one place gives every qdisc the same byte accounting and the same
// enqueue timestamp, which CoDel's sojourn test and the Link's sojourn
// histogram both read.
#pragma once

#include <cassert>
#include <cstddef>

#include "sim/packet.hpp"
#include "util/block_deque.hpp"

namespace ccc::queue {

class PacketFifo {
 public:
  /// Appends `pkt`, stamping its `enqueued_at` with `now`.
  void push(const sim::Packet& pkt, Time now) {
    pkts_.emplace_back(pkt).enqueued_at = now;
    bytes_ += pkt.size_bytes;
  }

  /// Removes and returns the head. Precondition: !empty(). Bind it to a
  /// local before returning it as std::optional: returning the call
  /// directly measured ~25% slower in a DropTail loop (GCC 12, -O2).
  sim::Packet pop_front() {
    assert(!empty());
    sim::Packet pkt = pkts_.front();
    pkts_.pop_front();
    bytes_ -= pkt.size_bytes;
    return pkt;
  }

  /// Removes and returns the tail. Precondition: !empty().
  sim::Packet pop_back() {
    assert(!empty());
    sim::Packet pkt = pkts_.back();
    pkts_.pop_back();
    bytes_ -= pkt.size_bytes;
    return pkt;
  }

  /// Head and tail packets; an ECN mark may be written through them.
  /// Precondition: !empty().
  [[nodiscard]] sim::Packet& front() { return pkts_.front(); }
  [[nodiscard]] const sim::Packet& front() const { return pkts_.front(); }
  [[nodiscard]] sim::Packet& back() { return pkts_.back(); }
  [[nodiscard]] const sim::Packet& back() const { return pkts_.back(); }

  [[nodiscard]] bool empty() const { return pkts_.empty(); }
  [[nodiscard]] std::size_t size() const { return pkts_.size(); }
  /// Sum of `size_bytes` over the queued packets.
  [[nodiscard]] ByteCount bytes() const { return bytes_; }

 private:
  // Allocates nothing before the first push (most of FQ-CoDel's 1,024
  // buckets never see a packet) and keeps the blocks it empties until it
  // drains, so a backlog that swings never calls the allocator.
  util::BlockDeque<sim::Packet> pkts_;
  ByteCount bytes_{0};
};

}  // namespace ccc::queue
