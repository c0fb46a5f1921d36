#include "queue/codel.hpp"

#include <cassert>
#include <cmath>

namespace ccc::queue {

namespace {
/// CoDel control law: the next drop time after `count` consecutive drops,
/// interval / sqrt(count) past `t` — drop faster the longer the queue
/// misbehaves.
Time control_law(Time t, Time interval, std::uint32_t count) {
  return t + interval * (1.0 / std::sqrt(static_cast<double>(count == 0 ? 1 : count)));
}
}  // namespace

bool CoDelState::should_drop(const sim::Packet& head, const PacketFifo& fifo, Time target,
                             Time interval, Time now) {
  if ((now - head.enqueued_at) < target || fifo.bytes() < sim::kFullPacket) {
    first_above_time_ = Time::zero();
    return false;
  }
  if (first_above_time_ == Time::zero()) {
    first_above_time_ = now + interval;
    return false;
  }
  return now >= first_above_time_;
}

std::optional<sim::Packet> CoDelState::dequeue(PacketFifo& fifo, Time target, Time interval,
                                               Time now, sim::QdiscStats& stats) {
  if (fifo.empty()) {
    dropping_ = false;
    return std::nullopt;
  }
  sim::Packet head = fifo.pop_front();
  auto mark = [&] {
    head.ecn_marked = true;
    ++stats.ecn_marked_packets;
  };

  if (dropping_) {
    if (!should_drop(head, fifo, target, interval, now)) {
      dropping_ = false;
      return head;
    }
    while (now >= drop_next_) {
      ++count_;
      if (head.ecn_capable) {
        mark();
        drop_next_ = control_law(drop_next_, interval, count_);
        break;  // marked packets are still delivered
      }
      stats.record_drop(head);
      if (fifo.empty()) {
        dropping_ = false;
        return std::nullopt;
      }
      head = fifo.pop_front();
      if (!should_drop(head, fifo, target, interval, now)) {
        dropping_ = false;
        break;
      }
      drop_next_ = control_law(drop_next_, interval, count_);
    }
    return head;
  }

  if (should_drop(head, fifo, target, interval, now)) {
    // Enter dropping state. RFC 8289: if we recently exited dropping state,
    // resume the drop rate rather than restarting from 1.
    dropping_ = true;
    count_ = (count_ > 2 && count_ - last_count_ < count_ / 16) ? count_ - 2 : 1;
    last_count_ = count_;
    drop_next_ = control_law(now, interval, count_);
    if (head.ecn_capable) {
      mark();
    } else {
      stats.record_drop(head);
      if (fifo.empty()) return std::nullopt;
      head = fifo.pop_front();
    }
  }
  return head;
}

CoDelQueue::CoDelQueue(ByteCount capacity_bytes, Time target, Time interval)
    : capacity_bytes_{capacity_bytes}, target_{target}, interval_{interval} {
  assert(capacity_bytes_ > 0);
  assert(Time::zero() < target_ && target_ < interval_);
}

bool CoDelQueue::enqueue(const sim::Packet& pkt, Time now) {
  ++stats_.enqueued_packets;  // offered (see QdiscStats contract)
  if (fifo_.bytes() + pkt.size_bytes > capacity_bytes_) {
    stats_.record_drop(pkt);
    return false;
  }
  fifo_.push(pkt, now);
  return true;
}

std::optional<sim::Packet> CoDelQueue::dequeue(Time now) {
  auto pkt = codel_.dequeue(fifo_, target_, interval_, now, stats_);
  if (pkt) ++stats_.dequeued_packets;
  return pkt;
}

Time CoDelQueue::next_ready(Time now) const {
  return fifo_.empty() ? Time::never() : now;
}

}  // namespace ccc::queue
