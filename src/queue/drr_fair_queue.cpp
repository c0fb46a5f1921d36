#include "queue/drr_fair_queue.hpp"

#include <cassert>

namespace ccc::queue {

DrrFairQueue::DrrFairQueue(ByteCount capacity_bytes, FairnessKey key, ByteCount quantum_bytes)
    : capacity_bytes_{capacity_bytes}, fairness_{key}, quantum_{quantum_bytes} {
  assert(capacity_bytes_ > 0 && quantum_ > 0);
}

bool DrrFairQueue::enqueue(const sim::Packet& pkt, Time now) {
  const std::uint64_t key = fairness_ == FairnessKey::kPerFlow ? pkt.flow : pkt.user;
  const auto next = static_cast<std::uint32_t>(free_.empty() ? queues_.size() : free_.back());
  const auto [slot, inserted] = slots_.try_emplace(key, next);
  if (inserted) {
    if (free_.empty()) {
      queues_.emplace_back();
    } else {
      free_.pop_back();
    }
    queues_[next].key = key;
    active_.push_back(next);
  }
  queues_[*slot].pkts.push(pkt, now);
  backlog_bytes_ += pkt.size_bytes;
  ++backlog_packets_;
  ++stats_.enqueued_packets;  // offered == admitted here: DRR evicts after admitting
  bool admitted = true;
  while (backlog_bytes_ > capacity_bytes_) {
    drop_from_longest();
    admitted = false;  // conservatively report pressure (the drop may have hit us)
  }
  return admitted;
}

void DrrFairQueue::drop_from_longest() {
  // Drop the longest sub-queue's tail. This keeps a flooding flow from
  // starving well-behaved ones of buffer space. Every backlogged sub-queue
  // is in the rotation, so only it is walked; ties go to the highest key,
  // so the victim never depends on rotation order.
  SubQueue* victim = nullptr;
  for (const std::uint32_t slot : active_) {
    SubQueue& q = queues_[slot];
    if (victim == nullptr || q.pkts.bytes() > victim->pkts.bytes() ||
        (q.pkts.bytes() == victim->pkts.bytes() && q.key > victim->key)) {
      victim = &q;
    }
  }
  assert(victim != nullptr && !victim->pkts.empty());
  const sim::Packet dropped = victim->pkts.pop_back();
  backlog_bytes_ -= dropped.size_bytes;
  --backlog_packets_;
  stats_.record_drop(dropped);
  // A sub-queue emptied here keeps its place in the rotation; dequeue()
  // retires it when it reaches it, unless a new packet refills it first.
}

void DrrFairQueue::retire_front() {
  const std::uint32_t slot = active_.front();
  active_.pop_front();
  SubQueue& q = queues_[slot];
  assert(q.pkts.empty());
  q.deficit = 0;
  slots_.erase(q.key);
  free_.push_back(slot);
}

std::optional<sim::Packet> DrrFairQueue::dequeue(Time /*now*/) {
  while (!active_.empty()) {
    const std::uint32_t slot = active_.front();
    SubQueue& q = queues_[slot];
    if (q.pkts.empty()) {  // emptied by buffer stealing
      retire_front();
      continue;
    }
    if (q.deficit < q.pkts.front().size_bytes) {
      // Out of deficit: replenish and move to the back of the rotation.
      q.deficit += quantum_;
      active_.pop_front();
      active_.push_back(slot);
      continue;
    }
    sim::Packet pkt = q.pkts.pop_front();
    q.deficit -= pkt.size_bytes;
    backlog_bytes_ -= pkt.size_bytes;
    --backlog_packets_;
    ++stats_.dequeued_packets;
    if (q.pkts.empty()) retire_front();
    return pkt;
  }
  return std::nullopt;
}

Time DrrFairQueue::next_ready(Time now) const {
  return backlog_packets_ == 0 ? Time::never() : now;
}

}  // namespace ccc::queue
