#include "queue/drr_fair_queue.hpp"

#include <algorithm>
#include <cassert>

namespace ccc::queue {

DrrFairQueue::DrrFairQueue(ByteCount capacity_bytes, FairnessKey key, ByteCount quantum_bytes)
    : DrrFairQueue{capacity_bytes,
                   key == FairnessKey::kPerFlow
                       ? KeyFn{[](const sim::Packet& p) { return std::uint64_t{p.flow}; }}
                       : KeyFn{[](const sim::Packet& p) { return std::uint64_t{p.user}; }},
                   quantum_bytes} {}

DrrFairQueue::DrrFairQueue(ByteCount capacity_bytes, KeyFn key_fn, ByteCount quantum_bytes)
    : capacity_bytes_{capacity_bytes}, key_fn_{std::move(key_fn)}, quantum_{quantum_bytes} {
  assert(capacity_bytes_ > 0 && quantum_ > 0);
  assert(key_fn_ != nullptr);
}

std::uint64_t DrrFairQueue::key_of(const sim::Packet& pkt) const { return key_fn_(pkt); }

bool DrrFairQueue::enqueue(const sim::Packet& pkt, Time now) {
  auto& q = queues_[key_of(pkt)];
  q.pkts.push(pkt, now);
  backlog_bytes_ += pkt.size_bytes;
  ++backlog_packets_;
  ++stats_.enqueued_packets;  // offered == admitted here: DRR evicts after admitting
  if (!q.active) {
    q.active = true;
    active_.push_back(key_of(pkt));
  }
  bool admitted = true;
  while (backlog_bytes_ > capacity_bytes_) {
    drop_from_longest();
    admitted = false;  // conservatively report pressure (the drop may have hit us)
  }
  return admitted;
}

void DrrFairQueue::drop_from_longest() {
  // Find the longest sub-queue by bytes and drop its tail packet. This keeps
  // a flooding flow from starving well-behaved ones of buffer space.
  std::uint64_t victim = 0;
  ByteCount longest = -1;
  for (const auto& [key, q] : queues_) {
    if (q.pkts.bytes() > longest) {
      longest = q.pkts.bytes();
      victim = key;
    }
  }
  auto& q = queues_.at(victim);
  assert(!q.pkts.empty());
  const sim::Packet dropped = q.pkts.pop_back();
  backlog_bytes_ -= dropped.size_bytes;
  --backlog_packets_;
  stats_.record_drop(dropped);
  // If the victim queue emptied, it will be lazily removed from active_ in
  // dequeue(); leaving the stale key is harmless.
}

std::optional<sim::Packet> DrrFairQueue::dequeue(Time /*now*/) {
  while (!active_.empty()) {
    const std::uint64_t key = active_.front();
    auto it = queues_.find(key);
    if (it == queues_.end() || it->second.pkts.empty()) {
      // Stale entry left by drop_from_longest(); retire it.
      if (it != queues_.end()) it->second.active = false;
      active_.pop_front();
      continue;
    }
    SubQueue& q = it->second;
    if (q.deficit < q.pkts.front().size_bytes) {
      // Out of deficit: replenish and move to the back of the rotation.
      q.deficit += quantum_;
      active_.pop_front();
      active_.push_back(key);
      continue;
    }
    sim::Packet pkt = q.pkts.pop_front();
    q.deficit -= pkt.size_bytes;
    backlog_bytes_ -= pkt.size_bytes;
    --backlog_packets_;
    ++stats_.dequeued_packets;
    if (q.pkts.empty()) {
      // Per DRR: an emptied queue forfeits its deficit and leaves the list.
      q.deficit = 0;
      q.active = false;
      active_.pop_front();
    }
    return pkt;
  }
  return std::nullopt;
}

Time DrrFairQueue::next_ready(Time now) const {
  return backlog_packets_ == 0 ? Time::never() : now;
}

}  // namespace ccc::queue
