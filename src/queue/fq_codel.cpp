#include "queue/fq_codel.hpp"

#include <cassert>

#include "util/rng.hpp"

namespace ccc::queue {

FqCoDelQueue::FqCoDelQueue(FqCoDelConfig cfg) : cfg_{cfg}, queues_(cfg.n_queues) {
  assert(cfg_.capacity_bytes > 0);
  assert(cfg_.n_queues > 0);
  assert(cfg_.quantum_bytes > 0);
  assert(Time::zero() < cfg_.target && cfg_.target < cfg_.interval);
}

std::uint32_t FqCoDelQueue::bucket_of(sim::FlowId flow) const {
  return static_cast<std::uint32_t>(util::splitmix64(flow ^ cfg_.hash_seed) % cfg_.n_queues);
}

void FqCoDelQueue::drop_from_fattest() {
  // Every backlogged bucket is on exactly one of the two DRR lists, so only
  // they are walked. Ties go to the lowest bucket index, so the victim never
  // depends on list order.
  SubQueue* fattest = nullptr;
  for (const auto* list : {&new_queues_, &old_queues_}) {
    for (const std::uint32_t idx : *list) {
      SubQueue& q = queues_[idx];
      if (q.fifo.empty()) continue;
      if (fattest == nullptr || q.fifo.bytes() > fattest->fifo.bytes() ||
          (q.fifo.bytes() == fattest->fifo.bytes() && &q < fattest)) {
        fattest = &q;
      }
    }
  }
  if (fattest == nullptr) return;
  const sim::Packet victim = fattest->fifo.pop_front();
  backlog_bytes_ -= victim.size_bytes;
  --backlog_packets_;
  stats_.record_drop(victim);
  // A queue emptied by stealing stays on its DRR list; dequeue() unlinks
  // empty queues when it reaches them, keeping list handling in one place.
}

bool FqCoDelQueue::enqueue(const sim::Packet& pkt, Time now) {
  ++stats_.enqueued_packets;  // offered (see QdiscStats contract)
  SubQueue& q = queues_[bucket_of(pkt.flow)];
  q.fifo.push(pkt, now);
  backlog_bytes_ += pkt.size_bytes;
  ++backlog_packets_;
  if (!q.on_list) {
    // A newly-active queue enters the new-queue list with a fresh quantum:
    // the sparse-flow fast path (RFC 8290 §1.3).
    q.on_list = true;
    q.deficit = cfg_.quantum_bytes;
    new_queues_.push_back(static_cast<std::uint32_t>(&q - queues_.data()));
  }
  // Buffer stealing instead of tail drop: the arriving packet is admitted
  // and the fattest queue pays. (May evict the packet just added if its own
  // queue is the fattest.)
  while (backlog_bytes_ > cfg_.capacity_bytes) drop_from_fattest();
  return true;
}

std::optional<sim::Packet> FqCoDelQueue::dequeue(Time now) {
  // RFC 8290 §4.2: serve new queues first; an exhausted or emptied new queue
  // migrates to the old-queue list rather than straight out (so a sparse
  // flow that sends again immediately does not re-enter the priority list).
  for (;;) {
    const bool from_new = !new_queues_.empty();
    auto& list = from_new ? new_queues_ : old_queues_;
    if (list.empty()) return std::nullopt;
    const std::uint32_t idx = list.front();
    SubQueue& q = queues_[idx];

    if (q.deficit <= 0) {
      q.deficit += cfg_.quantum_bytes;
      list.pop_front();
      old_queues_.push_back(idx);
      continue;
    }
    // CoDel may head-drop before it yields a packet; the totals follow the
    // bucket FIFO.
    const std::size_t packets_before = q.fifo.size();
    const ByteCount bytes_before = q.fifo.bytes();
    auto pkt = q.codel.dequeue(q.fifo, cfg_.target, cfg_.interval, now, stats_);
    backlog_packets_ -= packets_before - q.fifo.size();
    backlog_bytes_ -= bytes_before - q.fifo.bytes();
    if (!pkt) {
      // Queue drained (possibly via CoDel drops). New->old keeps a returning
      // sparse flow honest; an empty old queue leaves the scheduler.
      list.pop_front();
      if (from_new) {
        old_queues_.push_back(idx);
      } else {
        q.on_list = false;
      }
      continue;
    }
    q.deficit -= pkt->size_bytes;
    ++stats_.dequeued_packets;
    return pkt;
  }
}

Time FqCoDelQueue::next_ready(Time now) const {
  return backlog_packets_ == 0 ? Time::never() : now;
}

}  // namespace ccc::queue
