#include "queue/fq_codel.hpp"

#include <cassert>
#include <cmath>

namespace ccc::queue {

namespace {
// splitmix64 finalizer — the same flow->bucket mix SFQ uses.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace

FqCoDelQueue::FqCoDelQueue(FqCoDelConfig cfg) : cfg_{cfg}, queues_(cfg.n_queues) {
  assert(cfg_.capacity_bytes > 0);
  assert(cfg_.n_queues > 0);
  assert(cfg_.quantum_bytes > 0);
  assert(Time::zero() < cfg_.target && cfg_.target < cfg_.interval);
}

std::uint32_t FqCoDelQueue::bucket_of(sim::FlowId flow) const {
  return static_cast<std::uint32_t>(mix64(flow ^ cfg_.hash_seed) % cfg_.n_queues);
}

std::optional<FqCoDelQueue::Timestamped> FqCoDelQueue::pop_head(SubQueue& q) {
  if (q.fifo.empty()) return std::nullopt;
  Timestamped head = q.fifo.front();
  q.fifo.pop_front();
  q.bytes -= head.pkt.size_bytes;
  backlog_bytes_ -= head.pkt.size_bytes;
  --backlog_packets_;
  return head;
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
      if (fattest == nullptr || q.bytes > fattest->bytes ||
          (q.bytes == fattest->bytes && &q < fattest)) {
        fattest = &q;
      }
    }
  }
  if (fattest == nullptr) return;
  auto victim = pop_head(*fattest);
  ++stats_.dropped_packets;
  stats_.dropped_bytes += victim->pkt.size_bytes;
  // A queue emptied by stealing stays on its DRR list; dequeue() unlinks
  // empty queues when it reaches them, keeping list handling in one place.
}

bool FqCoDelQueue::enqueue(const sim::Packet& pkt, Time now) {
  ++stats_.enqueued_packets;  // offered (see QdiscStats contract)
  SubQueue& q = queues_[bucket_of(pkt.flow)];
  q.fifo.push_back({pkt, now});
  q.bytes += pkt.size_bytes;
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

Time FqCoDelQueue::control_law(Time t, std::uint32_t count) const {
  return t + cfg_.interval * (1.0 / std::sqrt(static_cast<double>(count == 0 ? 1 : count)));
}

std::optional<sim::Packet> FqCoDelQueue::codel_dequeue(SubQueue& q, Time now) {
  auto head = pop_head(q);
  if (!head) {
    q.dropping = false;
    return std::nullopt;
  }

  auto sojourn_ok = [&](const Timestamped& ts) { return (now - ts.enqueued_at) < cfg_.target; };
  auto should_drop = [&](const Timestamped& ts) -> bool {
    // The standing-queue test uses THIS queue's backlog: one bulk flow must
    // not put a sparse flow's queue into dropping state (contrast plain
    // CoDel, where all flows share one sojourn controller).
    if (sojourn_ok(ts) || q.bytes < sim::kFullPacket) {
      q.first_above_time = Time::zero();
      return false;
    }
    if (q.first_above_time == Time::zero()) {
      q.first_above_time = now + cfg_.interval;
      return false;
    }
    return now >= q.first_above_time;
  };
  auto mark = [&](Timestamped& ts) {
    ts.pkt.ecn_marked = true;
    ++stats_.ecn_marked_packets;
  };

  if (q.dropping) {
    if (!should_drop(*head)) {
      q.dropping = false;
      return head->pkt;
    }
    while (q.dropping && now >= q.drop_next) {
      ++q.count;
      if (head->pkt.ecn_capable) {
        mark(*head);
        q.drop_next = control_law(q.drop_next, q.count);
        break;  // marked packets are still delivered
      }
      ++stats_.dropped_packets;
      stats_.dropped_bytes += head->pkt.size_bytes;
      head = pop_head(q);
      if (!head || !should_drop(*head)) {
        q.dropping = false;
        break;
      }
      q.drop_next = control_law(q.drop_next, q.count);
    }
    if (!head) return std::nullopt;
    return head->pkt;
  }

  if (should_drop(*head)) {
    q.dropping = true;
    q.count = (q.count > 2 && q.count - q.last_count < q.count / 16) ? q.count - 2 : 1;
    q.last_count = q.count;
    q.drop_next = control_law(now, q.count);
    if (head->pkt.ecn_capable) {
      mark(*head);
    } else {
      ++stats_.dropped_packets;
      stats_.dropped_bytes += head->pkt.size_bytes;
      head = pop_head(q);
      if (!head) return std::nullopt;
    }
  }
  return head->pkt;
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
    auto pkt = codel_dequeue(q, now);
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
