#include "queue/sfq.hpp"

#include <cassert>

#include "util/rng.hpp"

namespace ccc::queue {

SfqQueue::SfqQueue(ByteCount capacity_bytes, std::uint32_t buckets, std::uint64_t perturb_seed,
                   ByteCount quantum_bytes)
    : buckets_{buckets},
      seed_{perturb_seed},
      inner_{capacity_bytes,
             [this](const sim::Packet& p) { return std::uint64_t{bucket_of(p.flow)}; },
             quantum_bytes} {
  assert(buckets_ > 0);
}

std::uint32_t SfqQueue::bucket_of(sim::FlowId flow) const {
  return static_cast<std::uint32_t>(util::splitmix64(flow ^ seed_) % buckets_);
}

bool SfqQueue::enqueue(const sim::Packet& pkt, Time now) {
  const bool admitted = inner_.enqueue(pkt, now);
  stats_ = inner_.stats();
  return admitted;
}

std::optional<sim::Packet> SfqQueue::dequeue(Time now) {
  auto pkt = inner_.dequeue(now);
  stats_ = inner_.stats();
  return pkt;
}

Time SfqQueue::next_ready(Time now) const { return inner_.next_ready(now); }

ByteCount SfqQueue::backlog_bytes() const { return inner_.backlog_bytes(); }

std::size_t SfqQueue::backlog_packets() const { return inner_.backlog_packets(); }

}  // namespace ccc::queue
