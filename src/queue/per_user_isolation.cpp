#include "queue/per_user_isolation.hpp"

#include <cassert>

namespace ccc::queue {

PerUserIsolation::PerUserIsolation(Rate default_contract, ByteCount burst_bytes,
                                   ByteCount per_user_capacity_bytes)
    : default_contract_{default_contract},
      burst_{burst_bytes},
      per_user_capacity_{per_user_capacity_bytes} {
  assert(default_contract_.to_bps() > 0.0);
  assert(burst_ > 0 && per_user_capacity_ > 0);
}

void PerUserIsolation::set_contract(sim::UserId user, Rate rate) {
  assert(rate.to_bps() > 0.0);
  contracts_.insert_or_assign(user, rate);
  // If the user's queue already exists its bucket keeps the old rate; in our
  // scenarios contracts are set before traffic starts, so assert that.
  assert(!slots_.contains(user) && "set_contract must precede the user's first packet");
}

PerUserIsolation::UserQueue& PerUserIsolation::queue_for(sim::UserId user) {
  const auto [slot, inserted] =
      slots_.try_emplace(user, static_cast<std::uint32_t>(users_.size()));
  if (inserted) {
    const Rate* contract = contracts_.find(user);
    users_.emplace_back(TokenBucket{contract != nullptr ? *contract : default_contract_, burst_});
    rr_order_.push_back(*slot);
  }
  return users_[*slot];
}

bool PerUserIsolation::enqueue(const sim::Packet& pkt, Time now) {
  ++stats_.enqueued_packets;  // offered (see QdiscStats contract)
  UserQueue& q = queue_for(pkt.user);
  if (q.pkts.bytes() + pkt.size_bytes > per_user_capacity_) {
    stats_.record_drop(pkt);
    return false;
  }
  q.pkts.push(pkt, now);
  backlog_bytes_ += pkt.size_bytes;
  ++backlog_packets_;
  return true;
}

std::optional<sim::Packet> PerUserIsolation::dequeue(Time now) {
  // One full rotation over users, starting at the round-robin cursor; serve
  // the first user whose head packet conforms to their contract.
  for (std::size_t scanned = 0; scanned < rr_order_.size(); ++scanned) {
    const std::uint32_t slot = rr_order_.front();
    rr_order_.pop_front();
    rr_order_.push_back(slot);
    UserQueue& q = users_[slot];
    if (q.pkts.empty()) continue;
    if (!q.bucket.conforms(q.pkts.front().size_bytes, now)) continue;
    sim::Packet pkt = q.pkts.pop_front();
    q.bucket.consume(pkt.size_bytes);
    backlog_bytes_ -= pkt.size_bytes;
    --backlog_packets_;
    ++stats_.dequeued_packets;
    return pkt;
  }
  return std::nullopt;
}

Time PerUserIsolation::next_ready(Time now) const {
  Time earliest = Time::never();
  for (UserQueue& q : users_) {
    if (q.pkts.empty()) continue;
    const Time t = q.bucket.available_at(q.pkts.front().size_bytes, now);
    earliest = std::min(earliest, t);
  }
  return earliest;
}

}  // namespace ccc::queue
