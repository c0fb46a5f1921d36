#include "queue/token_bucket.hpp"

#include <cassert>
#include <cmath>

namespace ccc::queue {

TokenBucket::TokenBucket(Rate rate, ByteCount burst_bytes)
    : rate_{rate}, burst_{burst_bytes}, tokens_{static_cast<double>(burst_bytes)} {
  assert(rate_.to_bps() > 0.0);
  assert(burst_ > 0);
}

void TokenBucket::refill(Time now) {
  if (now <= last_refill_) return;
  tokens_ += rate_.bytes_per_sec() * (now - last_refill_).to_sec();
  tokens_ = std::min(tokens_, static_cast<double>(burst_));
  last_refill_ = now;
}

bool TokenBucket::conforms(ByteCount bytes, Time now) {
  refill(now);
  return tokens_ >= static_cast<double>(bytes);
}

void TokenBucket::consume(ByteCount bytes) { tokens_ -= static_cast<double>(bytes); }

Time TokenBucket::available_at(ByteCount bytes, Time now) {
  refill(now);
  const double deficit = static_cast<double>(bytes) - tokens_;
  if (deficit <= 0.0) return now;
  // +1 ns: Time::sec truncates toward zero, so without the bump the caller
  // could poll at the returned instant and find the tokens still a hair
  // short, spinning forever.
  return now + Time::sec(deficit / rate_.bytes_per_sec()) + Time::ns(1);
}

TokenBucketShaper::TokenBucketShaper(Rate rate, ByteCount burst_bytes, ByteCount capacity_bytes)
    : bucket_{rate, burst_bytes}, capacity_bytes_{capacity_bytes} {
  assert(capacity_bytes_ > 0);
}

bool TokenBucketShaper::enqueue(const sim::Packet& pkt, Time now) {
  ++stats_.enqueued_packets;  // offered (see QdiscStats contract)
  if (fifo_.bytes() + pkt.size_bytes > capacity_bytes_) {
    stats_.record_drop(pkt);
    return false;
  }
  fifo_.push(pkt, now);
  return true;
}

std::optional<sim::Packet> TokenBucketShaper::dequeue(Time now) {
  if (fifo_.empty() || !bucket_.conforms(fifo_.front().size_bytes, now)) return std::nullopt;
  sim::Packet pkt = fifo_.pop_front();
  bucket_.consume(pkt.size_bytes);
  ++stats_.dequeued_packets;
  return pkt;
}

Time TokenBucketShaper::next_ready(Time now) const {
  if (fifo_.empty()) return Time::never();
  return bucket_.available_at(fifo_.front().size_bytes, now);
}

Policer::Policer(Rate rate, ByteCount burst_bytes, std::unique_ptr<sim::Qdisc> inner)
    : bucket_{rate, burst_bytes}, inner_{std::move(inner)} {
  assert(inner_ != nullptr);
}

void Policer::sync_stats() {
  // The policer's ledger folds the inner qdisc's in, so every packet offered
  // to the policer is accounted exactly once: policed drop, inner drop
  // (at admission or later, e.g. a CoDel head drop), dequeue, or backlog.
  const sim::QdiscStats& in = inner_->stats();
  stats_.dequeued_packets = in.dequeued_packets;
  stats_.dropped_packets = policed_drops_ + in.dropped_packets;
  stats_.dropped_bytes = policed_bytes_ + in.dropped_bytes;
  stats_.ecn_marked_packets = in.ecn_marked_packets;
}

bool Policer::enqueue(const sim::Packet& pkt, Time now) {
  ++stats_.enqueued_packets;  // offered (see QdiscStats contract)
  bool admitted = false;
  if (bucket_.conforms(pkt.size_bytes, now)) {
    bucket_.consume(pkt.size_bytes);
    admitted = inner_->enqueue(pkt, now);
  } else {
    ++policed_drops_;
    policed_bytes_ += pkt.size_bytes;
  }
  sync_stats();
  return admitted;
}

std::optional<sim::Packet> Policer::dequeue(Time now) {
  auto pkt = inner_->dequeue(now);
  sync_stats();
  return pkt;
}

Time Policer::next_ready(Time now) const { return inner_->next_ready(now); }

}  // namespace ccc::queue
