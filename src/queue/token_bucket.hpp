// Token-bucket primitives: shaping and policing.
//
// These model the operator mechanisms the paper says dominate allocations
// (§2.1): *shaping* queues a user's excess traffic and releases it at the
// contracted rate (the common "you bought 100 Mbit/s" enforcement); a
// *policer* instead drops excess immediately (Flach et al. found policing on
// 7% of paths). §5.2 also notes that token-bucket burst allowances create
// jitter, which the jitter bench measures.
#pragma once

#include <memory>

#include "queue/packet_fifo.hpp"
#include "sim/qdisc.hpp"

namespace ccc::queue {

/// The token-bucket accounting itself, shared by shaper and policer.
/// Tokens are in bytes, accrue at `rate`, and cap at `burst_bytes`.
class TokenBucket {
 public:
  /// Starts full. Preconditions: rate > 0, burst >= one full packet.
  TokenBucket(Rate rate, ByteCount burst_bytes);

  /// Accrues tokens up to `now`.
  void refill(Time now);
  /// True if `bytes` tokens are available right now (after refill).
  [[nodiscard]] bool conforms(ByteCount bytes, Time now);
  /// Consumes tokens (may drive the bucket negative if forced=true — not
  /// used by default; shapers only consume when conforming).
  void consume(ByteCount bytes);
  /// Earliest time at which `bytes` tokens will be available.
  [[nodiscard]] Time available_at(ByteCount bytes, Time now);

  [[nodiscard]] Rate rate() const { return rate_; }
  [[nodiscard]] double tokens() const { return tokens_; }

 private:
  Rate rate_;
  ByteCount burst_;
  double tokens_;  // fractional tokens avoid quantization at low rates
  Time last_refill_{Time::zero()};
};

/// Shaper: FIFO + token bucket on the dequeue side. Holds packets until
/// tokens accrue; drops only on buffer overflow.
class TokenBucketShaper : public sim::Qdisc {
 public:
  TokenBucketShaper(Rate rate, ByteCount burst_bytes, ByteCount capacity_bytes);

  bool enqueue(const sim::Packet& pkt, Time now) override;
  std::optional<sim::Packet> dequeue(Time now) override;
  [[nodiscard]] Time next_ready(Time now) const override;
  [[nodiscard]] ByteCount backlog_bytes() const override { return fifo_.bytes(); }
  [[nodiscard]] std::size_t backlog_packets() const override { return fifo_.size(); }

 private:
  mutable TokenBucket bucket_;  // refill() mutates during const next_ready()
  ByteCount capacity_bytes_;
  PacketFifo fifo_;
};

/// Policer: token bucket on the *enqueue* side; non-conforming packets are
/// dropped immediately, conforming ones pass into an inner qdisc.
class Policer : public sim::Qdisc {
 public:
  /// Takes ownership of `inner`. Precondition: inner non-null.
  Policer(Rate rate, ByteCount burst_bytes, std::unique_ptr<sim::Qdisc> inner);

  bool enqueue(const sim::Packet& pkt, Time now) override;
  std::optional<sim::Packet> dequeue(Time now) override;
  [[nodiscard]] Time next_ready(Time now) const override;
  [[nodiscard]] ByteCount backlog_bytes() const override { return inner_->backlog_bytes(); }
  [[nodiscard]] std::size_t backlog_packets() const override { return inner_->backlog_packets(); }

  /// Packets dropped by the policer itself (excludes inner-qdisc drops).
  [[nodiscard]] std::uint64_t policed_drops() const { return policed_drops_; }

 private:
  /// Re-derives the combined policer+inner ledger (stats() rolls both up so
  /// the QdiscStats conservation contract holds at this layer too).
  void sync_stats();

  TokenBucket bucket_;
  std::unique_ptr<sim::Qdisc> inner_;
  std::uint64_t policed_drops_{0};
  ByteCount policed_bytes_{0};
};

}  // namespace ccc::queue
