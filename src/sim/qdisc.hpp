// Queueing-discipline interface.
//
// A Qdisc sits between a link's input and its transmitter. The choice of
// qdisc is the central experimental variable of this reproduction: the paper
// (§2.1) argues that operator-deployed queueing/shaping — not CCA dynamics —
// determines bandwidth allocations. Concrete disciplines live in src/queue.
#pragma once

#include <cstdint>
#include <optional>

#include "sim/packet.hpp"
#include "util/units.hpp"

namespace ccc::sim {

/// Byte/packet counters every qdisc maintains; read by telemetry and benches.
///
/// Accounting contract (enforced by the cross-qdisc conservation test):
///   - `enqueued_packets` counts every packet OFFERED to enqueue(), whether
///     admitted or tail-dropped.
///   - every drop — at admission or later (CoDel head drops, policer
///     rejections) — is counted exactly once in `dropped_packets`.
/// Hence at any instant:
///   enqueued_packets == dequeued_packets + dropped_packets + backlog_packets()
struct QdiscStats {
  std::uint64_t enqueued_packets{0};
  std::uint64_t dequeued_packets{0};
  std::uint64_t dropped_packets{0};
  std::uint64_t ecn_marked_packets{0};
  ByteCount dropped_bytes{0};

  /// Counts one dropped packet and its bytes.
  void record_drop(const Packet& pkt) {
    ++dropped_packets;
    dropped_bytes += pkt.size_bytes;
  }
};

/// Abstract queueing discipline.
///
/// Contract: enqueue() may drop (internally, updating stats) or admit the
/// packet; dequeue() returns the next packet to serialize, or nullopt when
/// the qdisc has nothing eligible *now* (a shaper may hold bytes for later —
/// see next_ready()). All calls carry `now` because shapers are clock-driven.
class Qdisc {
 public:
  virtual ~Qdisc() = default;

  /// Offers a packet. Returns true if admitted, false if dropped.
  virtual bool enqueue(const Packet& pkt, Time now) = 0;

  /// Removes and returns the next packet eligible for transmission at `now`.
  virtual std::optional<Packet> dequeue(Time now) = 0;

  /// Earliest time a currently-queued packet becomes eligible, or
  /// Time::never() if the queue is empty. Work-conserving qdiscs return
  /// `now` whenever non-empty; shapers return the token-availability time.
  [[nodiscard]] virtual Time next_ready(Time now) const = 0;

  /// Total bytes currently queued (for queue-depth telemetry).
  [[nodiscard]] virtual ByteCount backlog_bytes() const = 0;
  /// Total packets currently queued.
  [[nodiscard]] virtual std::size_t backlog_packets() const = 0;

  [[nodiscard]] const QdiscStats& stats() const { return stats_; }

 protected:
  QdiscStats stats_;
};

}  // namespace ccc::sim
