// The packet model shared by the simulator, qdiscs, and endpoints.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/units.hpp"

namespace ccc::sim {

/// Identifies a transport flow end to end. Assigned by the scenario builder;
/// 0 is reserved for "no flow" (e.g. synthetic background packets).
using FlowId = std::uint32_t;

/// Identifies the *user* (subscriber) a flow belongs to. Operator isolation
/// mechanisms (paper §2.1) act per user, not per flow, so qdiscs that model
/// them key on this field.
using UserId = std::uint32_t;

/// One simulated packet. Data and ACK packets share this struct; `is_ack`
/// discriminates. We simulate at packet granularity but do not model byte
/// contents — only the header fields congestion control and queueing need.
///
/// Fields run widest first, with every flag at the end, so the struct has no
/// padding holes: a data packet is copied into the qdisc, out of it and into
/// the packet pool, and each copy moves sizeof(Packet) bytes.
struct Packet {
  FlowId flow{0};
  UserId user{0};
  ByteCount size_bytes{0};  ///< wire size, including an assumed header

  // --- data packet fields ---
  std::int64_t seq{0};          ///< first payload byte carried
  ByteCount payload_bytes{0};   ///< payload length (seq..seq+payload)
  Time sent_at{Time::zero()};   ///< transmit timestamp (echoed in ACKs)

  // --- ACK fields ---
  std::int64_t ack_seq{0};            ///< cumulative: all bytes < ack_seq received
  Time echo_sent_at{Time::zero()};    ///< sent_at of the packet being ACKed
  ByteCount receiver_window{0};       ///< flow-control window advertised by receiver
  std::int64_t delivered_bytes{0};    ///< receiver's in-order delivered counter
  /// Total distinct payload bytes that have ARRIVED (in-order + buffered
  /// out-of-order). Monotone and arrival-paced, so ACK spacing of this
  /// counter is the ground-truth delivery rate even during loss recovery.
  std::int64_t received_total{0};

  /// SACK blocks (RFC 2018): received-but-not-cumulative byte ranges
  /// [start, end). Real TCP fits ~3 in the options space.
  struct SackRange {
    std::int64_t start{0};
    std::int64_t end{0};
  };
  static constexpr int kMaxSack = 3;
  SackRange sack[kMaxSack]{};

  // --- telemetry ---
  /// Stamped by the qdisc's queue::PacketFifo when a qdisc admits the
  /// packet. Sojourn = dequeue time - enqueued_at; CoDel's controller and
  /// the Link's sojourn histogram both read it.
  Time enqueued_at{Time::zero()};

  // --- counts and flags ---
  std::int16_t n_sack{0};          ///< SACK blocks in use (ACKs), <= kMaxSack
  bool is_ack{false};
  bool is_retransmission{false};   ///< data: a repair of an earlier send
  bool ece{false};                 ///< ACK: ECN echo (for ECN-capable qdiscs)
  bool ecn_capable{false};         ///< transport is ECN-capable (ECT)
  bool ecn_marked{false};          ///< CE mark applied by a qdisc
};
static_assert(sizeof(Packet) == 144, "Packet grew: keep its fields widest first");

/// Conventional sizes (Ethernet-ish MTU; 40-byte TCP/IP header abstraction).
inline constexpr ByteCount kHeaderBytes = 40;
inline constexpr ByteCount kMss = 1448;                     ///< payload per full packet
inline constexpr ByteCount kFullPacket = kMss + kHeaderBytes;
inline constexpr ByteCount kAckBytes = kHeaderBytes;

/// Receiver interface: anything that can accept a packet at a point in time.
/// Links deliver into sinks; endpoints and demultiplexers implement this.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void deliver(const Packet& pkt) = 0;

  /// Hands over `n` packets in order; the default delivers each in turn.
  /// The scheduler never calls this (a pipe delivers one packet per event
  /// through deliver()). It stays only because perfbench's TracedSink
  /// overrides it; drop both together.
  virtual void deliver_batch(const Packet* const* pkts, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) deliver(*pkts[i]);
  }
};

}  // namespace ccc::sim
