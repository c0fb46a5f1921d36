// FQ-CoDel (FlowQueue-CoDel), per Hoeiland-Joergensen et al. / RFC 8290.
//
// The combination the paper's §2.1 operator argument leans on hardest in
// practice: stochastic per-flow queues (DRR over a hashed bucket set, with
// the new/old-queue priority trick that gives sparse flows a head start)
// where EACH queue runs its own CoDel sojourn controller. It both isolates
// flows AND keeps standing queues short — Linux's default qdisc since 2016
// and the baseline AQM of the BBRv3/WiFi study the sweep matrix replays.
#pragma once

#include <cstdint>
#include <vector>

#include "queue/codel.hpp"
#include "sim/qdisc.hpp"
#include "util/block_deque.hpp"

namespace ccc::queue {

struct FqCoDelConfig {
  /// Shared buffer across all sub-queues; when exceeded, packets are dropped
  /// from the head of the currently fattest queue (buffer stealing, RFC 8290
  /// §4.1 / Linux fq_codel_drop).
  ByteCount capacity_bytes{0};
  std::uint32_t n_queues{1024};    ///< hash buckets (Linux default)
  ByteCount quantum_bytes{1514};   ///< DRR quantum, one MTU
  Time target{Time::ms(5)};        ///< CoDel target sojourn
  Time interval{Time::ms(100)};    ///< CoDel interval
  std::uint64_t hash_seed{0};      ///< salts the flow->bucket hash
};

class FqCoDelQueue : public sim::Qdisc {
 public:
  explicit FqCoDelQueue(FqCoDelConfig cfg);
  /// Convenience: defaults with the given shared buffer.
  explicit FqCoDelQueue(ByteCount capacity_bytes)
      : FqCoDelQueue{FqCoDelConfig{.capacity_bytes = capacity_bytes}} {}

  bool enqueue(const sim::Packet& pkt, Time now) override;
  std::optional<sim::Packet> dequeue(Time now) override;
  [[nodiscard]] Time next_ready(Time now) const override;
  [[nodiscard]] ByteCount backlog_bytes() const override { return backlog_bytes_; }
  [[nodiscard]] std::size_t backlog_packets() const override { return backlog_packets_; }

  /// Distinct buckets currently backlogged (telemetry / tests).
  [[nodiscard]] std::size_t active_queues() const {
    return new_queues_.size() + old_queues_.size();
  }
  [[nodiscard]] std::uint32_t bucket_of(sim::FlowId flow) const;

 private:
  /// One hashed sub-queue: its FIFO, DRR deficit, and a private CoDel
  /// dropping-state machine (RFC 8290 §4.2: "each queue runs CoDel").
  struct SubQueue {
    PacketFifo fifo;
    ByteCount deficit{0};
    bool on_list{false};  ///< linked into new_queues_ or old_queues_
    CoDelState codel;
  };

  /// Buffer stealing: drop one packet from the head of the fattest queue
  /// (most bytes, lowest bucket index on ties). O(active buckets).
  void drop_from_fattest();

  FqCoDelConfig cfg_;
  std::vector<SubQueue> queues_;
  util::BlockDeque<std::uint32_t> new_queues_;  ///< sparse-flow priority list
  util::BlockDeque<std::uint32_t> old_queues_;
  ByteCount backlog_bytes_{0};
  std::size_t backlog_packets_{0};
};

}  // namespace ccc::queue
