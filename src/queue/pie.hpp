// PIE (Proportional Integral controller Enhanced), per Pan et al. /
// RFC 8033.
//
// The cable-modem AQM (DOCSIS 3.1 mandates a PIE variant): instead of
// CoDel's head-of-queue sojourn test it maintains a drop PROBABILITY,
// updated every t_update by a PI controller on the estimated queueing
// delay, and applies it at enqueue. Completes the AQM axis of the sweep
// matrix (DropTail / CoDel / FQ-CoDel / PIE) so contention outcomes can be
// compared across the deployed-AQM spectrum.
#pragma once

#include <cstdint>

#include "queue/packet_fifo.hpp"
#include "sim/qdisc.hpp"
#include "util/rng.hpp"

namespace ccc::queue {

struct PieConfig {
  ByteCount capacity_bytes{0};
  Time target{Time::ms(15)};        ///< QDELAY_REF (RFC 8033 default)
  Time t_update{Time::ms(15)};      ///< control-law update period
  double alpha{0.125};              ///< proportional gain, 1/s
  double beta{1.25};                ///< integral gain, 1/s
  Time max_burst{Time::ms(150)};    ///< initial burst allowance
  /// Below this drop probability, ECN-capable packets are marked instead of
  /// dropped (RFC 8033 §5.1 mark_ecnth).
  double mark_ecnth{0.1};
  /// Seed for the enqueue-time random drop decision. Runs with equal seeds
  /// are byte-identical; the sweep derives it from the cell seed.
  std::uint64_t seed{0x9e3779b9};
};

class PieQueue : public sim::Qdisc {
 public:
  explicit PieQueue(PieConfig cfg);
  explicit PieQueue(ByteCount capacity_bytes)
      : PieQueue{PieConfig{.capacity_bytes = capacity_bytes}} {}

  bool enqueue(const sim::Packet& pkt, Time now) override;
  std::optional<sim::Packet> dequeue(Time now) override;
  [[nodiscard]] Time next_ready(Time now) const override;
  [[nodiscard]] ByteCount backlog_bytes() const override { return fifo_.bytes(); }
  [[nodiscard]] std::size_t backlog_packets() const override { return fifo_.size(); }

  /// Current drop probability (telemetry / tests).
  [[nodiscard]] double drop_probability() const { return drop_prob_; }
  /// Current queueing-delay estimate.
  [[nodiscard]] Time qdelay_estimate() const { return qdelay_; }

 private:
  /// Runs the periodic control-law update(s) owed as of `now`. Called
  /// lazily from enqueue/dequeue — qdiscs are not clock-driven objects.
  void maybe_update(Time now);
  /// The RFC 8033 §5.1 early-drop decision for an arriving packet.
  [[nodiscard]] bool should_early_drop();

  PieConfig cfg_;
  Rng rng_;
  PacketFifo fifo_;

  double drop_prob_{0.0};
  Time qdelay_{Time::zero()};      ///< latest delay estimate
  Time qdelay_old_{Time::zero()};  ///< previous estimate (integral term)
  Time burst_allowance_{Time::zero()};
  Time next_update_{Time::zero()};
  bool started_{false};

  // Departure-rate estimation (RFC 8033 §5.2): bytes drained since the
  // measurement cycle began over the cycle's wall time.
  Time dq_start_{Time::zero()};
  ByteCount dq_count_{0};
  double avg_drain_bytes_per_sec_{0.0};
  static constexpr ByteCount kDqThreshold = 16 * 1024;  // RFC DQ_THRESHOLD
};

}  // namespace ccc::queue
