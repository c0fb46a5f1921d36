// Copa (Arun & Balakrishnan, NSDI '18): practical delay-based control.
//
// The paper (§3.2) names Copa as the other mode-switching CCA besides
// Nimbus; §5.1 points to it as the style of CCA that matters in a
// post-contention Internet. We implement Copa's default (delay) mode: steer
// the sending rate toward 1/(delta * queueing-delay) with a velocity term.
// (Copa's TCP-competitive mode switch is intentionally not engaged in any
// experiment, matching the paper's use of mode-switching CCAs as probes.)
#pragma once

#include "cca/cca.hpp"
#include "util/monotone_max.hpp"

namespace ccc::cca {

class Copa : public CongestionControl {
 public:
  /// `delta`: aggressiveness; 0.5 targets ~2 packets of queue per flow.
  explicit Copa(ByteCount initial_cwnd = kInitialWindowBytes, ByteCount mss = sim::kMss,
                double delta = 0.5);

  void on_ack(const AckEvent& ev) override;
  void on_loss(const LossEvent& ev) override;
  void on_rto(Time now) override;
  [[nodiscard]] ByteCount cwnd_bytes() const override { return cwnd_; }
  [[nodiscard]] Rate pacing_rate() const override;
  [[nodiscard]] std::string_view name() const override { return "copa"; }

  [[nodiscard]] Time queueing_delay() const;
  /// Min RTT over the whole 10 s window (propagation estimate); never() if
  /// the window is empty.
  [[nodiscard]] Time min_rtt() const { return rtt_window_.best_or(Time::never()); }
  /// Min RTT over the last max(srtt/2, 1 ms) (standing queue estimate).
  [[nodiscard]] Time standing_rtt() const { return standing_window_.best_or(Time::never()); }

 private:
  void expire(Time now);

  ByteCount mss_;
  double delta_;
  ByteCount cwnd_;
  double velocity_{1.0};
  bool direction_up_{true};
  int same_direction_rtts_{0};
  Time last_direction_check_{Time::zero()};
  bool in_slow_start_{true};

  Time srtt_{Time::zero()};
  // Windowed minima of the RTT samples, keyed by ACK time.
  util::MonotoneMin<Time, Time> rtt_window_;       // 10 s
  util::MonotoneMin<Time, Time> standing_window_;  // max(srtt/2, 1 ms)
};

}  // namespace ccc::cca
