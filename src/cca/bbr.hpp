// BBR (v1-style): model-based congestion control.
//
// BBR estimates the bottleneck bandwidth (windowed-max of delivery-rate
// samples) and the path's min RTT, paces at gain * btlbw, and caps inflight
// at cwnd_gain * BDP. Like deployed BBRv1 it does not back off on packet
// loss, which is what makes it claim a fixed, often super-fair share against
// loss-based flows — the behaviour the paper cites (§1, ref [2]) and that
// experiment E4 reproduces. BBR is also one of Figure 3's two elastic
// cross-traffic types.
#pragma once

#include "cca/cca.hpp"
#include "util/monotone_max.hpp"

namespace ccc::telemetry {
class Counter;
class Trace;
}  // namespace ccc::telemetry

namespace ccc::cca {

class Bbr : public CongestionControl {
 public:
  explicit Bbr(ByteCount initial_cwnd = kInitialWindowBytes, ByteCount mss = sim::kMss);

  void on_ack(const AckEvent& ev) override;
  void on_loss(const LossEvent& ev) override;
  void on_rto(Time now) override;
  [[nodiscard]] ByteCount cwnd_bytes() const override;
  [[nodiscard]] Rate pacing_rate() const override;
  [[nodiscard]] std::string_view name() const override { return "bbr"; }

  enum class State { kStartup, kDrain, kProbeBw, kProbeRtt };
  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] Rate btlbw() const;
  [[nodiscard]] Time min_rtt() const { return min_rtt_; }

  /// Registers `<prefix>.mode_transitions` (counter) and `<prefix>.mode`
  /// (state timeline, values = State enum) in `reg`.
  void bind_metrics(telemetry::MetricRegistry& reg, const std::string& prefix) override;

 private:
  void update_model(const AckEvent& ev);
  void advance_state_machine(const AckEvent& ev);
  /// All state transitions funnel through here so bound metrics see them.
  void enter_state(State next, Time now);
  void advance_probe_bw_phase(Time now);
  [[nodiscard]] ByteCount bdp_with_gain(double gain) const;
  void start_round(Time now);

  static constexpr double kStartupGain = 2.885;  // 2/ln2
  static constexpr double kDrainGain = 1.0 / 2.885;
  static constexpr double kCwndGain = 2.0;
  static constexpr int kBwFilterRounds = 10;
  static constexpr std::int64_t kMinRttExpirySec = 10;

  ByteCount mss_;
  State state_{State::kStartup};

  // Bottleneck-bandwidth windowed max filter, keyed by round index.
  util::MonotoneMax<std::uint64_t, Rate> bw_samples_;
  std::uint64_t round_{0};
  Time round_started_{Time::zero()};
  Time srtt_{Time::zero()};

  Time min_rtt_{Time::never()};
  Time min_rtt_stamp_{Time::zero()};
  Time probe_rtt_done_{Time::never()};

  // Startup full-pipe detection.
  Rate full_bw_{Rate::zero()};
  int full_bw_rounds_{0};
  std::uint64_t last_full_bw_round_{0};
  bool filled_pipe_{false};

  // ProbeBW gain cycle.
  static constexpr double kCycleGains[8] = {1.25, 0.75, 1, 1, 1, 1, 1, 1};
  int cycle_idx_{0};
  Time cycle_stamp_{Time::zero()};

  double pacing_gain_{kStartupGain};
  ByteCount initial_cwnd_;
  ByteCount inflight_hint_{0};  ///< latest inflight from ACK events (for drain exit)

  // Telemetry (null unless bind_metrics was called; hot paths gate on that).
  telemetry::Counter* mode_transitions_{nullptr};
  telemetry::Trace* mode_trace_{nullptr};
};

}  // namespace ccc::cca
