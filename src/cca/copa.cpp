#include "cca/copa.hpp"

#include <algorithm>
#include <cmath>

namespace ccc::cca {

Copa::Copa(ByteCount initial_cwnd, ByteCount mss, double delta)
    : mss_{mss}, delta_{delta}, cwnd_{initial_cwnd} {}

Time Copa::queueing_delay() const {
  const Time mr = min_rtt();
  const Time sr = standing_rtt();
  if (mr == Time::never() || sr == Time::never()) return Time::zero();
  return sr - mr;
}

void Copa::expire(Time now) {
  rtt_window_.evict_front_while([now](Time when) { return now - when > Time::sec(10); });
  const Time width = std::max(srtt_ / 2, Time::ms(1));
  standing_window_.evict_front_while([now, width](Time when) { return now - when > width; });
}

void Copa::on_ack(const AckEvent& ev) {
  if (ev.rtt_sample > Time::zero()) {
    srtt_ = srtt_ == Time::zero() ? ev.rtt_sample
                                  : Time::ns(static_cast<std::int64_t>(
                                        0.875 * static_cast<double>(srtt_.count_ns()) +
                                        0.125 * static_cast<double>(ev.rtt_sample.count_ns())));
    rtt_window_.push(ev.now, ev.rtt_sample);
    standing_window_.push(ev.now, ev.rtt_sample);
  }
  expire(ev.now);
  if (srtt_ == Time::zero()) return;

  const double cwnd_pkts = static_cast<double>(cwnd_) / static_cast<double>(mss_);
  const Time d = queueing_delay();
  // Target rate 1/(delta*d) pkts/s; infinite while no queue has formed.
  const double current_rate = cwnd_pkts / standing_rtt().to_sec();
  const bool should_increase =
      d <= Time::zero() || current_rate < 1.0 / (delta_ * d.to_sec());

  if (in_slow_start_) {
    if (should_increase) {
      cwnd_ += ev.newly_acked_bytes;  // double per RTT
      return;
    }
    in_slow_start_ = false;
  }

  // Velocity update, once per RTT: doubles after 3 consistent RTTs.
  if (ev.now - last_direction_check_ >= srtt_) {
    last_direction_check_ = ev.now;
    if (should_increase == direction_up_) {
      if (++same_direction_rtts_ >= 3) velocity_ = std::min(velocity_ * 2.0, 65536.0);
    } else {
      direction_up_ = should_increase;
      same_direction_rtts_ = 0;
      velocity_ = 1.0;
    }
  }

  // Per-ACK window adjustment of v/(delta*cwnd) packets.
  const double step_pkts = velocity_ / (delta_ * cwnd_pkts) *
                           (static_cast<double>(ev.newly_acked_bytes) / static_cast<double>(mss_));
  const auto step_bytes = static_cast<ByteCount>(step_pkts * static_cast<double>(mss_));
  if (should_increase) {
    cwnd_ += std::max<ByteCount>(step_bytes, 1);
  } else {
    cwnd_ = std::max<ByteCount>(cwnd_ - std::max<ByteCount>(step_bytes, 1), 2 * mss_);
  }
}

Rate Copa::pacing_rate() const {
  if (srtt_ == Time::zero()) return Rate::zero();
  // Pace the window over one RTT with slight headroom to keep ACK clocking.
  return Rate::bytes_per(cwnd_, srtt_) * 2.0;
}

void Copa::on_loss(const LossEvent& /*ev*/) {
  // Default (delay) mode: loss is not a first-class signal; the delay loop
  // already backs off. Mirror the reference implementation's mild response.
}

void Copa::on_rto(Time /*now*/) {
  cwnd_ = std::max<ByteCount>(cwnd_ / 2, 2 * mss_);
  in_slow_start_ = false;
}

}  // namespace ccc::cca
