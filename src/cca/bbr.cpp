#include "cca/bbr.hpp"

#include <algorithm>

#include "telemetry/metrics.hpp"

namespace ccc::cca {

Bbr::Bbr(ByteCount initial_cwnd, ByteCount mss) : mss_{mss}, initial_cwnd_{initial_cwnd} {}

void Bbr::bind_metrics(telemetry::MetricRegistry& reg, const std::string& prefix) {
  mode_transitions_ = &reg.counter(prefix + ".mode_transitions");
  mode_trace_ = &reg.trace(prefix + ".mode", Time::zero());
  mode_trace_->record(Time::zero(), static_cast<double>(state_));
}

void Bbr::enter_state(State next, Time now) {
  if (next == state_) return;
  state_ = next;
  if (mode_transitions_ != nullptr) {
    mode_transitions_->inc();
    mode_trace_->record(now, static_cast<double>(next));
  }
}

Rate Bbr::btlbw() const { return bw_samples_.best_or(Rate::zero()); }

ByteCount Bbr::bdp_with_gain(double gain) const {
  if (min_rtt_ == Time::never() || btlbw().is_zero()) return initial_cwnd_;
  const auto bdp = static_cast<ByteCount>(btlbw().bytes_per_sec() * min_rtt_.to_sec() * gain);
  return std::max<ByteCount>(bdp, 4 * mss_);
}

ByteCount Bbr::cwnd_bytes() const {
  if (state_ == State::kProbeRtt) return 4 * mss_;
  if (!filled_pipe_ && btlbw().is_zero()) return initial_cwnd_;
  return bdp_with_gain(kCwndGain);
}

Rate Bbr::pacing_rate() const {
  const Rate bw = btlbw();
  if (bw.is_zero()) {
    // No model yet: pace the initial window over a nominal 1 ms to avoid a
    // burst, i.e. effectively unpaced early startup.
    return Rate::zero();
  }
  return bw * pacing_gain_;
}

void Bbr::start_round(Time now) {
  ++round_;
  round_started_ = now;
}

void Bbr::update_model(const AckEvent& ev) {
  // RTT model.
  if (ev.rtt_sample > Time::zero()) {
    srtt_ = srtt_ == Time::zero() ? ev.rtt_sample
                                  : Time::ns(static_cast<std::int64_t>(
                                        0.875 * static_cast<double>(srtt_.count_ns()) +
                                        0.125 * static_cast<double>(ev.rtt_sample.count_ns())));
    if (ev.rtt_sample <= min_rtt_ || min_rtt_ == Time::never() ||
        (ev.now - min_rtt_stamp_) > Time::sec(kMinRttExpirySec)) {
      min_rtt_ = ev.rtt_sample;
      min_rtt_stamp_ = ev.now;
    }
  }

  // Packet-timed rounds, approximated by one smoothed RTT per round.
  if (srtt_ > Time::zero() && ev.now - round_started_ >= srtt_) start_round(ev.now);

  // Bandwidth model: windowed max over the last kBwFilterRounds rounds.
  // App-limited samples only count if they beat the current estimate
  // (they prove at least that much capacity exists).
  if (!ev.delivery_rate.is_zero() && (!ev.app_limited || ev.delivery_rate > btlbw())) {
    bw_samples_.push(round_, ev.delivery_rate);
  }
  bw_samples_.evict_front_while(
      [this](std::uint64_t round) { return round + kBwFilterRounds < round_; });
}

void Bbr::advance_probe_bw_phase(Time now) {
  if (min_rtt_ == Time::never()) return;
  if (now - cycle_stamp_ < min_rtt_) return;
  cycle_stamp_ = now;
  cycle_idx_ = (cycle_idx_ + 1) % 8;
  pacing_gain_ = kCycleGains[cycle_idx_];
}

void Bbr::advance_state_machine(const AckEvent& ev) {
  switch (state_) {
    case State::kStartup: {
      // Full-pipe detection: bandwidth stopped growing >= 25% for 3
      // consecutive rounds. Evaluate once per round.
      static constexpr double kGrowthThresh = 1.25;
      if (round_ == last_full_bw_round_) break;
      last_full_bw_round_ = round_;
      const Rate bw = btlbw();
      if (bw.is_zero()) break;
      if (bw > full_bw_ * kGrowthThresh) {
        full_bw_ = bw;
        full_bw_rounds_ = 0;
      } else {
        ++full_bw_rounds_;
        if (full_bw_rounds_ >= 3) {
          filled_pipe_ = true;
          enter_state(State::kDrain, ev.now);
          pacing_gain_ = kDrainGain;
        }
      }
      break;
    }
    case State::kDrain:
      if (ev.inflight_bytes <= bdp_with_gain(1.0)) {
        enter_state(State::kProbeBw, ev.now);
        cycle_idx_ = 0;
        cycle_stamp_ = ev.now;
        pacing_gain_ = kCycleGains[cycle_idx_];
      }
      break;
    case State::kProbeBw:
      advance_probe_bw_phase(ev.now);
      // Periodically revisit min RTT: if the estimate is stale, dip.
      if (ev.now - min_rtt_stamp_ > Time::sec(kMinRttExpirySec)) {
        enter_state(State::kProbeRtt, ev.now);
        probe_rtt_done_ = ev.now + std::max(Time::ms(200), srtt_);
        pacing_gain_ = 1.0;
      }
      break;
    case State::kProbeRtt:
      if (ev.now >= probe_rtt_done_) {
        min_rtt_stamp_ = ev.now;  // refreshed by draining the queue
        enter_state(filled_pipe_ ? State::kProbeBw : State::kStartup, ev.now);
        if (state_ == State::kProbeBw) {
          cycle_idx_ = 0;
          cycle_stamp_ = ev.now;
          pacing_gain_ = kCycleGains[cycle_idx_];
        } else {
          pacing_gain_ = kStartupGain;
        }
      }
      break;
  }
}

void Bbr::on_ack(const AckEvent& ev) {
  inflight_hint_ = ev.inflight_bytes;
  update_model(ev);
  advance_state_machine(ev);
}

void Bbr::on_loss(const LossEvent& /*ev*/) {
  // BBRv1 deliberately does not reduce its window on loss: its model, not
  // loss, dictates the sending rate. (This is the root of its unfairness to
  // loss-based CCAs, reproduced in E4.)
}

void Bbr::on_rto(Time now) {
  // Like deployed BBR, keep the path model across a timeout — one lost
  // window says nothing about the bottleneck bandwidth. Restart the cautious
  // startup ramp only if the pipe was never filled.
  if (!filled_pipe_) {
    enter_state(State::kStartup, now);
    pacing_gain_ = kStartupGain;
  }
}

}  // namespace ccc::cca
