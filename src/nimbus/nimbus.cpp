#include "nimbus/nimbus.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>

#include "telemetry/metrics.hpp"

namespace ccc::nimbus {

NimbusCca::NimbusCca(const sim::Scheduler& sched, NimbusConfig cfg)
    : sched_{sched}, cfg_{cfg}, base_rate_{cfg.initial_rate} {
  assert(cfg_.pulse_hz > 0.0);
  assert(cfg_.pulse_amplitude > 0.0 && cfg_.pulse_amplitude < 1.0);
  assert(cfg_.sample_bin > Time::zero());
  max_bins_ = static_cast<std::size_t>(cfg_.fft_window / cfg_.sample_bin);
  competitive_rate_bps_ = base_rate_.to_bps();
}

Rate NimbusCca::capacity_estimate() const {
  if (!cfg_.capacity_hint.is_zero()) return cfg_.capacity_hint;
  // Never estimate below what we're sending.
  return std::max(base_rate_, rout_window_.best_or(base_rate_));
}

Rate NimbusCca::pulsed_rate(Time now) const {
  const Rate rate = mode_ == Mode::kDelay ? base_rate_ : Rate::bps(competitive_rate_bps_);
  // Asymmetric, mean-neutral pulse at fp (as in Nimbus): a strong half-sine
  // up-pulse for the first quarter period, then a shallow (1/3-amplitude)
  // half-sine down-pulse over the remaining three quarters. The sharp
  // up-pulse perturbs elastic cross traffic hard; the gentle compensation
  // avoids draining the standing queue (which would invalidate the
  // cross-traffic estimator). Amplitude is sized by the capacity estimate,
  // not the probe's own rate, so the perturbation stays meaningful even when
  // the probe holds a small share.
  const double period = 1.0 / cfg_.pulse_hz;
  const double s = std::fmod(now.to_sec(), period);
  const double amp = cfg_.pulse_amplitude * capacity_estimate().to_bps();
  double add = 0.0;
  if (s < period / 4.0) {
    add = amp * std::sin(std::numbers::pi * s / (period / 4.0));
  } else {
    add = -(amp / 3.0) * std::sin(std::numbers::pi * (s - period / 4.0) / (3.0 * period / 4.0));
  }
  const double pulsed = rate.to_bps() + add;
  return Rate::bps(std::max(pulsed, cfg_.min_rate.to_bps() * 0.25));
}

Rate NimbusCca::pacing_rate() const { return pulsed_rate(sched_.now()); }

ByteCount NimbusCca::cwnd_bytes() const {
  // Window cap: 2x the estimated BDP at the *pulsed peak* rate so pacing —
  // not the window — shapes transmission, while bounding queue blowup.
  const Time rtt = min_rtt_ == Time::never() ? Time::ms(100) : min_rtt_;
  const Rate peak = capacity_estimate() * (1.0 + cfg_.pulse_amplitude);
  const auto bdp = static_cast<ByteCount>(peak.bytes_per_sec() * rtt.to_sec());
  return std::max<ByteCount>(2 * bdp, 4 * cfg_.mss);
}

void NimbusCca::push_z(double z_bps, double z_control_bps) {
  last_z_bps_ = z_bps;
  z_series_.push_back(z_bps);
  if (z_tap_) z_tap_(z_bps);
  z_ewma_bps_ =
      0.95 * z_ewma_bps_ + 0.05 * std::clamp(z_control_bps, 0.0, capacity_estimate().to_bps());
  while (z_series_.size() > max_bins_) z_series_.pop_front();
}

void NimbusCca::finalize_bin(std::int64_t next_bin) {
  const double bin_sec = cfg_.sample_bin.to_sec();
  double z = last_z_bps_;       // default: hold (bin had no usable data)
  double z_ctrl = z_ewma_bps_;  // default: hold the control estimate too

  if (cur_bin_bytes_ > 0 && prev_bin_last_ack_ > Time::zero() &&
      cur_bin_last_ack_ > prev_bin_last_ack_) {
    // Send/receive dilation over this bin's packets:
    //   rin  = bytes / bin width (send spacing)
    //   rout = bytes / ACK-arrival span (receive spacing)
    //   z    = mu * rin/rout - rin = mu * span/width - bytes/width.
    const double recv_span = (cur_bin_last_ack_ - prev_bin_last_ack_).to_sec();
    const double mu = capacity_estimate().to_bps();
    const double rin = static_cast<double>(cur_bin_bytes_) * 8.0 / bin_sec;
    const double rout = static_cast<double>(cur_bin_bytes_) * 8.0 / recv_span;
    // Estimator validity: the bottleneck must have stayed busy while this
    // bin's packets crossed it. A drained queue shows up as per-bin RTTs
    // collapsing to the path minimum; such bins would read the degenerate
    // mu - rin (our own pulse shape) instead of cross traffic, so they are
    // recorded as z = 0 — an idle link carries no contending traffic.
    const bool link_busy =
        queue_delay_ewma_sec_ > 0.25 * cfg_.target_queue_delay.to_sec();
    const bool bin_drained =
        cur_bin_min_rtt_ != Time::never() && min_rtt_ != Time::never() &&
        (cur_bin_min_rtt_ - min_rtt_).to_sec() < 0.2 * cfg_.target_queue_delay.to_sec();
    if (link_busy && !bin_drained && rout > 1.0) {
      z = std::clamp(mu * rin / rout - rin, 0.0, 2.0 * mu);
      z_ctrl = z;
    } else {
      // FFT series: an un-backlogged link means nothing is contending; but
      // for the *controller*, mu - rin is a tight cross-traffic bound right
      // at the drain point (feeding 0 instead would slam the base rate to
      // mu and set up a relaxation oscillation).
      z = 0.0;
      z_ctrl = std::max(mu - rin, 0.0);
    }
    // Receive-rate maxima feed the capacity estimator (10 s window).
    rout_window_.push(cur_bin_last_ack_, Rate::bps(rout));
    rout_window_.evict_front_while(
        [this](Time when) { return cur_bin_last_ack_ - when > Time::sec(10); });
  }
  push_z(z, z_ctrl);
  // Fill any fully-skipped bins (idle probe) with the held values.
  for (std::int64_t k = cur_bin_ + 1; k < next_bin; ++k) push_z(last_z_bps_, z_ewma_bps_);

  if (cur_bin_bytes_ > 0) prev_bin_last_ack_ = cur_bin_last_ack_;
  cur_bin_bytes_ = 0;
  cur_bin_min_rtt_ = Time::never();
}

void NimbusCca::account_delivery(const cca::AckEvent& ev) {
  if (ev.acked_sent_at == Time::zero() || ev.newly_acked_bytes <= 0) return;
  const std::int64_t bin = ev.acked_sent_at.count_ns() / cfg_.sample_bin.count_ns();
  if (cur_bin_ < 0) {
    cur_bin_ = bin;
    prev_bin_last_ack_ = ev.now;  // bootstrap the receive-span chain
    return;
  }
  if (bin > cur_bin_) {
    finalize_bin(bin);
    cur_bin_ = bin;
  }
  // Out-of-order (recovery) deliveries just fold into the current bin.
  cur_bin_bytes_ += ev.newly_acked_bytes;
  cur_bin_last_ack_ = std::max(cur_bin_last_ack_, ev.now);
  if (ev.rtt_sample > Time::zero()) cur_bin_min_rtt_ = std::min(cur_bin_min_rtt_, ev.rtt_sample);
}

double NimbusCca::elasticity() const {
  // Linearize the deque into the workspace's staging buffer; the spectrum
  // scratch inside fft_ws_ is likewise reused across windows.
  std::vector<double>& z = fft_ws_.series;
  z.assign(z_series_.begin(), z_series_.end());
  ElasticityConfig ec;
  ec.pulse_hz = cfg_.pulse_hz;
  // A fully-elastic cross flow would answer the pulses nearly 1:1; require a
  // meaningful fraction of that before calling the path elastic.
  ec.reference_amplitude = cfg_.pulse_amplitude * capacity_estimate().to_bps();
  return elasticity_metric(z, 1.0 / cfg_.sample_bin.to_sec(), ec, fft_ws_);
}

void NimbusCca::run_delay_controller(Time now) {
  if (srtt_ == Time::zero() || min_rtt_ == Time::never()) return;
  if (now - last_control_ < std::max(min_rtt_, Time::ms(10))) return;
  last_control_ = now;

  const double target = cfg_.target_queue_delay.to_sec();
  const double mu = capacity_estimate().to_bps();

  // Nimbus delay-mode control law: aim for the link's spare capacity
  // (mu - zhat) plus a correction that regulates the standing queue to the
  // target. Keeping a small positive standing queue is what validates the
  // cross-traffic estimator (the link must stay busy through the shallow
  // down-pulse). The queue estimate is a slow EWMA so the controller does
  // not chase — and thereby re-inject — the pulse frequency itself.
  const double max_step = 0.02 * mu;
  double next;
  if (queue_delay_ewma_sec_ < 0.1 * target) {
    // No standing queue: the link has spare capacity and z is unobservable
    // (the mu - z law becomes a fixed point at the current rate). Probe
    // upward gently until a queue forms; small steps keep the crossing into
    // the regulated regime smooth instead of oscillatory.
    next = base_rate_.to_bps() + 0.005 * mu;
  } else {
    const double correction =
        cfg_.delay_gain * (target - queue_delay_ewma_sec_) / std::max(min_rtt_.to_sec(), 1e-3);
    const double target_base = (mu - z_ewma_bps_) + correction * mu;
    // Slew-rate-limit the base: the feedback path (queue EWMA + one RTT)
    // lags several hundred ms, and an integrating plant under delayed
    // proportional control limit-cycles unless steps stay small.
    next = base_rate_.to_bps() +
           std::clamp(target_base - base_rate_.to_bps(), -max_step, max_step);
  }
  next = std::clamp(next, cfg_.min_rate.to_bps(), mu * 1.2);
  base_rate_ = Rate::bps(next);

  // TCP-competitive mode: additive increase of one MSS per RTT.
  if (mode_ == Mode::kTcpCompetitive) {
    competitive_rate_bps_ += static_cast<double>(cfg_.mss) * 8.0 / min_rtt_.to_sec() *
                             (min_rtt_.to_sec() / std::max(srtt_.to_sec(), 1e-3));
    competitive_rate_bps_ = std::clamp(competitive_rate_bps_, cfg_.min_rate.to_bps(), mu * 1.5);
  }
}

void NimbusCca::bind_metrics(telemetry::MetricRegistry& reg, const std::string& prefix) {
  mode_transitions_ = &reg.counter(prefix + ".mode_transitions");
  mode_trace_ = &reg.trace(prefix + ".mode", Time::zero());
  mode_trace_->record(Time::zero(), static_cast<double>(mode_));
}

void NimbusCca::update_mode(Time now) {
  if (!cfg_.enable_mode_switching) return;
  if (now - last_mode_eval_ < cfg_.fft_window) return;  // one decision per window
  last_mode_eval_ = now;
  const bool elastic = elasticity() >= kElasticThreshold;
  const Mode before = mode_;
  if (elastic && mode_ == Mode::kDelay) {
    mode_ = Mode::kTcpCompetitive;
    competitive_rate_bps_ = base_rate_.to_bps();
  } else if (!elastic && mode_ == Mode::kTcpCompetitive) {
    mode_ = Mode::kDelay;
    base_rate_ = Rate::bps(competitive_rate_bps_);
  }
  if (mode_ != before && mode_transitions_ != nullptr) {
    mode_transitions_->inc();
    mode_trace_->record(now, static_cast<double>(mode_));
  }
}

void NimbusCca::on_ack(const cca::AckEvent& ev) {
  if (ev.rtt_sample > Time::zero()) {
    min_rtt_ = std::min(min_rtt_, ev.rtt_sample);
    srtt_ = srtt_ == Time::zero() ? ev.rtt_sample
                                  : Time::ns(static_cast<std::int64_t>(
                                        0.875 * static_cast<double>(srtt_.count_ns()) +
                                        0.125 * static_cast<double>(ev.rtt_sample.count_ns())));
    // Time-weighted queue-delay EWMA with a multi-pulse-period time constant
    // (per-ack weighting would track the ack rate and follow the pulses).
    const double d = std::max((ev.rtt_sample - min_rtt_).to_sec(), 0.0);
    const double dt = (ev.now - last_delay_update_).to_sec();
    last_delay_update_ = ev.now;
    const double w = 1.0 - std::exp(-dt / cfg_.queue_delay_tau.to_sec());
    queue_delay_ewma_sec_ += w * (d - queue_delay_ewma_sec_);
  }
  account_delivery(ev);
  run_delay_controller(ev.now);
  update_mode(ev.now);
}

void NimbusCca::on_loss(const cca::LossEvent& ev) {
  if (mode_ == Mode::kTcpCompetitive) {
    competitive_rate_bps_ = std::max(competitive_rate_bps_ / 2.0, cfg_.min_rate.to_bps());
  }
  (void)ev;  // delay mode: the controller already responds to queue growth
}

void NimbusCca::on_rto(Time /*now*/) {
  base_rate_ = cfg_.min_rate;
  competitive_rate_bps_ = cfg_.min_rate.to_bps();
}

}  // namespace ccc::nimbus
