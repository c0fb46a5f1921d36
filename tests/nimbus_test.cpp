// Unit tests for the elasticity metric and the Nimbus CCA mechanics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <numbers>
#include <utility>
#include <vector>

#include "nimbus/elasticity.hpp"
#include "nimbus/nimbus.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace ccc::nimbus {
namespace {

constexpr double kFs = 100.0;  // 10 ms bins

std::vector<double> tone_plus_noise(double tone_hz, double tone_amp, double noise_amp,
                                    std::size_t n, Rng& rng) {
  std::vector<double> z(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / kFs;
    z[i] = 10.0 + tone_amp * std::sin(2.0 * std::numbers::pi * tone_hz * t) +
           noise_amp * rng.normal(0.0, 1.0);
  }
  return z;
}

TEST(ElasticityMetric, HighForResponsiveCrossTraffic) {
  Rng rng{1};
  const auto z = tone_plus_noise(5.0, 4.0, 0.5, 500, rng);
  EXPECT_GT(elasticity_metric(z, kFs), kElasticThreshold);
}

TEST(ElasticityMetric, LowForWhiteNoise) {
  Rng rng{2};
  const auto z = tone_plus_noise(5.0, 0.0, 1.0, 500, rng);
  EXPECT_LT(elasticity_metric(z, kFs), kElasticThreshold);
}

TEST(ElasticityMetric, LowForConstantSeries) {
  const std::vector<double> z(500, 12.0);
  EXPECT_DOUBLE_EQ(elasticity_metric(z, kFs), 0.0);
}

TEST(ElasticityMetric, LowForOffFrequencyTone) {
  Rng rng{3};
  // Strong tone at 1.7 Hz: energy, but not at the pulse frequency.
  const auto z = tone_plus_noise(1.7, 4.0, 0.5, 500, rng);
  EXPECT_LT(elasticity_metric(z, kFs), kElasticThreshold);
}

TEST(ElasticityMetric, DegenerateInputsReturnZero) {
  EXPECT_DOUBLE_EQ(elasticity_metric(std::vector<double>{}, kFs), 0.0);
  EXPECT_DOUBLE_EQ(elasticity_metric(std::vector<double>(5, 1.0), kFs), 0.0);
  EXPECT_DOUBLE_EQ(elasticity_metric(std::vector<double>(100, 1.0), 0.0), 0.0);
}

TEST(ElasticityMetric, ScalesWithToneToNoiseRatio) {
  Rng rng1{4};
  Rng rng2{4};
  const auto strong = tone_plus_noise(5.0, 8.0, 1.0, 500, rng1);
  const auto weak = tone_plus_noise(5.0, 1.0, 1.0, 500, rng2);
  EXPECT_GT(elasticity_metric(strong, kFs), elasticity_metric(weak, kFs));
}


TEST(ElasticityMetric, AboveNyquistHarmonicDoesNotMaskTopNoiseBins) {
  // With sample_hz < 4 * pulse_hz the 2*fp harmonic lies above Nyquist;
  // bin_for clamps it to the last bin, which used to alias the harmonic's
  // exclusion window onto the top of the spectrum and drop legitimate noise
  // bins from the RMS. The metric must now match a reference computation
  // that excludes only the fp window.
  Rng rng{21};
  const double fs = 16.0;  // pulse at 5 Hz -> 2*fp = 10 Hz > Nyquist (8 Hz)
  std::vector<double> z(512);
  for (std::size_t i = 0; i < z.size(); ++i) {
    const double t = static_cast<double>(i) / fs;
    z[i] = 10.0 + 2.0 * std::sin(2.0 * std::numbers::pi * 5.0 * t) + rng.normal(0.0, 0.8);
  }

  const ElasticityConfig cfg;
  const double eta = elasticity_metric(z, fs, cfg);

  // Reference: same signal/noise definitions, fp exclusion only.
  const Spectrum spec = magnitude_spectrum(z, fs);
  const std::size_t fp_bin = spec.bin_for(cfg.pulse_hz);
  const std::size_t floor_bin = std::max<std::size_t>(spec.bin_for(cfg.noise_floor_hz), 1);
  const auto hw = static_cast<std::size_t>(cfg.signal_halfwidth_bins);
  double signal = 0.0;
  for (std::size_t i = fp_bin > hw ? fp_bin - hw : 0;
       i <= fp_bin + hw && i < spec.magnitude.size(); ++i) {
    signal = std::max(signal, spec.magnitude[i]);
  }
  double sum_sq = 0.0;
  std::size_t n = 0;
  for (std::size_t i = floor_bin; i < spec.magnitude.size(); ++i) {
    if (i + hw >= fp_bin && i <= fp_bin + hw) continue;
    sum_sq += spec.magnitude[i] * spec.magnitude[i];
    ++n;
  }
  ASSERT_GT(n, 0u);
  const double expected = signal / std::sqrt(sum_sq / static_cast<double>(n));
  EXPECT_DOUBLE_EQ(eta, expected);

  // The harmonic exclusion still applies when 2*fp is representable.
  const std::size_t h2_bin = spec.bin_for(2.0 * cfg.pulse_hz);
  EXPECT_EQ(h2_bin, spec.magnitude.size() - 1);  // clamped — the bug trigger
}

// Parameterized sweep: the metric's response is monotone in tone amplitude
// and robustly below threshold for amplitude 0 across noise seeds.
struct ToneCase {
  double amp;
  std::uint64_t seed;
  bool expect_elastic;
};

class ElasticitySweep : public ::testing::TestWithParam<ToneCase> {};

TEST_P(ElasticitySweep, ThresholdsCorrectly) {
  const auto& p = GetParam();
  Rng rng{p.seed};
  const auto z = tone_plus_noise(5.0, p.amp, 1.0, 500, rng);
  const double eta = elasticity_metric(z, kFs);
  if (p.expect_elastic) {
    EXPECT_GT(eta, kElasticThreshold) << "amp=" << p.amp << " seed=" << p.seed;
  } else {
    EXPECT_LT(eta, kElasticThreshold) << "amp=" << p.amp << " seed=" << p.seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AmpAndSeed, ElasticitySweep,
    ::testing::Values(ToneCase{0.0, 11, false}, ToneCase{0.0, 12, false},
                      ToneCase{0.0, 13, false},
                      ToneCase{6.0, 11, true}, ToneCase{6.0, 12, true},
                      ToneCase{6.0, 13, true}, ToneCase{12.0, 11, true},
                      ToneCase{12.0, 14, true}));

// ---------- NimbusCca mechanics ----------

cca::AckEvent mk_ack(Time now, ByteCount bytes, Time rtt) {
  cca::AckEvent ev;
  ev.now = now;
  ev.newly_acked_bytes = bytes;
  ev.rtt_sample = rtt;
  ev.inflight_bytes = 10 * sim::kMss;
  return ev;
}

TEST(NimbusCca, PulsedRateIsMeanNeutralOverOnePeriod) {
  sim::Scheduler sched;
  NimbusConfig cfg;
  cfg.capacity_hint = Rate::mbps(48);
  cfg.initial_rate = Rate::mbps(24);  // high enough that no clipping occurs
  NimbusCca cc{sched, cfg};
  // Average the commanded rate over exactly one pulse period: the strong
  // quarter-period up-pulse and shallow three-quarter down-pulse cancel.
  const double period = 1.0 / cfg.pulse_hz;
  double sum = 0.0;
  const int steps = 4000;
  for (int i = 0; i < steps; ++i) {
    sum += cc.pulsed_rate(Time::sec(period * i / steps)).to_bps();
  }
  EXPECT_NEAR(sum / steps, cc.base_rate().to_bps(), cc.base_rate().to_bps() * 0.02);
}

TEST(NimbusCca, PulseAmplitudeMatchesConfig) {
  sim::Scheduler sched;
  NimbusConfig cfg;
  cfg.capacity_hint = Rate::mbps(40);
  cfg.pulse_amplitude = 0.25;
  cfg.initial_rate = Rate::mbps(24);
  NimbusCca cc{sched, cfg};
  double lo = 1e18;
  double hi = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const double r = cc.pulsed_rate(Time::ms(i)).to_bps();
    lo = std::min(lo, r);
    hi = std::max(hi, r);
  }
  // Asymmetric pulse: peak = base + A, trough = base - A/3, with
  // A = 0.25 * 40 Mbit/s = 10 Mbit/s -> peak-to-peak = 4A/3 = 13.33 Mbit/s.
  EXPECT_NEAR((hi - lo) / 1e6, 13.33, 0.7);
  EXPECT_NEAR((hi - cc.base_rate().to_bps()) / 1e6, 10.0, 0.5);
}

TEST(NimbusCca, CapacityHintOverridesEstimate) {
  sim::Scheduler sched;
  NimbusConfig cfg;
  cfg.capacity_hint = Rate::mbps(48);
  NimbusCca cc{sched, cfg};
  EXPECT_DOUBLE_EQ(cc.capacity_estimate().to_mbps(), 48.0);
}

TEST(NimbusCca, CapacityEstimateMatchesNaiveWindowedMax) {
  // A scripted ACK sequence over 25 s with no capacity hint: ACK gaps of
  // 1-15 ms against 9.7 ms send bins (so bins hold several ACKs, one, or
  // none), 1-20 segments per ACK and a queueing RTT that drifts the base
  // rate. The test replays the estimator's bin bookkeeping — one receive
  // rate per finished non-empty bin, keyed by its last ACK, kept for 10 s —
  // into a deque it scans, and capacity_estimate() must equal
  // max(base rate, that scan) after every ACK.
  sim::Scheduler sched;
  NimbusCca cc{sched, NimbusConfig{}};
  const Time bin_width = NimbusConfig{}.sample_bin;
  Rng rng{9};
  std::deque<std::pair<Time, Rate>> rout_window;
  std::int64_t cur_bin = -1;
  ByteCount bin_bytes = 0;
  Time bin_last_ack = Time::zero();
  Time prev_last_ack = Time::zero();
  Time now = Time::ms(100);
  std::size_t evicted = 0;
  for (int i = 0; i < 3'000; ++i) {
    now += Time::ms(rng.uniform_int(1, 15));
    cca::AckEvent ev = mk_ack(now, sim::kMss * rng.uniform_int(1, 20),
                              Time::ms(40 + rng.uniform_int(0, 30)));
    ev.acked_sent_at = now - Time::ms(40);
    const std::int64_t bin = ev.acked_sent_at.count_ns() / bin_width.count_ns();
    if (cur_bin < 0) {
      cur_bin = bin;
      prev_last_ack = now;
    } else {
      if (bin > cur_bin) {
        if (bin_bytes > 0 && prev_last_ack > Time::zero() && bin_last_ack > prev_last_ack) {
          const double span = (bin_last_ack - prev_last_ack).to_sec();
          rout_window.emplace_back(bin_last_ack,
                                   Rate::bps(static_cast<double>(bin_bytes) * 8.0 / span));
          while (bin_last_ack - rout_window.front().first > Time::sec(10)) {
            rout_window.pop_front();
            ++evicted;
          }
        }
        if (bin_bytes > 0) prev_last_ack = bin_last_ack;
        bin_bytes = 0;
        cur_bin = bin;
      }
      bin_bytes += ev.newly_acked_bytes;
      bin_last_ack = std::max(bin_last_ack, now);
    }
    cc.on_ack(ev);
    Rate naive = cc.base_rate();
    for (const auto& sample : rout_window) naive = std::max(naive, sample.second);
    ASSERT_EQ(cc.capacity_estimate(), naive) << "ack " << i;
  }
  EXPECT_GT(evicted, 100u);  // the 10 s window really slid over the run
}

TEST(NimbusCca, DelayControllerBacksOffWhenQueueDeep) {
  sim::Scheduler sched;
  NimbusConfig cfg;
  cfg.capacity_hint = Rate::mbps(48);
  cfg.initial_rate = Rate::mbps(40);
  NimbusCca cc{sched, cfg};
  // min RTT 50 ms, then persistent 150 ms: deep queue, rate must drop.
  Time t = Time::ms(50);
  cc.on_ack(mk_ack(t, sim::kMss, Time::ms(50)));
  const double before = cc.base_rate().to_bps();
  for (int i = 0; i < 100; ++i) {
    t += Time::ms(50);
    cc.on_ack(mk_ack(t, sim::kMss, Time::ms(150)));
  }
  EXPECT_LT(cc.base_rate().to_bps(), before);
}

TEST(NimbusCca, DelayControllerRampsWhenIdle) {
  sim::Scheduler sched;
  NimbusConfig cfg;
  cfg.capacity_hint = Rate::mbps(48);
  cfg.initial_rate = Rate::mbps(2);
  NimbusCca cc{sched, cfg};
  Time t = Time::ms(50);
  const double before = cc.base_rate().to_bps();
  for (int i = 0; i < 100; ++i) {
    t += Time::ms(50);
    cc.on_ack(mk_ack(t, sim::kMss, Time::ms(50)));  // rtt == min: queue empty
  }
  EXPECT_GT(cc.base_rate().to_bps(), before);
}

TEST(NimbusCca, ModeSwitchingDisabledByDefault) {
  sim::Scheduler sched;
  NimbusCca cc{sched};
  EXPECT_EQ(cc.mode(), NimbusCca::Mode::kDelay);
  // Even with many acks, mode stays kDelay when disabled.
  Time t = Time::ms(50);
  for (int i = 0; i < 2000; ++i) {
    t += Time::ms(10);
    cc.on_ack(mk_ack(t, sim::kMss, Time::ms(55)));
  }
  EXPECT_EQ(cc.mode(), NimbusCca::Mode::kDelay);
}

TEST(NimbusCca, CwndCapsInflight) {
  sim::Scheduler sched;
  NimbusConfig cfg;
  cfg.capacity_hint = Rate::mbps(48);
  NimbusCca cc{sched, cfg};
  Time t = Time::ms(100);
  cc.on_ack(mk_ack(t, sim::kMss, Time::ms(100)));
  // cwnd ~= 2 * peak-rate BDP = 2 * 1.25 * 48 Mbit/s * 100 ms = 1.5 MB.
  EXPECT_NEAR(static_cast<double>(cc.cwnd_bytes()), 1.5e6, 2e5);
}


TEST(NimbusCca, ModeSwitchingEngagesAgainstElasticTraffic) {
  // With switching ENABLED (the full Nimbus CCA, not the measurement
  // configuration), sustained elastic cross traffic must flip the probe
  // into TCP-competitive mode.
  sim::Scheduler sched;
  NimbusConfig cfg;
  cfg.capacity_hint = Rate::mbps(48);
  cfg.enable_mode_switching = true;
  NimbusCca cc{sched, cfg};
  // Feed synthetic acks whose receive spans oscillate at the pulse
  // frequency, as elastic cross traffic would cause: bins alternate between
  // compressed and dilated service.
  // Establish the path floor first so later samples read as a standing
  // queue (the estimator treats no-queue bins as idle-link, z = 0).
  {
    cca::AckEvent floor;
    floor.now = Time::ms(60);
    floor.newly_acked_bytes = sim::kMss;
    floor.rtt_sample = Time::ms(60);
    floor.acked_sent_at = Time::ms(1);
    floor.inflight_bytes = 20 * sim::kMss;
    cc.on_ack(floor);
  }
  Time t = Time::ms(100);
  Time send_time = Time::ms(5);
  while (t < Time::sec(14.0)) {
    cca::AckEvent ev;
    // Drive the response in *send-time* coordinates: the z series is binned
    // by the send times of the acked packets.
    const double phase =
        std::sin(2.0 * std::numbers::pi * cfg.pulse_hz * send_time.to_sec());
    const Time gap = Time::us(static_cast<std::int64_t>(400.0 * (1.0 + 0.8 * phase)));
    t += gap;
    send_time += Time::us(400);
    ev.now = t;
    ev.newly_acked_bytes = sim::kMss;
    ev.rtt_sample = Time::ms(75);  // 15 ms above the floor: link busy
    ev.acked_sent_at = send_time;
    ev.inflight_bytes = 20 * sim::kMss;
    cc.on_ack(ev);
  }
  EXPECT_GE(cc.elasticity(), kElasticThreshold);
  EXPECT_EQ(cc.mode(), NimbusCca::Mode::kTcpCompetitive);
}

TEST(NimbusCca, ModeSwitchingReturnsToDelayModeWhenCalm) {
  sim::Scheduler sched;
  NimbusConfig cfg;
  cfg.capacity_hint = Rate::mbps(48);
  cfg.enable_mode_switching = true;
  NimbusCca cc{sched, cfg};
  // Perfectly steady delivery: z is flat, elasticity ~0, mode stays kDelay
  // through many evaluation windows.
  {
    cca::AckEvent floor;
    floor.now = Time::ms(60);
    floor.newly_acked_bytes = sim::kMss;
    floor.rtt_sample = Time::ms(60);
    floor.acked_sent_at = Time::ms(1);
    floor.inflight_bytes = 20 * sim::kMss;
    cc.on_ack(floor);
  }
  Time t = Time::ms(100);
  Time send_time = Time::ms(5);
  while (t < Time::sec(14.0)) {
    cca::AckEvent ev;
    t += Time::us(400);
    send_time += Time::us(400);
    ev.now = t;
    ev.newly_acked_bytes = sim::kMss;
    ev.rtt_sample = Time::ms(75);  // steady standing queue, steady service
    ev.acked_sent_at = send_time;
    ev.inflight_bytes = 20 * sim::kMss;
    cc.on_ack(ev);
  }
  EXPECT_LT(cc.elasticity(), kElasticThreshold);
  EXPECT_EQ(cc.mode(), NimbusCca::Mode::kDelay);
}

TEST(NimbusCca, LossHalvesCompetitiveRateOnly) {
  sim::Scheduler sched;
  NimbusConfig cfg;
  cfg.capacity_hint = Rate::mbps(48);
  NimbusCca cc{sched, cfg};
  const double base_before = cc.base_rate().to_bps();
  cca::LossEvent ev;
  ev.now = Time::ms(10);
  ev.lost_bytes = sim::kMss;
  cc.on_loss(ev);
  // Delay mode ignores individual losses entirely.
  EXPECT_DOUBLE_EQ(cc.base_rate().to_bps(), base_before);
}

TEST(NimbusCca, RtoResetsToFloorRate) {
  sim::Scheduler sched;
  NimbusConfig cfg;
  cfg.capacity_hint = Rate::mbps(48);
  cfg.initial_rate = Rate::mbps(30);
  NimbusCca cc{sched, cfg};
  cc.on_rto(Time::ms(100));
  EXPECT_DOUBLE_EQ(cc.base_rate().to_bps(), cfg.min_rate.to_bps());
}

TEST(ElasticityMetric, WorkspaceOverloadIdenticalEvenWhenDirty) {
  // The per-window workspace path must produce the same bits as a fresh
  // computation, even when the workspace was last used on a different
  // window length (every scratch buffer resized and overwritten).
  Rng rng{9};
  SpectrumWorkspace ws;
  ElasticityConfig cfg;
  cfg.reference_amplitude = 2.0;  // exercise the significance-scaling branch
  for (const std::size_t len : {500u, 128u, 500u, 2000u}) {
    const auto z = tone_plus_noise(5.0, 3.0, 0.8, len, rng);
    const double fresh = elasticity_metric(z, kFs, cfg);
    const double reused = elasticity_metric(z, kFs, cfg, ws);
    EXPECT_EQ(fresh, reused) << "len=" << len;
  }
}

}  // namespace
}  // namespace ccc::nimbus
