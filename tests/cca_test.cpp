// Unit tests for CCA state machines (driven with synthetic events).
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <utility>

#include "cca/aimd.hpp"
#include "cca/bbr.hpp"
#include "cca/copa.hpp"
#include "cca/cubic.hpp"
#include "cca/new_reno.hpp"
#include "cca/vegas.hpp"
#include "util/rng.hpp"

namespace ccc::cca {
namespace {

AckEvent ack(Time now, ByteCount bytes, Time rtt = Time::ms(50),
             Rate rate = Rate::mbps(10), ByteCount inflight = 0) {
  AckEvent ev;
  ev.now = now;
  ev.newly_acked_bytes = bytes;
  ev.rtt_sample = rtt;
  ev.delivery_rate = rate;
  ev.inflight_bytes = inflight;
  return ev;
}

LossEvent loss(Time now, ByteCount inflight) {
  LossEvent ev;
  ev.now = now;
  ev.lost_bytes = sim::kMss;
  ev.inflight_bytes = inflight;
  return ev;
}

// ---------- NewReno ----------

TEST(NewReno, SlowStartDoublesPerRtt) {
  NewReno cc;
  const ByteCount start = cc.cwnd_bytes();
  // ACK one full window: slow start grows cwnd by bytes acked.
  cc.on_ack(ack(Time::ms(50), start));
  EXPECT_EQ(cc.cwnd_bytes(), 2 * start);
  EXPECT_TRUE(cc.in_slow_start());
}

TEST(NewReno, LossHalvesWindow) {
  NewReno cc;
  cc.on_ack(ack(Time::ms(50), cc.cwnd_bytes()));
  const ByteCount before = cc.cwnd_bytes();
  cc.on_loss(loss(Time::ms(100), before));
  EXPECT_EQ(cc.cwnd_bytes(), before / 2);
  EXPECT_FALSE(cc.in_slow_start());
}

TEST(NewReno, CongestionAvoidanceGrowsOneMssPerWindow) {
  NewReno cc;
  cc.on_loss(loss(Time::ms(10), cc.cwnd_bytes()));  // force CA
  const ByteCount w = cc.cwnd_bytes();
  // ACK exactly one window's worth of bytes in MSS chunks.
  ByteCount acked = 0;
  Time t = Time::ms(20);
  while (acked < w) {
    cc.on_ack(ack(t, sim::kMss));
    acked += sim::kMss;
    t += Time::us(100);
  }
  EXPECT_GE(cc.cwnd_bytes(), w + sim::kMss);
  EXPECT_LE(cc.cwnd_bytes(), w + 2 * sim::kMss);
}

TEST(NewReno, RtoCollapsesToOneMss) {
  NewReno cc;
  cc.on_rto(Time::ms(500));
  EXPECT_EQ(cc.cwnd_bytes(), sim::kMss);
  EXPECT_TRUE(cc.in_slow_start());
}

TEST(NewReno, RecoveryFreezesGrowth) {
  NewReno cc;
  const ByteCount w = cc.cwnd_bytes();
  auto ev = ack(Time::ms(50), sim::kMss);
  ev.in_recovery = true;
  cc.on_ack(ev);
  EXPECT_EQ(cc.cwnd_bytes(), w);
}

TEST(NewReno, WindowNeverBelowTwoMss) {
  NewReno cc{2 * sim::kMss};
  for (int i = 0; i < 10; ++i) cc.on_loss(loss(Time::ms(10 * i), cc.cwnd_bytes()));
  EXPECT_GE(cc.cwnd_bytes(), 2 * sim::kMss);
}

// ---------- Cubic ----------

TEST(Cubic, SlowStartThenLossReduction) {
  Cubic cc;
  const ByteCount start = cc.cwnd_bytes();
  cc.on_ack(ack(Time::ms(50), start));
  EXPECT_EQ(cc.cwnd_bytes(), 2 * start);
  const ByteCount before = cc.cwnd_bytes();
  cc.on_loss(loss(Time::ms(100), before));
  EXPECT_NEAR(static_cast<double>(cc.cwnd_bytes()), 0.7 * static_cast<double>(before),
              static_cast<double>(sim::kMss));
}

TEST(Cubic, GrowsTowardWmaxAfterLoss) {
  Cubic cc;
  // Build a large window, lose, then verify growth resumes toward w_max.
  for (int i = 0; i < 6; ++i) cc.on_ack(ack(Time::ms(50 * (i + 1)), cc.cwnd_bytes()));
  const ByteCount peak = cc.cwnd_bytes();
  cc.on_loss(loss(Time::sec(1.0), peak));
  const ByteCount post_loss = cc.cwnd_bytes();
  Time t = Time::sec(1.0);
  for (int i = 0; i < 400; ++i) {
    t += Time::ms(25);
    cc.on_ack(ack(t, sim::kMss));
  }
  EXPECT_GT(cc.cwnd_bytes(), post_loss);
}

TEST(Cubic, FastConvergenceLowersPeakOnBackToBackLosses) {
  Cubic cc;
  for (int i = 0; i < 6; ++i) cc.on_ack(ack(Time::ms(50 * (i + 1)), cc.cwnd_bytes()));
  const ByteCount w1 = cc.cwnd_bytes();
  cc.on_loss(loss(Time::sec(1.0), w1));
  const ByteCount w2 = cc.cwnd_bytes();
  cc.on_loss(loss(Time::sec(1.1), w2));
  EXPECT_LT(cc.cwnd_bytes(), w2);
}

// ---------- Vegas ----------

TEST(Vegas, HoldsInTargetBand) {
  Vegas cc{20 * sim::kMss};
  // base RTT 100 ms established first; leave slow start via a loss.
  cc.on_ack(ack(Time::ms(100), sim::kMss, Time::ms(100)));
  cc.on_loss(loss(Time::ms(150), cc.cwnd_bytes()));
  const ByteCount w = cc.cwnd_bytes();
  const double w_pkts = static_cast<double>(w) / sim::kMss;
  // Choose rtt so diff = w_pkts * (1 - base/rtt) ~= 3 packets — inside the
  // [2, 4] band, where Vegas should hold the window roughly steady.
  const double rtt_sec = 0.1 / (1.0 - 3.0 / w_pkts);
  Time t = Time::ms(300);
  for (int i = 0; i < 60; ++i) {
    t += Time::ms(110);
    cc.on_ack(ack(t, sim::kMss, Time::sec(rtt_sec)));
  }
  // Some drift is expected while srtt converges; the window must stay near
  // its starting point rather than ramping or collapsing.
  EXPECT_NEAR(static_cast<double>(cc.cwnd_bytes()), static_cast<double>(w),
              6.0 * sim::kMss);
}

TEST(Vegas, BacksOffWhenQueueGrows) {
  Vegas cc{40 * sim::kMss};
  cc.on_ack(ack(Time::ms(100), sim::kMss, Time::ms(50)));  // base 50 ms
  cc.on_loss(loss(Time::ms(150), cc.cwnd_bytes()));        // leave slow start
  const ByteCount w = cc.cwnd_bytes();
  Time t = Time::ms(300);
  for (int i = 0; i < 30; ++i) {
    t += Time::ms(110);
    cc.on_ack(ack(t, sim::kMss, Time::ms(100)));  // 2x base: deep queue
  }
  EXPECT_LT(cc.cwnd_bytes(), w);
}

TEST(Vegas, TracksMinRttAsBase) {
  Vegas cc;
  cc.on_ack(ack(Time::ms(100), sim::kMss, Time::ms(80)));
  cc.on_ack(ack(Time::ms(200), sim::kMss, Time::ms(60)));
  cc.on_ack(ack(Time::ms(300), sim::kMss, Time::ms(70)));
  EXPECT_EQ(cc.base_rtt(), Time::ms(60));
}

// ---------- BBR ----------

TEST(Bbr, StartupExitsAfterBandwidthPlateau) {
  Bbr cc;
  Time t = Time::zero();
  // Feed a constant 10 Mbit/s delivery rate; startup should exit within a
  // handful of rounds.
  for (int i = 0; i < 100; ++i) {
    t += Time::ms(10);
    cc.on_ack(ack(t, sim::kMss, Time::ms(50), Rate::mbps(10), 20 * sim::kMss));
  }
  EXPECT_NE(cc.state(), Bbr::State::kStartup);
  EXPECT_NEAR(cc.btlbw().to_mbps(), 10.0, 0.5);
}

TEST(Bbr, PacingRateFollowsGainCycle) {
  Bbr cc;
  Time t = Time::zero();
  for (int i = 0; i < 400; ++i) {
    t += Time::ms(10);
    cc.on_ack(ack(t, sim::kMss, Time::ms(50), Rate::mbps(10), 10 * sim::kMss));
  }
  ASSERT_EQ(cc.state(), Bbr::State::kProbeBw);
  // Pacing rate stays within the probe_bw gain envelope [0.75, 1.25]*btlbw.
  const double ratio = cc.pacing_rate().to_bps() / cc.btlbw().to_bps();
  EXPECT_GE(ratio, 0.74);
  EXPECT_LE(ratio, 1.26);
}

TEST(Bbr, IgnoresLoss) {
  Bbr cc;
  Time t = Time::zero();
  for (int i = 0; i < 100; ++i) {
    t += Time::ms(10);
    cc.on_ack(ack(t, sim::kMss, Time::ms(50), Rate::mbps(10), 10 * sim::kMss));
  }
  const ByteCount before = cc.cwnd_bytes();
  cc.on_loss(loss(t, before));
  EXPECT_EQ(cc.cwnd_bytes(), before);
}

TEST(Bbr, CwndIsTwoBdp) {
  Bbr cc;
  Time t = Time::zero();
  for (int i = 0; i < 200; ++i) {
    t += Time::ms(10);
    cc.on_ack(ack(t, sim::kMss, Time::ms(50), Rate::mbps(10), 10 * sim::kMss));
  }
  // BDP = 10 Mbit/s * 50 ms = 62,500 bytes; cwnd should be ~2x.
  EXPECT_NEAR(static_cast<double>(cc.cwnd_bytes()), 125000.0, 20000.0);
}

TEST(Bbr, AppLimitedSamplesDontInflateModel) {
  Bbr cc;
  Time t = Time::zero();
  for (int i = 0; i < 100; ++i) {
    t += Time::ms(10);
    cc.on_ack(ack(t, sim::kMss, Time::ms(50), Rate::mbps(10), 10 * sim::kMss));
  }
  const Rate before = cc.btlbw();
  auto ev = ack(t + Time::ms(10), sim::kMss, Time::ms(50), Rate::mbps(50), 10 * sim::kMss);
  ev.app_limited = true;
  // App-limited sample *above* the estimate still counts (proves capacity)…
  cc.on_ack(ev);
  EXPECT_GT(cc.btlbw(), before);
  // …but one *below* must not drag the estimate down: feed low app-limited
  // samples and verify the filter keeps the old max until it ages out.
  auto low = ack(t + Time::ms(20), sim::kMss, Time::ms(50), Rate::mbps(1), 10 * sim::kMss);
  low.app_limited = true;
  cc.on_ack(low);
  EXPECT_GT(cc.btlbw().to_mbps(), 9.0);
}

// ---------- Copa ----------

TEST(Copa, IncreasesWhenNoQueue) {
  Copa cc;
  Time t = Time::zero();
  const ByteCount start = cc.cwnd_bytes();
  for (int i = 0; i < 50; ++i) {
    t += Time::ms(50);
    cc.on_ack(ack(t, sim::kMss, Time::ms(50)));  // rtt == min rtt: no queue
  }
  EXPECT_GT(cc.cwnd_bytes(), start);
}

TEST(Copa, BacksOffUnderLargeQueueDelay) {
  Copa cc{100 * sim::kMss};
  Time t = Time::zero();
  cc.on_ack(ack(t + Time::ms(50), sim::kMss, Time::ms(50)));  // min rtt = 50
  // Now huge standing queue: 200 ms RTTs. Target rate 1/(0.5*0.15) ~= 13
  // pkts/s, far below cwnd/rtt, so Copa must decrease. (Stay within the
  // 10 s min-RTT window so the 50 ms baseline remains in force.)
  const ByteCount before = cc.cwnd_bytes();
  for (int i = 0; i < 40; ++i) {
    t += Time::ms(200);
    cc.on_ack(ack(t, sim::kMss, Time::ms(200)));
  }
  EXPECT_LT(cc.cwnd_bytes(), before);
}

TEST(Copa, ReportsQueueingDelay) {
  Copa cc;
  Time t = Time::ms(50);
  cc.on_ack(ack(t, sim::kMss, Time::ms(50)));
  t += Time::ms(80);
  cc.on_ack(ack(t, sim::kMss, Time::ms(80)));
  // min 50, standing window holds recent 80 -> queueing ~30 ms.
  EXPECT_NEAR(cc.queueing_delay().to_ms(), 30.0, 10.0);
}

TEST(Copa, WindowedRttMinimaMatchNaiveRecomputation) {
  // A scripted ACK sequence over 25 s: RTTs on a random walk between 10 and
  // 300 ms (so srtt, and with it the standing window, shrinks and grows),
  // ACK gaps of 0-20 ms (same-time ACKs included) and every tenth ACK
  // without an RTT sample. After each ACK, min_rtt() and standing_rtt() must
  // equal a scan over deques that keep every sample the same 10 s and
  // max(srtt/2, 1 ms) evictions leave, with srtt recomputed alongside.
  Rng rng{5};
  Copa cc;
  std::deque<std::pair<Time, Time>> all_10s;
  std::deque<std::pair<Time, Time>> all_standing;
  Time srtt = Time::zero();
  Time now = Time::zero();
  std::int64_t rtt_ms = 50;
  const auto scan_min = [](const std::deque<std::pair<Time, Time>>& d) {
    Time best = Time::never();
    for (const auto& sample : d) best = std::min(best, sample.second);
    return best;
  };
  for (int i = 0; i < 2'500; ++i) {
    now += Time::ms(rng.uniform_int(0, 20));
    rtt_ms = std::clamp<std::int64_t>(rtt_ms + rng.uniform_int(-15, 15), 10, 300);
    const Time rtt = i % 10 == 9 ? Time::zero() : Time::ms(rtt_ms);
    if (rtt > Time::zero()) {
      srtt = srtt == Time::zero()
                 ? rtt
                 : Time::ns(static_cast<std::int64_t>(
                       0.875 * static_cast<double>(srtt.count_ns()) +
                       0.125 * static_cast<double>(rtt.count_ns())));
      all_10s.emplace_back(now, rtt);
      all_standing.emplace_back(now, rtt);
    }
    while (!all_10s.empty() && now - all_10s.front().first > Time::sec(10)) all_10s.pop_front();
    const Time width = std::max(srtt / 2, Time::ms(1));
    while (!all_standing.empty() && now - all_standing.front().first > width) {
      all_standing.pop_front();
    }
    cc.on_ack(ack(now, sim::kMss, rtt));
    ASSERT_EQ(cc.min_rtt(), scan_min(all_10s)) << "ack " << i;
    ASSERT_EQ(cc.standing_rtt(), scan_min(all_standing)) << "ack " << i;
  }
}

// ---------- AIMD ----------

TEST(Aimd, AdditiveIncreasePerRtt) {
  Aimd cc{1.0, 0.5, 10 * sim::kMss, sim::kMss, /*slow_start=*/false};
  const ByteCount w = cc.cwnd_bytes();
  // ACK slightly more than one window (floating-point accumulation may need
  // the extra ACK to tip over); growth must be exactly one MSS.
  ByteCount acked = 0;
  Time t = Time::zero();
  while (acked < w + sim::kMss) {
    t += Time::ms(1);
    cc.on_ack(ack(t, sim::kMss));
    acked += sim::kMss;
  }
  EXPECT_GE(cc.cwnd_bytes(), w + sim::kMss);
  EXPECT_LE(cc.cwnd_bytes(), w + 2 * sim::kMss);
}

TEST(Aimd, MultiplicativeDecreaseUsesBeta) {
  Aimd cc{1.0, 0.25, 40 * sim::kMss, sim::kMss, false};
  const ByteCount w = cc.cwnd_bytes();
  cc.on_loss(loss(Time::ms(10), w));
  EXPECT_NEAR(static_cast<double>(cc.cwnd_bytes()), 0.75 * static_cast<double>(w),
              static_cast<double>(sim::kMss));
}

TEST(Aimd, InvalidParamsAssert) {
  // Construction contract: a in (0,inf), b in (0,1). Death tests are heavy;
  // verify legal edge construction works instead.
  Aimd ok{0.5, 0.9, sim::kMss, sim::kMss, false};
  EXPECT_EQ(ok.cwnd_bytes(), sim::kMss);
}

}  // namespace
}  // namespace ccc::cca
