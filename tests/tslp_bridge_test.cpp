// Tests for the TSLP prober (§4) and the sim -> NDT record bridge.
#include <gtest/gtest.h>

#include <memory>

#include "analysis/ndt_bridge.hpp"
#include "analysis/tslp.hpp"
#include "app/bulk.hpp"
#include "app/rate_limited.hpp"
#include "app/stop_at.hpp"
#include "cca/cubic.hpp"
#include "core/dumbbell.hpp"
#include "pipeline/classify.hpp"
#include "telemetry/tcp_info.hpp"

namespace ccc {
namespace {

core::DumbbellConfig net20() {
  core::DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::mbps(20);
  cfg.one_way_delay = Time::ms(10);
  cfg.reverse_delay = Time::ms(10);
  return cfg;
}

// ---------- TSLP ----------

TEST(Tslp, QuietLinkReadsUncongested) {
  core::DumbbellScenario net{net20()};
  sim::LinkSink sink{net.bottleneck()};
  analysis::TslpConfig cfg;
  cfg.stop = Time::sec(20.0);
  analysis::TslpProber tslp{net.scheduler(), cfg, sink, net.demux()};
  net.run_until(Time::sec(21.0));
  EXPECT_GT(tslp.probes_received(), 150u);
  EXPECT_EQ(tslp.probes_lost(), 0u);
  EXPECT_LT(tslp.congested_fraction(), 0.05);
}

TEST(Tslp, BackloggedLinkReadsCongested) {
  core::DumbbellScenario net{net20()};
  sim::LinkSink sink{net.bottleneck()};
  analysis::TslpConfig cfg;
  cfg.stop = Time::sec(20.0);
  analysis::TslpProber tslp{net.scheduler(), cfg, sink, net.demux()};
  net.add_flow(std::make_unique<cca::Cubic>(), std::make_unique<app::BulkApp>(), 2);
  net.run_until(Time::sec(21.0));
  EXPECT_GT(tslp.congested_fraction(), 0.4);
  // The delay series reflects the standing queue in milliseconds.
  const auto ts = tslp.queueing_delay_ms();
  ASSERT_FALSE(ts.value.empty());
  EXPECT_GT(ts.mean_in(5.0, 20.0), 5.0);
}

TEST(Tslp, ProbeLossCountsAsSignal) {
  // Saturate a tiny-buffered link: some probes drop.
  auto cfg = net20();
  cfg.buffer_bdp_multiple = 0.1;
  core::DumbbellScenario net{cfg};
  sim::LinkSink sink{net.bottleneck()};
  analysis::TslpConfig tcfg;
  tcfg.stop = Time::sec(20.0);
  tcfg.interval = Time::ms(20);
  analysis::TslpProber tslp{net.scheduler(), tcfg, sink, net.demux()};
  net.add_flow(std::make_unique<cca::Cubic>(), std::make_unique<app::BulkApp>(), 2);
  net.run_until(Time::sec(21.0));
  EXPECT_GT(tslp.probes_sent(), 900u);
  // Either probes vanish into the full buffer or the delay signal is strong;
  // both are the congestion signatures TSLP relies on.
  EXPECT_TRUE(tslp.probes_lost() > 0 || tslp.congested_fraction() > 0.5)
      << "lost=" << tslp.probes_lost() << " frac=" << tslp.congested_fraction();
}

// ---------- NDT bridge: sim -> record -> pipeline, ground truth known ----------

TEST(NdtBridge, AppLimitedSimFlowIsFilteredByPipeline) {
  core::DumbbellScenario net{net20()};
  auto app = std::make_unique<app::RateLimitedApp>(net.scheduler(), Rate::mbps(3));
  net.add_flow(std::make_unique<cca::Cubic>(), std::move(app));
  telemetry::FlowMonitor mon{net.scheduler(), net.flow(0).sender(), Time::zero(),
                             Time::sec(10.0)};
  net.run_until(Time::sec(10.0));
  const auto rec = analysis::make_ndt_record(mon, 1, mlab::FlowArchetype::kAppLimitedConstant);
  EXPECT_GT(rec.app_limited_sec, 3.0);
  const auto f = pipeline::classify_flow(rec, pipeline::ClassifyConfig{});
  EXPECT_EQ(f.verdict, pipeline::Verdict::kFilteredAppLimited);
}

TEST(NdtBridge, RwndLimitedSimFlowIsFilteredByPipeline) {
  core::DumbbellScenario net{net20()};
  net.add_flow(std::make_unique<cca::Cubic>(), std::make_unique<app::BulkApp>(), 1,
               Time::zero(), /*receiver_window=*/8 * 1448);
  telemetry::FlowMonitor mon{net.scheduler(), net.flow(0).sender(), Time::zero(),
                             Time::sec(10.0)};
  net.run_until(Time::sec(10.0));
  const auto rec = analysis::make_ndt_record(mon, 2, mlab::FlowArchetype::kRwndLimited);
  const auto f = pipeline::classify_flow(rec, pipeline::ClassifyConfig{});
  EXPECT_EQ(f.verdict, pipeline::Verdict::kFilteredRwndLimited);
}

TEST(NdtBridge, ContendedSimFlowIsFlaggedByPipeline) {
  // A bulk flow whose competitor arrives mid-test: the pipeline must detect
  // the level shift on the record built from *simulated* telemetry.
  core::DumbbellScenario net{net20()};
  net.add_flow(std::make_unique<cca::Cubic>(), std::make_unique<app::BulkApp>());
  telemetry::FlowMonitor mon{net.scheduler(), net.flow(0).sender(), Time::zero(),
                             Time::sec(30.0)};
  // The competitor shows up at t=10 and stays; the flow's share then has
  // time to settle at ~half before the test ends (TCP convergence is a ramp,
  // not a step, so both levels need room to persist).
  net.add_flow(std::make_unique<cca::Cubic>(),
               std::make_unique<app::StopAtApp>(std::make_unique<app::BulkApp>(),
                                                Time::sec(30.0)),
               2, Time::sec(10.0));
  net.run_until(Time::sec(30.0));
  const auto rec = analysis::make_ndt_record(mon, 3, mlab::FlowArchetype::kBulkContended);
  pipeline::ClassifyConfig pcfg;
  pcfg.min_duration_sec = 2.0;
  const auto f = pipeline::classify_flow(rec, pcfg);
  EXPECT_EQ(f.verdict, pipeline::Verdict::kContentionSuspect);
  ASSERT_FALSE(f.shift_times_sec.empty());
  // TCP convergence is gradual, so the detected persistent level boundary
  // may land anywhere in the transition; it must at least postdate the
  // competitor's arrival.
  EXPECT_GE(f.shift_times_sec.front(), 9.0);
  EXPECT_LE(f.shift_times_sec.front(), 28.0);
}

TEST(NdtBridge, CleanSoloSimFlowIsNotFlagged) {
  core::DumbbellScenario net{net20()};
  net.add_flow(std::make_unique<cca::Cubic>(), std::make_unique<app::BulkApp>());
  telemetry::FlowMonitor mon{net.scheduler(), net.flow(0).sender(), Time::zero(),
                             Time::sec(16.0)};
  net.run_until(Time::sec(16.0));
  const auto rec = analysis::make_ndt_record(mon, 4, mlab::FlowArchetype::kBulkClean);
  pipeline::ClassifyConfig pcfg;
  pcfg.min_duration_sec = 2.0;
  const auto f = pipeline::classify_flow(rec, pcfg);
  EXPECT_EQ(f.verdict, pipeline::Verdict::kNoLevelShift)
      << pipeline::to_string(f.verdict);
}

TEST(NdtBridge, RecordCarriesPlausibleMetadata) {
  core::DumbbellScenario net{net20()};
  net.add_flow(std::make_unique<cca::Cubic>(), std::make_unique<app::BulkApp>());
  telemetry::FlowMonitor mon{net.scheduler(), net.flow(0).sender(), Time::zero(),
                             Time::sec(10.0)};
  net.run_until(Time::sec(10.0));
  const auto rec = analysis::make_ndt_record(mon, 5, mlab::FlowArchetype::kBulkClean);
  EXPECT_NEAR(rec.duration_sec, 10.0, 0.5);
  EXPECT_NEAR(rec.min_rtt_ms, 21.0, 3.0);
  EXPECT_GT(rec.mean_throughput_mbps, 15.0);
  EXPECT_NEAR(rec.snapshot_interval_sec, 0.1, 0.01);
}

TEST(NdtBridge, DurationUsesTheMonitorsSnapshotInterval) {
  // 1 s snapshots over [0, 10 s) land at 1..9 s; the record covers 9 s.
  core::DumbbellScenario net{net20()};
  net.add_flow(std::make_unique<cca::Cubic>(), std::make_unique<app::BulkApp>());
  telemetry::FlowMonitor mon{net.scheduler(), net.flow(0).sender(), Time::zero(),
                             Time::sec(10.0), Time::sec(1.0)};
  net.run_until(Time::sec(10.0));
  ASSERT_EQ(mon.snapshots().size(), 9u);
  const auto rec = analysis::make_ndt_record(mon, 6, mlab::FlowArchetype::kBulkClean);
  EXPECT_DOUBLE_EQ(rec.duration_sec, 9.0);
  EXPECT_DOUBLE_EQ(rec.snapshot_interval_sec, 1.0);
}

TEST(NdtBridge, LimitFieldsEqualTheSendersCounters) {
  // A 3 Mbit/s app behind an 8-segment receive window spends time both
  // app-limited and rwnd-limited. Stopping the run on the last snapshot
  // makes the sender's live counters the ones that snapshot copied.
  core::DumbbellScenario net{net20()};
  auto app = std::make_unique<app::RateLimitedApp>(net.scheduler(), Rate::mbps(3));
  net.add_flow(std::make_unique<cca::Cubic>(), std::move(app), 1, Time::zero(),
               /*receiver_window=*/8 * 1448);
  const flow::TcpSender& sender = net.flow(0).sender();
  telemetry::FlowMonitor mon{net.scheduler(), sender, Time::zero(), Time::sec(10.0)};
  net.run_until(Time::ms(9900));
  ASSERT_DOUBLE_EQ(mon.snapshots().back().t_sec, 9.9);
  const auto rec = analysis::make_ndt_record(mon, 7, mlab::FlowArchetype::kAppLimitedConstant);
  EXPECT_EQ(rec.app_limited_sec, sender.limited_time(flow::SendLimit::kApp).to_sec());
  EXPECT_EQ(rec.rwnd_limited_sec, sender.limited_time(flow::SendLimit::kRwnd).to_sec());
  EXPECT_GT(rec.app_limited_sec, 0.0);
  EXPECT_GT(rec.rwnd_limited_sec, 0.0);
}

}  // namespace
}  // namespace ccc
