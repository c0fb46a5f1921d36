// Tests for the observability layer: metric registry, sinks, RunReport,
// scenario instrumentation — plus the original samplers and TCPInfo-style
// flow monitoring.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "app/bulk.hpp"
#include "app/rate_limited.hpp"
#include "cca/bbr.hpp"
#include "cca/new_reno.hpp"
#include "core/dumbbell.hpp"
#include "core/elasticity_study.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/run_report.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/sink.hpp"
#include "telemetry/tcp_info.hpp"

namespace ccc::telemetry {
namespace {

TEST(PeriodicSampler, FiresAtInterval) {
  sim::Scheduler sched;
  std::vector<double> times;
  PeriodicSampler s{sched, Time::ms(100), Time::zero(), Time::sec(1.0),
                    [&](Time t) { times.push_back(t.to_sec()); }};
  sched.run_until(Time::sec(2.0));
  ASSERT_EQ(times.size(), 10u);  // 0.0 .. 0.9
  EXPECT_DOUBLE_EQ(times[0], 0.0);
  EXPECT_NEAR(times[9], 0.9, 1e-9);
}

TEST(TimeSeries, MeanAndSlice) {
  TimeSeries ts;
  for (int i = 0; i < 10; ++i) ts.add(Time::sec(i), static_cast<double>(i));
  EXPECT_DOUBLE_EQ(ts.mean_in(0.0, 5.0), 2.0);
  EXPECT_EQ(ts.slice(3.0, 6.0).size(), 3u);
  EXPECT_DOUBLE_EQ(ts.mean_in(100.0, 200.0), 0.0);
}

core::DumbbellConfig small_net() {
  core::DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::mbps(10);
  cfg.one_way_delay = Time::ms(10);
  cfg.reverse_delay = Time::ms(10);
  return cfg;
}

TEST(FlowMonitor, ThroughputSeriesTracksGoodput) {
  core::DumbbellScenario net{small_net()};
  net.add_flow(std::make_unique<cca::NewReno>(), std::make_unique<app::BulkApp>());
  FlowMonitor mon{net.scheduler(), net.flow(0).sender(), Time::zero(), Time::sec(10.0)};
  net.run_until(Time::sec(10.0));
  const auto series = mon.throughput_series_mbps();
  ASSERT_GT(series.size(), 50u);
  // Steady state (second half) should track the 10 Mbit/s link.
  double mean = 0.0;
  std::size_t n = 0;
  for (std::size_t i = series.size() / 2; i < series.size(); ++i) {
    mean += series[i];
    ++n;
  }
  mean /= static_cast<double>(n);
  EXPECT_GT(mean, 8.0);
  EXPECT_LT(mean, 10.5);
}

TEST(FlowMonitor, AppLimitedTimeDominatesForSlowApp) {
  core::DumbbellScenario net{small_net()};
  auto app = std::make_unique<app::RateLimitedApp>(net.scheduler(), Rate::mbps(1));
  net.add_flow(std::make_unique<cca::NewReno>(), std::move(app));
  FlowMonitor mon{net.scheduler(), net.flow(0).sender(), Time::zero(), Time::sec(10.0)};
  net.run_until(Time::sec(10.0));
  const auto& last = mon.snapshots().back();
  EXPECT_GT(last.app_limited_sec, 5.0);
  EXPECT_LT(last.rwnd_limited_sec, 1.0);
}

TEST(FlowMonitor, RwndLimitedTimeDominatesForSmallWindow) {
  core::DumbbellScenario net{small_net()};
  net.add_flow(std::make_unique<cca::NewReno>(), std::make_unique<app::BulkApp>(), 1,
               Time::zero(), /*receiver_window=*/6 * 1448);
  FlowMonitor mon{net.scheduler(), net.flow(0).sender(), Time::zero(), Time::sec(10.0)};
  net.run_until(Time::sec(10.0));
  const auto& last = mon.snapshots().back();
  EXPECT_GT(last.rwnd_limited_sec, 5.0);
  EXPECT_LT(last.app_limited_sec, 1.0);
}

TEST(FlowMonitor, SnapshotsCarryRttAndCwnd) {
  core::DumbbellScenario net{small_net()};
  net.add_flow(std::make_unique<cca::NewReno>(), std::make_unique<app::BulkApp>());
  FlowMonitor mon{net.scheduler(), net.flow(0).sender(), Time::zero(), Time::sec(5.0)};
  net.run_until(Time::sec(5.0));
  ASSERT_FALSE(mon.snapshots().empty());
  const auto& last = mon.snapshots().back();
  EXPECT_GT(last.srtt_ms, 15.0);
  EXPECT_GT(last.cwnd_bytes, 0);
  EXPECT_GT(last.bytes_acked, 0);
}

// ---------- MetricRegistry ----------

TEST(MetricRegistry, InstrumentsAreStableAndNamed) {
  MetricRegistry reg;
  Counter& c = reg.counter("a.count");
  c.inc();
  c.inc(2);
  // Second lookup returns the same instrument (node stability).
  EXPECT_EQ(&reg.counter("a.count"), &c);
  EXPECT_EQ(reg.counter("a.count").value(), 3u);

  reg.gauge("b.util").set(0.5);
  EXPECT_DOUBLE_EQ(reg.gauge("b.util").value(), 0.5);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricRegistry, ExportOrderIsNameSorted) {
  MetricRegistry reg;
  reg.counter("z");
  reg.counter("a");
  reg.counter("m");
  std::vector<std::string> names;
  for (const auto& [name, c] : reg.counters()) names.push_back(name);
  EXPECT_EQ(names, (std::vector<std::string>{"a", "m", "z"}));
}

TEST(Histogram, BucketsAndQuantiles) {
  Histogram h{{1.0, 10.0, 100.0}};
  h.observe(0.5);    // <= 1
  h.observe(1.0);    // <= 1 (bound is inclusive)
  h.observe(5.0);    // <= 10
  h.observe(1000.0); // overflow
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 1006.5);
  ASSERT_EQ(h.counts().size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(h.counts()[0], 2u);
  EXPECT_EQ(h.counts()[1], 1u);
  EXPECT_EQ(h.counts()[2], 0u);
  EXPECT_EQ(h.counts()[3], 1u);
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 1.0);
  // Overflow mass is attributed to the largest bound.
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 100.0);
}

TEST(Histogram, GeometricBounds) {
  const auto b = Histogram::geometric_bounds(0.5, 2.0, 4);
  EXPECT_EQ(b, (std::vector<double>{0.5, 1.0, 2.0, 4.0}));
}

TEST(Trace, MinIntervalDownsamples) {
  Trace tr{Time::ms(10)};
  tr.record(Time::ms(0), 1.0);
  tr.record(Time::ms(5), 2.0);   // within 10 ms of the last kept point
  tr.record(Time::ms(10), 3.0);  // due again
  tr.record(Time::ms(12), 4.0);
  ASSERT_EQ(tr.points().size(), 2u);
  EXPECT_DOUBLE_EQ(tr.points()[0].second, 1.0);
  EXPECT_DOUBLE_EQ(tr.points()[1].second, 3.0);
}

// ---------- Sinks ----------

TEST(JsonlSink, ExactRowFormat) {
  std::ostringstream os;
  JsonlSink sink{os};
  sink.meta("bench_x", 42);
  sink.row({"phase1", "qdisc.drops", "counter", 1.5, 7.0});
  EXPECT_EQ(os.str(),
            "{\"schema\":\"ccc.report.v1\",\"bench\":\"bench_x\",\"seed\":42}\n"
            "{\"scope\":\"phase1\",\"name\":\"qdisc.drops\",\"kind\":\"counter\","
            "\"t\":1.5,\"value\":7}\n");
}

TEST(CsvSink, ExactRowFormat) {
  std::ostringstream os;
  CsvSink sink{os};
  sink.meta("bench_x", 42);
  sink.row({"s", "n", "gauge", 0.25, 0.125});
  EXPECT_EQ(os.str(),
            "# bench=bench_x seed=42 schema=ccc.report.v1\n"
            "scope,name,kind,t_sec,value\n"
            "s,n,gauge,0.25,0.125\n");
}

TEST(Sinks, FormatValueIsLocaleFreeAndCompact) {
  EXPECT_EQ(format_value(48.0), "48");
  EXPECT_EQ(format_value(0.1), "0.1");
  EXPECT_EQ(format_value(1e-9), "1e-09");
}

// ---------- RunReport ----------

TEST(RunReport, RegistryFlattensDeterministically) {
  MetricRegistry reg;
  reg.counter("b.count").inc(3);
  reg.counter("a.count").inc(1);
  reg.gauge("g.util").set(0.75);
  reg.histogram("h.ms", {1.0, 2.0}).observe(1.5);
  reg.trace("t.cwnd").record(Time::ms(500), 10.0);

  RunReport rep{"t", 1};
  rep.add_registry("net", reg, Time::sec(2.0));
  const std::string first = rep.to_jsonl();

  // Same registry, same call -> byte-identical serialization.
  RunReport rep2{"t", 1};
  rep2.add_registry("net", reg, Time::sec(2.0));
  EXPECT_EQ(first, rep2.to_jsonl());

  // Counters come out name-sorted; the trace row is stamped with the
  // point's own sim time, not the collection time.
  ASSERT_GE(rep.rows().size(), 7u);
  EXPECT_EQ(rep.rows()[0].name, "a.count");
  EXPECT_EQ(rep.rows()[1].name, "b.count");
  bool saw_trace = false;
  for (const auto& r : rep.rows()) {
    if (r.kind == "trace") {
      saw_trace = true;
      EXPECT_DOUBLE_EQ(r.t_sec, 0.5);
    } else {
      EXPECT_DOUBLE_EQ(r.t_sec, 2.0);
    }
  }
  EXPECT_TRUE(saw_trace);
}

TEST(RunReport, AppendPreservesFragmentOrder) {
  RunReport a{"bench", 0};
  a.add_scalar("p1", "x", 1.0);
  RunReport frag;
  frag.add_scalar("p2", "y", 2.0);
  a.append(frag);
  ASSERT_EQ(a.rows().size(), 2u);
  EXPECT_EQ(a.rows()[0].scope, "p1");
  EXPECT_EQ(a.rows()[1].scope, "p2");
}

TEST(RunReport, EmitSelectsSinkByPath) {
  RunReport rep{"t", 9};
  rep.add_scalar("s", "v", 3.0);
  // "" -> NullSink: succeeds, writes nothing.
  EXPECT_TRUE(rep.emit(""));
  // Unopenable path -> false.
  EXPECT_FALSE(rep.emit("/nonexistent-dir/x.jsonl"));

  const std::string jsonl = "/tmp/ccc_report_test.jsonl";
  const std::string csv = "/tmp/ccc_report_test.csv";
  ASSERT_TRUE(rep.emit(jsonl));
  ASSERT_TRUE(rep.emit(csv));
  auto slurp = [](const std::string& p) {
    std::ifstream f{p};
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
  };
  EXPECT_NE(slurp(jsonl).find("\"schema\":\"ccc.report.v1\""), std::string::npos);
  EXPECT_NE(slurp(csv).find("scope,name,kind,t_sec,value"), std::string::npos);
  std::remove(jsonl.c_str());
  std::remove(csv.c_str());
}

// ---------- Scenario instrumentation ----------

TEST(DumbbellTelemetry, DisabledByDefaultAndCostFree) {
  core::DumbbellScenario net{small_net()};
  net.add_flow(std::make_unique<cca::NewReno>(), std::make_unique<app::BulkApp>());
  net.run_until(Time::sec(2.0));
  net.collect_metrics();
  EXPECT_FALSE(net.metrics().enabled());
  EXPECT_EQ(net.metrics().size(), 0u);  // nothing bound, nothing exported
}

TEST(DumbbellTelemetry, InstrumentsLinkQdiscAndFlows) {
  auto cfg = small_net().with_telemetry(true);
  core::DumbbellScenario net{cfg};
  net.add_flow(std::make_unique<cca::NewReno>(), std::make_unique<app::BulkApp>());
  net.run_until(Time::sec(5.0));
  net.collect_metrics();

  MetricRegistry& m = net.metrics();
  EXPECT_GT(m.counter("link.tx_packets").value(), 0u);
  EXPECT_GT(m.counter("link.qdisc.enqueued_packets").value(), 0u);
  // Conservation holds in the exported view too.
  EXPECT_EQ(m.counter("link.qdisc.enqueued_packets").value(),
            m.counter("link.qdisc.dequeued_packets").value() +
                m.counter("link.qdisc.dropped_packets").value() +
                static_cast<std::uint64_t>(m.gauge("link.qdisc.backlog_packets").value()));
  // Live instruments populated on the hot path.
  EXPECT_GT(m.histograms().at("link.qdisc.sojourn_ms").count(), 0u);
  EXPECT_GT(m.histograms().at("flow1.rtt_ms").count(), 0u);
  EXPECT_FALSE(m.traces().at("flow1.cwnd_bytes").points().empty());
  // Snapshot counters mirror SenderStats.
  EXPECT_EQ(m.counter("flow1.bytes_acked").value(),
            net.flow(0).sender().stats().bytes_acked);
}

TEST(DumbbellTelemetry, BbrModeTransitionsAreTraced) {
  auto cfg = small_net().with_telemetry(true);
  core::DumbbellScenario net{cfg};
  net.add_flow(std::make_unique<cca::Bbr>(), std::make_unique<app::BulkApp>());
  net.run_until(Time::sec(10.0));
  net.collect_metrics();
  const MetricRegistry& m = net.metrics();
  // Startup -> Drain -> ProbeBW at minimum.
  EXPECT_GE(m.counters().at("flow1.cca.mode_transitions").value(), 2u);
  const auto& pts = m.traces().at("flow1.cca.mode").points();
  ASSERT_GE(pts.size(), 3u);
  EXPECT_DOUBLE_EQ(pts[0].second, 0.0);  // kStartup at t=0
}

// ---------- DumbbellConfig validation ----------

TEST(DumbbellConfig, FluentSettersCompose) {
  const auto cfg = core::DumbbellConfig{}
                       .with_rate(Rate::mbps(20))
                       .with_one_way_delay(Time::ms(5))
                       .with_reverse_delay(Time::ms(7))
                       .with_buffer_bdp_multiple(3.0)
                       .with_seed(99)
                       .with_telemetry(true);
  EXPECT_DOUBLE_EQ(cfg.bottleneck_rate.to_bps(), Rate::mbps(20).to_bps());
  EXPECT_EQ(cfg.one_way_delay, Time::ms(5));
  EXPECT_EQ(cfg.reverse_delay, Time::ms(7));
  EXPECT_DOUBLE_EQ(cfg.buffer_bdp_multiple, 3.0);
  EXPECT_EQ(cfg.seed, 99u);
  EXPECT_TRUE(cfg.enable_telemetry);
  cfg.validate();  // must not throw
}

TEST(DumbbellConfig, ValidateRejectsNonPositiveFields) {
  // Fluent setters fail fast on the offending field...
  EXPECT_THROW(core::DumbbellConfig{}.with_rate(Rate::mbps(0)), std::invalid_argument);
  EXPECT_THROW(core::DumbbellConfig{}.with_one_way_delay(Time::zero()), std::invalid_argument);
  EXPECT_THROW(core::DumbbellConfig{}.with_reverse_delay(Time::zero()), std::invalid_argument);
  EXPECT_THROW(core::DumbbellConfig{}.with_buffer_bdp_multiple(0.0), std::invalid_argument);
  // ...and validate() catches direct field assignment.
  core::DumbbellConfig bad;
  bad.buffer_bdp_multiple = -1.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  // The scenario constructor enforces validation too.
  EXPECT_THROW(core::DumbbellScenario{bad}, std::invalid_argument);
}

// ---------- fig3 report determinism across job counts ----------

TEST(ElasticityPocReport, ByteIdenticalAcrossJobCounts) {
  core::ElasticityPocConfig cfg;
  cfg.phase_duration = Time::sec(3.0);
  cfg.warmup = Time::sec(1.0);
  const auto serial_jobs = core::run_elasticity_poc_parallel(cfg, 1);
  const auto parallel_jobs = core::run_elasticity_poc_parallel(cfg, 8);
  const std::string a = serial_jobs.report.to_jsonl();
  const std::string b = parallel_jobs.report.to_jsonl();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "--jobs 1 and --jobs 8 reports must be byte-identical";
  // The report carries real instrumentation, not just headline scalars.
  EXPECT_NE(a.find("link.qdisc.sojourn_ms"), std::string::npos);
  EXPECT_NE(a.find("\"kind\":\"scalar\""), std::string::npos);
}

}  // namespace
}  // namespace ccc::telemetry
