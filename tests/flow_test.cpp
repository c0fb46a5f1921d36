// Tests for the TCP endpoints: delivery, loss recovery, RTO, pacing,
// app/rwnd-limited behaviour. These run small end-to-end simulations on a
// single dumbbell.
#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "app/bulk.hpp"
#include "app/rate_limited.hpp"
#include "cca/bbr.hpp"
#include "cca/new_reno.hpp"
#include "core/cca_registry.hpp"
#include "core/dumbbell.hpp"
#include "flow/udp_source.hpp"
#include "queue/drop_tail.hpp"

namespace ccc::flow {
namespace {

core::DumbbellConfig small_net() {
  core::DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::mbps(10);
  cfg.one_way_delay = Time::ms(10);
  cfg.reverse_delay = Time::ms(10);
  cfg.buffer_bdp_multiple = 1.0;
  return cfg;
}

TEST(TcpFlow, DeliversAllBytesOfAShortFlow) {
  core::DumbbellScenario net{small_net()};
  const ByteCount size = 50'000;
  net.add_flow(std::make_unique<cca::NewReno>(), std::make_unique<app::BulkApp>(size));
  net.run_until(Time::sec(5.0));
  EXPECT_EQ(net.flow(0).delivered_bytes(), size);
  EXPECT_TRUE(net.flow(0).sender().completed());
}

TEST(TcpFlow, CompletionCallbackFires) {
  core::DumbbellScenario net{small_net()};
  net.add_flow(std::make_unique<cca::NewReno>(), std::make_unique<app::BulkApp>(10'000));
  Time done = Time::never();
  net.flow(0).sender().set_on_complete([&](Time t) { done = t; });
  net.run_until(Time::sec(5.0));
  EXPECT_LT(done, Time::sec(1.0));
  EXPECT_GT(done, Time::ms(20));  // at least one RTT
}

TEST(TcpFlow, SingleFlowSaturatesLink) {
  core::DumbbellScenario net{small_net()};
  net.add_flow(std::make_unique<cca::NewReno>(), std::make_unique<app::BulkApp>());
  net.run_until(Time::sec(2.0));
  const auto snap = net.snapshot_delivered();
  net.run_until(Time::sec(10.0));
  const double mbps = net.goodput_mbps_since(0, snap, Time::sec(8.0));
  EXPECT_GT(mbps, 8.5);   // >85% of the 10 Mbit/s link
  EXPECT_LT(mbps, 10.1);  // and never above it
}

TEST(TcpFlow, RttMeasuredAboveBase) {
  core::DumbbellScenario net{small_net()};
  net.add_flow(std::make_unique<cca::NewReno>(), std::make_unique<app::BulkApp>());
  net.run_until(Time::sec(5.0));
  const Time min_rtt = net.flow(0).sender().min_rtt();
  // Base RTT: 10 ms + 10 ms prop + ~1.2 ms serialization.
  EXPECT_GE(min_rtt, Time::ms(20));
  EXPECT_LE(min_rtt, Time::ms(30));
}

TEST(TcpFlow, LossRecoveryRetransmits) {
  auto cfg = small_net();
  cfg.buffer_bdp_multiple = 0.4;  // shallow buffer forces drops
  core::DumbbellScenario net{cfg};
  net.add_flow(std::make_unique<cca::NewReno>(), std::make_unique<app::BulkApp>());
  net.run_until(Time::sec(10.0));
  const auto& st = net.flow(0).sender().stats();
  EXPECT_GT(st.recovery_episodes, 0u);
  EXPECT_GT(st.retransmissions, 0u);
  // Despite drops, goodput remains solid (recovery works).
  const double mbps =
      static_cast<double>(net.flow(0).delivered_bytes()) * 8.0 / 10.0 / 1e6;
  EXPECT_GT(mbps, 6.0);
}

TEST(TcpFlow, ReceiverWindowCapsThroughput) {
  core::DumbbellScenario net{small_net()};
  // rwnd = 16 packets; base RTT ~21 ms -> cap ~= 16*1448*8/0.021 = 8.8 Mbit/s
  // on a 10 Mbit/s link... use a smaller window for a clear gap.
  const ByteCount rwnd = 8 * 1448;
  net.add_flow(std::make_unique<cca::NewReno>(), std::make_unique<app::BulkApp>(), 1,
               Time::zero(), rwnd);
  net.run_until(Time::sec(2.0));
  const auto snap = net.snapshot_delivered();
  net.run_until(Time::sec(10.0));
  const double mbps = net.goodput_mbps_since(0, snap, Time::sec(8.0));
  // Window-limited throughput = rwnd / RTT, clearly below link rate.
  EXPECT_LT(mbps, 6.0);
  EXPECT_GT(mbps, 2.0);
  EXPECT_EQ(net.flow(0).sender().current_limit(), SendLimit::kRwnd);
}

TEST(TcpFlow, AppLimitedFlowReportsAppLimit) {
  core::DumbbellScenario net{small_net()};
  auto app = std::make_unique<app::RateLimitedApp>(net.scheduler(), Rate::mbps(2));
  net.add_flow(std::make_unique<cca::NewReno>(), std::move(app));
  net.run_until(Time::sec(5.0));
  const auto snap = net.snapshot_delivered();
  net.run_until(Time::sec(10.0));
  const double mbps = net.goodput_mbps_since(0, snap, Time::sec(5.0));
  EXPECT_NEAR(mbps, 2.0, 0.3);
  EXPECT_EQ(net.flow(0).sender().current_limit(), SendLimit::kApp);
}

// ---------- exact limit-time counters ----------

constexpr std::array kAllLimits{SendLimit::kNone, SendLimit::kCca, SendLimit::kRwnd,
                                SendLimit::kApp, SendLimit::kDone};

TEST(SendLimitTime, BucketsPartitionTheSendersLifetimeExactly) {
  // A 2 Mbit/s app behind a 4-segment receive window (~2.2 Mbit/s at this
  // RTT) spends time both app-limited and rwnd-limited. The sender is built
  // at 0.5 s and starts at 1 s, so the idle time before start counts too.
  core::DumbbellScenario net{small_net()};
  const Time built = Time::ms(500);
  net.run_until(built);
  auto app = std::make_unique<app::RateLimitedApp>(net.scheduler(), Rate::mbps(2));
  net.add_flow(std::make_unique<cca::NewReno>(), std::move(app), 1, Time::sec(1.0),
               /*receiver_window=*/4 * 1448);
  const TcpSender& sender = net.flow(0).sender();

  std::array<Time, kAllLimits.size()> prev{};
  for (const Time until : {built, Time::ms(999), Time::sec(1.0), Time::ms(1234), Time::sec(3.0),
                           Time::ms(7777), Time::sec(10.0)}) {
    net.run_until(until);
    Time sum = Time::zero();
    for (std::size_t i = 0; i < kAllLimits.size(); ++i) {
      const Time t = sender.limited_time(kAllLimits[i]);
      EXPECT_GE(t.count_ns(), prev[i].count_ns()) << "limit " << i << " at " << until.to_sec();
      prev[i] = t;
      sum += t;
    }
    EXPECT_EQ(sum.count_ns(), (until - built).count_ns()) << "at " << until.to_sec();
  }
  EXPECT_GT(sender.limited_time(SendLimit::kApp), Time::sec(1.0));
  EXPECT_GT(sender.limited_time(SendLimit::kRwnd), Time::sec(1.0));
  EXPECT_EQ(sender.limited_time(SendLimit::kDone), Time::zero());
}

TEST(SendLimitTime, DoneTimeStartsAtCompletion) {
  core::DumbbellScenario net{small_net()};
  net.add_flow(std::make_unique<cca::NewReno>(), std::make_unique<app::BulkApp>(200'000));
  Time done = Time::never();
  net.flow(0).sender().set_on_complete([&](Time t) { done = t; });
  const Time end = Time::sec(5.0);
  net.run_until(end);
  ASSERT_LT(done, end);
  EXPECT_EQ(net.flow(0).sender().limited_time(SendLimit::kDone).count_ns(),
            (end - done).count_ns());
}

TEST(TcpFlow, TwoRenoFlowsShareFairly) {
  core::DumbbellScenario net{small_net()};
  net.add_flow(std::make_unique<cca::NewReno>(), std::make_unique<app::BulkApp>());
  net.add_flow(std::make_unique<cca::NewReno>(), std::make_unique<app::BulkApp>());
  net.run_until(Time::sec(5.0));  // warmup
  const auto snap = net.snapshot_delivered();
  net.run_until(Time::sec(30.0));
  const auto goodputs = net.goodputs_mbps_since(snap, Time::sec(25.0));
  EXPECT_NEAR(goodputs[0] + goodputs[1], 9.7, 0.8);
  EXPECT_NEAR(goodputs[0] / goodputs[1], 1.0, 0.4);
}

TEST(TcpFlow, PacedSenderSmoothsBursts) {
  core::DumbbellScenario net{small_net()};
  net.add_flow(std::make_unique<cca::Bbr>(), std::make_unique<app::BulkApp>());
  net.run_until(Time::sec(3.0));
  const auto snap = net.snapshot_delivered();
  net.run_until(Time::sec(10.0));
  const double mbps = net.goodput_mbps_since(0, snap, Time::sec(7.0));
  EXPECT_GT(mbps, 8.0);
  // BBR keeps the standing queue modest relative to a loss-based filler.
  EXPECT_LT(net.bottleneck().qdisc().backlog_bytes(),
            core::dumbbell_buffer_bytes(small_net()));
}

TEST(TcpFlow, RtoFiresWhenAllAcksLost) {
  // A 1-packet buffer plus a competing blast can black-hole a window; easier:
  // bound the app and inject the flow into a dead demux (no receiver) — the
  // sender must hit RTO and back off without crashing.
  sim::Scheduler sched;
  sim::FlowDemux demux;  // no registration: packets vanish
  sim::NullSink hole;
  auto link = sim::Link{sched, Rate::mbps(10), Time::ms(5),
                        std::make_unique<queue::DropTailQueue>(1 << 20), demux};
  auto sink = sim::LinkSink{link};
  app::BulkApp bulk{100'000};
  SenderConfig cfg;
  cfg.flow_id = 1;
  TcpSender sender{sched, cfg, std::make_unique<cca::NewReno>(), bulk, sink};
  sender.start(Time::zero());
  sched.run_until(Time::sec(10.0));
  // First expiry is absorbed by a tail-loss probe; subsequent ones are real
  // RTOs with exponential backoff.
  EXPECT_GE(sender.stats().tail_probes, 1u);
  EXPECT_GE(sender.stats().rto_events, 2u);
  EXPECT_FALSE(sender.completed());
  (void)hole;
}

TEST(UdpCbr, EmitsAtConfiguredRate) {
  sim::Scheduler sched;
  sim::NullSink sink;
  UdpCbrSource cbr{sched, 9, 1, Rate::mbps(12), Time::zero(), Time::sec(10.0), sink};
  sched.run_until(Time::sec(10.0));
  const double mbps = static_cast<double>(sink.bytes()) * 8.0 / 10.0 / 1e6;
  EXPECT_NEAR(mbps, 12.0, 0.2);
}

TEST(UdpCbr, StopsAtDeadline) {
  sim::Scheduler sched;
  sim::NullSink sink;
  UdpCbrSource cbr{sched, 9, 1, Rate::mbps(12), Time::sec(1.0), Time::sec(2.0), sink};
  sched.run_until(Time::sec(10.0));
  const auto n = cbr.packets_emitted();
  // 12 Mbit/s for 1 s at 1488-byte packets ~= 1008 packets.
  EXPECT_NEAR(static_cast<double>(n), 1008.0, 20.0);
}

TEST(ShortFlowWorkload, FlowsArriveAndComplete) {
  core::DumbbellScenario net{small_net()};
  ShortFlowConfig cfg;
  cfg.stop_at = Time::sec(20.0);
  cfg.mean_interarrival = Time::ms(250);
  auto& wl = net.add_short_flows(cfg, core::make_cca_factory("cubic"));
  net.run_until(Time::sec(40.0));
  // ~80 arrivals expected; nearly all should complete by t=40 s.
  EXPECT_GT(wl.flows_started(), 40u);
  EXPECT_GT(wl.flows_completed(), wl.flows_started() * 9 / 10);
  EXPECT_FALSE(wl.completion_times_sec().empty());
  EXPECT_GT(wl.bytes_delivered(), 0);
}

TEST(ShortFlowWorkload, DeterministicForSameSeed) {
  auto run_once = [] {
    core::DumbbellScenario net{small_net()};
    ShortFlowConfig cfg;
    cfg.stop_at = Time::sec(10.0);
    auto& wl = net.add_short_flows(cfg, core::make_cca_factory("cubic"));
    net.run_until(Time::sec(15.0));
    return std::pair{wl.flows_started(), wl.bytes_delivered()};
  };
  EXPECT_EQ(run_once(), run_once());
}


TEST(TcpFlow, DelayedAcksHalveAckTraffic) {
  // A lossless bounded transfer (fits in slow start before any overshoot):
  // the delayed-ACK receiver must emit roughly one ACK per two packets.
  auto run_once = [](Time delayed) {
    auto cfg = small_net();
    cfg.buffer_bdp_multiple = 4.0;
    core::DumbbellScenario net{cfg};
    flow::TcpFlowConfig fc;
    fc.flow_id = 1;
    fc.reverse_delay = Time::ms(10);
    fc.delayed_ack = delayed;
    // Wire manually through the scenario primitives to reach the config
    // (DumbbellScenario::add_flow does not expose delayed_ack).
    sim::LinkSink link_sink{net.bottleneck()};
    flow::TcpFlow f{net.scheduler(), fc, core::make_cca_factory("cubic")(),
                    std::make_unique<app::BulkApp>(200'000), link_sink, net.demux()};
    net.run_until(Time::sec(5.0));
    EXPECT_TRUE(f.sender().completed());
    EXPECT_EQ(f.delivered_bytes(), 200'000);
    EXPECT_EQ(f.sender().stats().retransmissions, 0u);
    EXPECT_EQ(f.receiver().packets_received(), 139u);  // 200 KB / MSS, lossless
    return f.receiver().acks_sent();
  };
  const auto quick = run_once(Time::zero());
  const auto delayed = run_once(Time::ms(40));
  EXPECT_EQ(quick, 139u);  // quickack: one ACK per packet
  EXPECT_LT(delayed, quick * 3 / 4) << "quick=" << quick << " delayed=" << delayed;
  EXPECT_GT(delayed, quick / 3);
}

TEST(TcpFlow, IdleRestartCollapsesStaleWindow) {
  // An app that sends a big burst, goes idle for seconds, then resumes: the
  // CCA window must restart near the initial window rather than blasting the
  // stale one.
  core::DumbbellScenario net{small_net()};
  class BurstyApp : public app::App {
   public:
    explicit BurstyApp(sim::Scheduler& sched) : sched_{sched} {}
    void on_start(Time /*now*/) override {
      // Wake the (by then idle) sender when the second phase begins.
      sched_.schedule_member_fire_at<&BurstyApp::notify_data_ready>(Time::sec(6.0), this);
    }
    ByteCount bytes_available(Time now) override {
      // 2 MB burst at t=0, silence once it drains, resume at 6s.
      if (now < Time::sec(6.0)) return first_remaining_;
      return 1'000'000'000;
    }
    void consume(ByteCount n, Time now) override {
      if (now < Time::sec(6.0)) first_remaining_ -= n;
    }

   private:
    sim::Scheduler& sched_;
    ByteCount first_remaining_{2'000'000};
  };
  net.add_flow(core::make_cca_factory("cubic")(),
               std::make_unique<BurstyApp>(net.scheduler()));
  net.run_until(Time::sec(5.9));
  // First phase filled the window well past the initial window.
  EXPECT_GT(net.flow(0).sender().cc().cwnd_bytes(), cca::kInitialWindowBytes);
  // Sample immediately after the resume notification, before slow start has
  // had an RTT to regrow: the stale window must have been collapsed.
  net.run_until(Time::sec(6.0) + Time::ms(5));
  EXPECT_LE(net.flow(0).sender().cc().cwnd_bytes(), cca::kInitialWindowBytes + 2 * 1448);
  net.run_until(Time::sec(12.0));
  // And the flow still ramps back up to fill the link afterwards.
  const auto snap = net.snapshot_delivered();
  net.run_until(Time::sec(16.0));
  EXPECT_GT(net.goodput_mbps_since(0, snap, Time::sec(4.0)), 7.0);
}

}  // namespace
}  // namespace ccc::flow
