// Unit tests for the discrete-event simulator core.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "closure_events.hpp"
#include "queue/drop_tail.hpp"
#include "queue/token_bucket.hpp"
#include "sim/demux.hpp"
#include "sim/link.hpp"
#include "sim/packet_pool.hpp"
#include "sim/rate_trace.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace ccc::sim {
namespace {

using testutil::ClosureEvents;

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler sched;
  ClosureEvents ev{sched};
  std::vector<int> order;
  ev.at(Time::ms(30), [&] { order.push_back(3); });
  ev.at(Time::ms(10), [&] { order.push_back(1); });
  ev.at(Time::ms(20), [&] { order.push_back(2); });
  sched.run_until(Time::ms(100));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), Time::ms(100));
}

TEST(Scheduler, FifoTieBreakAtEqualTimes) {
  Scheduler sched;
  ClosureEvents ev{sched};
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    ev.at(Time::ms(10), [&order, i] { order.push_back(i); });
  }
  sched.run_until(Time::ms(10));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, EventsCanReschedule) {
  Scheduler sched;
  ClosureEvents ev{sched};
  int count = 0;
  std::function<void()> tick = [&] {
    ++count;
    if (count < 5) ev.after(Time::ms(10), tick);
  };
  ev.at(Time::zero(), tick);
  sched.run_until(Time::sec(1.0));
  EXPECT_EQ(count, 5);
}

TEST(Scheduler, RunUntilStopsAtBoundary) {
  Scheduler sched;
  ClosureEvents ev{sched};
  bool late_fired = false;
  ev.at(Time::ms(10), [] {});
  ev.at(Time::ms(21), [&] { late_fired = true; });
  sched.run_until(Time::ms(20));
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(sched.now(), Time::ms(20));
  sched.run_until(Time::ms(30));
  EXPECT_TRUE(late_fired);
}

TEST(Scheduler, EventAtExactBoundaryFires) {
  Scheduler sched;
  ClosureEvents ev{sched};
  bool fired = false;
  ev.at(Time::ms(20), [&] { fired = true; });
  sched.run_until(Time::ms(20));
  EXPECT_TRUE(fired);
}

// --- link ---

class CollectingSink : public PacketSink {
 public:
  explicit CollectingSink(Scheduler& s) : sched_{s} {}
  void deliver(const Packet& pkt) override {
    packets.push_back(pkt);
    arrival_times.push_back(sched_.now());
  }
  std::vector<Packet> packets;
  std::vector<Time> arrival_times;

 private:
  Scheduler& sched_;
};

Packet make_data(FlowId flow, ByteCount size) {
  Packet p;
  p.flow = flow;
  p.size_bytes = size;
  p.payload_bytes = size - kHeaderBytes;
  return p;
}

TEST(Scheduler, NonEmptyPipeHoldsOneHeapEntry) {
  // Only a pipe's front delivery is on the heap, however many packets are
  // in flight behind it; a drained pipe holds no entry at all.
  Scheduler sched;
  CollectingSink sink{sched};
  const Scheduler::PipeId pipe = sched.register_pipe(sink);
  for (int i = 1; i <= 1000; ++i) sched.schedule_delivery_at(Time::ms(i), pipe, make_data(1, 100));
  EXPECT_EQ(sched.heap_entries(), 1u);
  EXPECT_EQ(sched.pending(), 1000u);
  sched.run_until(Time::ms(500));
  EXPECT_EQ(sink.packets.size(), 500u);
  EXPECT_EQ(sched.pipe_in_flight(pipe), 500u);
  EXPECT_EQ(sched.heap_entries(), 1u);
  sched.run_until(Time::sec(2.0));
  EXPECT_EQ(sink.packets.size(), 1000u);
  EXPECT_EQ(sched.heap_entries(), 0u);
  EXPECT_EQ(sched.pending(), 0u);
}

TEST(Scheduler, ReleasedPipeIsReusedForItsNewSink) {
  // A retired short flow gives its reverse pipe back and the next flow's
  // DelayLine takes the same id: from then on the pipe delivers only the
  // new sink's packets, and the old sink is never reached again.
  Scheduler sched;
  CollectingSink old_sink{sched};
  CollectingSink new_sink{sched};
  CollectingSink other{sched};
  const Scheduler::PipeId a = sched.register_pipe(old_sink);
  const Scheduler::PipeId b = sched.register_pipe(other);
  for (int i = 1; i <= 3; ++i) sched.schedule_delivery_at(Time::ms(i), a, make_data(1, 100));
  sched.run_until(Time::ms(10));
  ASSERT_EQ(old_sink.packets.size(), 3u);
  sched.release_pipe(a);
  const Scheduler::PipeId c = sched.register_pipe(new_sink);
  EXPECT_EQ(c, a);
  sched.schedule_delivery_at(Time::ms(12), c, make_data(2, 100));
  sched.schedule_delivery_at(Time::ms(11), b, make_data(3, 100));
  sched.schedule_delivery_at(Time::ms(13), c, make_data(2, 100));
  sched.run_until(Time::ms(20));
  EXPECT_EQ(old_sink.packets.size(), 3u);
  ASSERT_EQ(new_sink.packets.size(), 2u);
  EXPECT_EQ(new_sink.packets[0].flow, 2u);
  EXPECT_EQ(new_sink.arrival_times[0], Time::ms(12));
  EXPECT_EQ(new_sink.arrival_times[1], Time::ms(13));
  ASSERT_EQ(other.packets.size(), 1u);
  EXPECT_EQ(other.packets[0].flow, 3u);
  // Released pipes are reused last first; then fresh ids follow.
  sched.release_pipe(b);
  sched.release_pipe(c);
  EXPECT_EQ(sched.register_pipe(other), c);
  EXPECT_EQ(sched.register_pipe(other), b);
  EXPECT_EQ(sched.register_pipe(other), 2u);
  EXPECT_EQ(sched.pending(), 0u);
}

#ifndef NDEBUG
TEST(SchedulerDeathTest, ReleasingANonEmptyPipeAsserts) {
  EXPECT_DEATH(
      {
        Scheduler sched;
        CollectingSink sink{sched};
        const Scheduler::PipeId pipe = sched.register_pipe(sink);
        sched.schedule_delivery_at(Time::ms(1), pipe, make_data(1, 100));
        sched.release_pipe(pipe);
      },
      "only an empty pipe");
}
#endif

TEST(PacketPool, ReferenceSurvivesAcquiringManyBlocksMore) {
  // A sink may acquire handles (an ACK turned around) while it still reads
  // the packet it was handed: a get() reference must survive acquires that
  // grow the slab by many blocks, and reused slots must not disturb it.
  PacketPool pool;
  const PacketPool::Handle held = pool.acquire(make_data(7, 1234));
  const Packet& ref = pool.get(held);
  std::vector<PacketPool::Handle> more;
  for (int i = 0; i < 100; ++i) more.push_back(pool.acquire(make_data(8, 100 + i)));
  for (int i = 0; i < 50; ++i) pool.release(more[static_cast<std::size_t>(2 * i)]);
  for (int i = 0; i < 80; ++i) more.push_back(pool.acquire(make_data(9, 40)));
  EXPECT_EQ(&ref, &pool.get(held));
  EXPECT_EQ(ref.flow, 7u);
  EXPECT_EQ(ref.size_bytes, 1234);
  EXPECT_EQ(pool.live(), 1u + 50u + 80u);
  EXPECT_EQ(pool.capacity(), 1u + 100u + 30u);  // 50 freed slots were reused first
  EXPECT_EQ(pool.get(more.back()).flow, 9u);
}

TEST(Link, SerializationPlusPropagationDelay) {
  Scheduler sched;
  CollectingSink sink{sched};
  // 12 Mbit/s, 10 ms: a 1500-byte packet takes 1 ms to serialize.
  Link link{sched, Rate::mbps(12), Time::ms(10), std::make_unique<queue::DropTailQueue>(100000),
            sink};
  link.send(make_data(1, 1500));
  sched.run_until(Time::sec(1.0));
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(sink.arrival_times[0], Time::ms(11));
}

TEST(Link, ShaperWakeSendsWhenTheHeadBecomesEligible) {
  // A 100 Mbit/s link behind an 8 Mbit/s token bucket with a one-packet
  // burst: the first packet leaves at once, and each later one waits ~1 ms
  // for tokens. The link's wake timer must send each exactly when the
  // shaper releases it (its eligibility time is ceilinged by <= 2 ns).
  Scheduler sched;
  CollectingSink sink{sched};
  Link link{sched, Rate::mbps(100), Time::ms(1),
            std::make_unique<queue::TokenBucketShaper>(Rate::mbps(8), 1000, 1 << 20), sink};
  for (int i = 0; i < 3; ++i) link.send(make_data(1, 1000));
  sched.run_until(Time::sec(1.0));
  ASSERT_EQ(sink.packets.size(), 3u);
  EXPECT_EQ(sink.arrival_times[0], Time::us(1080));  // 80 us serialization + 1 ms
  for (std::size_t i = 1; i < 3; ++i) {
    const Time gap = sink.arrival_times[i] - sink.arrival_times[i - 1];
    EXPECT_GE(gap, Time::ms(1));
    EXPECT_LE(gap, Time::ms(1) + Time::ns(2));
  }
  EXPECT_EQ(link.timer_idle_wakeups(), 0u);  // each wake-up found its packet ready
}

TEST(Link, BackToBackPacketsSpacedBySerialization) {
  Scheduler sched;
  CollectingSink sink{sched};
  Link link{sched, Rate::mbps(12), Time::ms(10), std::make_unique<queue::DropTailQueue>(100000),
            sink};
  link.send(make_data(1, 1500));
  link.send(make_data(1, 1500));
  link.send(make_data(1, 1500));
  sched.run_until(Time::sec(1.0));
  ASSERT_EQ(sink.packets.size(), 3u);
  EXPECT_EQ(sink.arrival_times[1] - sink.arrival_times[0], Time::ms(1));
  EXPECT_EQ(sink.arrival_times[2] - sink.arrival_times[1], Time::ms(1));
}

TEST(Link, DropsWhenQueueFull) {
  Scheduler sched;
  CollectingSink sink{sched};
  // Queue holds exactly 2 x 1500B.
  Link link{sched, Rate::mbps(1), Time::ms(1), std::make_unique<queue::DropTailQueue>(3000),
            sink};
  for (int i = 0; i < 10; ++i) link.send(make_data(1, 1500));
  sched.run_until(Time::sec(10.0));
  // First packet dequeues immediately (not in queue), 2 queued, rest dropped.
  EXPECT_EQ(sink.packets.size(), 3u);
  EXPECT_EQ(link.qdisc().stats().dropped_packets, 7u);
}

TEST(Link, ThroughputMatchesRate) {
  Scheduler sched;
  CollectingSink sink{sched};
  Link link{sched, Rate::mbps(10), Time::ms(1),
            std::make_unique<queue::DropTailQueue>(10'000'000), sink};
  // Offer 10 seconds' worth instantly; link should deliver ~10 Mbit/s.
  const int n = 800;  // 800 * 1500B * 8 = 9.6 Mbit
  for (int i = 0; i < n; ++i) link.send(make_data(1, 1500));
  sched.run_until(Time::sec(1.0));
  EXPECT_EQ(sink.packets.size(), static_cast<std::size_t>(n));
  const Time last = sink.arrival_times.back();
  EXPECT_NEAR(last.to_sec(), 0.96 + 0.001, 0.01);
}

TEST(Link, UtilizationAccounting) {
  Scheduler sched;
  CollectingSink sink{sched};
  Link link{sched, Rate::mbps(12), Time::ms(1), std::make_unique<queue::DropTailQueue>(1 << 20),
            sink};
  // 1 ms of serialization in a 10 ms window = 10%.
  link.send(make_data(1, 1500));
  sched.run_until(Time::ms(10));
  EXPECT_NEAR(link.utilization(sched.now()), 0.1, 1e-6);
}

TEST(Link, SetRateAffectsSubsequentPackets) {
  Scheduler sched;
  CollectingSink sink{sched};
  Link link{sched, Rate::mbps(12), Time::zero(), std::make_unique<queue::DropTailQueue>(1 << 20),
            sink};
  link.send(make_data(1, 1500));  // 1 ms at 12 Mbit/s
  sched.run_until(Time::ms(1));
  link.set_rate(Rate::mbps(6));
  link.send(make_data(1, 1500));  // 2 ms at 6 Mbit/s
  sched.run_until(Time::sec(1.0));
  ASSERT_EQ(sink.packets.size(), 2u);
  EXPECT_EQ(sink.arrival_times[0], Time::ms(1));
  EXPECT_EQ(sink.arrival_times[1], Time::ms(3));
}

TEST(Link, SetRateReplansServingPacket) {
  Scheduler sched;
  CollectingSink sink{sched};
  Link link{sched, Rate::mbps(12), Time::zero(), std::make_unique<queue::DropTailQueue>(1 << 20),
            sink};
  link.send(make_data(1, 1500));   // 1 ms at 12 Mbit/s if undisturbed
  sched.run_until(Time::us(500));  // 750 B on the wire so far
  link.set_rate(Rate::mbps(6));    // remaining 750 B now take 1 ms
  sched.run_until(Time::sec(1.0));
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(sink.arrival_times[0], Time::us(1500));
}

TEST(Link, PeriodicStallScheduleDoesNotPhaseLock) {
  // Regression: a 1500 B frame at a 1 Mbit/s stall rate serializes for
  // 12 ms — exactly three 4 ms burst/gap cycles. When the in-flight packet
  // stayed pinned to its dequeue-time rate, a packet that started in the
  // gap also *finished* in the gap, so every subsequent dequeue started in
  // the gap too and the link collapsed to the stall rate (observed as the
  // wifi-pie service cells starving). With mid-flight re-planning the link
  // must deliver at roughly the duty-cycled rate instead.
  Scheduler sched;
  ClosureEvents ev{sched};
  CollectingSink sink{sched};
  Link link{sched, Rate::mbps(48), Time::zero(), std::make_unique<queue::DropTailQueue>(1 << 20),
            sink};
  for (Time t = Time::ms(3); t < Time::ms(500); t += Time::ms(4)) {
    ev.at(t, [&link] { link.set_rate(Rate::mbps(1)); });
    ev.at(t + Time::ms(1), [&link] { link.set_rate(Rate::mbps(48)); });
  }
  for (int i = 0; i < 200; ++i) link.send(make_data(1, 1500));
  // Duty-cycled capacity is ~36 Mbit/s: 200 packets (~2.4 Mbit) take ~70 ms.
  // The phase-locked failure mode needed ~2.3 s.
  sched.run_until(Time::ms(500));
  EXPECT_EQ(sink.packets.size(), 200u);
}

TEST(Link, DenseMidFlightRateChangesKeepDeliveriesMonotonic) {
  // Link and DelayLine feed the scheduler's packet pipes, whose appends
  // must be time-monotonic. A set_rate that lands mid-serialization re-plans
  // the completion — earlier when the rate rises, later when it falls — so
  // drive hundreds of such re-plans per packet batch, in both directions,
  // through a Link with a DelayLine behind it: arrivals at the final sink
  // must never go back in time, and every packet the qdisc released must
  // arrive.
  Scheduler sched;
  ClosureEvents ev{sched};
  CollectingSink sink{sched};
  DelayLine line{sched, Time::ms(3), sink};
  Link link{sched, Rate::mbps(12), Time::ms(5), std::make_unique<queue::DropTailQueue>(1 << 20),
            line};
  Rng rng{11};
  int ups = 0;
  int downs = 0;
  int mid_flight = 0;  // changes made while a backlog kept the link serializing
  double prev_mbps = 12.0;
  for (Time t = Time::us(20); t < Time::sec(1.0);
       t += Time::us(20 + rng.uniform_int(0, 180))) {
    const double mbps = rng.uniform(1.0, 48.0);
    (mbps > prev_mbps ? ups : downs) += 1;
    prev_mbps = mbps;
    ev.at(t, [&link, &mid_flight, mbps] {
      if (link.qdisc().backlog_packets() > 0) ++mid_flight;
      link.set_rate(Rate::mbps(mbps));
    });
  }
  // Bursts of mixed sizes every 10 ms keep the queue backing up and draining.
  for (int i = 0; i < 40; ++i) {
    ev.at(Time::ms(10 * i), [&link, i] {
      for (int k = 0; k < 40; ++k) link.send(make_data(1, 200 + 100 * ((i + k) % 14)));
    });
  }
  sched.run_until(Time::sec(10.0));

  EXPECT_GT(ups, 2000);
  EXPECT_GT(downs, 2000);
  EXPECT_GT(mid_flight, 2000);
  const QdiscStats& qs = link.qdisc().stats();
  EXPECT_EQ(qs.dropped_packets, 0u);
  EXPECT_EQ(qs.dequeued_packets, 1600u);
  EXPECT_EQ(link.stats().packets_sent, qs.dequeued_packets);
  ASSERT_EQ(sink.arrival_times.size(), qs.dequeued_packets);
  for (std::size_t i = 1; i < sink.arrival_times.size(); ++i) {
    ASSERT_LE(sink.arrival_times[i - 1], sink.arrival_times[i]) << "arrival " << i;
  }
  EXPECT_EQ(sched.packets().live(), 0u);
}

TEST(Link, SerializationTimeTracksEverySizeAndRateChange) {
  // The link memoizes the last (size, rate) serialization time. Bursts mix
  // repeated and alternating sizes, and set_rate runs between bursts (the
  // link idle), returning to an earlier rate too: every packet's
  // serialization time must still be exactly rate.transmit_time(size).
  // Rates are chosen so transmit_time rounds up a fractional nanosecond.
  Scheduler sched;
  ClosureEvents ev{sched};
  CollectingSink sink{sched};
  Link link{sched, Rate::mbps(7), Time::ms(1), std::make_unique<queue::DropTailQueue>(1 << 20),
            sink};
  std::vector<Time> tapped;
  link.set_tx_tap([&](const Packet&, Time now) { tapped.push_back(now); });
  const std::vector<ByteCount> sizes{1500, 1500, 40, 1500, 40, 40, 577, 1500, 577};
  const std::vector<Rate> rates{Rate::mbps(7), Rate::bps(11'300'001), Rate::mbps(7),
                                Rate::kbps(999.7), Rate::bps(11'300'001)};
  struct Expect {
    Time burst_at;
    Rate rate;
  };
  std::vector<Expect> bursts;
  for (std::size_t b = 0; b < rates.size(); ++b) {
    const Time at = Time::sec(static_cast<double>(b));  // each burst drains within 1 s
    bursts.push_back({at, rates[b]});
    ev.at(at, [&link, &sizes, rate = rates[b]] {
      link.set_rate(rate);
      for (const ByteCount s : sizes) link.send(make_data(1, s));
    });
  }
  sched.run_until(Time::sec(static_cast<double>(rates.size())));

  ASSERT_EQ(tapped.size(), rates.size() * sizes.size());
  for (std::size_t b = 0; b < bursts.size(); ++b) {
    Time start = bursts[b].burst_at;
    for (std::size_t k = 0; k < sizes.size(); ++k) {
      const Time done = tapped[b * sizes.size() + k];
      EXPECT_EQ(done - start, bursts[b].rate.transmit_time(sizes[k]))
          << "burst " << b << " packet " << k;
      start = done;  // back to back: the next packet starts as this one ends
    }
  }
}

TEST(Link, TxTapSeesEveryPacket) {
  Scheduler sched;
  CollectingSink sink{sched};
  Link link{sched, Rate::mbps(12), Time::ms(5), std::make_unique<queue::DropTailQueue>(1 << 20),
            sink};
  int tapped = 0;
  link.set_tx_tap([&](const Packet&, Time) { ++tapped; });
  for (int i = 0; i < 4; ++i) link.send(make_data(1, 1500));
  sched.run_until(Time::sec(1.0));
  EXPECT_EQ(tapped, 4);
}

// --- delay line & demux ---

TEST(DelayLine, AddsFixedDelay) {
  Scheduler sched;
  ClosureEvents ev{sched};
  CollectingSink sink{sched};
  DelayLine line{sched, Time::ms(7), sink};
  ev.at(Time::ms(3), [&] { line.deliver(make_data(1, 100)); });
  sched.run_until(Time::sec(1.0));
  ASSERT_EQ(sink.arrival_times.size(), 1u);
  EXPECT_EQ(sink.arrival_times[0], Time::ms(10));
}

TEST(DelayLine, SetDstRedirectsPacketsInFlight) {
  // TcpFlow wires its reverse line to the sender after construction, so a
  // rebind must reach packets already in the pipe, not only later sends.
  // Ten packets leave 1 ms apart; the five still in flight at 9.5 ms go to
  // the new sink, in order, as do two sent after the rebind.
  Scheduler sched;
  ClosureEvents ev{sched};
  CollectingSink old_sink{sched};
  CollectingSink new_sink{sched};
  DelayLine line{sched, Time::ms(5), old_sink};
  for (int i = 0; i < 10; ++i) {
    ev.at(Time::ms(i), [&line, i] { line.deliver(make_data(static_cast<FlowId>(i + 1), 100)); });
  }
  ev.at(Time::us(9500), [&] { line.set_dst(new_sink); });
  for (int i = 10; i < 12; ++i) {
    ev.at(Time::ms(i), [&line, i] { line.deliver(make_data(static_cast<FlowId>(i + 1), 100)); });
  }
  sched.run_until(Time::sec(1.0));
  ASSERT_EQ(old_sink.packets.size(), 5u);
  ASSERT_EQ(new_sink.packets.size(), 7u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(old_sink.packets[i].flow, static_cast<FlowId>(i + 1));
    EXPECT_EQ(old_sink.arrival_times[i], Time::ms(static_cast<std::int64_t>(i) + 5));
  }
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(new_sink.packets[i].flow, static_cast<FlowId>(i + 6));
    EXPECT_EQ(new_sink.arrival_times[i], Time::ms(static_cast<std::int64_t>(i) + 10));
  }
}

TEST(Demux, RoutesByFlowId) {
  Scheduler sched;
  CollectingSink a{sched};
  CollectingSink b{sched};
  FlowDemux demux;
  demux.register_flow(1, a);
  demux.register_flow(2, b);
  demux.deliver(make_data(1, 100));
  demux.deliver(make_data(2, 100));
  demux.deliver(make_data(2, 100));
  demux.deliver(make_data(3, 100));  // unroutable
  EXPECT_EQ(a.packets.size(), 1u);
  EXPECT_EQ(b.packets.size(), 2u);
  EXPECT_EQ(demux.unroutable_packets(), 1u);
}

TEST(Demux, DeregisterStopsRouting) {
  Scheduler sched;
  CollectingSink a{sched};
  FlowDemux demux;
  demux.register_flow(1, a);
  demux.deregister_flow(1);
  demux.deliver(make_data(1, 100));
  EXPECT_TRUE(a.packets.empty());
  EXPECT_EQ(demux.unroutable_packets(), 1u);
}

// --- rate traces ---

TEST(RateTrace, SquareWaveAlternates) {
  const auto trace = square_wave_trace(Rate::mbps(5), Rate::mbps(10), Time::sec(1.0),
                                       Time::sec(3.0));
  ASSERT_EQ(trace.size(), 4u);
  EXPECT_DOUBLE_EQ(trace[0].rate.to_mbps(), 10.0);
  EXPECT_DOUBLE_EQ(trace[1].rate.to_mbps(), 5.0);
  EXPECT_DOUBLE_EQ(trace[2].rate.to_mbps(), 10.0);
}

TEST(RateTrace, RandomWalkStaysBounded) {
  Rng rng{5};
  const auto trace = random_walk_trace(rng, Rate::mbps(10), Rate::mbps(2), Rate::mbps(50), 0.3,
                                       Time::ms(100), Time::sec(30.0));
  for (const auto& pt : trace) {
    EXPECT_GE(pt.rate.to_mbps(), 2.0);
    EXPECT_LE(pt.rate.to_mbps(), 50.0);
  }
}

TEST(RateTrace, ApplyChangesLinkRate) {
  Scheduler sched;
  CollectingSink sink{sched};
  Link link{sched, Rate::mbps(10), Time::zero(), std::make_unique<queue::DropTailQueue>(1 << 20),
            sink};
  apply_rate_trace(sched, link, {{Time::ms(5), Rate::mbps(20)}});
  sched.run_until(Time::ms(10));
  EXPECT_DOUBLE_EQ(link.rate().to_mbps(), 20.0);
}

}  // namespace
}  // namespace ccc::sim
