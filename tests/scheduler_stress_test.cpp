// Stress and golden-order tests for the event engine (typed events, the
// timer heap, per-sink delivery batches, packet arena).
//
// The engine's contract is exactly a plain heap scheduler's contract:
// events fire in ascending (time, schedule-order) whether they pass through
// the heap or a delivery batch. The golden tests below check large
// adversarial workloads against an independent reference model of that
// contract — NOT against the engine's own bookkeeping — so any internal
// reordering (a batch drained past a timer, a stale entry fired, a tie
// broken by address) fails loudly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "sim/packet.hpp"
#include "sim/scheduler.hpp"

namespace {

using namespace ccc;
using sim::EventId;
using sim::Scheduler;

/// Deterministic 64-bit mixer (splitmix64) — fixed workload, no <random>.
struct Mix {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

/// One event in the reference model: where the engine was told to fire it,
/// and the order in which it was scheduled (the FIFO tie-break key).
struct RefEvent {
  Time at;
  std::uint64_t order;
  int label;
  bool cancelled{false};
};

struct LabelSink : sim::PacketSink {
  std::vector<int>* log;
  void deliver(const sim::Packet& p) override { log->push_back(static_cast<int>(p.flow)); }
};

/// A typed event that appends `label` to `log` when it fires.
struct LabelCtx {
  std::vector<int>* log;
  int label;
};
void log_label(void* c, std::uint64_t) {
  auto* ctx = static_cast<LabelCtx*>(c);
  ctx->log->push_back(ctx->label);
}

/// The forms the simulator's components schedule with: a cancellable typed
/// call, a fire-and-forget call, and appends to two delivery batches.
enum class Kind { kCall, kFire, kBatchA, kBatchB };
struct Planned {
  Time at;
  Kind kind;
};

/// Delivery-batch appends must be time-monotonic per batch, so each batch's
/// drawn times are re-dealt in ascending order over that batch's schedule
/// positions: the same multiset of times — and so the same ties with every
/// other kind — in an order a fixed-delay pipe could produce.
void make_batch_appends_monotonic(std::vector<Planned>& plan) {
  for (const Kind k : {Kind::kBatchA, Kind::kBatchB}) {
    std::vector<Time> times;
    for (const Planned& p : plan) {
      if (p.kind == k) times.push_back(p.at);
    }
    std::sort(times.begin(), times.end());
    auto next = times.begin();
    for (Planned& p : plan) {
      if (p.kind == k) p.at = *next++;
    }
  }
}

/// Schedules `plan` (event i labelled i) on `sched`, before the run starts,
/// then cancels about a third of the cancellable calls. Returns the
/// reference model: the events that must fire, in (time, schedule-order).
std::vector<RefEvent> schedule_plan(Scheduler& sched, const std::vector<Planned>& plan,
                                    std::vector<int>& fired, std::vector<LabelCtx>& ctxs,
                                    LabelSink& sink_a, LabelSink& sink_b, Mix& rng) {
  sink_a.log = &fired;
  sink_b.log = &fired;
  const Scheduler::BatchId batch_a = sched.register_delivery_batch(sink_a);
  const Scheduler::BatchId batch_b = sched.register_delivery_batch(sink_b);
  ctxs.resize(plan.size());
  std::vector<RefEvent> model;
  model.reserve(plan.size());
  std::vector<std::pair<EventId, std::size_t>> cancellable;  // id -> model idx
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const int label = static_cast<int>(i);
    const Time at = plan[i].at;
    ctxs[i] = {&fired, label};
    sim::Packet p;
    p.flow = static_cast<sim::FlowId>(label);
    switch (plan[i].kind) {
      case Kind::kCall:
        cancellable.emplace_back(sched.schedule_call_at(at, log_label, &ctxs[i]), i);
        break;
      case Kind::kFire: sched.schedule_fire_at(at, log_label, &ctxs[i]); break;
      case Kind::kBatchA: sched.schedule_deliver_batch_at(at, batch_a, p); break;
      case Kind::kBatchB: sched.schedule_deliver_batch_at(at, batch_b, p); break;
    }
    model.push_back({at, i, label});
  }
  for (const auto& [id, idx] : cancellable) {
    if (rng.below(3) == 0) {
      sched.cancel(id);
      model[idx].cancelled = true;
    }
  }
  std::vector<RefEvent> expect;
  for (const auto& e : model) {
    if (!e.cancelled) expect.push_back(e);
  }
  std::stable_sort(expect.begin(), expect.end(), [](const RefEvent& a, const RefEvent& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.order < b.order;
  });
  return expect;
}

/// Golden firing order: an adversarial workload — every event form, delays
/// from microseconds to minutes plus same-time ties, equal-time
/// ties, and a third of the cancellable timers cancelled mid-run — must fire
/// in exactly the (time, schedule-order) sequence of an independent model.
TEST(SchedulerStress, GoldenFiringOrderMatchesReferenceModel) {
  constexpr int kEvents = 20'000;
  Mix rng{0x5eedull};
  std::vector<Planned> plan(kEvents);
  for (Planned& p : plan) {
    // Delays spanning: same-time ties (0), microseconds, a few ms, tens of
    // ms, hundreds of ms .. s, and minutes.
    switch (rng.below(6)) {
      case 0: p.at = Time::zero(); break;
      case 1: p.at = Time::us(static_cast<std::int64_t>(rng.below(1000))); break;
      case 2: p.at = Time::ms(static_cast<std::int64_t>(rng.below(10))); break;
      case 3: p.at = Time::ms(static_cast<std::int64_t>(rng.below(100))); break;
      case 4: p.at = Time::ms(static_cast<std::int64_t>(100 + rng.below(5000))); break;
      default: p.at = Time::sec(static_cast<double>(60 + rng.below(300))); break;
    }
    p.kind = static_cast<Kind>(rng.below(4));
  }
  make_batch_appends_monotonic(plan);

  Scheduler sched;
  std::vector<int> fired;  // labels in actual firing order
  fired.reserve(kEvents);
  std::vector<LabelCtx> ctxs;
  LabelSink sink_a, sink_b;
  const auto expect = schedule_plan(sched, plan, fired, ctxs, sink_a, sink_b, rng);
  sched.run_until(Time::sec(1e6));

  ASSERT_EQ(fired.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    ASSERT_EQ(fired[i], expect[i].label) << "divergence at position " << i;
  }
  EXPECT_EQ(sched.pending(), 0u);
}

/// The identical workload must fire in the identical order on a second
/// scheduler instance — the bit-identical-across-jobs invariant at the
/// engine level.
TEST(SchedulerStress, IdenticalWorkloadIsBitIdentical) {
  auto run = [] {
    Scheduler sched;
    std::vector<int> fired;
    Mix rng{0xabcdull};
    std::vector<LabelCtx> ctxs(5000);
    for (int i = 0; i < 5000; ++i) {
      const Time at = Time::us(static_cast<std::int64_t>(rng.below(200'000)));
      ctxs[i] = {&fired, i};
      sched.schedule_fire_at(at, log_label, &ctxs[i]);
    }
    sched.run_until(Time::sec(10));
    return fired;
  };
  EXPECT_EQ(run(), run());
}

/// 1M schedule/cancel cycles of the RTO pattern. Bounded storage: lazy
/// deletion must not let cancelled records accumulate in the heap beyond
/// the compaction threshold.
TEST(SchedulerStress, MillionCancelCyclesStayBounded) {
  constexpr int kCycles = 1'000'000;
  Scheduler sched;
  EventId rto = 0;
  std::size_t max_footprint = 0;
  for (int i = 0; i < kCycles; ++i) {
    sched.cancel(rto);
    rto = sched.schedule_call_after(Time::ms(200), [](void*, std::uint64_t) {}, nullptr);
    if ((i & 1023) == 0) {
      max_footprint = std::max(max_footprint, sched.heap_entries());
    }
  }
  // One live timer; everything else is cancelled debris awaiting compaction.
  // Compaction runs when stale records outnumber live ones (with a small
  // floor), so the all-time footprint stays a small constant, not O(cycles).
  max_footprint = std::max(max_footprint, sched.heap_entries());
  EXPECT_LT(max_footprint, 4096u);
  EXPECT_EQ(sched.pending(), 1u);

  // And time can still advance past all the churn debris.
  sched.run_until(Time::sec(1));
  EXPECT_EQ(sched.pending(), 0u);
  EXPECT_EQ(sched.heap_entries(), 0u);
}

/// Timers seeded from milliseconds to an hour out fire at their exact due
/// times.
TEST(SchedulerStress, CascadeAcrossLevelsFiresAtExactTimes) {
  Scheduler sched;
  std::vector<std::pair<int, Time>> fired;
  struct Ctx {
    Scheduler* sched;
    std::vector<std::pair<int, Time>>* log;
    int label;
    Time expect;
  };
  // Spans: milliseconds, seconds, minutes and an hour, plus two exact
  // power-of-two delays (2^26 ns and 2^32 ns).
  const Time delays[] = {Time::ms(2),   Time::ms(65),  Time::ms(300), Time::sec(1),
                         Time::sec(4),  Time::sec(30), Time::sec(270), Time::sec(3600),
                         Time::ns(67'108'864), Time::ns(4'294'967'296)};
  std::vector<Ctx> ctxs;
  ctxs.reserve(std::size(delays));
  int label = 0;
  for (const Time d : delays) {
    ctxs.push_back({&sched, &fired, label++, d});
  }
  for (auto& c : ctxs) {
    sched.schedule_fire_at(
        c.expect,
        [](void* p, std::uint64_t) {
          auto* ctx = static_cast<Ctx*>(p);
          ctx->log->emplace_back(ctx->label, ctx->sched->now());
        },
        &c);
  }
  sched.run_until(Time::sec(7200));
  ASSERT_EQ(fired.size(), std::size(delays));
  for (const auto& [lab, at] : fired) {
    EXPECT_EQ(at, ctxs[static_cast<std::size_t>(lab)].expect) << "label " << lab;
  }
}

/// A cancellable call, batch deliveries and a fire-and-forget call
/// scheduled at one instant fire in schedule order — the FIFO tie-break holds
/// across forms, and a same-time batch run stops at the interleaved call.
TEST(SchedulerStress, FifoTieBreakAcrossEventKinds) {
  Scheduler sched;
  std::vector<int> fired;
  LabelSink sink;
  sink.log = &fired;
  const Scheduler::BatchId batch = sched.register_delivery_batch(sink);
  LabelCtx c0{&fired, 0}, c2{&fired, 2};
  sim::Packet p1, p3;
  p1.flow = 1;
  p3.flow = 3;

  const Time at = Time::ms(5);
  sched.schedule_call_at(at, log_label, &c0);      // cancellable call
  sched.schedule_deliver_batch_at(at, batch, p1);  // batch delivery
  sched.schedule_fire_at(at, log_label, &c2);      // fire-and-forget
  sched.schedule_deliver_batch_at(at, batch, p3);  // same batch, same time
  sched.run_until(Time::ms(10));
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3}));
}

/// Golden firing order through the bulk batch drain. The same four forms as
/// the golden test above, but on a small time alphabet: massive equal-time
/// ties force long same-tick runs inside each batch queue (the bulk-drain
/// and fused-heap paths of dispatch_batch) while still interleaving the two
/// batches with each other and with the calls. The firing order must match
/// the independent (time, schedule-order) model event for event.
TEST(SchedulerStress, GoldenOrderWithBatchDeliveriesMatchesReferenceModel) {
  constexpr int kEvents = 20'000;
  Mix rng{0xba7c4ull};
  std::vector<Planned> plan(kEvents);
  for (Planned& p : plan) {
    switch (rng.below(4)) {
      case 0: p.at = Time::ms(static_cast<std::int64_t>(rng.below(8))); break;
      case 1: p.at = Time::us(static_cast<std::int64_t>(100 * rng.below(50))); break;
      case 2: p.at = Time::ms(static_cast<std::int64_t>(50 + rng.below(20))); break;
      default: p.at = Time::sec(static_cast<double>(1 + rng.below(3))); break;
    }
    p.kind = static_cast<Kind>(rng.below(4));
  }
  make_batch_appends_monotonic(plan);

  Scheduler sched;
  std::vector<int> fired;
  fired.reserve(kEvents);
  std::vector<LabelCtx> ctxs;
  LabelSink sink_a, sink_b;
  const auto expect = schedule_plan(sched, plan, fired, ctxs, sink_a, sink_b, rng);
  sched.run_until(Time::sec(10));

  ASSERT_EQ(fired.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    ASSERT_EQ(fired[i], expect[i].label) << "divergence at position " << i;
  }
  EXPECT_EQ(sched.pending(), 0u);
}

/// Golden firing order with thousands of idle delivery batches. Short flows
/// each register a batch, use it briefly and leave it idle for the rest of
/// the run; the batch scans must skip those (they walk the active list, not
/// every batch ever registered) without changing the firing order. Each
/// 10 ms phase registers 20 new batches (5,000 in all), gives each 1-4
/// deliveries within its first 3 ms, and interleaves cancellable timers
/// (some reaching many phases ahead, a third cancelled in the next phase)
/// and fire-and-forget calls on a 100 us grid, so ties across every form
/// are common. Everything a phase schedules is due at or after the phase
/// start, so the independent (time, schedule-order) model still applies.
TEST(SchedulerStress, GoldenOrderWithThousandsOfIdleBatches) {
  constexpr int kPhases = 250;
  constexpr int kBatchesPerPhase = 20;
  constexpr int kCallsPerPhase = 30;
  constexpr int kFiresPerPhase = 20;
  const Time phase_len = Time::ms(10);
  Mix rng{0x1d1eba7cull};

  Scheduler sched;
  std::vector<int> fired;
  std::deque<LabelCtx> ctxs;  // stable addresses: the engine holds pointers
  std::deque<LabelSink> sinks;
  std::vector<RefEvent> model;
  std::vector<std::pair<EventId, std::size_t>> last_phase_calls;  // id -> model idx
  std::uint64_t cancels = 0;

  for (int ph = 0; ph < kPhases; ++ph) {
    const Time t0 = phase_len * ph;
    ASSERT_EQ(sched.now(), t0);
    // RTO-style disarms: a third of the previous phase's timers still pending.
    for (const auto& [id, idx] : last_phase_calls) {
      if (model[idx].at > t0 && rng.below(3) == 0) {
        sched.cancel(id);
        model[idx].cancelled = true;
        ++cancels;
      }
    }
    last_phase_calls.clear();

    // This phase's short flows: a batch each and its time-monotonic appends.
    std::vector<Scheduler::BatchId> ids;
    std::vector<std::vector<Time>> appends;
    for (int b = 0; b < kBatchesPerPhase; ++b) {
      sinks.emplace_back();
      sinks.back().log = &fired;
      ids.push_back(sched.register_delivery_batch(sinks.back()));
      std::vector<Time> times(1 + rng.below(4));
      for (Time& t : times) t = t0 + Time::us(static_cast<std::int64_t>(100 * rng.below(30)));
      // Descending, so pop_back() yields the appends in time order.
      std::sort(times.begin(), times.end(), [](Time a, Time b) { return a > b; });
      appends.push_back(std::move(times));
    }
    int calls = kCallsPerPhase;
    int fires = kFiresPerPhase;
    std::size_t appends_left = 0;
    for (const auto& a : appends) appends_left += a.size();
    while (calls + fires + appends_left > 0) {
      const int label = static_cast<int>(model.size());
      const std::uint64_t timers_left = static_cast<std::uint64_t>(calls + fires);
      const std::uint64_t pick = rng.below(timers_left + appends_left);
      if (pick < appends_left) {
        std::size_t b = rng.below(kBatchesPerPhase);
        while (appends[b].empty()) b = (b + 1) % kBatchesPerPhase;
        const Time at = appends[b].back();
        appends[b].pop_back();
        --appends_left;
        sim::Packet p;
        p.flow = static_cast<sim::FlowId>(label);
        sched.schedule_deliver_batch_at(at, ids[b], p);
        model.push_back({at, model.size(), label});
        continue;
      }
      ctxs.push_back({&fired, label});
      const bool call = pick - appends_left < static_cast<std::uint64_t>(calls);
      // Timers on the same 100 us grid, a quarter reaching up to 50 phases out.
      const std::uint64_t reach = rng.below(4) == 0 ? 5000 : 30;
      const Time at = t0 + Time::us(static_cast<std::int64_t>(100 * rng.below(reach)));
      if (call) {
        --calls;
        last_phase_calls.emplace_back(sched.schedule_call_at(at, log_label, &ctxs.back()),
                                      model.size());
      } else {
        --fires;
        sched.schedule_fire_at(at, log_label, &ctxs.back());
      }
      model.push_back({at, model.size(), label});
    }

    sched.run_until(t0 + phase_len);
    // Every delivery of this phase has fired, and the final batch-minimum
    // recompute dropped the drained batches: idle batches stay unlisted.
    ASSERT_EQ(sched.active_batches(), 0u) << "phase " << ph;
  }
  sched.run_until(phase_len * (kPhases + 60));

  std::vector<RefEvent> expect;
  for (const auto& e : model) {
    if (!e.cancelled) expect.push_back(e);
  }
  std::stable_sort(expect.begin(), expect.end(), [](const RefEvent& a, const RefEvent& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.order < b.order;
  });
  ASSERT_EQ(fired.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    ASSERT_EQ(fired[i], expect[i].label) << "divergence at position " << i;
  }
  EXPECT_EQ(sched.pending(), 0u);

  // Cost: at most one phase's batches are ever listed, and every scan walks
  // only the list. A drain runs at most one recompute plus one bound loop
  // per event it fires or stale entry it drops, so the visits stay within
  // (2 x events + cancels) x kBatchesPerPhase — a scan over every registered
  // batch would visit ~2,500 per scan on average here.
  const std::uint64_t scans_bound = 2 * sched.events_executed() + cancels;
  EXPECT_LE(sched.batch_scan_visits(), scans_bound * kBatchesPerPhase);
  EXPECT_EQ(sinks.size(), static_cast<std::size_t>(kPhases * kBatchesPerPhase));
}

/// The batch drain returns arena handles as it delivers, not at tick end:
/// steady-state relay traffic through a registered batch must keep pool
/// capacity at the in-flight high-water mark (two ping-ponging packets plus
/// their same-tick reschedules), not grow with the hop count.
TEST(SchedulerStress, BatchDrainRecyclesArenaSlotsWithinTick) {
  Scheduler sched;
  struct BatchRelay : sim::PacketSink {
    Scheduler* sched{nullptr};
    Scheduler::BatchId batch{0};
    int hops{0};
    void deliver(const sim::Packet& p) override {
      if (++hops < 50'000) sched->schedule_deliver_batch_after(Time::us(7), batch, p);
    }
  } relay;
  relay.sched = &sched;
  relay.batch = sched.register_delivery_batch(relay);
  sim::Packet seed;
  seed.flow = 9;
  // Both packets land on the same batch tick every hop, so every drain is
  // the run-of-2 bulk path: 2 handles held during delivery, 2 acquired by
  // the reschedules. Capacity beyond 4 means a handle out-lived its drain.
  sched.schedule_deliver_batch_at(Time::zero(), relay.batch, seed);
  sched.schedule_deliver_batch_at(Time::zero(), relay.batch, seed);
  sched.run_until(Time::sec(1));
  EXPECT_EQ(sched.packets().live(), 0u);
  EXPECT_EQ(sched.batch_in_flight(relay.batch), 0u);
  EXPECT_LE(sched.packets().capacity(), 4u);
}

}  // namespace
