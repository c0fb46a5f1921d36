// Stress and golden-order tests for the event engine (typed events, the
// timer heap, packet pipes, packet arena).
//
// The engine's contract is exactly a plain heap scheduler's contract:
// events fire in ascending (time, schedule-order) whether they are
// callbacks or pipe deliveries. The golden tests below check large
// adversarial workloads against an independent reference model of that
// contract — NOT against the engine's own bookkeeping — so any internal
// reordering (a pipe delivery fired past a timer, a disarmed timer run, a
// tie broken by address) fails loudly. A sim::Timer counts as scheduled when it
// is armed: its callback keeps the tie-break position of that arm.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "sim/packet.hpp"
#include "sim/scheduler.hpp"
#include "sim/timer.hpp"

namespace {

using namespace ccc;
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
  bool disarmed{false};
};

struct LabelSink : sim::PacketSink {
  std::vector<int>* log;
  void deliver(const sim::Packet& p) override { log->push_back(static_cast<int>(p.flow)); }
};

/// A typed event that appends `label` to `log` when it fires.
struct LabelCtx {
  std::vector<int>* log;
  int label;
  void fire() { log->push_back(label); }
};
void log_label(void* c, std::uint64_t) { static_cast<LabelCtx*>(c)->fire(); }
using LabelTimer = sim::Timer<&LabelCtx::fire>;

/// The forms the simulator's components schedule with: an armed sim::Timer,
/// a fire-and-forget call, and appends to two pipes.
enum class Kind { kTimer, kFire, kPipeA, kPipeB };
struct Planned {
  Time at;
  Kind kind;
};

/// Pipe appends must be time-monotonic per pipe, so each pipe's drawn
/// times are re-dealt in ascending order over that pipe's schedule
/// positions: the same multiset of times — and so the same ties with every
/// other kind — in an order a fixed-delay pipe could produce.
void make_pipe_appends_monotonic(std::vector<Planned>& plan) {
  for (const Kind k : {Kind::kPipeA, Kind::kPipeB}) {
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
/// then disarms about a third of the timers. Returns the reference model:
/// the events that must fire, in (time, schedule-order).
std::vector<RefEvent> schedule_plan(Scheduler& sched, const std::vector<Planned>& plan,
                                    std::vector<int>& fired, std::vector<LabelCtx>& ctxs,
                                    std::deque<LabelTimer>& timers, LabelSink& sink_a,
                                    LabelSink& sink_b, Mix& rng) {
  sink_a.log = &fired;
  sink_b.log = &fired;
  const Scheduler::PipeId pipe_a = sched.register_pipe(sink_a);
  const Scheduler::PipeId pipe_b = sched.register_pipe(sink_b);
  ctxs.resize(plan.size());
  std::vector<RefEvent> model;
  model.reserve(plan.size());
  std::vector<std::pair<LabelTimer*, std::size_t>> armed;  // timer -> model idx
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const int label = static_cast<int>(i);
    const Time at = plan[i].at;
    ctxs[i] = {&fired, label};
    sim::Packet p;
    p.flow = static_cast<sim::FlowId>(label);
    switch (plan[i].kind) {
      case Kind::kTimer:
        timers.emplace_back(sched, &ctxs[i]);
        timers.back().arm(at);
        armed.emplace_back(&timers.back(), i);
        break;
      case Kind::kFire: sched.schedule_fire_at(at, log_label, &ctxs[i]); break;
      case Kind::kPipeA: sched.schedule_delivery_at(at, pipe_a, p); break;
      case Kind::kPipeB: sched.schedule_delivery_at(at, pipe_b, p); break;
    }
    model.push_back({at, i, label});
  }
  for (const auto& [timer, idx] : armed) {
    if (rng.below(3) == 0) {
      timer->disarm();
      model[idx].disarmed = true;
    }
  }
  std::vector<RefEvent> expect;
  for (const auto& e : model) {
    if (!e.disarmed) expect.push_back(e);
  }
  std::stable_sort(expect.begin(), expect.end(), [](const RefEvent& a, const RefEvent& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.order < b.order;
  });
  return expect;
}

/// Golden firing order: an adversarial workload — every event form, delays
/// from microseconds to minutes plus same-time ties, and a third of the
/// timers disarmed before the run — must fire in exactly the
/// (time, schedule-order) sequence of an independent model.
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
  make_pipe_appends_monotonic(plan);

  Scheduler sched;
  std::vector<int> fired;  // labels in actual firing order
  fired.reserve(kEvents);
  std::vector<LabelCtx> ctxs;
  std::deque<LabelTimer> timers;
  LabelSink sink_a, sink_b;
  const auto expect = schedule_plan(sched, plan, fired, ctxs, timers, sink_a, sink_b, rng);
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

/// 1M re-arm cycles of the RTO pattern: a 1 us driver chain pushes a
/// 200 ms timer's deadline out on every hop. The deadline only moves later,
/// so the heap holds the driver's next hop and at most one timer entry —
/// a constant, not O(cycles) — and the callback runs once, at the last
/// deadline.
TEST(SchedulerStress, MillionRearmCyclesStayBounded) {
  constexpr int kCycles = 1'000'000;
  struct Driver {
    explicit Driver(Scheduler& s) : sched{s} {}
    void on_rto() { fired.push_back(sched.now()); }
    Scheduler& sched;
    sim::Timer<&Driver::on_rto> rto{sched, this};
    int hops{0};
    std::size_t max_heap{0};
    std::vector<Time> fired;
    void tick() {
      rto.arm_after(Time::ms(200));
      max_heap = std::max(max_heap, sched.heap_entries());
      if (++hops < kCycles) sched.schedule_member_fire_after<&Driver::tick>(Time::us(1), this);
    }
  };
  Scheduler sched;
  Driver d{sched};
  sched.schedule_member_fire_at<&Driver::tick>(Time::zero(), &d);
  sched.run_until(Time::sec(2));
  EXPECT_LE(d.max_heap, 1u) << "the driver's hop is popped; only the timer's entry remains";
  const Time last_arm = Time::us(kCycles - 1);
  ASSERT_EQ(d.fired.size(), 1u);
  EXPECT_EQ(d.fired[0], last_arm + Time::ms(200));
  // The pending entry chases the deadline: it wakes idle at 200, 399.999,
  // 599.998, 799.997, 999.996 and 1199.995 ms, each time re-pushing the
  // deadline it finds, and the seventh entry runs the callback.
  EXPECT_EQ(d.rto.idle_wakeups(), 6u);
  EXPECT_EQ(sched.events_executed(), kCycles + 1 + d.rto.idle_wakeups());
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

/// A timer, pipe deliveries and a fire-and-forget call scheduled at one
/// instant fire in schedule order — the FIFO tie-break holds across forms,
/// and a pipe's second same-time delivery waits for the interleaved call.
TEST(SchedulerStress, FifoTieBreakAcrossEventKinds) {
  Scheduler sched;
  std::vector<int> fired;
  LabelSink sink;
  sink.log = &fired;
  const Scheduler::PipeId pipe = sched.register_pipe(sink);
  LabelCtx c0{&fired, 0}, c2{&fired, 2};
  sim::Packet p1, p3;
  p1.flow = 1;
  p3.flow = 3;

  const Time at = Time::ms(5);
  LabelTimer timer{sched, &c0};
  timer.arm(at);                              // timer
  sched.schedule_delivery_at(at, pipe, p1);   // pipe delivery
  sched.schedule_fire_at(at, log_label, &c2);  // fire-and-forget
  sched.schedule_delivery_at(at, pipe, p3);   // same pipe, same time
  sched.run_until(Time::ms(10));
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3}));
}

/// Golden firing order with dense pipe ties. The same four forms as the
/// golden test above, but on a small time alphabet: massive equal-time ties
/// put long same-time runs inside each pipe, whose records reach the heap
/// one front at a time, while still interleaving the two pipes with each
/// other and with the timers and calls. The firing order must match the
/// independent (time, schedule-order) model event for event.
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
  make_pipe_appends_monotonic(plan);

  Scheduler sched;
  std::vector<int> fired;
  fired.reserve(kEvents);
  std::vector<LabelCtx> ctxs;
  std::deque<LabelTimer> timers;
  LabelSink sink_a, sink_b;
  const auto expect = schedule_plan(sched, plan, fired, ctxs, timers, sink_a, sink_b, rng);
  sched.run_until(Time::sec(10));

  ASSERT_EQ(fired.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    ASSERT_EQ(fired[i], expect[i].label) << "divergence at position " << i;
  }
  EXPECT_EQ(sched.pending(), 0u);
}

/// Golden firing order with thousands of idle pipes. Short flows each
/// register a pipe, use it briefly and leave it idle for the rest of the
/// run; an idle pipe must cost no heap entry and must not change the firing
/// order. Each 10 ms phase registers 20 new pipes (5,000 in all), gives
/// each 1-4 deliveries within its first 3 ms, and interleaves timers (some
/// reaching many phases ahead, a third disarmed in the next phase) and
/// fire-and-forget calls on a 100 us grid, so ties across every form are
/// common. Everything a phase schedules is due at or after the phase
/// start, so the independent (time, schedule-order) model still applies.
TEST(SchedulerStress, GoldenOrderWithThousandsOfIdleBatches) {
  constexpr int kPhases = 250;
  constexpr int kPipesPerPhase = 20;
  constexpr int kTimersPerPhase = 30;
  constexpr int kFiresPerPhase = 20;
  const Time phase_len = Time::ms(10);
  Mix rng{0x1d1eba7cull};

  Scheduler sched;
  std::vector<int> fired;
  std::deque<LabelCtx> ctxs;  // stable addresses: the engine holds pointers
  std::deque<LabelSink> sinks;
  std::deque<LabelTimer> timers;
  std::vector<RefEvent> model;
  std::vector<std::pair<LabelTimer*, std::size_t>> last_phase_timers;  // timer -> model idx
  // Due times of every armed timer and fire-and-forget call: each holds
  // exactly one heap entry until it comes due, disarmed timers included.
  std::vector<Time> callback_due;

  for (int ph = 0; ph < kPhases; ++ph) {
    const Time t0 = phase_len * ph;
    ASSERT_EQ(sched.now(), t0);
    // RTO-style disarms: a third of the previous phase's timers still pending.
    for (const auto& [timer, idx] : last_phase_timers) {
      if (model[idx].at > t0 && rng.below(3) == 0) {
        timer->disarm();
        model[idx].disarmed = true;
      }
    }
    last_phase_timers.clear();

    // This phase's short flows: a pipe each and its time-monotonic appends.
    std::vector<Scheduler::PipeId> ids;
    std::vector<std::vector<Time>> appends;
    for (int b = 0; b < kPipesPerPhase; ++b) {
      sinks.emplace_back();
      sinks.back().log = &fired;
      ids.push_back(sched.register_pipe(sinks.back()));
      std::vector<Time> times(1 + rng.below(4));
      for (Time& t : times) t = t0 + Time::us(static_cast<std::int64_t>(100 * rng.below(30)));
      // Descending, so pop_back() yields the appends in time order.
      std::sort(times.begin(), times.end(), [](Time a, Time b) { return a > b; });
      appends.push_back(std::move(times));
    }
    int arms = kTimersPerPhase;
    int fires = kFiresPerPhase;
    std::size_t appends_left = 0;
    for (const auto& a : appends) appends_left += a.size();
    while (arms + fires + appends_left > 0) {
      const int label = static_cast<int>(model.size());
      const std::uint64_t timers_left = static_cast<std::uint64_t>(arms + fires);
      const std::uint64_t pick = rng.below(timers_left + appends_left);
      if (pick < appends_left) {
        std::size_t b = rng.below(kPipesPerPhase);
        while (appends[b].empty()) b = (b + 1) % kPipesPerPhase;
        const Time at = appends[b].back();
        appends[b].pop_back();
        --appends_left;
        sim::Packet p;
        p.flow = static_cast<sim::FlowId>(label);
        sched.schedule_delivery_at(at, ids[b], p);
        model.push_back({at, model.size(), label});
        continue;
      }
      ctxs.push_back({&fired, label});
      const bool arm = pick - appends_left < static_cast<std::uint64_t>(arms);
      // Timers on the same 100 us grid, a quarter reaching up to 50 phases out.
      const std::uint64_t reach = rng.below(4) == 0 ? 5000 : 30;
      const Time at = t0 + Time::us(static_cast<std::int64_t>(100 * rng.below(reach)));
      if (arm) {
        --arms;
        timers.emplace_back(sched, &ctxs.back());
        timers.back().arm(at);
        last_phase_timers.emplace_back(&timers.back(), model.size());
      } else {
        --fires;
        sched.schedule_fire_at(at, log_label, &ctxs.back());
      }
      callback_due.push_back(at);
      model.push_back({at, model.size(), label});
    }

    sched.run_until(t0 + phase_len);
    // Every delivery of this phase has fired, so every pipe is empty: the
    // heap holds only the timer and fire-and-forget entries not yet due,
    // and the thousands of idle pipes hold none.
    const auto not_due = static_cast<std::size_t>(std::count_if(
        callback_due.begin(), callback_due.end(), [&](Time at) { return at > sched.now(); }));
    ASSERT_EQ(sched.heap_entries(), not_due) << "phase " << ph;
  }
  sched.run_until(phase_len * (kPhases + 60));

  std::vector<RefEvent> expect;
  for (const auto& e : model) {
    if (!e.disarmed) expect.push_back(e);
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
  EXPECT_EQ(sinks.size(), static_cast<std::size_t>(kPhases * kPipesPerPhase));
}

/// A pipe returns each arena handle right after its delivery, not at tick
/// end: steady-state relay traffic through a pipe must keep pool capacity
/// at the in-flight high-water mark (two ping-ponging packets plus a
/// same-tick reschedule), not grow with the hop count.
TEST(SchedulerStress, BatchDrainRecyclesArenaSlotsWithinTick) {
  Scheduler sched;
  struct PipeRelay : sim::PacketSink {
    Scheduler* sched{nullptr};
    Scheduler::PipeId pipe{0};
    int hops{0};
    void deliver(const sim::Packet& p) override {
      if (++hops < 50'000) sched->schedule_delivery_after(Time::us(7), pipe, p);
    }
  } relay;
  relay.sched = &sched;
  relay.pipe = sched.register_pipe(relay);
  sim::Packet seed;
  seed.flow = 9;
  // Both packets land on the same tick every hop. Each delivery holds its
  // own handle while the relay acquires one for the reschedule, so 3 slots
  // are live at most; the bound of 4 also admits a drain that held both
  // same-tick handles at once. Capacity beyond 4 means a handle outlived
  // its delivery.
  sched.schedule_delivery_at(Time::zero(), relay.pipe, seed);
  sched.schedule_delivery_at(Time::zero(), relay.pipe, seed);
  sched.run_until(Time::sec(1));
  EXPECT_EQ(sched.packets().live(), 0u);
  EXPECT_EQ(sched.pipe_in_flight(relay.pipe), 0u);
  EXPECT_LE(sched.packets().capacity(), 4u);
}

}  // namespace
