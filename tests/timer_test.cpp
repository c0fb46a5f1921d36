// Oracle tests for sim::Timer, the lazily re-armed one-shot timer behind the
// RTO, pacing, delayed-ACK and shaper wake-ups.
//
// The reference is the eager timer it replaced: every arm cancels the
// previous event and schedules a new one, under a fresh FIFO ticket. The
// model below is that, on an ordered map it erases from. A Timer must run
// its callback exactly when the eager model would — same time, same
// position among same-time events — and never otherwise.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/timer.hpp"
#include "util/rng.hpp"

namespace ccc::sim {
namespace {

/// Counts callbacks and records when they ran.
struct Probe {
  explicit Probe(Scheduler& s) : sched{s} {}
  Scheduler& sched;
  std::vector<Time> fired;
  void on_fire() { fired.push_back(sched.now()); }
};

using ProbeTimer = Timer<&Probe::on_fire>;

TEST(Timer, FiresOnceAtDeadline) {
  Scheduler sched;
  Probe p{sched};
  ProbeTimer t{sched, &p};
  t.arm(Time::ms(5));
  EXPECT_TRUE(t.armed());
  sched.run_until(Time::ms(10));
  EXPECT_EQ(p.fired, (std::vector<Time>{Time::ms(5)}));
  EXPECT_FALSE(t.armed());
  EXPECT_EQ(t.idle_wakeups(), 0u);
}

TEST(Timer, DisarmPreventsCallback) {
  Scheduler sched;
  Probe p{sched};
  ProbeTimer t{sched, &p};
  t.arm(Time::ms(5));
  t.disarm();
  EXPECT_FALSE(t.armed());
  sched.run_until(Time::ms(10));
  EXPECT_TRUE(p.fired.empty());
  // The entry still fired, idle: that is the only trace a disarm leaves.
  EXPECT_EQ(t.idle_wakeups(), 1u);
  EXPECT_EQ(sched.events_executed(), 1u);
}

TEST(Timer, DisarmIdleTimerIsNoop) {
  Scheduler sched;
  Probe p{sched};
  ProbeTimer t{sched, &p};
  t.disarm();  // never armed: nothing to clear, nothing scheduled
  EXPECT_EQ(sched.pending(), 0u);
  sched.run_until(Time::ms(10));
  EXPECT_TRUE(p.fired.empty());
  EXPECT_EQ(sched.events_executed(), 0u);
}

TEST(Timer, DisarmAfterFireIsNoop) {
  Scheduler sched;
  Probe p{sched};
  ProbeTimer t{sched, &p};
  t.arm(Time::ms(5));
  sched.run_until(Time::ms(10));
  ASSERT_EQ(p.fired.size(), 1u);
  t.disarm();  // already fired: must not disturb anything
  EXPECT_EQ(sched.pending(), 0u);
  // Re-arming after the stale disarm still fires normally.
  t.arm(Time::ms(20));
  sched.run_until(Time::ms(30));
  EXPECT_EQ(p.fired, (std::vector<Time>{Time::ms(5), Time::ms(20)}));
  EXPECT_EQ(t.idle_wakeups(), 0u);
}

TEST(Timer, RearmLaterWaitsForTheNewDeadline) {
  Scheduler sched;
  Probe p{sched};
  ProbeTimer t{sched, &p};
  t.arm(Time::ms(5));
  t.arm(Time::ms(12));  // later: no second heap entry
  EXPECT_EQ(sched.heap_entries(), 1u);
  sched.run_until(Time::ms(30));
  EXPECT_EQ(p.fired, (std::vector<Time>{Time::ms(12)}));
  EXPECT_EQ(t.idle_wakeups(), 1u);  // woke at 5 ms and re-pushed
}

TEST(Timer, SupersededEntryNeverRunsCallback) {
  // A sooner arm pushes a second entry; the first one, at 10 ms, must stay
  // inert even after the timer is re-armed for exactly 10 ms again. The
  // callback then runs at the later arm's tie-break position: after the
  // fire-and-forget event scheduled between the two arms.
  Scheduler sched;
  std::vector<int> order;
  struct Ctx {
    std::vector<int>* order;
    int label;
    void fire() { order->push_back(label); }
  };
  Ctx timer_ctx{&order, 0};
  Ctx call_ctx{&order, 1};
  Timer<&Ctx::fire> t{sched, &timer_ctx};
  t.arm(Time::ms(10));
  t.arm(Time::ms(5));  // sooner: the 10 ms entry is superseded
  sched.run_until(Time::ms(6));
  EXPECT_EQ(order, (std::vector<int>{0}));
  sched.schedule_fire_at(
      Time::ms(10), [](void* c, std::uint64_t) { static_cast<Ctx*>(c)->fire(); }, &call_ctx);
  t.arm(Time::ms(10));  // same time as the superseded entry, a later ticket
  sched.run_until(Time::ms(20));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 0}));
  // Only the superseded entry woke idle.
  EXPECT_EQ(t.idle_wakeups(), 1u);
}

TEST(Timer, PendingAccurateUnderDisarmChurn) {
  Scheduler sched;
  Probe p{sched};
  std::deque<ProbeTimer> timers;
  for (int i = 0; i < 1000; ++i) {
    timers.emplace_back(sched, &p);
    timers.back().arm(Time::ms(100 + i));
  }
  EXPECT_EQ(sched.pending(), 1000u);
  for (std::size_t i = 0; i < timers.size(); i += 2) timers[i].disarm();
  for (std::size_t i = 0; i < timers.size(); i += 2) timers[i].disarm();  // no-op
  // Disarmed entries stay queued until they come due: one per timer.
  EXPECT_EQ(sched.pending(), 1000u);
  sched.run_until(Time::sec(5.0));
  EXPECT_EQ(p.fired.size(), 500u);
  EXPECT_EQ(sched.pending(), 0u);
  std::uint64_t idle = 0;
  for (const ProbeTimer& t : timers) idle += t.idle_wakeups();
  EXPECT_EQ(idle, 500u);
  EXPECT_EQ(sched.events_executed(), 500u + idle);
}

/// While the deadline only moves later — the RTO on every ACK — one timer
/// holds at most one heap entry, whatever the arm times and delays.
TEST(Timer, HeapHoldsOneEntryWhileDeadlineMovesLater) {
  struct Driver {
    explicit Driver(Scheduler& s) : sched{s} {}
    void on_timer() { fired.push_back(sched.now()); }
    Scheduler& sched;
    Rng rng{0x71e4ull};
    Timer<&Driver::on_timer> timer{sched, this};
    Time deadline{Time::zero()};
    std::size_t max_heap{0};
    int steps{0};
    std::vector<Time> fired;
    void step() {
      // A new deadline no earlier than the last one (and never in the past).
      const Time at = std::max(deadline, sched.now()) +
                      Time::us(static_cast<std::int64_t>(rng.uniform_int(0, 3000)));
      timer.arm(at);
      deadline = at;
      max_heap = std::max(max_heap, sched.heap_entries());  // this step is popped
      if (++steps < 20'000) {
        sched.schedule_member_fire_after<&Driver::step>(
            Time::us(static_cast<std::int64_t>(rng.uniform_int(1, 500))), this);
      }
    }
  };
  Scheduler sched;
  Driver d{sched};
  sched.schedule_member_fire_at<&Driver::step>(Time::zero(), &d);
  sched.run_until(Time::sec(100.0));
  EXPECT_LE(d.max_heap, 1u);
  ASSERT_GE(d.fired.size(), 1u);
  EXPECT_EQ(d.fired.back(), d.deadline);
  EXPECT_EQ(sched.events_executed(), 20'000u + d.fired.size() + d.timer.idle_wakeups());
}

// ---------- randomized oracle: Timer vs an eager cancel-and-reschedule ----------

/// One scripted operation on timer `timer`, run by a driver event: arm at
/// now + delay (delay may be zero), or disarm.
struct Op {
  int timer;
  bool disarm;
  Time delay;
};

/// The script: driver events at (coarse-grid, often equal) times, each
/// running a few ops; a timer callback re-arms its own timer for its first
/// kRearmsInCallback firings, as the RTO does after a tail probe.
struct Script {
  std::vector<Time> driver_at;
  std::vector<std::vector<Op>> ops;
};
constexpr int kTimers = 6;
constexpr int kRearmsInCallback = 2;

Time callback_rearm_delay(int timer, int nth) { return Time::ms(1 + (timer * 7 + nth * 3) % 9); }

Script make_script(std::uint64_t seed, int drivers) {
  Rng rng{seed};
  Script s;
  for (int d = 0; d < drivers; ++d) {
    s.driver_at.push_back(Time::ms(rng.uniform_int(0, 300)));
    std::vector<Op> ops(static_cast<std::size_t>(rng.uniform_int(1, 3)));
    for (Op& op : ops) {
      op.timer = static_cast<int>(rng.uniform_int(0, kTimers - 1));
      op.disarm = rng.uniform_int(0, 3) == 0;
      op.delay = Time::ms(rng.uniform_int(0, 12));  // earlier or later than the last arm
    }
    s.ops.push_back(std::move(ops));
  }
  return s;
}

/// A log line: ("driver", index) or ("timer", index), and when it ran.
using LogLine = std::pair<int, Time>;  // >= 0: driver index; < 0: -(timer + 1)

/// The eager reference: a (time, ticket)-ordered map; arming erases the
/// timer's previous entry and inserts a new one under a fresh ticket.
std::vector<LogLine> run_eager_model(const Script& s) {
  struct Key {
    Time at;
    std::uint64_t ticket;
    bool operator<(const Key& o) const { return at != o.at ? at < o.at : ticket < o.ticket; }
  };
  std::map<Key, int> queue;  // value: driver index, or -(timer + 1)
  std::vector<std::optional<Key>> live(kTimers);
  std::vector<int> fires(kTimers, 0);
  std::uint64_t next_ticket = 1;
  Time now = Time::zero();
  const auto arm = [&](int t, Time at) {
    if (live[t]) queue.erase(*live[t]);
    live[t] = Key{at, next_ticket++};
    queue.emplace(*live[t], -(t + 1));
  };
  for (std::size_t d = 0; d < s.driver_at.size(); ++d) {
    queue.emplace(Key{s.driver_at[d], next_ticket++}, static_cast<int>(d));
  }
  std::vector<LogLine> log;
  while (!queue.empty()) {
    const auto [key, what] = *queue.begin();
    queue.erase(queue.begin());
    now = key.at;
    log.emplace_back(what, now);
    if (what < 0) {
      const int t = -what - 1;
      live[t].reset();
      if (fires[t]++ < kRearmsInCallback) arm(t, now + callback_rearm_delay(t, fires[t]));
      continue;
    }
    for (const Op& op : s.ops[static_cast<std::size_t>(what)]) {
      if (op.disarm) {
        if (live[op.timer]) queue.erase(*live[op.timer]);
        live[op.timer].reset();
      } else {
        arm(op.timer, now + op.delay);
      }
    }
  }
  return log;
}

/// The same script on a Scheduler with one sim::Timer per timer.
struct TimerRun {
  struct Slot {
    TimerRun* run;
    int index;
    int fires{0};
    void on_timer();
  };
  Scheduler sched;
  const Script& script;
  std::vector<LogLine> log;
  std::deque<Slot> slots;  // stable addresses: the timers hold pointers
  std::deque<Timer<&Slot::on_timer>> timers;
  std::size_t drivers_fired{0};
  std::uint64_t entry_checks{0};
  std::uint64_t entry_mismatches{0};
  std::uint32_t max_timer_entries{0};

  explicit TimerRun(const Script& s) : script{s} {
    for (int t = 0; t < kTimers; ++t) {
      slots.push_back({this, t});
      timers.emplace_back(sched, &slots.back());
    }
    for (std::size_t d = 0; d < s.driver_at.size(); ++d) {
      sched.schedule_fire_at(s.driver_at[d], &TimerRun::on_driver, this, d);
    }
  }
  static void on_driver(void* ctx, std::uint64_t d) {
    auto& r = *static_cast<TimerRun*>(ctx);
    ++r.drivers_fired;
    r.check_entries();
    r.log.emplace_back(static_cast<int>(d), r.sched.now());
    for (const Op& op : r.script.ops[d]) {
      auto& timer = r.timers[static_cast<std::size_t>(op.timer)];
      if (op.disarm) {
        timer.disarm();
      } else {
        timer.arm(r.sched.now() + op.delay);
      }
      r.check_entries();
    }
  }
  /// The heap holds exactly the unfired drivers plus every timer's
  /// entries(), superseded ones included (the running event's vacant root
  /// slot is neither).
  void check_entries() {
    std::size_t sum = script.driver_at.size() - drivers_fired;
    for (const auto& t : timers) {
      sum += t.entries();
      max_timer_entries = std::max(max_timer_entries, t.entries());
    }
    ++entry_checks;
    if (sum != sched.heap_entries()) ++entry_mismatches;
  }
  [[nodiscard]] std::uint64_t idle_wakeups() const {
    std::uint64_t n = 0;
    for (const auto& t : timers) n += t.idle_wakeups();
    return n;
  }
};

void TimerRun::Slot::on_timer() {
  const Time now = run->sched.now();
  run->log.emplace_back(-(index + 1), now);
  auto& timer = run->timers[static_cast<std::size_t>(index)];
  EXPECT_FALSE(timer.armed()) << "a timer is disarmed while its callback runs";
  run->check_entries();
  if (fires++ < kRearmsInCallback) timer.arm(now + callback_rearm_delay(index, fires));
  run->check_entries();
}

/// Seeded random arm / disarm / re-arm at random times, sooner and later,
/// with heavy same-time ties: every callback runs exactly once per armed
/// deadline that survives — at that deadline, in the eager model's
/// position — a disarmed timer never runs, and every extra scheduler event
/// is an idle wake-up the timers counted.
TEST(Timer, MatchesEagerRearmModel) {
  std::uint64_t callbacks = 0;
  std::uint64_t idle = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const Script script = make_script(seed, 200);
    const std::vector<LogLine> expect = run_eager_model(script);
    TimerRun run{script};
    run.sched.run_until(Time::sec(10.0));
    ASSERT_EQ(run.log.size(), expect.size()) << "seed " << seed;
    for (std::size_t i = 0; i < expect.size(); ++i) {
      ASSERT_EQ(run.log[i], expect[i]) << "seed " << seed << ", divergence at " << i;
    }
    EXPECT_EQ(run.sched.events_executed(), expect.size() + run.idle_wakeups()) << "seed " << seed;
    EXPECT_EQ(run.sched.pending(), 0u);
    for (const LogLine& l : expect) callbacks += l.first < 0 ? 1 : 0;
    idle += run.idle_wakeups();
  }
  // The script exercises both paths heavily.
  EXPECT_GT(callbacks, 1000u);
  EXPECT_GT(idle, 1000u);
}

/// Timer::entries() is what makes a timer's owner safe to destroy
/// mid-run (a retired short flow), so it must count every heap entry that
/// points at the timer, superseded ones included: on the randomized
/// script, the sum over all timers plus the unfired drivers equals
/// heap_entries() inside every callback, around every arm and disarm, and
/// between 1 ms steps (every event in the script falls on the 1 ms grid).
TEST(Timer, EntriesSumToHeapEntries) {
  std::uint32_t max_entries = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const Script script = make_script(seed, 200);
    TimerRun run{script};
    run.check_entries();
    for (int ms = 0; ms <= 400; ++ms) {
      run.sched.run_until(Time::ms(ms));
      run.check_entries();
    }
    EXPECT_EQ(run.entry_mismatches, 0u) << "seed " << seed << ", of " << run.entry_checks;
    EXPECT_EQ(run.sched.heap_entries(), 0u) << "seed " << seed;
    for (const auto& t : run.timers) EXPECT_EQ(t.entries(), 0u) << "seed " << seed;
    max_entries = std::max(max_entries, run.max_timer_entries);
  }
  // Sooner arms stacked entries on one timer, not just one live entry.
  EXPECT_GE(max_entries, 3u);
}

}  // namespace
}  // namespace ccc::sim
