// Oracle test for the scheduler's event heap and its vacant root.
//
// run_until pops an entry by leaving its root slot vacant while the
// callback runs: the callback's first push fills the slot and sifts down,
// and if the callback pushes nothing the last entry fills it instead. The
// reference here has no heap at all. It is a list of every pending event
// (each pipe record too) that is stable-sorted by (time, seq) before every
// pop, plus a copy of sim::Timer's arm/fire rule, so it knows every entry
// the engine holds, idle timer wake-ups included.
//
// The engine and the model run in lockstep. Every callback first checks
// that it is the model's next callback (same time, same seq) and that
// heap_entries() and pending() equal the model's counts, then schedules the
// same 0, 1 or several children on both, and checks the counts again after
// its first push. Children are fire-and-forget calls (often at the current
// nanosecond), appends to two pipes (one with zero delay) and sim::Timer
// arms and disarms, each chosen by hashing the firing event's seq.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/timer.hpp"
#include "util/rng.hpp"

namespace ccc::sim {
namespace {

constexpr int kTimers = 4;
constexpr int kPipes = 2;
const std::array<Time, kPipes> kPipeDelay{Time::zero(), Time::us(3)};

/// The heap-free reference scheduler.
class Model {
 public:
  enum class Kind { kFire, kPipe, kTimer };

  /// Each returns the seq ticket the engine draws for the same call.
  std::uint64_t fire(Time at) {
    entries_.push_back({at, ++seq_, Kind::kFire, 0});
    return seq_;
  }
  std::uint64_t append(int pipe, Time at) {
    entries_.push_back({at, ++seq_, Kind::kPipe, pipe});
    return seq_;
  }
  std::uint64_t arm(int t, Time at) {
    TimerState& s = timers_[t];
    s.deadline = at;
    s.deadline_seq = ++seq_;
    if (at < s.pending_at) push_timer(t, at, seq_);
    return seq_;
  }
  void disarm(int t) { timers_[t].deadline_seq = 0; }

  struct Callback {
    Time at;
    std::uint64_t seq;
  };
  /// Pops entries in (time, seq) order until one runs a callback, and
  /// returns it; nullopt if none is due at or before `end`. Timer entries
  /// that fire idle are handled here, as sim::Timer handles them.
  std::optional<Callback> next(Time end) {
    for (;;) {
      std::stable_sort(entries_.begin(), entries_.end(), [](const Entry& a, const Entry& b) {
        if (a.at != b.at) return a.at < b.at;
        return a.seq < b.seq;
      });
      if (entries_.empty() || entries_.front().at > end) return std::nullopt;
      const Entry e = entries_.front();
      entries_.erase(entries_.begin());
      ++executed_;
      if (e.kind != Kind::kTimer) return Callback{e.at, e.seq};
      TimerState& s = timers_[e.target];
      if (e.seq != s.pending_seq) continue;  // superseded
      s.pending_at = Time::never();
      s.pending_seq = 0;
      if (e.seq != s.deadline_seq) {  // disarmed or re-armed
        if (s.deadline_seq != 0) push_timer(e.target, s.deadline, s.deadline_seq);
        continue;
      }
      s.deadline_seq = 0;
      return Callback{e.at, e.seq};
    }
  }

  /// What the engine holds: one entry per callback or timer entry, one per
  /// non-empty pipe.
  [[nodiscard]] std::size_t heap_entries() const {
    std::size_t n = 0;
    std::array<bool, kPipes> busy{};
    for (const Entry& e : entries_) {
      if (e.kind == Kind::kPipe) {
        busy[e.target] = true;
      } else {
        ++n;
      }
    }
    return n + static_cast<std::size_t>(std::count(busy.begin(), busy.end(), true));
  }
  [[nodiscard]] std::size_t pending() const { return entries_.size(); }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

 private:
  struct Entry {
    Time at;
    std::uint64_t seq;
    Kind kind;
    int target;  // pipe or timer index
  };
  struct TimerState {
    Time deadline{Time::zero()};
    std::uint64_t deadline_seq{0};
    Time pending_at{Time::never()};
    std::uint64_t pending_seq{0};
  };
  void push_timer(int t, Time at, std::uint64_t seq) {
    timers_[t].pending_at = at;
    timers_[t].pending_seq = seq;
    entries_.push_back({at, seq, Kind::kTimer, t});
  }

  std::vector<Entry> entries_;
  std::array<TimerState, kTimers> timers_{};
  std::uint64_t seq_{0};
  std::uint64_t executed_{0};
};

/// Drives the engine and the model with the same pushes.
struct Lockstep {
  struct PipeSink : PacketSink {
    Lockstep* lockstep{nullptr};
    Scheduler::PipeId id{0};
    void deliver(const Packet& p) override {
      // A pipe pushes its next front before it delivers; that push, not the
      // callback's, takes the vacant root.
      const bool root_taken = lockstep->sched.pipe_in_flight(id) > 0;
      lockstep->on_event(static_cast<std::uint64_t>(p.seq), root_taken);
    }
  };
  struct TimerOwner {
    Lockstep* lockstep{nullptr};
    int index{0};
    void fire() { lockstep->on_event(lockstep->armed_seq[static_cast<std::size_t>(index)], false); }
  };
  using LockstepTimer = Timer<&TimerOwner::fire>;

  Lockstep(Scheduler& s, std::uint64_t hash_salt) : sched{s}, salt{hash_salt} {
    for (int p = 0; p < kPipes; ++p) {
      sinks[p].lockstep = this;
      sinks[p].id = pipes[p] = sched.register_pipe(sinks[p]);
    }
    for (int t = 0; t < kTimers; ++t) {
      owners[t] = {this, t};
      timers.emplace_back(sched, &owners[t]);
    }
  }

  /// Every callback lands here, with the seq of the call that scheduled it.
  /// `root_taken`: the engine already filled the vacant root.
  void on_event(std::uint64_t seq, bool root_taken) {
    if (::testing::Test::HasFatalFailure()) return;  // report the first divergence only
    const auto want = model.next(sched.now());
    ASSERT_TRUE(want.has_value()) << "engine ran seq " << seq << " the model has no callback for";
    ASSERT_EQ(want->at, sched.now());
    ASSERT_EQ(want->seq, seq) << "firing order diverged at " << sched.now().to_ms() << " ms";
    check_counts();  // the vacant root is not an entry
    const std::size_t before = model.heap_entries();
    push_children(seq);
    if (root_taken || model.heap_entries() > before) {
      ++filled;
    } else {
      ++pop_only;
    }
  }

  /// Pushes 0, 1 or several children, as the hash of `seq` says, on both
  /// sides. The mean is kept near one by steering on the pending count.
  void push_children(std::uint64_t seq) {
    std::uint64_t h = util::splitmix64(seq ^ salt);
    const auto draw = [&h](std::uint64_t n) {
      h = util::splitmix64(h);
      return h % n;
    };
    const std::size_t pending = model.pending();
    static constexpr std::array<int, 8> kFew{0, 0, 0, 0, 1, 1, 1, 2};
    static constexpr std::array<int, 8> kSome{0, 0, 1, 1, 1, 1, 2, 3};
    static constexpr std::array<int, 8> kMany{1, 1, 1, 2, 2, 3, 3, 4};
    const auto& table = pending > 48 ? kFew : pending < 12 ? kMany : kSome;
    const int children = table[draw(table.size())];
    for (int c = 0; c < children; ++c) {
      // Delays: this nanosecond, the next, a coarse microsecond grid (heavy
      // ties), or up to a millisecond out.
      Time delay = Time::zero();
      switch (draw(4)) {
        case 0: break;
        case 1: delay = Time::ns(static_cast<std::int64_t>(draw(2))); break;
        case 2: delay = Time::us(static_cast<std::int64_t>(draw(8))); break;
        default: delay = Time::us(static_cast<std::int64_t>(draw(1000))); break;
      }
      const Time at = sched.now() + delay;
      const int target = static_cast<int>(draw(kTimers));
      switch (draw(6)) {
        case 0:
        case 1: {
          const std::uint64_t s = model.fire(at);
          sched.schedule_fire_at(
              at, [](void* d, std::uint64_t a) { static_cast<Lockstep*>(d)->on_event(a, false); },
              this, s);
          break;
        }
        case 2:
        case 3: {
          const int p = target % kPipes;
          Packet pkt;
          pkt.seq = static_cast<std::int64_t>(model.append(p, sched.now() + kPipeDelay[p]));
          sched.schedule_delivery_after(kPipeDelay[p], pipes[p], pkt);
          break;
        }
        case 4:
          armed_seq[static_cast<std::size_t>(target)] = model.arm(target, at);
          timers[target].arm(at);
          break;
        default:
          model.disarm(target);
          timers[target].disarm();
          break;
      }
      if (c == 0) check_counts();  // the first push took the vacant root
    }
  }

  void check_counts() {
    ASSERT_EQ(sched.heap_entries(), model.heap_entries()) << "at " << sched.now().to_ms() << " ms";
    ASSERT_EQ(sched.pending(), model.pending()) << "at " << sched.now().to_ms() << " ms";
  }

  Scheduler& sched;
  std::uint64_t salt;
  Model model;
  std::array<PipeSink, kPipes> sinks{};
  std::array<Scheduler::PipeId, kPipes> pipes{};
  std::array<TimerOwner, kTimers> owners{};
  std::deque<LockstepTimer> timers;  // a Timer cannot move
  std::array<std::uint64_t, kTimers> armed_seq{};
  std::uint64_t filled{0};    ///< callbacks whose vacant root a push filled
  std::uint64_t pop_only{0};  ///< callbacks that pushed nothing: the last entry moves up
};

TEST(EventHeap, MatchesSortedListModelWithCallbacksThatPush) {
  std::uint64_t filled = 0;
  std::uint64_t pop_only = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Scheduler sched;
    Lockstep d{sched, util::splitmix64(seed)};
    d.push_children(0);  // outside run_until: plain pushes, no vacant root
    d.push_children(1);
    // Slices end between events and exactly on them, so run_until also
    // stops with entries left and resumes.
    for (int slice = 1; slice <= 2000 && d.model.pending() > 0; ++slice) {
      const Time end = Time::us(7 * slice);
      sched.run_until(end);
      ASSERT_FALSE(d.model.next(end).has_value())
          << "seed " << seed << ": a callback due by " << end.to_ms() << " ms did not run";
      ASSERT_NO_FATAL_FAILURE(d.check_counts()) << "seed " << seed;
      ASSERT_EQ(sched.events_executed(), d.model.executed()) << "seed " << seed;
    }
    filled += d.filled;
    pop_only += d.pop_only;
  }
  // Both ways of closing the vacant root ran, many times.
  EXPECT_GT(filled, 20'000u);
  EXPECT_GT(pop_only, 10'000u);
}

#ifndef NDEBUG
TEST(EventHeapDeathTest, RunUntilFromACallbackAsserts) {
  struct Reenter {
    Scheduler* sched;
    void fire() { sched->run_until(sched->now() + Time::ms(1)); }
  };
  EXPECT_DEATH(
      {
        Scheduler sched;
        Reenter r{&sched};
        sched.schedule_member_fire_at<&Reenter::fire>(Time::zero(), &r);
        sched.run_until(Time::ms(1));
      },
      "re-entered");
}
#endif

}  // namespace
}  // namespace ccc::sim
