// A one-shot timer whose deadline is its owner's state, not a queue entry
// (the RTO, pacing, delayed-ACK and shaper wake-ups; see DESIGN.md "Event
// engine"). The scheduler cannot cancel; instead:
//
//  * arm(t) records the deadline and pushes an entry only if nothing is
//    pending at or before t, so a deadline that moves later (the RTO on
//    every ACK) costs no heap work.
//  * disarm() only clears the deadline.
//  * A firing entry that is superseded (a later arm pushed a sooner one)
//    or finds the timer disarmed does nothing. If the timer was re-armed
//    after the entry was pushed, it re-pushes the deadline. Otherwise the
//    callback runs, exactly at the deadline.
//
// Every arm draws one FIFO tie-break ticket (`seq`), as an eager
// cancel-and-reschedule would, and the entry that runs the callback carries
// it: callbacks fire at the same (time, seq) key as eager ones. Entries
// that fire without running the callback change only the timer, and
// idle_wakeups() counts them exactly.
//
// A Timer<&T::f> calls the nullary member function f on its owner: the
// callback is part of the type, so a timer stores no function pointer and
// the call is direct. Timers cannot be copied or moved.
//
// Lifetime: every heap entry a timer pushed points at the Timer, so the
// Timer (and its owner) must outlive the scheduler's run, or at least its
// last entry. A timer can hold more than one entry: a sooner arm()
// supersedes the pending entry, which stays on the heap and later fires
// idle. entries() counts them all (pushed minus fired); a timer whose
// entries() is 0 can be destroyed mid-run, and ShortFlowWorkload relies on
// this to retire finished flows.
#pragma once

#include <cassert>
#include <cstdint>

#include "sim/scheduler.hpp"
#include "util/units.hpp"

namespace ccc::sim {

/// e.g. `sim::Timer<&TcpSender::on_rto_fire> rto_timer_{sched, this};`
template <class T, void (T::*MemFn)()>
class Timer<MemFn> {
 public:
  Timer(Scheduler& sched, T* owner) : sched_{sched}, owner_{owner} {}
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Sets the deadline to `at`, replacing any earlier one. Precondition:
  /// at >= now().
  void arm(Time at) {
    assert(at >= sched_.now() && "cannot arm a timer in the past");
    deadline_ = at;
    deadline_seq_ = sched_.take_seq();
    if (at < pending_at_) push(at, deadline_seq_);
  }
  void arm_after(Time delay) { arm(sched_.now() + delay); }

  /// Clears the deadline; the callback will not run until the next arm().
  void disarm() { deadline_seq_ = 0; }

  [[nodiscard]] bool armed() const { return deadline_seq_ != 0; }
  /// Entries that fired without running the callback: early (re-pushed
  /// for a later deadline), superseded by a sooner arm, or disarmed.
  [[nodiscard]] std::uint64_t idle_wakeups() const { return idle_wakeups_; }
  /// Heap entries that point at this timer: pushed minus fired, superseded
  /// ones included. Not whether it is armed: a disarmed timer can still
  /// hold entries, and none of them may fire after it is destroyed.
  [[nodiscard]] std::uint32_t entries() const { return entries_; }

 private:
  void push(Time at, std::uint64_t seq) {
    ++entries_;
    pending_at_ = at;
    pending_seq_ = seq;
    sched_.schedule_fire_at_seq(
        at, seq, [](void* self, std::uint64_t s) { static_cast<Timer*>(self)->on_fire(s); },
        this, seq);
  }

  void on_fire(std::uint64_t seq) {
    --entries_;
    if (seq != pending_seq_) {
      ++idle_wakeups_;  // superseded by a sooner entry
      return;
    }
    pending_at_ = Time::never();
    pending_seq_ = 0;
    if (seq != deadline_seq_) {
      // Disarmed, or re-armed since this entry was pushed. A re-armed
      // deadline is re-pushed under its own ticket; (deadline_,
      // deadline_seq_) never sorts before this entry, so never into the past.
      ++idle_wakeups_;
      if (armed()) push(deadline_, deadline_seq_);
      return;
    }
    assert(sched_.now() == deadline_ && "a timer callback must run exactly at its deadline");
    deadline_seq_ = 0;  // disarmed while the callback runs, which may re-arm
    (owner_->*MemFn)();
  }

  Scheduler& sched_;
  T* owner_;
  // Tickets start at 1, so ticket 0 means "none".
  Time deadline_{Time::zero()};
  std::uint64_t deadline_seq_{0};   ///< the last arm()'s ticket; 0 when disarmed
  Time pending_at_{Time::never()};  ///< the live entry's time; never if none
  std::uint64_t pending_seq_{0};    ///< the live entry's ticket
  std::uint64_t idle_wakeups_{0};
  std::uint32_t entries_{0};  ///< heap entries pointing here (see entries())
};

}  // namespace ccc::sim
