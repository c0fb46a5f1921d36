// Test-only helper: schedules std::function bodies on a sim::Scheduler
// through its typed fire-and-forget path (schedule_fire_at), so tests can
// write their events as inline lambdas. The helper owns every body it was
// handed until it is destroyed; a std::deque keeps each body at a stable
// address even while a running body schedules more.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>

#include "sim/scheduler.hpp"

namespace ccc::testutil {

class ClosureEvents {
 public:
  explicit ClosureEvents(sim::Scheduler& sched) : sched_{sched} {}

  void at(Time t, std::function<void()> fn) {
    bodies_.push_back(std::move(fn));
    sched_.schedule_fire_at(t, &run, &bodies_.back());
  }
  void after(Time delay, std::function<void()> fn) { at(sched_.now() + delay, std::move(fn)); }

 private:
  static void run(void* body, std::uint64_t) { (*static_cast<std::function<void()>*>(body))(); }

  sim::Scheduler& sched_;
  std::deque<std::function<void()>> bodies_;
};

}  // namespace ccc::testutil
