// Discrete-event scheduler: the heart of the ccascope network simulator.
//
// The simulator is single threaded and driven entirely by this event queue.
// Components schedule callbacks at absolute times; ties are broken by
// insertion order so runs are fully deterministic. See DESIGN.md "Event
// engine" for the full argument.
//
//  * Typed events. A stored entry carries a raw function pointer + context
//    + a 64-bit argument, called as fn(ctx, arg): nothing is allocated and
//    nothing is type-erased. Every event is fire-and-forget: nothing in the
//    queue can be cancelled.
//
//  * Timers own their deadlines. A timer that is re-armed or disarmed
//    before it fires (the RTO, pacing, the delayed ACK, a shaper wake-up)
//    is a sim::Timer (sim/timer.hpp): it keeps its deadline as its own
//    state and ignores the entries it no longer needs when they fire.
//
//  * One heap holds every timed callback. Nothing in it is ever
//    cancelled, so there is no stale-entry bookkeeping; a Timer whose
//    deadline only moves later keeps at most one entry there.
//
//  * One sift per event. run_until leaves the firing entry's root slot
//    vacant while its callback runs. The callback's first push fills the
//    root and sifts down; if it pushes nothing, the last entry moves to the
//    root instead. Nearly every event pushes one successor (a pipe's next
//    front, a timer, a tx-complete), so a pop plus a push costs one
//    sift-down. (time, seq) keys are unique, so every correct heap pops the
//    same order.
//
//  * Pipes keep one heap entry. A component whose arrivals are
//    time-monotonic — a Link's propagation pipe, a DelayLine — registers a
//    pipe: a FIFO of in-flight (time, seq, arena handle) records. Only the
//    front record is on the heap. An append that makes the pipe non-empty
//    pushes an entry for it; when that entry fires, the pipe pops the front,
//    pushes an entry for the next front under that record's own seq, and
//    delivers the packet. Every delivery keeps the unique (time, seq) key it
//    drew at append time, so the firing order is the one-entry-per-packet
//    order, and the heap holds one entry per busy pipe, not per packet.
//
// Lifetime: the scheduler holds raw context pointers, so every owner of a
// pending entry — a fire-and-forget callback's context, a Timer, a pipe's
// sink — must outlive the scheduler's run, or at least that entry (or the
// run must end before the entry is due). An object that no entry and no
// non-empty pipe can reach may be destroyed mid-run: a Timer whose
// entries() is 0, a pipe's sink once the pipe is empty and released. That is
// how ShortFlowWorkload retires finished flows without scheduling anything.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/packet.hpp"
#include "sim/packet_pool.hpp"
#include "util/block_deque.hpp"
#include "util/units.hpp"

namespace ccc::sim {

/// Payload of a scheduled event: called as fn(ctx, arg). The common
/// timer shape is fn = a captureless-lambda trampoline, ctx = the component,
/// arg = optional small payload (a PacketPool handle, a bit_cast double).
using RawCallback = void (*)(void* ctx, std::uint64_t arg);

template <auto MemFn>
class Timer;  // sim/timer.hpp

/// A time-ordered event queue.
///
/// Events at equal times fire in the order they were scheduled (FIFO), which
/// makes packet orderings — and therefore whole experiments — reproducible.
class Scheduler {
 public:
  Scheduler() = default;
  /// Not copyable or movable: pipes and pending entries point into it.
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulated time. Starts at zero.
  [[nodiscard]] Time now() const { return now_; }

  /// The packet arena holding in-flight pipe deliveries (and, in Link,
  /// the packet currently serializing).
  [[nodiscard]] PacketPool& packets() { return pool_; }
  [[nodiscard]] const PacketPool& packets() const { return pool_; }

  /// Schedules fn(ctx, arg) at absolute time `at`. Precondition: at >= now()
  /// (the past cannot be scheduled). Events cannot be cancelled; a timer
  /// that may be re-armed or disarmed is a sim::Timer.
  void schedule_fire_at(Time at, RawCallback fn, void* ctx, std::uint64_t arg = 0);
  void schedule_fire_after(Time delay, RawCallback fn, void* ctx, std::uint64_t arg = 0) {
    schedule_fire_at(now_ + delay, fn, ctx, arg);
  }

  /// Sugar for the dominant shape: a nullary member function on a
  /// component, e.g. schedule_member_fire_at<&TcpSender::on_start_fire>(t,
  /// this). Compiles to a captureless trampoline — no allocation, no type
  /// erasure.
  template <auto MemFn, class T>
  void schedule_member_fire_at(Time at, T* obj) {
    schedule_fire_at(
        at, [](void* ctx, std::uint64_t) { (static_cast<T*>(ctx)->*MemFn)(); }, obj);
  }
  template <auto MemFn, class T>
  void schedule_member_fire_after(Time delay, T* obj) {
    schedule_member_fire_at<MemFn>(now_ + delay, obj);
  }

  // ---- packet pipes ----

  /// Identifies one packet pipe (see the header comment).
  using PipeId = std::uint32_t;

  /// Registers a pipe delivering into `sink`. One per monotonic producer (a
  /// Link's propagation pipe, a DelayLine). Reuses the last released pipe,
  /// if any (its storage included). An empty pipe has no heap entry and
  /// costs nothing per event.
  [[nodiscard]] PipeId register_pipe(PacketSink& sink);

  /// Gives pipe `id` back for a later register_pipe to reuse; after this,
  /// nothing reaches its old sink. Precondition: the pipe is empty (Debug
  /// assert). Pipe ids never enter the firing order, which is keyed by
  /// (time, seq), so reusing one changes no event's order.
  void release_pipe(PipeId id);

  /// Re-points a pipe at a different sink. Applies to everything still in
  /// flight: each packet goes to the sink bound when it is delivered.
  void rebind_pipe(PipeId id, PacketSink& sink);

  /// Fire-and-forget packet delivery: copies `pkt` into the arena and hands
  /// pipe `id`'s sink a reference to that copy at time `at`. Preconditions:
  /// at >= now(), and appends to one pipe are time-monotonic (at >= the
  /// pipe's last queued arrival) — true for any fixed-delay pipe fed by a
  /// monotonic clock, which is what Link and DelayLine are.
  void schedule_delivery_at(Time at, PipeId id, const Packet& pkt) {
    schedule_delivery_handle_at(at, id, pool_.acquire(pkt));
  }
  void schedule_delivery_after(Time delay, PipeId id, const Packet& pkt) {
    schedule_delivery_at(now_ + delay, id, pkt);
  }
  /// As above but transfers ownership of an already-acquired handle — the
  /// scheduler releases it after delivery. Used by Link to move the packet
  /// it serialized straight into propagation without another copy.
  void schedule_delivery_handle_at(Time at, PipeId id, PacketPool::Handle h);
  void schedule_delivery_handle_after(Time delay, PipeId id, PacketPool::Handle h) {
    schedule_delivery_handle_at(now_ + delay, id, h);
  }

  /// Deliveries currently queued in pipe `id` (tests / introspection).
  [[nodiscard]] std::size_t pipe_in_flight(PipeId id) const {
    const Pipe& p = pipes_[id];
    return p.records.size() - p.head;
  }

  /// Runs events until the queue is empty or simulated time would exceed
  /// `end`; leaves now() == end (events exactly at `end` do fire).
  void run_until(Time end);

  /// Number of events executed since construction (for perf benches).
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }
  /// Number of pending events: scheduled callbacks plus queued pipe
  /// deliveries (a busy pipe's heap entry is its front delivery, counted
  /// once). Walks every pipe; for tests and introspection.
  [[nodiscard]] std::size_t pending() const;
  /// Heap entries: timed callbacks, including Timer entries that will fire
  /// idle, plus one per non-empty pipe (tests pin that this tracks the live
  /// timer and busy pipe count). The running callback's vacant root slot is
  /// not an entry.
  [[nodiscard]] std::size_t heap_entries() const { return heap_.size() - (root_vacant_ ? 1 : 0); }

 private:
  template <auto MemFn>
  friend class Timer;

  /// Draws the next FIFO tie-break ticket without scheduling anything.
  std::uint64_t take_seq() { return next_seq_++; }
  /// Schedules fn(ctx, arg) at `at` under a ticket drawn earlier by
  /// take_seq(): a Timer re-pushing its deadline keeps the tie-break position
  /// of the arm() that set it. Precondition: at >= now().
  void schedule_fire_at_seq(Time at, std::uint64_t seq, RawCallback fn, void* ctx,
                            std::uint64_t arg);

  /// A heap record: one scheduled event.
  struct Entry {
    Time at;
    std::uint64_t seq;  // global schedule order: FIFO tie-break at equal times
    RawCallback fn;
    void* ctx;
    std::uint64_t arg;
  };
  /// Heap order: earliest time first, then lowest seq. No two entries share
  /// a seq, so the order is total.
  static bool earlier(const Entry& a, const Entry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }
  /// Children per heap node. The heap is small (tens of entries), so a wide
  /// node trades a few extra comparisons per level for fewer levels.
  static constexpr std::size_t kArity = 4;

  /// Pushes an entry onto the heap: into the vacant root if there is one,
  /// else at the bottom.
  void push_heap_entry(const Entry& e);
  /// Places `e` at slot `i` and moves it down until no child is earlier.
  void sift_down(std::size_t i, const Entry& e);
  /// Places `e` at slot `i` and moves it up until its parent is earlier.
  void sift_up(std::size_t i, const Entry& e);

  // ---- pipe internals ----

  /// One pipe: its in-flight records in firing order. Appends are
  /// time-monotonic (a precondition of schedule_delivery_*) and seq is
  /// globally increasing, so [head, size) is sorted by (at, seq). Pipes live
  /// in a util::BlockDeque, whose elements never move, so the heap entry's
  /// context pointer survives later registrations.
  struct Pipe {
    struct Record {
      Time at;
      std::uint64_t seq;
      PacketPool::Handle handle;
    };
    Scheduler* sched;
    PacketSink* sink;
    std::vector<Record> records;
    std::size_t head{0};
  };

  /// Pushes the heap entry for `p`'s front record, under the record's key.
  void push_front_entry(Pipe& p);
  /// The pipe entry's callback (ctx = the Pipe, arg = the entry's seq):
  /// pops the front, pushes the next front's entry, delivers the packet.
  static void on_pipe_front(void* pipe, std::uint64_t seq);

  Time now_{Time::zero()};
  std::uint64_t next_seq_{1};
  std::uint64_t executed_{0};
  /// heap_[0] is the earliest entry, unless root_vacant_: then it is the
  /// entry whose callback is running, already popped, and every other slot
  /// still satisfies the heap order.
  std::vector<Entry> heap_;
  bool root_vacant_{false};
#ifndef NDEBUG
  bool running_{false};  ///< inside run_until (Debug: no re-entry)
#endif
  PacketPool pool_;
  util::BlockDeque<Pipe> pipes_;
  std::vector<PipeId> free_pipes_;  ///< released pipes, reused last first
};

}  // namespace ccc::sim
