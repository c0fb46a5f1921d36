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
//  * One binary heap holds every timed callback. Nothing in it is ever
//    cancelled, so there is no stale-entry bookkeeping; a Timer whose
//    deadline only moves later keeps at most one entry there.
//
//  * Per-sink delivery batches. A component whose arrivals are
//    time-monotonic — a Link's propagation pipe, a DelayLine — registers a
//    batch and appends its in-flight packets to a struct-of-arrays queue
//    (parallel arrival-time / seq / arena-handle vectors) instead of pushing
//    one heap entry per packet. The queue *is* a sorted run, so pop_next()
//    merges its front against the heap front by (time, seq) and, when the
//    batch is globally earliest, dispatch_batch() drains every delivery up
//    to the next non-batch event — same-time runs go to the sink as a
//    single deliver_batch() call. Every delivery keeps its unique
//    (time, seq) key, so the firing order is the one-entry-per-packet order.
//
// Lifetime: the scheduler holds raw context pointers, so every owner of a
// pending entry — a fire-and-forget callback's context, a Timer, a delivery
// batch's sink — must outlive the scheduler's run (or the run must end
// before the entry is due). TcpSender::start's on_start_fire and every
// Timer rely on this.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/packet.hpp"
#include "sim/packet_pool.hpp"
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
  /// Current simulated time. Starts at zero.
  [[nodiscard]] Time now() const { return now_; }

  /// The packet arena holding in-flight batch deliveries (and, in Link,
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

  // ---- delivery batches ----

  /// Identifies one per-sink in-flight batch (see the header comment).
  using BatchId = std::uint32_t;

  /// Registers a struct-of-arrays in-flight batch delivering into `sink`.
  /// One per monotonic producer (a Link's propagation pipe, a DelayLine).
  /// Batches are never unregistered and their storage is kept for the whole
  /// run, but an idle (empty) one costs nothing per event: the scheduler's
  /// batch scans walk only the active list of non-empty batches.
  [[nodiscard]] BatchId register_delivery_batch(PacketSink& sink);

  /// Re-points a batch at a different sink. Applies to everything still in
  /// flight — the batch analogue of DelayLine::set_dst()'s fire-time
  /// dst-read semantics.
  void rebind_delivery_batch(BatchId id, PacketSink& sink);

  /// Fire-and-forget packet delivery: copies `pkt` into the arena and hands
  /// batch `id`'s sink a reference to that copy at time `at`. The in-flight
  /// record lives in the batch's parallel arrays, not in a heap entry.
  /// Preconditions: at >= now(), and appends to one batch are time-monotonic
  /// (at >= the batch's last queued arrival) — true for any fixed-delay pipe
  /// fed by a monotonic clock, which is what Link and DelayLine are.
  void schedule_deliver_batch_at(Time at, BatchId id, const Packet& pkt) {
    schedule_deliver_batch_handle_at(at, id, pool_.acquire(pkt));
  }
  void schedule_deliver_batch_after(Time delay, BatchId id, const Packet& pkt) {
    schedule_deliver_batch_at(now_ + delay, id, pkt);
  }
  /// As above but transfers ownership of an already-acquired handle — the
  /// scheduler releases it after delivery. Used by Link to move the packet
  /// it serialized straight into propagation without another copy.
  void schedule_deliver_batch_handle_at(Time at, BatchId id, PacketPool::Handle h);
  void schedule_deliver_batch_handle_after(Time delay, BatchId id, PacketPool::Handle h) {
    schedule_deliver_batch_handle_at(now_ + delay, id, h);
  }

  /// Deliveries currently queued in batch `id` (tests / introspection).
  [[nodiscard]] std::size_t batch_in_flight(BatchId id) const {
    const DeliveryBatch& q = batches_[id];
    return q.at.size() - q.head;
  }
  /// Length of the active-batch list: every non-empty batch, plus any
  /// emptied since the last batch-minimum recompute (tests / introspection).
  [[nodiscard]] std::size_t active_batches() const { return active_.size(); }
  /// Active-list entries visited by the batch-minimum recompute and the
  /// drain's bound loop since construction (tests / introspection: the
  /// per-scan cost is the active list, not every batch ever registered).
  [[nodiscard]] std::uint64_t batch_scan_visits() const { return batch_scan_visits_; }

  /// Runs events until the queue is empty or simulated time would exceed
  /// `end`; leaves now() == end (events exactly at `end` do fire).
  void run_until(Time end);

  /// Number of events executed since construction (for perf benches).
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }
  /// Number of pending events: heap entries plus queued batch deliveries.
  [[nodiscard]] std::size_t pending() const { return heap_.size() + batch_live_; }
  /// Heap entries: timed callbacks, including Timer entries that will fire
  /// idle (tests pin that this tracks the live timer count).
  [[nodiscard]] std::size_t heap_entries() const { return heap_.size(); }

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
  // std::push_heap/pop_heap build a max-heap w.r.t. the comparator, so
  // "later" as less-than puts the earliest (and lowest-seq) entry at front.
  // Stateless functors (not free functions): passing a function pointer to
  // the heap algorithms makes every comparison an indirect call.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  static constexpr Later later{};

  /// Pushes an entry onto the heap.
  void push_heap_entry(const Entry& e);

  /// Finds the globally-earliest event — heap and delivery-batch
  /// fronts both considered. Returns false if there is none at or before
  /// `limit`. When a heap entry wins it is popped into `out` and `batch` is
  /// kNoBatch; when a delivery batch's front wins nothing is popped and
  /// `batch` names it, for dispatch_batch() to drain.
  bool pop_next(Entry& out, std::uint32_t& batch, Time limit);
  /// Pops the front heap entry (the earliest).
  void pop_front();
  /// Executes one popped entry: advances the clock and calls it.
  void fire(const Entry& e);

  // ---- delivery-batch internals ----

  /// One per-sink struct-of-arrays in-flight queue. The parallel vectors are
  /// a sorted-by-(at, seq) run: appends are time-monotonic (a precondition
  /// of schedule_deliver_batch_*) and seq is globally increasing, so
  /// [head, size) is always in firing order.
  struct DeliveryBatch {
    PacketSink* sink{nullptr};
    std::vector<Time> at;
    std::vector<std::uint64_t> seq;
    std::vector<PacketPool::Handle> handle;
    std::size_t head{0};
    bool listed{false};  // present in active_
  };
  static constexpr std::uint32_t kNoBatch = 0xffff'ffffu;

  /// Recomputes batch_min_ (the id of the batch with the earliest front, by
  /// (at, seq); kNoBatch when all are empty) and swap-removes the batches it
  /// finds empty from active_. O(active batches); called only when the
  /// current minimum's front changes, not per append.
  void recompute_batch_min();
#ifndef NDEBUG
  /// Debug builds check the active-batch index after every recompute: each
  /// non-empty batch is flagged and listed exactly once, no id is listed
  /// twice, flags match the list, and batch_min_ equals a full scan.
  void audit_active_batches() const;
#endif
  /// Drains batch `id` up to (exclusive) the earliest non-batch event or
  /// `limit`, delivering same-time runs through one deliver_batch() call.
  void dispatch_batch(std::uint32_t id, Time limit);

  Time now_{Time::zero()};
  std::uint64_t next_seq_{1};
  std::uint64_t executed_{0};
  std::vector<Entry> heap_;
  PacketPool pool_;

  // Delivery batches. batch_live_ counts queued batch deliveries; batch_min_
  // caches which batch currently owns the earliest front so pop_next pays
  // O(1) on the no-batch/quiet path.
  // active_ lists every non-empty batch (in no particular order: ties break
  // on the unique seq, so scan order never changes a result). An append to
  // an unlisted batch adds it; recompute_batch_min() lazily swap-removes the
  // ones it finds drained, so a short flow's batch that goes idle forever
  // drops out of every later scan.
  std::vector<DeliveryBatch> batches_;
  std::vector<std::uint32_t> active_;
  std::size_t batch_live_{0};
  std::uint32_t batch_min_{kNoBatch};
  std::uint64_t batch_scan_visits_{0};
  // Scratch for dispatch_batch: the run's handles and packet pointers are
  // copied out before delivery so a sink that appends (and reallocates the
  // SoA vectors) mid-callback cannot invalidate what we are iterating.
  std::vector<PacketPool::Handle> drain_handles_;
  std::vector<const Packet*> drain_pkts_;
};

}  // namespace ccc::sim
