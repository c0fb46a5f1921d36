// Discrete-event scheduler: the heart of the ccascope network simulator.
//
// The simulator is single threaded and driven entirely by this event queue.
// Components schedule callbacks at absolute times; ties are broken by
// insertion order so runs are fully deterministic. See DESIGN.md "Event
// engine" for the full argument.
//
//  * Typed events. A stored entry carries a raw function pointer + context
//    + a 64-bit argument, called as fn(ctx, arg): nothing is allocated and
//    nothing is type-erased. Cancellable events (schedule_call_*,
//    schedule_member_*) hold a generation-counted slab slot, so a stale id
//    never aliases a newer event; fire-and-forget events (schedule_fire_*,
//    schedule_member_fire_*) skip the slab entirely (slot == kNoSlot).
//
//  * A hierarchical timer wheel (4 levels x 64 slots, ~1 ms ticks) sits in
//    front of the binary heap and absorbs the cancellation-heavy timers:
//    an RTO that is re-armed on every ACK is pushed into a bucket in O(1)
//    and, once cancelled, is dropped in place — it never touches the heap.
//    Entries the cursor reaches spill, sorted, into a ready batch *before*
//    their due time, and pop_next() merges that batch against the heap by
//    (time, seq), so the FIFO tie-break — and with it bit-identical
//    experiment output — is exactly that of a heap-only queue.
//
//  * Per-sink delivery batches. A component whose arrivals are
//    time-monotonic — a Link's propagation pipe, a DelayLine — registers a
//    batch and appends its in-flight packets to a struct-of-arrays queue
//    (parallel arrival-time / seq / arena-handle vectors) instead of pushing
//    one scheduler entry per packet. The queue *is* a sorted run, so
//    pop_next() merges its front against the heap/ready/wheel fronts and,
//    when the batch is globally earliest, dispatch_batch() drains every
//    delivery up to the next non-batch event — same-time runs go to the
//    sink as a single deliver_batch() call. Every delivery keeps its unique
//    (time, seq) key, so the firing order is the one-entry-per-packet order.
//
// Cancelled events are lazily dropped when popped or cascaded; if too many
// accumulate (long-lived retransmission timers that ACKs keep disarming),
// the heap — or the wheel — is compacted in place so neither grows
// unboundedly.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/packet.hpp"
#include "sim/packet_pool.hpp"
#include "util/units.hpp"

namespace ccc::sim {

/// Identifies a scheduled event so it can be cancelled (e.g. a retransmission
/// timer disarmed by an ACK). Packed as (generation << 32) | slot: the slab
/// slot is reused after the event fires or is cancelled, but its generation
/// counter is bumped on every release, so a stale id never aliases a newer
/// event scheduled into the same slot.
using EventId = std::uint64_t;

/// Payload of a scheduled event: called as fn(ctx, arg). The common
/// timer shape is fn = a captureless-lambda trampoline, ctx = the component,
/// arg = optional small payload (a PacketPool handle, a bit_cast double).
using RawCallback = void (*)(void* ctx, std::uint64_t arg);

/// A time-ordered event queue with cancellation.
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

  /// Schedules fn(ctx, arg) at absolute time `at`; the returned id can
  /// cancel it. Precondition: at >= now() (the past cannot be scheduled).
  EventId schedule_call_at(Time at, RawCallback fn, void* ctx, std::uint64_t arg = 0);
  EventId schedule_call_after(Time delay, RawCallback fn, void* ctx, std::uint64_t arg = 0) {
    return schedule_call_at(now_ + delay, fn, ctx, arg);
  }

  /// Sugar for the dominant timer shape: a nullary member function on a
  /// component, e.g. schedule_member_at<&TcpSender::on_rto_fire>(t, this).
  /// Compiles to a captureless trampoline — no allocation, no type erasure.
  template <auto MemFn, class T>
  EventId schedule_member_at(Time at, T* obj) {
    return schedule_call_at(
        at, [](void* ctx, std::uint64_t) { (static_cast<T*>(ctx)->*MemFn)(); }, obj);
  }
  template <auto MemFn, class T>
  EventId schedule_member_after(Time delay, T* obj) {
    return schedule_member_at<MemFn>(now_ + delay, obj);
  }

  /// Fire-and-forget event: like schedule_call_at but not cancellable, so
  /// it skips the cancellation slab entirely (no slot, no generation, no
  /// EventId). The cheapest way to run a callback later; use it for the many
  /// timers whose ids are discarded — transmit completions, workload
  /// arrivals, periodic self-rescheduling ticks.
  void schedule_fire_at(Time at, RawCallback fn, void* ctx, std::uint64_t arg = 0);
  void schedule_fire_after(Time delay, RawCallback fn, void* ctx, std::uint64_t arg = 0) {
    schedule_fire_at(now_ + delay, fn, ctx, arg);
  }

  /// Member-function sugar for schedule_fire_at (not cancellable).
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
  /// record lives in the batch's parallel arrays, not in a heap/wheel
  /// entry. Preconditions: at >= now(), and appends to one batch are
  /// time-monotonic (at >= the batch's last queued arrival) — true for any
  /// fixed-delay pipe fed by a monotonic clock, which is what Link and
  /// DelayLine are.
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

  /// Cancels a pending event. Cancelling an already-fired, already-cancelled
  /// or unknown id is a harmless no-op (timers race with the events that
  /// disarm them).
  void cancel(EventId id);

  /// Runs events until the queue is empty or simulated time would exceed
  /// `end`; leaves now() == end (events exactly at `end` do fire).
  void run_until(Time end);

  /// Number of events executed since construction (for perf benches).
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }
  /// Number of live (non-cancelled) pending events.
  [[nodiscard]] std::size_t pending() const { return live_; }
  /// Heap records including not-yet-collected cancelled ones and the
  /// unconsumed part of the spilled ready batch (tests use this to verify
  /// compaction keeps near-term storage bounded under cancel churn).
  [[nodiscard]] std::size_t heap_entries() const {
    return heap_.size() + (ready_.size() - ready_pos_);
  }
  /// Wheel-resident records, including not-yet-swept cancelled ones (tests
  /// use this to verify cancel churn stays bounded without touching the
  /// heap).
  [[nodiscard]] std::size_t wheel_entries() const { return wheel_size_; }

 private:
  /// Sentinel slot for fire-and-forget entries that carry no cancellation
  /// state. Such entries are always live.
  static constexpr std::uint32_t kNoSlot = 0xffff'ffffu;

  /// A slab slot holding one cancellable event's identity. `gen` counts how
  /// many times the slot has been released; an EventId or queue entry
  /// carrying an older generation is stale. (Wrap after 2^32 releases of a
  /// single slot is beyond any simulation we run.) `loc` remembers where the
  /// entry currently sits — kLocHeap, kLocReady, or (level << 8 | bucket) —
  /// so cancel() knows which structure accumulated the stale record.
  struct Slot {
    std::uint32_t gen{1};
    std::uint16_t loc{kLocHeap};
    bool armed{false};
  };
  static constexpr std::uint16_t kLocHeap = 0xffff;
  static constexpr std::uint16_t kLocReady = 0xfffe;

  /// A stored event: heap, wheel-bucket and ready-batch record alike.
  struct Entry {
    Time at;
    std::uint64_t seq;   // global schedule order: FIFO tie-break at equal times
    std::uint32_t slot;  // kNoSlot for fire-and-forget events
    std::uint32_t gen;
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
  // Ascending (time, seq): the ready batch's sort order and the merge order
  // between the batch front and the heap front. seq is unique, so this is a
  // strict total order identical to the firing order.
  struct Earlier {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at < b.at;
      return a.seq < b.seq;
    }
  };
  static constexpr Earlier earlier{};

  // ---- timer wheel geometry ----
  // Ticks are 2^20 ns (~1.05 ms): RTTs, RTOs and pacing gaps all span many
  // ticks, while same-tick events (sub-ms chains) go straight to the heap.
  // 4 levels x 64 slots cover [2, 64^4) ticks ≈ 4.9 simulated hours; longer
  // timers overflow to the heap.
  static constexpr int kTickBits = 20;
  static constexpr int kSlotBits = 6;
  static constexpr int kLevels = 4;
  static constexpr std::uint64_t kSlotsPerLevel = 1ull << kSlotBits;
  static constexpr std::uint64_t kSlotMask = kSlotsPerLevel - 1;
  static constexpr std::uint64_t kMinWheelTicks = 2;  // below: heap (due "now")
  static constexpr std::uint64_t kMaxWheelTicks = 1ull << (kSlotBits * kLevels);

  [[nodiscard]] static std::uint64_t tick_of(Time t) {
    return static_cast<std::uint64_t>(t.count_ns()) >> kTickBits;
  }
  [[nodiscard]] static std::uint16_t wheel_loc(int level, std::uint64_t bucket) {
    return static_cast<std::uint16_t>((static_cast<unsigned>(level) << 8) | bucket);
  }

  [[nodiscard]] static EventId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }
  [[nodiscard]] bool is_live(const Entry& e) const {
    if (e.slot == kNoSlot) return true;
    const Slot& s = slots_[e.slot];
    return s.armed && s.gen == e.gen;
  }

  /// Allocates a slab slot for a cancellable event and returns its index.
  std::uint32_t acquire_slot();
  /// Returns a live slot to the free list, bumping its generation so stale
  /// ids/entries cannot alias it.
  void release_slot(std::uint32_t slot);

  /// Routes an entry to the wheel (cancellable, far enough out) or the heap.
  void place(const Entry& e);
  /// Pushes an entry onto the heap and records its location.
  void push_heap_entry(const Entry& e);
  /// Ensures every wheel entry with tick < target has been spilled into the
  /// heap, advancing the cursor to target.
  void catch_up_wheel(std::uint64_t target);
  /// Smallest tick >= the cursor at which a bucket must spill or cascade;
  /// `limit` if none below it. Precondition: wheel_size_ > 0.
  [[nodiscard]] std::uint64_t next_wheel_tick(std::uint64_t limit) const;
  /// Spills/cascades every bucket due exactly at tick t (cursor == t).
  void process_tick(std::uint64_t t);
  /// Re-places a level>=1 bucket's entries one level down (or into the heap).
  void cascade(int level, std::uint64_t bucket);
  /// Drops cancelled entries from every bucket (wheel analogue of compact()).
  void sweep_wheel();

  /// Finds the globally-earliest live event — ready batch, heap, wheel and
  /// delivery-batch fronts all considered. Returns false if there is none at
  /// or before `limit`. When a stored entry wins it is popped into `out` and
  /// `batch` is kNoBatch; when a delivery batch's front wins nothing is
  /// popped and `batch` names it, for dispatch_batch() to drain.
  bool pop_next(Entry& out, std::uint32_t& batch, Time limit);
  /// Pops the front heap entry (the earliest).
  void pop_front();
  /// Rebuilds the heap without stale (cancelled) entries.
  void compact();
  /// Executes one popped entry: advances the clock, releases its slot and
  /// calls it.
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
  std::size_t live_{0};   // armed slots + pending fire-and-forget entries
  std::size_t stale_{0};  // cancelled entries still sitting in the heap
  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  PacketPool pool_;

  // Wheel state. wheel_tick_ is the cursor: every bucket entry has
  // tick(at) >= wheel_tick_, and all spills/cascades for earlier ticks have
  // happened. occupied_[l] is a bitmask of non-empty buckets at level l.
  std::uint64_t wheel_tick_{0};
  std::size_t wheel_size_{0};
  std::size_t wheel_stale_{0};  // cancelled entries still sitting in buckets
  std::uint64_t occupied_[kLevels]{};
  std::vector<Entry> wheel_[kLevels][kSlotsPerLevel];
  std::vector<Entry> cascade_scratch_;
  // Memoized next_wheel_tick(∞): the earliest tick at which the wheel does
  // any work (level-0 spill or cascade). pop_next and the batch drain's
  // bound recompute consult the wheel once per event, so the occupied-bitmap
  // scan is cached here — inserts tighten it (min), processing a tick
  // invalidates it. Removals may leave it conservatively early, which costs
  // at most one empty process_tick step and is never wrong.
  mutable std::uint64_t wheel_next_{0};
  mutable bool wheel_next_valid_{false};

  // The ready batch: a spilled level-0 bucket, sorted ascending by
  // (time, seq) and consumed from the front in O(1) — the calendar-queue
  // move that keeps a 10k-packet in-flight window out of the binary heap.
  // Entries scheduled after the spill (same-tick arrivals) land in the heap
  // and are merged in by comparing actual (time, seq) keys, so the firing
  // order is exactly the heap-only order.
  std::vector<Entry> ready_;
  std::size_t ready_pos_{0};
  std::size_t ready_stale_{0};  // cancelled entries still in the batch

  // Delivery batches. batch_live_ counts queued batch deliveries (they are
  // part of live_ too); batch_min_ caches which batch currently owns the
  // earliest front so pop_next pays O(1) on the no-batch/quiet path.
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
