#include "sim/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace ccc::sim {

namespace {
/// Wheel level whose span covers `delta` ticks.
/// Precondition: kMinWheelTicks <= delta < kMaxWheelTicks.
int level_for(std::uint64_t delta) {
  if (delta < 64) return 0;
  if (delta < 64 * 64) return 1;
  if (delta < 64 * 64 * 64) return 2;
  return 3;
}
}  // namespace

std::uint32_t Scheduler::acquire_slot() {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].armed = true;
  ++live_;
  return slot;
}

void Scheduler::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.armed = false;
  ++s.gen;
  free_slots_.push_back(slot);
  --live_;
}

void Scheduler::push_heap_entry(const Entry& e) {
  if (e.slot != kNoSlot) slots_[e.slot].loc = kLocHeap;
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), later);
}

void Scheduler::place(const Entry& e) {
  // Every far-enough event goes through a bucket: cancellable events because
  // a cancelled bucket entry dies in place without touching the heap, and
  // fire-and-forget ones (slot == kNoSlot) because parking far-future
  // events in buckets keeps the binary heap down to the current tick's worth
  // of events.
  const std::uint64_t tick = tick_of(e.at);
  const std::uint64_t delta = tick - wheel_tick_;  // at >= now implies tick >= cursor - 1
  if (delta >= kMinWheelTicks && delta < kMaxWheelTicks &&
      static_cast<std::int64_t>(delta) > 0) {
    const int level = level_for(delta);
    const std::uint64_t bucket = (tick >> (kSlotBits * level)) & kSlotMask;
    wheel_[level][bucket].push_back(e);
    occupied_[level] |= 1ull << bucket;
    if (e.slot != kNoSlot) slots_[e.slot].loc = wheel_loc(level, bucket);
    ++wheel_size_;
    if (wheel_next_valid_) {
      // Keep the memoized next-work tick exact: a level-0 entry acts at its
      // own tick, a higher-level one when the cursor enters its block
      // (which is strictly ahead of the cursor — delta >= 64^level puts the
      // target in a later block, so no wrap ambiguity here).
      const std::uint64_t action =
          level == 0 ? tick : (tick >> (kSlotBits * level)) << (kSlotBits * level);
      if (action < wheel_next_) wheel_next_ = action;
    }
    return;
  }
  push_heap_entry(e);
}

EventId Scheduler::schedule_call_at(Time at, RawCallback fn, void* ctx, std::uint64_t arg) {
  assert(at >= now_ && "cannot schedule into the past");
  const std::uint32_t slot = acquire_slot();
  const std::uint32_t gen = slots_[slot].gen;
  place({at, next_seq_++, slot, gen, fn, ctx, arg});
  return make_id(slot, gen);
}

void Scheduler::schedule_fire_at(Time at, RawCallback fn, void* ctx, std::uint64_t arg) {
  assert(at >= now_ && "cannot schedule into the past");
  ++live_;
  place({at, next_seq_++, kNoSlot, 0, fn, ctx, arg});
}

Scheduler::BatchId Scheduler::register_delivery_batch(PacketSink& sink) {
  const auto id = static_cast<BatchId>(batches_.size());
  batches_.emplace_back();
  batches_.back().sink = &sink;
  return id;
}

void Scheduler::rebind_delivery_batch(BatchId id, PacketSink& sink) {
  batches_[id].sink = &sink;
}

void Scheduler::schedule_deliver_batch_handle_at(Time at, BatchId id, PacketPool::Handle h) {
  assert(at >= now_ && "cannot schedule into the past");
  DeliveryBatch& q = batches_[id];
  if (q.head != 0 && q.head == q.at.size()) {
    // Empty again: reset the consumed prefix so a steady-state pipe reuses
    // the same few slots instead of growing the vectors forever.
    q.at.clear();
    q.seq.clear();
    q.handle.clear();
    q.head = 0;
  }
  assert((q.head == q.at.size() || at >= q.at.back()) &&
         "delivery batch appends must be time-monotonic");
  const std::uint64_t seq = next_seq_++;
  const bool was_empty = q.at.empty();
  q.at.push_back(at);
  q.seq.push_back(seq);
  q.handle.push_back(h);
  ++live_;
  ++batch_live_;
  if (was_empty) {
    if (!q.listed) {
      q.listed = true;
      active_.push_back(id);
    }
    // A new front appeared; it displaces the cached minimum only if strictly
    // earlier (its seq is the newest, so equal times lose the tie-break).
    // Appends to a non-empty batch never change that batch's front. During a
    // dispatch_batch drain the cached minimum may point at a batch consumed
    // empty (it is recomputed when the drain finishes) — treat that as
    // displaced too, never read its front.
    if (batch_min_ == kNoBatch) {
      batch_min_ = id;
    } else {
      const DeliveryBatch& m = batches_[batch_min_];
      if (m.head == m.at.size() || at < m.at[m.head]) batch_min_ = id;
    }
  }
}

void Scheduler::recompute_batch_min() {
  batch_min_ = kNoBatch;
  batch_scan_visits_ += active_.size();
  Time best = Time::zero();
  std::uint64_t best_seq = 0;
  for (std::size_t i = 0; i < active_.size();) {
    const std::uint32_t b = active_[i];
    DeliveryBatch& q = batches_[b];
    if (q.head == q.at.size()) {
      // Drained: unlist it (its storage stays for the next append).
      q.listed = false;
      active_[i] = active_.back();
      active_.pop_back();
      continue;
    }
    const Time qa = q.at[q.head];
    const std::uint64_t qs = q.seq[q.head];
    if (batch_min_ == kNoBatch || qa < best || (qa == best && qs < best_seq)) {
      batch_min_ = b;
      best = qa;
      best_seq = qs;
    }
    ++i;
  }
#ifndef NDEBUG
  audit_active_batches();
#endif
}

#ifndef NDEBUG
void Scheduler::audit_active_batches() const {
  std::vector<char> seen(batches_.size(), 0);
  for (const std::uint32_t b : active_) {
    assert(b < batches_.size() && "active list holds an unknown batch id");
    assert(!seen[b] && "batch listed twice in the active list");
    assert(batches_[b].listed && "listed batch lacks its membership flag");
    seen[b] = 1;
  }
  std::uint32_t full_min = kNoBatch;
  for (std::uint32_t b = 0; b < batches_.size(); ++b) {
    const DeliveryBatch& q = batches_[b];
    assert(q.listed == static_cast<bool>(seen[b]) && "membership flag without a list entry");
    if (q.head == q.at.size()) continue;
    assert(q.listed && "non-empty batch missing from the active list");
    if (full_min == kNoBatch) {
      full_min = b;
      continue;
    }
    const DeliveryBatch& m = batches_[full_min];
    if (q.at[q.head] < m.at[m.head] ||
        (q.at[q.head] == m.at[m.head] && q.seq[q.head] < m.seq[m.head])) {
      full_min = b;
    }
  }
  assert(batch_min_ == full_min && "batch_min_ disagrees with a full scan");
}
#endif

void Scheduler::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xffff'ffffu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  if (!s.armed || s.gen != gen) return;  // already fired/cancelled, or reused
  const std::uint16_t loc = s.loc;
  release_slot(slot);
  // The heap or a wheel bucket still holds this event's entry; it is now
  // stale and will be dropped lazily when popped or cascaded — unless stale
  // entries start to dominate, in which case we compact in place so
  // disarmed timers cannot grow either structure forever. (Eager swap-remove
  // from the wheel bucket was tried and measured slower: the lazy path
  // touches one hot counter where removal touches the bucket's entry array.)
  if (loc == kLocHeap) {
    if (++stale_ >= 64 && stale_ > heap_.size() / 2) compact();
  } else if (loc == kLocReady) {
    ++ready_stale_;  // the batch drains within its tick; dropped at pop
  } else {
    if (++wheel_stale_ >= 64 && wheel_stale_ * 2 > wheel_size_) sweep_wheel();
  }
}

void Scheduler::compact() {
  std::erase_if(heap_, [this](const Entry& e) { return !is_live(e); });
  std::make_heap(heap_.begin(), heap_.end(), later);
  stale_ = 0;
}

void Scheduler::sweep_wheel() {
  for (int l = 0; l < kLevels; ++l) {
    std::uint64_t occ = occupied_[l];
    while (occ != 0) {
      const int b = std::countr_zero(occ);
      occ &= occ - 1;
      auto& bucket = wheel_[l][b];
      wheel_size_ -= std::erase_if(bucket, [this](const Entry& e) { return !is_live(e); });
      if (bucket.empty()) occupied_[l] &= ~(1ull << b);
    }
  }
  wheel_stale_ = 0;
}

std::uint64_t Scheduler::next_wheel_tick(std::uint64_t limit) const {
  // The scan result is memoized in wheel_next_ (see the member comment):
  // hot callers — pop_next and the batch drain's bound recompute — hit the
  // cache, and only a processed tick or a cursor jump past the cached value
  // forces a rescan.
  if (wheel_next_valid_ && wheel_next_ >= wheel_tick_) return std::min(limit, wheel_next_);
  std::uint64_t best = UINT64_MAX;
  // Level 0 buckets spill at their own tick.
  if (occupied_[0] != 0) {
    const unsigned cur = static_cast<unsigned>(wheel_tick_ & kSlotMask);
    const std::uint64_t rot = std::rotr(occupied_[0], static_cast<int>(cur));
    best = std::min(best, wheel_tick_ + static_cast<std::uint64_t>(std::countr_zero(rot)));
  }
  // Level l>=1 buckets cascade when the cursor enters their block (a
  // multiple of 64^l). Distance 0 is ambiguous: with the cursor exactly at
  // the block start the entering cascade is still pending (the bucket holds
  // current-wrap entries), while a cursor strictly inside the block has
  // already cascaded it — anything left there is a full wrap away.
  for (int l = 1; l < kLevels; ++l) {
    if (occupied_[l] == 0) continue;
    const int shift = kSlotBits * l;
    const std::uint64_t block = wheel_tick_ >> shift;
    const unsigned cur = static_cast<unsigned>(block & kSlotMask);
    const std::uint64_t rot = std::rotr(occupied_[l], static_cast<int>(cur));
    std::uint64_t d = static_cast<std::uint64_t>(std::countr_zero(rot));
    if (d == 0 && wheel_tick_ != (block << shift)) d = kSlotsPerLevel;
    best = std::min(best, (block + d) << shift);
  }
  wheel_next_ = best;
  wheel_next_valid_ = true;
  return std::min(limit, best);
}

void Scheduler::cascade(int level, std::uint64_t bucket) {
  auto& b = wheel_[level][bucket];
  occupied_[level] &= ~(1ull << bucket);
  if (b.empty()) return;
  wheel_size_ -= b.size();
  cascade_scratch_.clear();
  cascade_scratch_.swap(b);  // entries may re-place into this same bucket
  for (const Entry& e : cascade_scratch_) {
    if (!is_live(e)) {
      --wheel_stale_;
      continue;
    }
    place(e);
  }
}

void Scheduler::process_tick(std::uint64_t t) {
  // This tick's work is being consumed; the memoized next-work tick must be
  // rediscovered by the next scan (cascades re-place into an invalid hint,
  // which place() deliberately leaves untouched).
  wheel_next_valid_ = false;
  // Entering a new block at any level cascades that level's bucket first
  // (highest level first so entries can fall several levels in one tick).
  for (int l = kLevels - 1; l >= 1; --l) {
    const int shift = kSlotBits * l;
    if ((t & ((1ull << shift) - 1)) == 0) cascade(l, (t >> shift) & kSlotMask);
  }
  // Spill the level-0 bucket due at this tick into the ready batch: sort it
  // once by (time, seq) and consume from the front in O(1), instead of
  // paying a heap push *and* pop per entry. Batches append in tick order and
  // each batch's times lie within its tick, so the whole batch stays
  // globally sorted; events scheduled after the spill land in the heap and
  // pop_next() merges the two fronts by the same (time, seq) key — the
  // firing order (and the FIFO tie-break) is exactly the heap-only order.
  auto& b = wheel_[0][t & kSlotMask];
  occupied_[0] &= ~(1ull << (t & kSlotMask));
  if (b.empty()) return;
  wheel_size_ -= b.size();
  const auto batch_start = static_cast<std::ptrdiff_t>(ready_.size());
  for (const Entry& e : b) {
    if (!is_live(e)) {
      --wheel_stale_;
      continue;
    }
    if (e.slot != kNoSlot) slots_[e.slot].loc = kLocReady;
    ready_.push_back(e);
  }
  b.clear();
  std::sort(ready_.begin() + batch_start, ready_.end(), earlier);
}

void Scheduler::catch_up_wheel(std::uint64_t target) {
  while (wheel_tick_ < target) {
    if (wheel_size_ == 0) {
      wheel_tick_ = target;
      return;
    }
    const std::uint64_t next = next_wheel_tick(target);
    if (next >= target) {
      wheel_tick_ = target;
      return;
    }
    wheel_tick_ = next;  // placements during process_tick see the new cursor
    process_tick(next);
    wheel_tick_ = next + 1;
  }
}

bool Scheduler::pop_next(Entry& out, std::uint32_t& batch, Time limit) {
  for (;;) {
    // Drop stale (cancelled) entries at either front without executing.
    while (!heap_.empty() && !is_live(heap_.front())) {
      pop_front();
      --stale_;
    }
    while (ready_pos_ < ready_.size() && !is_live(ready_[ready_pos_])) {
      ++ready_pos_;
      --ready_stale_;
    }
    if (ready_pos_ != 0 && ready_pos_ == ready_.size()) {
      ready_.clear();  // keeps capacity for the next spill
      ready_pos_ = 0;
    }
    // Anything in the wheel due before the earliest known event (or the
    // limit) must spill first, or we would fire out of order.
    if (wheel_size_ > 0) {
      Time horizon = limit;
      if (!heap_.empty() && heap_.front().at < horizon) horizon = heap_.front().at;
      if (ready_pos_ < ready_.size() && ready_[ready_pos_].at < horizon) {
        horizon = ready_[ready_pos_].at;
      }
      if (batch_min_ != kNoBatch) {
        const DeliveryBatch& q = batches_[batch_min_];
        if (q.at[q.head] < horizon) horizon = q.at[q.head];
      }
      std::uint64_t target = tick_of(horizon) + 1;
      if (target > wheel_tick_) {
        // A bare limit (nothing queued near-term) can lie far past the next
        // wheel event; stepping the cursor straight there would strand it in
        // the future and divert every later timer to the heap. Stop just
        // past the first tick where the wheel actually does work, then
        // re-evaluate with the fresh fronts.
        target = std::min(target, next_wheel_tick(target) + 1);
        if (target > wheel_tick_) {
          catch_up_wheel(target);
          continue;  // spilled entries may now be the earliest
        }
      }
    }
    const bool have_ready = ready_pos_ < ready_.size();
    const bool have_heap = !heap_.empty();
    const bool take_ready =
        have_ready && (!have_heap || earlier(ready_[ready_pos_], heap_.front()));
    const Entry* front =
        have_ready || have_heap ? (take_ready ? &ready_[ready_pos_] : &heap_.front()) : nullptr;
    // Merge the batch minimum's front in by the same (time, seq) key. When it
    // wins, report the batch — the queue itself is consumed by
    // dispatch_batch(), nothing is popped here.
    if (batch_min_ != kNoBatch) {
      const DeliveryBatch& q = batches_[batch_min_];
      const Time qa = q.at[q.head];
      const std::uint64_t qs = q.seq[q.head];
      if (front == nullptr || qa < front->at || (qa == front->at && qs < front->seq)) {
        if (qa > limit) return false;
        batch = batch_min_;
        return true;
      }
    }
    if (front == nullptr || front->at > limit) return false;
    out = *front;
    batch = kNoBatch;
    if (take_ready) {
      ++ready_pos_;
    } else {
      pop_front();
    }
    return true;
  }
}

void Scheduler::pop_front() {
  std::pop_heap(heap_.begin(), heap_.end(), later);
  heap_.pop_back();
}

void Scheduler::fire(const Entry& e) {
  now_ = e.at;
  ++executed_;
  if (e.slot != kNoSlot) {
    release_slot(e.slot);  // before the call: it may re-arm the same timer
  } else {
    --live_;  // fire-and-forget: no slot to release
  }
  e.fn(e.ctx, e.arg);
}

void Scheduler::dispatch_batch(std::uint32_t id, Time limit) {
  // Which structure owns the current bound. Only a heap-owned bound can be
  // fused (fired inline below); the others hand control back to pop_next.
  enum class Src : std::uint8_t { kLimit, kHeap, kReady, kWheel, kBatch };
  Time bt = limit;
  std::uint64_t bs = 0;
  Src src = Src::kLimit;
  std::uint64_t bound_mark = 0;
  bool have_bound = false;
  for (;;) {
    // Re-fetched every iteration: a sink may register a new batch (growing
    // batches_) or append to this one (growing the SoA vectors) mid-drain.
    DeliveryBatch& q = batches_[id];
    if (q.head == q.at.size()) break;
    if (q.head >= 1024 && q.head * 2 >= q.at.size()) {
      // Compact the consumed prefix so a relay chain that keeps a handful of
      // packets in flight forever doesn't grow the vectors without bound.
      const auto n = static_cast<std::ptrdiff_t>(q.head);
      q.at.erase(q.at.begin(), q.at.begin() + n);
      q.seq.erase(q.seq.begin(), q.seq.begin() + n);
      q.handle.erase(q.handle.begin(), q.handle.begin() + n);
      q.head = 0;
    }
    // Exclusive bound (bt, bs): the earliest event that is *not* ours. Valid
    // until a sink callback schedules something — every schedule_* bumps
    // next_seq_, so an unchanged next_seq_ means an unchanged bound (cancels
    // don't bump it, but a cancelled front only leaves the bound
    // conservative — we hand back to pop_next early — never wrong).
    if (!have_bound || next_seq_ != bound_mark) {
      bt = limit;
      bs = UINT64_MAX;
      src = Src::kLimit;
      if (!heap_.empty()) {
        const Entry& e = heap_.front();
        if (e.at < bt || (e.at == bt && e.seq < bs)) {
          bt = e.at;
          bs = e.seq;
          src = Src::kHeap;
        }
      }
      if (ready_pos_ < ready_.size()) {
        const Entry& e = ready_[ready_pos_];
        if (e.at < bt || (e.at == bt && e.seq < bs)) {
          bt = e.at;
          bs = e.seq;
          src = Src::kReady;
        }
      }
      // Nothing in the wheel can fire before the cursor's tick — when that
      // is already past the bound's tick (the common case: pop_next caught
      // the wheel up through the batch front's tick before dispatching us),
      // the whole scan is skipped. Otherwise bound at the next tick the
      // wheel does work (seq 0 — conservative) and let pop_next spill it.
      if (wheel_size_ > 0 && wheel_tick_ <= tick_of(bt)) {
        const std::uint64_t lim_tick = tick_of(bt) + 1;
        const std::uint64_t wt = next_wheel_tick(lim_tick);
        if (wt < lim_tick) {
          const Time wtime = Time::ns(static_cast<std::int64_t>(wt << kTickBits));
          if (wtime < bt) {
            bt = wtime;
            bs = 0;
            src = Src::kWheel;
          } else if (wtime == bt) {
            bs = 0;
            src = Src::kWheel;
          }
        }
      }
      batch_scan_visits_ += active_.size();
      for (const std::uint32_t b : active_) {
        if (b == id) continue;
        const DeliveryBatch& ob = batches_[b];
        if (ob.head == ob.at.size()) continue;
        const Time oa = ob.at[ob.head];
        if (oa < bt || (oa == bt && ob.seq[ob.head] < bs)) {
          bt = oa;
          bs = ob.seq[ob.head];
          src = Src::kBatch;
        }
      }
      bound_mark = next_seq_;
      have_bound = true;
    }
    const std::size_t begin = q.head;
    const Time t = q.at[begin];
    if (!(t < bt || (t == bt && q.seq[begin] < bs))) {
      // The next event is not ours. When it is the live heap front — in a
      // busy sim deliveries and timers interleave tightly — fire it inline
      // and keep draining: bouncing through pop_next costs more than the
      // event itself. Ready/wheel/other-batch fronts are rarer; hand those
      // back to pop_next's full merge.
      if (src != Src::kHeap || heap_.empty()) break;
      const Entry e = heap_.front();
      if (e.at != bt || e.seq != bs) {
        have_bound = false;  // front changed under us (e.g. a compact)
        continue;
      }
      if (!is_live(e)) {
        pop_front();
        --stale_;
        have_bound = false;
        continue;
      }
      pop_front();
      fire(e);
      have_bound = false;  // the callback may have scheduled or consumed
      continue;
    }
    // The whole same-time run is ours: seqs in a batch are increasing, so
    // once the front beats (bt, bs) every same-time element with smaller seq
    // than bs does too — and ties at bs are impossible (seq is unique).
    std::size_t end = begin + 1;
    while (end < q.at.size() && q.at[end] == t && (t < bt || q.seq[end] < bs)) ++end;
    const std::size_t run = end - begin;
    now_ = t;
    if (wheel_size_ == 0 && tick_of(t) > wheel_tick_) wheel_tick_ = tick_of(t);
    executed_ += run;
    live_ -= run;
    batch_live_ -= run;
    q.head = end;  // consumed before delivery: sinks observe a popped queue
    PacketSink* const sink = q.sink;
    if (run == 1) {
      const PacketPool::Handle h = q.handle[begin];
      sink->deliver(pool_.get(h));
      pool_.release(h);
    } else {
      // Copy the run out first: the sink may append to this very batch and
      // reallocate the SoA vectors mid-callback. Handles stay valid (the
      // deque-backed pool never moves slots) until released below.
      drain_handles_.assign(q.handle.begin() + static_cast<std::ptrdiff_t>(begin),
                            q.handle.begin() + static_cast<std::ptrdiff_t>(end));
      drain_pkts_.clear();
      for (const PacketPool::Handle h : drain_handles_) drain_pkts_.push_back(&pool_.get(h));
      sink->deliver_batch(drain_pkts_.data(), run);
      for (const PacketPool::Handle h : drain_handles_) pool_.release(h);
    }
  }
  recompute_batch_min();
}

void Scheduler::run_until(Time end) {
  assert(end >= now_);
  Entry e{};
  std::uint32_t batch = kNoBatch;
  while (pop_next(e, batch, end)) {
    if (batch == kNoBatch) {
      fire(e);
    } else {
      dispatch_batch(batch, end);
    }
  }
  now_ = end;
}

}  // namespace ccc::sim
