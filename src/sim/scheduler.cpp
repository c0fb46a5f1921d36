#include "sim/scheduler.hpp"

#include <algorithm>
#include <cassert>

namespace ccc::sim {

void Scheduler::push_heap_entry(const Entry& e) {
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), later);
}

void Scheduler::schedule_fire_at(Time at, RawCallback fn, void* ctx, std::uint64_t arg) {
  schedule_fire_at_seq(at, next_seq_++, fn, ctx, arg);
}

void Scheduler::schedule_fire_at_seq(Time at, std::uint64_t seq, RawCallback fn, void* ctx,
                                     std::uint64_t arg) {
  assert(at >= now_ && "cannot schedule into the past");
  push_heap_entry({at, seq, fn, ctx, arg});
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

bool Scheduler::pop_next(Entry& out, std::uint32_t& batch, Time limit) {
  const Entry* front = heap_.empty() ? nullptr : &heap_.front();
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
  pop_front();
  return true;
}

void Scheduler::pop_front() {
  std::pop_heap(heap_.begin(), heap_.end(), later);
  heap_.pop_back();
}

void Scheduler::fire(const Entry& e) {
  now_ = e.at;
  ++executed_;
  e.fn(e.ctx, e.arg);
}

void Scheduler::dispatch_batch(std::uint32_t id, Time limit) {
  // Whether the heap front owns the current bound. Only a heap-owned bound
  // can be fused (fired inline below); the limit or another batch's front
  // hands control back to pop_next.
  Time bt = limit;
  std::uint64_t bs = 0;
  bool heap_bound = false;
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
    // until a sink callback schedules something — every schedule_* and every
    // Timer::arm bumps next_seq_, so an unchanged next_seq_ means an
    // unchanged bound. (A Timer's re-push under its old ticket happens only
    // when one of its entries fires, and every fire below resets the bound.)
    if (!have_bound || next_seq_ != bound_mark) {
      bt = limit;
      bs = UINT64_MAX;
      heap_bound = false;
      if (!heap_.empty()) {
        const Entry& e = heap_.front();
        if (e.at < bt || (e.at == bt && e.seq < bs)) {
          bt = e.at;
          bs = e.seq;
          heap_bound = true;
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
          heap_bound = false;
        }
      }
      bound_mark = next_seq_;
      have_bound = true;
    }
    const std::size_t begin = q.head;
    const Time t = q.at[begin];
    if (!(t < bt || (t == bt && q.seq[begin] < bs))) {
      // The next event is not ours. When it is the heap front — in a
      // busy sim deliveries and timers interleave tightly — fire it inline
      // and keep draining: bouncing through pop_next costs more than the
      // event itself. Another batch's front is rarer; hand it back to
      // pop_next's merge.
      if (!heap_bound || heap_.empty()) break;
      const Entry e = heap_.front();
      assert(e.at == bt && e.seq == bs && "a memoized heap bound is the heap front");
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
    executed_ += run;
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
