#include "sim/scheduler.hpp"

#include <algorithm>
#include <cassert>

namespace ccc::sim {

void Scheduler::push_heap_entry(const Entry& e) {
  if (root_vacant_) {
    root_vacant_ = false;
    sift_down(0, e);
  } else {
    heap_.push_back(e);
    sift_up(heap_.size() - 1, e);
  }
}

void Scheduler::sift_down(std::size_t i, const Entry& e) {
  Entry* const h = heap_.data();
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) break;
    const std::size_t stop = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < stop; ++c) {
      if (earlier(h[c], h[best])) best = c;
    }
    if (!earlier(h[best], e)) break;
    h[i] = h[best];
    i = best;
  }
  h[i] = e;
}

void Scheduler::sift_up(std::size_t i, const Entry& e) {
  Entry* const h = heap_.data();
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!earlier(e, h[parent])) break;
    h[i] = h[parent];
    i = parent;
  }
  h[i] = e;
}

void Scheduler::schedule_fire_at(Time at, RawCallback fn, void* ctx, std::uint64_t arg) {
  schedule_fire_at_seq(at, next_seq_++, fn, ctx, arg);
}

void Scheduler::schedule_fire_at_seq(Time at, std::uint64_t seq, RawCallback fn, void* ctx,
                                     std::uint64_t arg) {
  assert(at >= now_ && "cannot schedule into the past");
  push_heap_entry({at, seq, fn, ctx, arg});
}

Scheduler::PipeId Scheduler::register_pipe(PacketSink& sink) {
  if (!free_pipes_.empty()) {
    const PipeId id = free_pipes_.back();
    free_pipes_.pop_back();
    pipes_[id].sink = &sink;
    return id;
  }
  const auto id = static_cast<PipeId>(pipes_.size());
  pipes_.push_back({this, &sink, {}, 0});
  return id;
}

void Scheduler::release_pipe(PipeId id) {
  assert(pipes_[id].records.empty() && "only an empty pipe can be released");
  pipes_[id].sink = nullptr;
  free_pipes_.push_back(id);
}

void Scheduler::rebind_pipe(PipeId id, PacketSink& sink) { pipes_[id].sink = &sink; }

void Scheduler::schedule_delivery_handle_at(Time at, PipeId id, PacketPool::Handle h) {
  assert(at >= now_ && "cannot schedule into the past");
  Pipe& p = pipes_[id];
  assert((p.records.empty() || at >= p.records.back().at) &&
         "pipe appends must be time-monotonic");
  p.records.push_back({at, next_seq_++, h});
  // An empty pipe has no records at all (on_pipe_front resets it), so this
  // append made it non-empty: its record is the front and needs an entry.
  if (p.records.size() == 1) push_front_entry(p);
}

void Scheduler::push_front_entry(Pipe& p) {
  const Pipe::Record& r = p.records[p.head];
  push_heap_entry({r.at, r.seq, &Scheduler::on_pipe_front, &p, r.seq});
}

void Scheduler::on_pipe_front(void* pipe, [[maybe_unused]] std::uint64_t seq) {
  Pipe& p = *static_cast<Pipe*>(pipe);
  Scheduler& s = *p.sched;
  const Pipe::Record r = p.records[p.head];
  // The one-entry-per-pipe invariant: the entry that fired is the front's.
  assert(r.at == s.now_ && r.seq == seq && "a pipe's heap entry must be its front record");
  ++p.head;
  if (p.head == p.records.size() || (p.head >= 1024 && 2 * p.head >= p.records.size())) {
    // Drop the consumed prefix: all of it once the pipe is empty, so a
    // steady-state pipe reuses the same few slots; in bulk for a pipe that
    // never empties, so its vector stays bounded by what is in flight.
    p.records.erase(p.records.begin(), p.records.begin() + static_cast<std::ptrdiff_t>(p.head));
    p.head = 0;
  }
  if (p.head < p.records.size()) s.push_front_entry(p);
  // Popped before delivery: the sink may append to this pipe (the record
  // was copied out), and sees it without the packet it is handed.
  p.sink->deliver(s.pool_.get(r.handle));
  s.pool_.release(r.handle);
}

std::size_t Scheduler::pending() const {
  std::size_t n = heap_entries();
  for (const Pipe& p : pipes_) {
    if (!p.records.empty()) n += p.records.size() - p.head - 1;
  }
  return n;
}

void Scheduler::run_until(Time end) {
  assert(end >= now_);
#ifndef NDEBUG
  assert(!running_ && "run_until must not be re-entered from a callback");
  running_ = true;
  struct Running {
    bool& flag;
    ~Running() { flag = false; }
  } running{running_};
#endif
  for (;;) {
    if (root_vacant_) {
      // The last callback pushed nothing: the last entry fills the root.
      root_vacant_ = false;
      const Entry last = heap_.back();
      heap_.pop_back();
      if (!heap_.empty()) sift_down(0, last);
    }
    if (heap_.empty() || heap_.front().at > end) break;
    // Popped by leaving its slot vacant: the callback's first push (if any)
    // takes the slot, so a pop plus a push is one sift-down.
    const Entry e = heap_.front();
    root_vacant_ = true;
    now_ = e.at;
    ++executed_;
    e.fn(e.ctx, e.arg);
  }
#ifndef NDEBUG
  // Every non-empty pipe has an entry, so an empty heap means empty pipes.
  if (heap_.empty()) {
    for (const Pipe& p : pipes_) {
      assert(p.records.empty() && "a non-empty pipe lost its heap entry");
    }
  }
#endif
  now_ = end;
}

}  // namespace ccc::sim
