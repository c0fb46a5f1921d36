// PacketPool — an arena for packets that are "on the wire".
//
// The event engine's delivery path (Link serialization, propagation,
// DelayLine pipes) keeps one slab-resident copy of each packet per wire
// traversal: the sender acquires a handle, the pipe's in-flight record (or
// Link's tx-complete event) carries the 4-byte handle, and the scheduler
// hands sinks a reference into the slab.
//
// Storage is a util::BlockDeque, whose blocks never relocate, so slots never
// move: a sink reading the delivered packet may itself acquire new handles
// (an ACK turned around into a reverse link) without invalidating the
// reference it was handed, and get(h) is a shift and a mask. Freed slots go
// on a free list and are reused LIFO, so steady-state simulations allocate
// nothing — the slab grows to the high-water mark of in-flight packets
// (roughly the sum of BDPs) and stays there.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/packet.hpp"
#include "util/block_deque.hpp"

namespace ccc::sim {

/// Slab of reusable Packet slots addressed by 4-byte handles. Single
/// threaded, like the scheduler that owns it.
class PacketPool {
 public:
  using Handle = std::uint32_t;

  /// Copies `pkt` into a slot (reusing a freed one if possible) and returns
  /// its handle. The slot stays valid until release().
  Handle acquire(const Packet& pkt) {
    Handle h;
    if (!free_.empty()) {
      h = free_.back();
      free_.pop_back();
      slots_[h] = pkt;
    } else {
      h = static_cast<Handle>(slots_.size());
      slots_.push_back(pkt);
    }
    ++live_;
    return h;
  }

  /// The packet behind `h`. References stay valid across acquire() — the
  /// slab's blocks never relocate — but not across release() of the same
  /// handle.
  [[nodiscard]] const Packet& get(Handle h) const { return slots_[h]; }
  [[nodiscard]] Packet& get(Handle h) { return slots_[h]; }

  /// Returns the slot to the free list. `h` must be live.
  void release(Handle h) {
    free_.push_back(h);
    --live_;
  }

  /// Currently-acquired slots (in-flight packets).
  [[nodiscard]] std::size_t live() const { return live_; }
  /// High-water mark: total slots ever created.
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

 private:
  util::BlockDeque<Packet> slots_;
  std::vector<Handle> free_;
  std::size_t live_{0};
};

}  // namespace ccc::sim
