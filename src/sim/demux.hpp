// Flow demultiplexer: routes packets arriving off a shared link to the
// per-flow endpoint that owns them (the "home router / host" of a scenario).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/packet.hpp"

namespace ccc::sim {

/// Routes by FlowId. Packets for unregistered flows are counted and dropped
/// (e.g. a short flow whose endpoint already finished and deregistered).
///
/// The routes live in one flat open-addressing table: a power-of-two slot
/// count, a multiplicative (Fibonacci) hash taken from the product's high
/// bits, and linear probing. A lookup is a multiply, a shift and usually one
/// slot, with no integer division; registering allocates only when the
/// table doubles (it stays at most half full), and deregistering shifts the
/// following run back, so churn leaves no tombstones behind. Any FlowId is
/// accepted.
class FlowDemux : public PacketSink {
 public:
  FlowDemux() : slots_(kMinSlots) {}

  /// Registers `sink` as the destination for `flow`. Overwrites any previous
  /// registration. `sink` must outlive its registration.
  void register_flow(FlowId flow, PacketSink& sink);

  /// Removes a flow's route; subsequent packets for it are dropped.
  void deregister_flow(FlowId flow);

  void deliver(const Packet& pkt) override {
    if (PacketSink* sink = route(pkt.flow)) {
      sink->deliver(pkt);
    } else {
      ++unroutable_;
    }
  }

  /// The sink registered for `flow`, or nullptr.
  [[nodiscard]] PacketSink* route(FlowId flow) const {
    for (std::size_t i = home(flow);; i = (i + 1) & mask()) {
      const Slot& s = slots_[i];
      if (s.sink == nullptr) return nullptr;
      if (s.flow == flow) return s.sink;
    }
  }

  /// Registered flows.
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::uint64_t unroutable_packets() const { return unroutable_; }

 private:
  struct Slot {
    FlowId flow{0};
    PacketSink* sink{nullptr};  ///< nullptr: the slot is empty
  };
  static constexpr std::size_t kMinSlots = 16;

  [[nodiscard]] std::size_t mask() const { return slots_.size() - 1; }
  /// The flow's first probe: the top log2(slots) bits of flow * 2^64/phi.
  [[nodiscard]] std::size_t home(FlowId flow) const {
    return static_cast<std::size_t>((flow * 0x9E37'79B9'7F4A'7C15ull) >> shift_);
  }
  /// Doubles the table and re-inserts every route.
  void grow();

  std::vector<Slot> slots_;
  int shift_{64 - 4};  ///< 64 - log2(slots_.size())
  std::size_t size_{0};
  std::uint64_t unroutable_{0};
};

inline void FlowDemux::register_flow(FlowId flow, PacketSink& sink) {
  std::size_t i = home(flow);
  for (; slots_[i].sink != nullptr; i = (i + 1) & mask()) {
    if (slots_[i].flow == flow) {
      slots_[i].sink = &sink;
      return;
    }
  }
  slots_[i] = {flow, &sink};
  if (2 * ++size_ > slots_.size()) grow();
}

inline void FlowDemux::deregister_flow(FlowId flow) {
  std::size_t i = home(flow);
  for (;; i = (i + 1) & mask()) {
    if (slots_[i].sink == nullptr) return;  // not registered
    if (slots_[i].flow == flow) break;
  }
  --size_;
  // Backward-shift deletion: pull later entries of the probe run into the
  // hole unless their home lies cyclically in (hole, j], where they must stay.
  for (std::size_t j = (i + 1) & mask(); slots_[j].sink != nullptr; j = (j + 1) & mask()) {
    const std::size_t h = home(slots_[j].flow);
    const bool stays = i <= j ? (i < h && h <= j) : (i < h || h <= j);
    if (!stays) {
      slots_[i] = slots_[j];
      i = j;
    }
  }
  slots_[i] = Slot{};
}

inline void FlowDemux::grow() {
  std::vector<Slot> old(slots_.size() * 2);
  old.swap(slots_);
  --shift_;
  for (const Slot& s : old) {
    if (s.sink == nullptr) continue;
    std::size_t i = home(s.flow);
    while (slots_[i].sink != nullptr) i = (i + 1) & mask();
    slots_[i] = s;
  }
}

/// A sink that discards everything (a traffic blackhole; useful for CBR
/// background traffic whose receiver does not respond).
class NullSink : public PacketSink {
 public:
  void deliver(const Packet& pkt) override {
    ++packets_;
    bytes_ += pkt.size_bytes;
  }
  [[nodiscard]] std::uint64_t packets() const { return packets_; }
  [[nodiscard]] ByteCount bytes() const { return bytes_; }

 private:
  std::uint64_t packets_{0};
  ByteCount bytes_{0};
};

}  // namespace ccc::sim
