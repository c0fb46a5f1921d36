// Flow demultiplexer: routes packets arriving off a shared link to the
// per-flow endpoint that owns them (the "home router / host" of a scenario).
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/packet.hpp"
#include "util/flat_map.hpp"

namespace ccc::sim {

/// Routes by FlowId. Packets for unregistered flows are counted and dropped
/// (e.g. a short flow whose endpoint already finished and deregistered).
/// The routes live in a util::FlatMap, so a lookup is a multiply, a shift
/// and usually one slot. Any FlowId is accepted.
class FlowDemux : public PacketSink {
 public:
  /// Registers `sink` as the destination for `flow`. Overwrites any previous
  /// registration. `sink` must outlive its registration.
  void register_flow(FlowId flow, PacketSink& sink) { routes_.insert_or_assign(flow, &sink); }

  /// Removes a flow's route; subsequent packets for it are dropped.
  void deregister_flow(FlowId flow) { routes_.erase(flow); }

  void deliver(const Packet& pkt) override {
    if (PacketSink* sink = route(pkt.flow)) {
      sink->deliver(pkt);
    } else {
      ++unroutable_;
    }
  }

  /// The sink registered for `flow`, or nullptr.
  [[nodiscard]] PacketSink* route(FlowId flow) const {
    PacketSink* const* sink = routes_.find(flow);
    return sink != nullptr ? *sink : nullptr;
  }

  /// Registered flows.
  [[nodiscard]] std::size_t size() const { return routes_.size(); }
  [[nodiscard]] std::uint64_t unroutable_packets() const { return unroutable_; }

 private:
  util::FlatMap<PacketSink*> routes_;
  std::uint64_t unroutable_{0};
};

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
