// Point-to-point link: rate serialization + propagation delay + a qdisc.
//
// This is the simulator's stand-in for the paper's Mahimahi-emulated link
// (§3.2: 48 Mbit/s, 100 ms). Packets offered to send() pass through the
// link's qdisc, are serialized at the link rate, then arrive at the
// destination sink one propagation delay later.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "sim/packet.hpp"
#include "sim/qdisc.hpp"
#include "sim/scheduler.hpp"
#include "sim/timer.hpp"
#include "util/units.hpp"

namespace ccc::telemetry {
class Histogram;
class MetricRegistry;
}  // namespace ccc::telemetry

namespace ccc::sim {

/// Link-level counters for utilization accounting in the benches.
struct LinkStats {
  std::uint64_t packets_sent{0};
  ByteCount bytes_sent{0};
  Time busy_time{Time::zero()};  ///< total time spent serializing
};

/// A unidirectional link. Not copyable/movable: endpoints hold pointers to it
/// and it schedules callbacks capturing `this`.
class Link {
 public:
  /// Constructs a link transmitting at `rate` with one-way propagation delay
  /// `prop_delay`, queueing through `qdisc`, delivering into `dst`.
  /// `dst` must outlive the link. Preconditions: rate > 0, qdisc non-null.
  Link(Scheduler& sched, Rate rate, Time prop_delay, std::unique_ptr<Qdisc> qdisc,
       PacketSink& dst);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Offers a packet to the link (enters the qdisc; may be dropped there).
  void send(const Packet& pkt);

  /// Changes the transmission rate. Models variable-capacity links
  /// (cellular/WiFi/satellite, paper §2.3/§5.1). Bits already serialized
  /// stay sent; the remainder of the packet currently on the wire continues
  /// at the new rate (the completion event is re-planned). Pinning the
  /// in-flight packet to its dequeue-time rate instead resonates with
  /// periodic rate schedules: a frame whose low-rate serialization time is a
  /// multiple of the schedule period finishes at the same phase it started,
  /// locking every subsequent dequeue into the low-rate window.
  void set_rate(Rate rate);
  [[nodiscard]] Rate rate() const { return rate_; }
  [[nodiscard]] Time prop_delay() const { return prop_delay_; }

  [[nodiscard]] const Qdisc& qdisc() const { return *qdisc_; }
  [[nodiscard]] Qdisc& qdisc() { return *qdisc_; }
  [[nodiscard]] const LinkStats& stats() const { return stats_; }
  /// Idle wake-ups of the shaper wake timer (sim::Timer::idle_wakeups).
  [[nodiscard]] std::uint64_t timer_idle_wakeups() const { return wake_timer_.idle_wakeups(); }

  /// Average utilization over the interval [Time::zero(), now].
  [[nodiscard]] double utilization(Time now) const;

  /// Optional tap invoked for every packet the moment it finishes
  /// serializing (i.e. the instant it occupies the bottleneck). Used by
  /// telemetry to sample per-flow link shares.
  void set_tx_tap(std::function<void(const Packet&, Time)> tap) { tx_tap_ = std::move(tap); }

  /// Binds this link to a metric registry: live queue-sojourn histogram
  /// (`prefix + ".sojourn_ms"`) plus tx/utilization/qdisc counters refreshed
  /// by export_metrics(). Unbound links pay only a null-pointer check.
  void bind_metrics(telemetry::MetricRegistry& reg, const std::string& prefix = "link");

  /// Mirrors LinkStats/QdiscStats and the utilization/backlog gauges into
  /// the bound registry. No-op when bind_metrics() was never called.
  void export_metrics(Time now);

 private:
  void maybe_start_tx();
  /// rate_.transmit_time(bytes), memoized for the last (bytes, rate) pair:
  /// a link mostly serializes runs of same-sized packets at one rate, and
  /// each miss costs a libm ceil.
  Time serialization_time(ByteCount bytes);
  /// `packed` = (plan epoch << 32) | packet handle; see tx_epoch_.
  void on_tx_complete(std::uint64_t packed);

  Scheduler& sched_;
  Rate rate_;
  Time prop_delay_;
  std::unique_ptr<Qdisc> qdisc_;
  /// The propagation pipe: arrival times are tx-complete time + a fixed
  /// prop_delay_, hence monotonic — the pipe's append precondition.
  Scheduler::PipeId pipe_;
  bool busy_{false};
  /// Shaper wake-up: when the qdisc's head packet becomes eligible.
  Timer<&Link::maybe_start_tx> wake_timer_;
  /// In-flight serialization plan. Completion events are fire-and-forget
  /// (the scheduler cannot cancel), so a mid-flight set_rate cannot
  /// cancel the pending completion — instead each (re)plan bumps tx_epoch_
  /// and schedules a fresh completion carrying its epoch; a firing whose
  /// epoch is stale was superseded and is ignored. Fixed-rate links never
  /// re-plan and see exactly one event per packet, as before.
  std::uint32_t tx_epoch_{0};
  PacketPool::Handle tx_handle_{0};
  Time tx_end_{Time::zero()};        ///< planned completion instant
  Time tx_replan_at_{Time::zero()};  ///< when tx_remaining_bits_ was current
  double tx_remaining_bits_{0.0};
  ByteCount memo_bytes_{-1};  ///< serialization_time's key (bytes, rate)...
  Rate memo_rate_;
  Time memo_time_;            ///< ...and its value
  LinkStats stats_;
  std::function<void(const Packet&, Time)> tx_tap_;
  telemetry::MetricRegistry* metrics_{nullptr};
  telemetry::Histogram* sojourn_hist_{nullptr};
  std::string metric_prefix_;
};

/// A fixed-delay, infinite-capacity pipe. Used for uncongested segments,
/// most commonly the ACK return path (reverse-path congestion is out of
/// scope for every experiment in the paper).
class DelayLine : public PacketSink {
 public:
  DelayLine(Scheduler& sched, Time delay, PacketSink& dst)
      : sched_{sched}, delay_{delay}, pipe_{sched.register_pipe(dst)} {}

  void deliver(const Packet& pkt) override {
    // The in-flight packet rides in the delay line's pipe. Fixed delay +
    // monotonic clock keeps the pipe's append order time-sorted, as the pipe
    // requires.
    sched_.schedule_delivery_after(delay_, pipe_, pkt);
  }

  /// Re-points the downstream sink (used when wiring scenarios). Applies to
  /// packets still in flight: each goes to the sink bound when it arrives.
  void set_dst(PacketSink& dst) { sched_.rebind_pipe(pipe_, dst); }

  /// Packets in flight on the line.
  [[nodiscard]] std::size_t in_flight() const { return sched_.pipe_in_flight(pipe_); }
  /// Gives the line's pipe back to the scheduler for reuse; the line must
  /// carry nothing more. Precondition: in_flight() == 0.
  void release() { sched_.release_pipe(pipe_); }

 private:
  Scheduler& sched_;
  Time delay_;
  Scheduler::PipeId pipe_;
};

/// Adapts a Link into a PacketSink so links can be chained behind
/// demultiplexers or delay lines.
class LinkSink : public PacketSink {
 public:
  explicit LinkSink(Link& link) : link_{link} {}
  void deliver(const Packet& pkt) override { link_.send(pkt); }

 private:
  Link& link_;
};

}  // namespace ccc::sim
