#include "sim/link.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "telemetry/metrics.hpp"

namespace ccc::sim {

Link::Link(Scheduler& sched, Rate rate, Time prop_delay, std::unique_ptr<Qdisc> qdisc,
           PacketSink& dst)
    : sched_{sched},
      rate_{rate},
      prop_delay_{prop_delay},
      qdisc_{std::move(qdisc)},
      pipe_{sched.register_pipe(dst)},
      wake_timer_{sched, this} {
  assert(rate_.to_bps() > 0.0);
  assert(qdisc_ != nullptr);
}

void Link::send(const Packet& pkt) {
  qdisc_->enqueue(pkt, sched_.now());
  maybe_start_tx();
}

void Link::set_rate(Rate rate) {
  assert(rate.to_bps() > 0.0);
  if (busy_ && rate.to_bps() != rate_.to_bps()) {
    // Re-plan the serializing packet: credit the bits sent at the old rate
    // since the last plan, then finish the remainder at the new rate. See
    // the header comment for why the in-flight packet must not stay pinned
    // to its dequeue-time rate.
    const Time now = sched_.now();
    tx_remaining_bits_ =
        std::max(0.0, tx_remaining_bits_ - rate_.to_bps() * (now - tx_replan_at_).to_sec());
    tx_replan_at_ = now;
    const Time remaining = Time::ns(
        static_cast<std::int64_t>(std::ceil(tx_remaining_bits_ / rate.to_bps() * 1e9)));
    stats_.busy_time += (now + remaining) - tx_end_;
    tx_end_ = now + remaining;
    ++tx_epoch_;
    sched_.schedule_fire_at(
        tx_end_,
        [](void* ctx, std::uint64_t arg) { static_cast<Link*>(ctx)->on_tx_complete(arg); },
        this, (std::uint64_t{tx_epoch_} << 32) | tx_handle_);
  }
  rate_ = rate;
}

double Link::utilization(Time now) const {
  if (now <= Time::zero()) return 0.0;
  return stats_.busy_time / now;
}

void Link::bind_metrics(telemetry::MetricRegistry& reg, const std::string& prefix) {
  metrics_ = &reg;
  metric_prefix_ = prefix;
  // 0.05 ms .. ~1.7 s in 16 geometric buckets: spans sub-ms datacenter
  // sojourns through multi-second bufferbloat.
  sojourn_hist_ = &reg.histogram(prefix + ".qdisc.sojourn_ms",
                                 telemetry::Histogram::geometric_bounds(0.05, 2.0, 16));
}

void Link::export_metrics(Time now) {
  if (metrics_ == nullptr) return;
  auto& m = *metrics_;
  const std::string& p = metric_prefix_;
  m.counter(p + ".tx_packets").set(stats_.packets_sent);
  m.counter(p + ".tx_bytes").set(static_cast<std::uint64_t>(stats_.bytes_sent));
  m.gauge(p + ".utilization").set(utilization(now));
  const QdiscStats& qs = qdisc_->stats();
  m.counter(p + ".qdisc.enqueued_packets").set(qs.enqueued_packets);
  m.counter(p + ".qdisc.dequeued_packets").set(qs.dequeued_packets);
  m.counter(p + ".qdisc.dropped_packets").set(qs.dropped_packets);
  m.counter(p + ".qdisc.ecn_marked_packets").set(qs.ecn_marked_packets);
  m.counter(p + ".qdisc.dropped_bytes").set(static_cast<std::uint64_t>(qs.dropped_bytes));
  m.gauge(p + ".qdisc.backlog_bytes").set(static_cast<double>(qdisc_->backlog_bytes()));
  m.gauge(p + ".qdisc.backlog_packets").set(static_cast<double>(qdisc_->backlog_packets()));
}

void Link::maybe_start_tx() {
  if (busy_) return;
  const Time now = sched_.now();
  const Time ready = qdisc_->next_ready(now);
  if (ready == Time::never()) return;  // nothing queued

  if (ready > now) {
    // Shaper holding bytes: wake up when the head packet becomes eligible.
    // Re-arm only if the new wake time is sooner than a pending one:
    // Timer::arm pushes a heap entry only then, and a later wake time just
    // moves the deadline its pending entry checks.
    wake_timer_.arm(ready);
    return;
  }

  auto pkt = qdisc_->dequeue(now);
  if (!pkt) return;  // qdisc changed its mind (e.g. CoDel dropped the head)

  if (sojourn_hist_ != nullptr && pkt->enqueued_at > Time::zero()) {
    sojourn_hist_->observe((now - pkt->enqueued_at).to_ms());
  }

  busy_ = true;
  const Time tx_time = serialization_time(pkt->size_bytes);
  stats_.busy_time += tx_time;
  // The serializing packet lives in the scheduler's arena, not a closure
  // capture; its 4-byte handle rides through the typed event's arg (packed
  // under the plan epoch so a mid-flight set_rate can supersede the event).
  const PacketPool::Handle h = sched_.packets().acquire(*pkt);
  tx_handle_ = h;
  tx_remaining_bits_ = static_cast<double>(pkt->size_bytes) * 8.0;
  tx_replan_at_ = now;
  tx_end_ = now + tx_time;
  ++tx_epoch_;
  sched_.schedule_fire_after(
      tx_time,
      [](void* ctx, std::uint64_t arg) { static_cast<Link*>(ctx)->on_tx_complete(arg); },
      this, (std::uint64_t{tx_epoch_} << 32) | h);
}

Time Link::serialization_time(ByteCount bytes) {
  if (bytes != memo_bytes_ || rate_ != memo_rate_) {
    memo_bytes_ = bytes;
    memo_rate_ = rate_;
    memo_time_ = rate_.transmit_time(bytes);
  }
  return memo_time_;
}

void Link::on_tx_complete(std::uint64_t packed) {
  if (!busy_ || static_cast<std::uint32_t>(packed >> 32) != tx_epoch_) {
    return;  // superseded by a set_rate re-plan (or by the packet after it)
  }
  busy_ = false;
  const auto h = static_cast<PacketPool::Handle>(packed & 0xffffffffu);
  const Packet& pkt = sched_.packets().get(h);
  ++stats_.packets_sent;
  stats_.bytes_sent += pkt.size_bytes;
  if (tx_tap_) tx_tap_(pkt, sched_.now());

  // Propagation: the packet arrives at the destination prop_delay later.
  // Ownership of the arena slot moves into the link's pipe — no copy.
  sched_.schedule_delivery_handle_after(prop_delay_, pipe_, h);

  maybe_start_tx();
}

}  // namespace ccc::sim
