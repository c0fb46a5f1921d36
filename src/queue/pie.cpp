#include "queue/pie.hpp"

#include <algorithm>
#include <cassert>

namespace ccc::queue {

PieQueue::PieQueue(PieConfig cfg) : cfg_{cfg}, rng_{cfg.seed} {
  assert(cfg_.capacity_bytes > 0);
  assert(cfg_.target > Time::zero());
  assert(cfg_.t_update > Time::zero());
  burst_allowance_ = cfg_.max_burst;
}

void PieQueue::maybe_update(Time now) {
  if (!started_) {
    started_ = true;
    next_update_ = now + cfg_.t_update;
    return;
  }
  while (now >= next_update_) {
    // Queueing-delay estimate: backlog over the measured drain rate
    // (RFC 8033 §5.2). Before the first full measurement cycle completes
    // there is no rate yet; leave the estimate at zero — burst allowance
    // covers exactly this startup window.
    if (avg_drain_bytes_per_sec_ > 0.0) {
      qdelay_ = Time::sec(static_cast<double>(fifo_.bytes()) / avg_drain_bytes_per_sec_);
    } else {
      qdelay_ = Time::zero();
    }

    if (burst_allowance_ > Time::zero()) {
      burst_allowance_ =
          burst_allowance_ > cfg_.t_update ? burst_allowance_ - cfg_.t_update : Time::zero();
    }

    // PI control law with the RFC's auto-tuning: gains scale down while the
    // probability is small so tiny queues are not over-punished.
    double scale = 1.0;
    if (drop_prob_ < 0.000001) {
      scale = 1.0 / 2048;
    } else if (drop_prob_ < 0.00001) {
      scale = 1.0 / 512;
    } else if (drop_prob_ < 0.0001) {
      scale = 1.0 / 128;
    } else if (drop_prob_ < 0.001) {
      scale = 1.0 / 32;
    } else if (drop_prob_ < 0.01) {
      scale = 1.0 / 8;
    } else if (drop_prob_ < 0.1) {
      scale = 1.0 / 2;
    }
    double p = cfg_.alpha * scale * (qdelay_ - cfg_.target).to_sec() +
               cfg_.beta * scale * (qdelay_ - qdelay_old_).to_sec();
    drop_prob_ = std::clamp(drop_prob_ + p, 0.0, 1.0);

    // Exponential decay when the queue is idle (RFC 8033 §5.2 step 7).
    if (qdelay_ == Time::zero() && qdelay_old_ == Time::zero()) {
      drop_prob_ *= 0.98;
    }
    qdelay_old_ = qdelay_;
    next_update_ += cfg_.t_update;
  }
}

bool PieQueue::should_early_drop() {
  if (burst_allowance_ > Time::zero()) return false;
  // RFC 8033 §5.1 safeguards: never early-drop when the controller has no
  // real signal yet or the queue is trivially small.
  if (qdelay_old_ < cfg_.target / 2 && drop_prob_ < 0.2) return false;
  if (fifo_.bytes() <= 2 * sim::kFullPacket) return false;
  return rng_.uniform() < drop_prob_;
}

bool PieQueue::enqueue(const sim::Packet& pkt, Time now) {
  ++stats_.enqueued_packets;  // offered (see QdiscStats contract)
  maybe_update(now);

  if (fifo_.bytes() + pkt.size_bytes > cfg_.capacity_bytes) {
    stats_.record_drop(pkt);
    return false;
  }
  if (drop_prob_ > 0.0 && should_early_drop()) {
    // Below mark_ecnth, ECN-capable packets take a CE mark instead of the
    // drop — the controller advances identically either way.
    if (pkt.ecn_capable && drop_prob_ < cfg_.mark_ecnth) {
      fifo_.push(pkt, now);
      fifo_.back().ecn_marked = true;
      ++stats_.ecn_marked_packets;
      return true;
    }
    stats_.record_drop(pkt);
    return false;
  }
  fifo_.push(pkt, now);
  return true;
}

std::optional<sim::Packet> PieQueue::dequeue(Time now) {
  maybe_update(now);
  if (fifo_.empty()) return std::nullopt;
  sim::Packet head = fifo_.pop_front();
  ++stats_.dequeued_packets;

  // Departure-rate measurement (RFC 8033 §5.2): once at least DQ_THRESHOLD
  // bytes have drained in a cycle, fold bytes/elapsed into the average.
  if (dq_count_ == 0) dq_start_ = now;
  dq_count_ += head.size_bytes;
  if (dq_count_ >= kDqThreshold && now > dq_start_) {
    const double rate = static_cast<double>(dq_count_) / (now - dq_start_).to_sec();
    avg_drain_bytes_per_sec_ = avg_drain_bytes_per_sec_ == 0.0
                                   ? rate
                                   : 0.9 * avg_drain_bytes_per_sec_ + 0.1 * rate;
    dq_count_ = 0;
  }
  return head;
}

Time PieQueue::next_ready(Time now) const {
  return fifo_.empty() ? Time::never() : now;
}

}  // namespace ccc::queue
