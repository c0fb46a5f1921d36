#include "flow/tcp_sender.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>

#include "telemetry/metrics.hpp"

namespace ccc::flow {

TcpSender::TcpSender(sim::Scheduler& sched, SenderConfig cfg,
                     std::unique_ptr<cca::CongestionControl> cc, app::App& source,
                     sim::PacketSink& out)
    : sched_{sched},
      cfg_{cfg},
      cc_{std::move(cc)},
      app_{source},
      out_{out},
      rto_{cfg.initial_rto},
      rto_timer_{sched, this},
      pacing_timer_{sched, this},
      limit_since_{sched.now()} {
  assert(cc_ != nullptr);
  app_.set_data_ready_hook([this] {
    if (started_ && !completed_) try_send();
  });
}

void TcpSender::bind_metrics(telemetry::MetricRegistry& reg, const std::string& prefix) {
  metric_prefix_ = prefix;
  // 0.05 ms .. ~1.6 s, the span between datacenter RTTs and a bufferbloated
  // last mile.
  rtt_hist_ =
      &reg.histogram(prefix + ".rtt_ms", telemetry::Histogram::geometric_bounds(0.05, 2.0, 16));
  // Per-ACK recording would grow with flow length; 10 ms of sim time between
  // points is ample for cwnd dynamics and keeps traces bounded.
  cwnd_trace_ = &reg.trace(prefix + ".cwnd_bytes", Time::ms(10));
  cc_->bind_metrics(reg, prefix + ".cca");
}

void TcpSender::export_metrics(telemetry::MetricRegistry& reg) const {
  const std::string& p = metric_prefix_;
  reg.counter(p + ".packets_sent").set(stats_.packets_sent);
  reg.counter(p + ".bytes_sent").set(static_cast<std::uint64_t>(stats_.bytes_sent));
  reg.counter(p + ".bytes_acked").set(static_cast<std::uint64_t>(stats_.bytes_acked));
  reg.counter(p + ".bytes_retransmitted")
      .set(static_cast<std::uint64_t>(stats_.bytes_retransmitted));
  reg.counter(p + ".retransmissions").set(stats_.retransmissions);
  reg.counter(p + ".rto_events").set(stats_.rto_events);
  reg.counter(p + ".tail_probes").set(stats_.tail_probes);
  reg.counter(p + ".recovery_episodes").set(stats_.recovery_episodes);
  reg.counter(p + ".rtt_samples").set(stats_.rtt_samples);
  reg.gauge(p + ".srtt_ms").set(srtt_.to_ms());
  reg.gauge(p + ".cwnd_bytes").set(static_cast<double>(cc_->cwnd_bytes()));
}

void TcpSender::start(Time at) {
  assert(!started_);
  sched_.schedule_member_fire_at<&TcpSender::on_start_fire>(at, this);
}

void TcpSender::on_start_fire() {
  started_ = true;
  app_.on_start(sched_.now());
  try_send();
}

void TcpSender::set_limit(SendLimit limit) {
  if (limit == limit_) return;
  const Time now = sched_.now();
  limited_time_[static_cast<std::size_t>(limit_)] += now - limit_since_;
  limit_ = limit;
  limit_since_ = now;
}

Time TcpSender::limited_time(SendLimit limit) const {
  Time t = limited_time_[static_cast<std::size_t>(limit)];
  if (limit == limit_) t += sched_.now() - limit_since_;
  return t;
}

ByteCount TcpSender::send_window() const { return std::min(cc_->cwnd_bytes(), rwnd_); }

void TcpSender::try_send() {
  if (completed_) return;
  if (segments_.empty()) {
    // No outstanding data: the SACK/loss ledgers must be empty too. (Defends
    // liveness — a ledger leak would otherwise inflate pipe_bytes() forever.)
    assert(sacked_bytes_ == 0 && lost_bytes_ == 0);
    sacked_bytes_ = 0;
    lost_bytes_ = 0;
    // RFC 2861 cwnd validation: an idle connection (nothing in flight and no
    // sends for an RTO) must not blast a stale window into the network.
    if (last_transmit_ != Time::never() && sched_.now() - last_transmit_ > rto_ &&
        app_.bytes_available(sched_.now()) > 0) {
      cc_->on_idle_restart(sched_.now());
    }
  }
  const ByteCount wnd = send_window();
  while (true) {
    const Time now = sched_.now();
    const ByteCount pipe = pipe_bytes();
    const ByteCount app_avail = app_.bytes_available(now);
    if (app_avail <= 0) {
      set_limit(SendLimit::kApp);  // kDone waits for the last ACK
      maybe_complete();
      return;
    }
    // Silly-window-syndrome avoidance: transmit only full-MSS segments (or
    // the final short one); never slice a segment to fit a fractionally-open
    // window, which would flood the path with tiny packets.
    const ByteCount len = std::min(cfg_.mss, app_avail);
    if (pipe + len > wnd) {
      set_limit(cc_->cwnd_bytes() <= rwnd_ ? SendLimit::kCca : SendLimit::kRwnd);
      return;
    }
    // Pacing: honor the CCA's rate if it supplies one.
    const Rate pace = cc_->pacing_rate();
    if (!pace.is_zero() && now < next_send_time_) {
      if (!pacing_timer_.armed()) pacing_timer_.arm(next_send_time_);
      set_limit(SendLimit::kNone);  // limited only by pacing spacing
      return;
    }

    Segment seg;
    seg.seq = snd_nxt_;
    seg.len = len;
    seg.delivered_at_send = snd_una_;
    seg.app_limited = app_avail <= len;  // queue empties with this packet
    app_.consume(len, now);
    snd_nxt_ += len;
    segments_.push_back(seg);
    transmit(segments_.back(), /*is_retx=*/false);

    if (!pace.is_zero()) {
      const Time gap = pace.transmit_time(len + sim::kHeaderBytes);
      next_send_time_ = std::max(next_send_time_, now) + gap;
    }
  }
}

void TcpSender::transmit(Segment& seg, bool is_retx) {
  const Time now = sched_.now();
  last_transmit_ = now;
  seg.sent_at = now;
  if (is_retx) {
    ++seg.transmissions;
    seg.delivered_at_send = snd_una_;
    ++stats_.retransmissions;
    stats_.bytes_retransmitted += seg.len;
  } else {
    stats_.bytes_sent += seg.len;
  }
  ++stats_.packets_sent;

  sim::Packet pkt;
  pkt.flow = cfg_.flow_id;
  pkt.user = cfg_.user;
  pkt.size_bytes = seg.len + sim::kHeaderBytes;
  pkt.seq = seg.seq;
  pkt.payload_bytes = seg.len;
  pkt.sent_at = now;
  pkt.is_retransmission = is_retx;
  pkt.ecn_capable = cc_->wants_ecn();
  out_.deliver(pkt);

  // RFC 6298 5.1: start the timer only if it is not already running — the
  // pending timeout still guards the oldest outstanding data. (Re-arming on
  // every transmission would let a continuously-sending flow starve its own
  // timeout while a lost retransmission pins snd_una forever.)
  if (!rto_timer_.armed()) arm_rto();
}

util::BlockDeque<TcpSender::Segment>::iterator TcpSender::first_segment_at(std::int64_t seq) {
  ++scoreboard_lookups_;
  const auto below = [this, seq](const Segment& s) {
    ++scoreboard_probes_;
    return s.seq < seq;
  };
  // Segments tile [front.seq, snd_nxt_) and none is longer than an MSS, so
  // the first ceil((seq - front.seq) / mss) of them all start below seq: the
  // answer's index is at least that, and exactly that while they are all
  // full-sized. Probe it; on a miss (sub-MSS segments below), binary-search
  // the rest.
  const auto n = static_cast<std::int64_t>(segments_.size());
  const std::int64_t ahead = n == 0 ? 0 : seq - segments_.front().seq;
  const std::int64_t bound = ahead <= 0 ? 0 : std::min(n, (ahead + cfg_.mss - 1) / cfg_.mss);
  auto it = segments_.begin() + bound;
  if (it != segments_.end() && below(*it)) {
    it = std::partition_point(it + 1, segments_.end(), below);
  }
  assert(it == std::partition_point(segments_.begin(), segments_.end(),
                                    [seq](const Segment& s) { return s.seq < seq; }));
  return it;
}

util::BlockDeque<TcpSender::Segment>::iterator TcpSender::cursor_segment(ScanCursor& cursor) {
  cursor.index = std::max(cursor.index, popped_);
  assert(cursor.index - popped_ <= static_cast<std::int64_t>(segments_.size()));
  const auto it = segments_.begin() + (cursor.index - popped_);
  assert(it == std::partition_point(segments_.begin(), segments_.end(),
                                    [&cursor](const Segment& s) { return s.seq < cursor.seq; }) &&
         "a scan cursor must land where a lookup of its sequence number would");
  return it;
}

ByteCount TcpSender::apply_sack(const sim::Packet& ack) {
  if (ack.n_sack == 0) return 0;
  ByteCount newly = 0;
  for (int i = 0; i < ack.n_sack; ++i) {
    // The segments a block covers are a run starting at its first segment.
    const sim::Packet::SackRange& block = ack.sack[i];
    for (auto it = first_segment_at(block.start);
         it != segments_.end() && it->seq + it->len <= block.end; ++it) {
      Segment& seg = *it;
      if (seg.sacked) continue;
      seg.sacked = true;
      newly += seg.len;
      high_sacked_ = std::max(high_sacked_, seg.seq + seg.len);
      if (seg.lost) {
        // It arrived after all (or its repair did): not lost.
        seg.lost = false;
        if (!seg.retx_queued) lost_bytes_ -= seg.len;
      }
    }
  }
  sacked_bytes_ += newly;

  // RFC 6675-style loss inference: an unsacked segment with at least
  // (dupthresh) segments' worth of SACKed data above it is lost. Everything
  // below loss_scan_ was settled by an earlier scan.
  const std::int64_t lost_edge =
      high_sacked_ - static_cast<std::int64_t>(cfg_.dupack_threshold - 1) * cfg_.mss;
  for (auto it = cursor_segment(loss_scan_);
       it != segments_.end() && it->seq + it->len <= lost_edge; ++it) {
    Segment& seg = *it;
    loss_scan_.pass(seg);
    if (seg.sacked || seg.lost) continue;
    seg.lost = true;
    if (!seg.retx_queued) lost_bytes_ += seg.len;
    // A loss among segments sent AFTER the current recovery began is a new
    // congestion event: the post-reduction window is itself too big. Without
    // this, one long recovery absorbs unlimited fresh loss windows with a
    // single multiplicative decrease and the window balloons.
    if (in_recovery_ && seg.seq >= recovery_start_nxt_) fresh_loss_pending_ = true;
  }
  return newly;
}

void TcpSender::maybe_retransmit_holes() {
  if (!in_recovery_) return;
  const ByteCount wnd = send_window();
  // Segments below hole_scan_ are sacked or already repaired; the cursor
  // advances over the leading run of such segments this scan meets.
  bool leading = true;
  for (auto it = cursor_segment(hole_scan_); it != segments_.end(); ++it) {
    Segment& seg = *it;
    const bool is_head = seg.seq == snd_una_;
    if (seg.seq + seg.len > high_sacked_ && !is_head) break;  // holes live below high_sacked
    if (!seg.sacked && !seg.retx_queued && (seg.lost || is_head)) {
      // Window-gate the repairs. The head is exempt — it is the segment
      // whose absence pins snd_una, so recovery must always be able to
      // resend it even when the pipe estimate exceeds the shrunken window
      // (everything else waits; the RTO backstops a lost head repair).
      if (!is_head && pipe_bytes() + seg.len > wnd) break;
      if (seg.lost) lost_bytes_ -= seg.len;  // repair goes back into the pipe
      seg.retx_queued = true;
      transmit(seg, /*is_retx=*/true);
    }
    if (!seg.sacked && !seg.retx_queued) {
      leading = false;
    } else if (leading) {
      hole_scan_.pass(seg);
    }
  }
}

void TcpSender::audit_scoreboard() const {
#ifndef NDEBUG
  ByteCount sacked = 0;
  ByteCount lost = 0;
  std::int64_t index = popped_;  // absolute index of seg
  for (const Segment& seg : segments_) {
    if (seg.sacked) sacked += seg.len;
    if (seg.lost && !seg.retx_queued) lost += seg.len;
    if (index < loss_scan_.index) assert(seg.sacked || seg.lost);
    if (index < hole_scan_.index) assert(seg.sacked || seg.retx_queued);
    // A cursor stands for the end of the segment just below it.
    if (index + 1 == loss_scan_.index) assert(loss_scan_.seq == seg.seq + seg.len);
    if (index + 1 == hole_scan_.index) assert(hole_scan_.seq == seg.seq + seg.len);
    ++index;
  }
  assert(sacked == sacked_bytes_);
  assert(lost == lost_bytes_);
  // Neither cursor passes the last segment.
  assert(loss_scan_.index <= index);
  assert(hole_scan_.index <= index);
#endif
}

void TcpSender::deliver(const sim::Packet& pkt) {
  if (!pkt.is_ack || completed_) return;
  rwnd_ = pkt.receiver_window;
  if (pkt.ack_seq > snd_una_) {
    process_new_ack(pkt);
  } else if (inflight_bytes() > 0) {
    process_dupack(pkt);
  }
  if (fresh_loss_pending_ && in_recovery_ && !completed_) {
    // Apply one further multiplicative decrease for the fresh loss window
    // and extend the episode to cover everything sent so far.
    fresh_loss_pending_ = false;
    ++stats_.recovery_episodes;
    cca::LossEvent ev;
    ev.now = sched_.now();
    ev.lost_bytes = cfg_.mss;
    ev.inflight_bytes = pipe_bytes();
    cc_->on_loss(ev);
    recovery_start_nxt_ = snd_nxt_;
  }
  app_.on_delivered(pkt.delivered_bytes, sched_.now());
  try_send();
  audit_scoreboard();
}

void TcpSender::process_new_ack(const sim::Packet& ack) {
  const Time now = sched_.now();
  const ByteCount newly = ack.ack_seq - snd_una_;
  snd_una_ = ack.ack_seq;
  stats_.bytes_acked += newly;
  dupacks_ = 0;
  rto_backoff_ = 0;
  apply_sack(ack);

  // Pop fully-ACKed segments; remember the first for rate/app-limited info.
  bool have_sample_seg = false;
  Segment sample_seg;
  while (!segments_.empty() && segments_.front().seq + segments_.front().len <= snd_una_) {
    const Segment& head = segments_.front();
    if (head.sacked) {
      sacked_bytes_ -= head.len;
    } else if (head.lost && !head.retx_queued) {
      lost_bytes_ -= head.len;
    }
    if (!have_sample_seg) {
      sample_seg = head;
      have_sample_seg = true;
    }
    segments_.pop_front();
    ++popped_;
  }
  high_sacked_ = std::max(high_sacked_, snd_una_);

  // RTT from the echoed transmit timestamp of the packet that generated this
  // ACK (timestamp echo sidesteps Karn's retransmission ambiguity).
  Time rtt = now - ack.echo_sent_at;
  if (rtt > Time::zero()) {
    update_rtt(rtt);
    ++stats_.rtt_samples;
    min_rtt_ = std::min(min_rtt_, rtt);
    if (rtt_hist_ != nullptr) rtt_hist_->observe(rtt.to_ms());
  } else {
    rtt = Time::zero();
  }

  // Delivery-rate sample from ACK arrival spacing of the receiver's
  // distinct-bytes-arrived counter.
  record_delivery_point(now, ack.received_total);
  const Rate delivery = sample_delivery_rate();
  const bool app_limited_sample = have_sample_seg && sample_seg.app_limited;

  // Recovery bookkeeping: partial ACKs keep repairing holes (SACK-guided).
  if (in_recovery_) {
    if (snd_una_ >= recovery_point_) {
      in_recovery_ = false;
      rto_epoch_ = false;
      hole_scan_.reset();
      // Re-arm repairs for the next episode. Invariant: lost_bytes_ counts
      // exactly the segments with (lost && !retx_queued), so segments whose
      // repair is being un-queued must be counted back in.
      for (auto& seg : segments_) {
        if (seg.lost && seg.retx_queued) lost_bytes_ += seg.len;
        seg.retx_queued = false;
      }
    } else {
      maybe_retransmit_holes();
    }
  }

  cca::AckEvent ev;
  ev.now = now;
  ev.newly_acked_bytes = newly;
  ev.rtt_sample = rtt;
  ev.acked_sent_at = have_sample_seg ? sample_seg.sent_at : Time::zero();
  ev.delivery_rate = delivery;
  ev.inflight_bytes = pipe_bytes();
  ev.in_recovery = in_recovery_ && !rto_epoch_;
  ev.app_limited = app_limited_sample;
  ev.ecn_echo = ack.ece;
  cc_->on_ack(ev);
  if (cwnd_trace_ != nullptr) {
    cwnd_trace_->record(now, static_cast<double>(cc_->cwnd_bytes()));
  }

  if (inflight_bytes() > 0) {
    arm_rto();
  } else {
    rto_timer_.disarm();
  }
  maybe_complete();
}

void TcpSender::record_delivery_point(Time now, ByteCount received_total) {
  if (!delivery_hist_.empty() && received_total <= delivery_hist_.back().second) return;
  delivery_hist_.emplace_back(now, received_total);
  // Keep roughly half an RTT of history (at least 10 ms, at most 64 acks).
  // Drop the front only while the *second* entry is also past the window, so
  // the measured span never collapses below the window — two compressed ACKs
  // a few microseconds apart must not masquerade as a line-rate sample.
  const Time window = std::max(srtt_ / 2, Time::ms(10));
  while (delivery_hist_.size() > 64 ||
         (delivery_hist_.size() > 2 && now - delivery_hist_[1].first > window)) {
    delivery_hist_.pop_front();
  }
}

Rate TcpSender::sample_delivery_rate() const {
  if (delivery_hist_.size() < 2) return Rate::zero();
  const auto& [t0, d0] = delivery_hist_.front();
  const auto& [t1, d1] = delivery_hist_.back();
  if (d1 <= d0) return Rate::zero();
  if (t1 - t0 < Time::ms(5)) return Rate::zero();  // span too short to trust
  return Rate::bytes_per(d1 - d0, t1 - t0);
}

void TcpSender::process_dupack(const sim::Packet& ack) {
  ++dupacks_;
  apply_sack(ack);
  record_delivery_point(sched_.now(), ack.received_total);
  if (!in_recovery_ &&
      (dupacks_ >= cfg_.dupack_threshold ||
       high_sacked_ - snd_una_ >= cfg_.dupack_threshold * cfg_.mss + cfg_.mss)) {
    enter_recovery(sched_.now());
  } else if (in_recovery_) {
    maybe_retransmit_holes();
  }
}

void TcpSender::enter_recovery(Time now) {
  in_recovery_ = true;
  recovery_point_ = snd_nxt_;
  recovery_start_nxt_ = snd_nxt_;
  fresh_loss_pending_ = false;
  ++stats_.recovery_episodes;
  cca::LossEvent ev;
  ev.now = now;
  ev.lost_bytes = segments_.empty() ? cfg_.mss : segments_.front().len;
  ev.inflight_bytes = pipe_bytes();
  cc_->on_loss(ev);
  maybe_retransmit_holes();  // the head is always eligible, SACKs or not
}

void TcpSender::update_rtt(Time sample) {
  if (srtt_ == Time::zero()) {
    srtt_ = sample;
    rttvar_ = sample / 2;
  } else {
    const auto diff = std::abs((srtt_ - sample).count_ns());
    rttvar_ = Time::ns((3 * rttvar_.count_ns() + diff) / 4);
    srtt_ = Time::ns((7 * srtt_.count_ns() + sample.count_ns()) / 8);
  }
  const Time base = srtt_ + std::max(4 * rttvar_, Time::ms(1));
  rto_ = std::clamp(base, cfg_.min_rto, cfg_.max_rto);
}

void TcpSender::arm_rto() {
  Time timeout = rto_;
  for (int i = 0; i < rto_backoff_; ++i) timeout = std::min(timeout * 2, cfg_.max_rto);
  rto_timer_.arm_after(timeout);
}

void TcpSender::on_pacing_fire() { try_send(); }

void TcpSender::on_rto_fire() {
  if (inflight_bytes() <= 0 || completed_) return;

  // Tail-loss probe (RACK-TLP in spirit): on the first expiry since ACK
  // progress, resend the newest unacked segment instead of declaring a full
  // timeout. If only the tail of the flight was lost, the probe's SACK
  // feedback triggers ordinary fast recovery — no CCA collapse needed.
  if (rto_backoff_ == 0 && !segments_.empty()) {
    ++stats_.tail_probes;
    rto_backoff_ = 1;  // a second expiry is a genuine RTO
    transmit(segments_.back(), /*is_retx=*/true);
    arm_rto();
    return;
  }

  ++stats_.rto_events;
  ++rto_backoff_;
  dupacks_ = 0;
  // Timeout epoch: everything unsacked is presumed lost and eligible for
  // retransmission again; repairs proceed window-gated from cwnd = 1 MSS,
  // with the CCA slow-starting as repairs are ACKed.
  in_recovery_ = true;
  rto_epoch_ = true;
  recovery_point_ = snd_nxt_;
  recovery_start_nxt_ = snd_nxt_;
  fresh_loss_pending_ = false;
  lost_bytes_ = 0;
  hole_scan_.reset();
  for (auto& seg : segments_) {
    seg.retx_queued = false;
    if (!seg.sacked) {
      seg.lost = true;
      lost_bytes_ += seg.len;
    }
  }
  cc_->on_rto(sched_.now());
  maybe_retransmit_holes();  // re-arms the (backed-off) timer via transmit()
}

void TcpSender::maybe_complete() {
  if (completed_) return;
  if (!app_.finished(sched_.now()) || inflight_bytes() > 0) return;
  completed_ = true;
  set_limit(SendLimit::kDone);
  rto_timer_.disarm();
  pacing_timer_.disarm();
  if (on_complete_) on_complete_(sched_.now());
}

}  // namespace ccc::flow
