// TCP-like sender: sequencing, loss detection, retransmission, pacing.
//
// This is the transport half that turns a CCA's window/rate into packets.
// It implements the mechanisms every experiment relies on:
//   - cumulative ACKs with dupack-based fast retransmit (NewReno-style
//     recovery including partial-ACK retransmission),
//   - RFC 6298 RTO estimation with exponential backoff (the timeout
//     mechanism whose starvation effects E6 reproduces),
//   - optional pacing when the CCA supplies a rate (BBR, Copa, Nimbus),
//   - app-limited tracking (the sender knows *why* it is not sending, which
//     is exactly the TCPInfo signal the paper's §3.1 M-Lab analysis keys on),
//     with exact cumulative time per limit, kept the way the kernel's
//     tcp_chrono timers keep tcpi_busy_time and tcpi_rwnd_limited.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <utility>

#include "app/app.hpp"
#include "cca/cca.hpp"
#include "sim/packet.hpp"
#include "sim/scheduler.hpp"
#include "sim/timer.hpp"
#include "util/block_deque.hpp"

namespace ccc::telemetry {
class Histogram;
class MetricRegistry;
class Trace;
}  // namespace ccc::telemetry

namespace ccc::flow {

/// Why the sender was not transmitting at a given instant.
enum class SendLimit {
  kNone,  ///< actively sending / window not yet filled
  kCca,   ///< congestion window full
  kRwnd,  ///< receiver window full
  kApp,   ///< application had no data (AppLimited in TCPInfo terms),
          ///< including a finished app whose last bytes await their ACKs
  kDone,  ///< flow completed: the app finished and every byte is ACKed
};

struct SenderConfig {
  sim::FlowId flow_id{1};
  sim::UserId user{1};
  ByteCount mss{sim::kMss};
  Time min_rto{Time::ms(200)};
  Time max_rto{Time::sec(60.0)};
  Time initial_rto{Time::sec(1.0)};
  int dupack_threshold{3};
};

/// Counters exposed for telemetry (TCPInfo-style) and test assertions.
struct SenderStats {
  ByteCount bytes_sent{0};          ///< first transmissions only
  ByteCount bytes_retransmitted{0};
  ByteCount bytes_acked{0};
  std::uint64_t packets_sent{0};
  std::uint64_t retransmissions{0};
  std::uint64_t rto_events{0};
  std::uint64_t tail_probes{0};  ///< TLP-style probes sent instead of a full RTO
  std::uint64_t recovery_episodes{0};
  std::uint64_t rtt_samples{0};
};

class TcpSender : public sim::PacketSink {
 public:
  /// `out` is the first hop of the data path; `source` supplies bytes; the
  /// sender takes ownership of `cc`. All references must outlive the sender.
  TcpSender(sim::Scheduler& sched, SenderConfig cfg, std::unique_ptr<cca::CongestionControl> cc,
            app::App& source, sim::PacketSink& out);

  TcpSender(const TcpSender&) = delete;
  TcpSender& operator=(const TcpSender&) = delete;

  /// Begins transmitting at absolute time `at`.
  void start(Time at);

  /// ACK ingress (the reverse path delivers here).
  void deliver(const sim::Packet& pkt) override;

  // --- observability ---
  [[nodiscard]] const SenderStats& stats() const { return stats_; }
  [[nodiscard]] ByteCount delivered_bytes() const { return snd_una_; }
  /// Unacknowledged sequence range (includes SACKed bytes).
  [[nodiscard]] ByteCount inflight_bytes() const { return snd_nxt_ - snd_una_; }
  /// Bytes believed to actually be in the network (excludes SACKed bytes and
  /// inferred-lost, not-yet-repaired bytes); the quantity the congestion
  /// window gates (RFC 6675's "pipe").
  [[nodiscard]] ByteCount pipe_bytes() const {
    return snd_nxt_ - snd_una_ - sacked_bytes_ - lost_bytes_;
  }
  [[nodiscard]] Time srtt() const { return srtt_; }
  [[nodiscard]] Time min_rtt() const { return min_rtt_; }
  [[nodiscard]] const cca::CongestionControl& cc() const { return *cc_; }
  [[nodiscard]] cca::CongestionControl& cc() { return *cc_; }
  [[nodiscard]] SendLimit current_limit() const { return limit_; }
  /// Cumulative time spent under `limit` since construction, including the
  /// interval still open. The five limits partition the sender's lifetime
  /// exactly: they always sum to now() minus the construction time.
  [[nodiscard]] Time limited_time(SendLimit limit) const;
  [[nodiscard]] bool completed() const { return completed_; }
  [[nodiscard]] sim::FlowId flow_id() const { return cfg_.flow_id; }
  /// Scoreboard position lookups (one per SACK block) made so far, and the
  /// segments they compared against a sequence number in total. Exact
  /// counts (tests / introspection): a full-MSS flow's lookup costs one
  /// probe, a sub-MSS flow's falls back to a binary search. The two scan
  /// cursors are segment indices and need no search, so their moves are
  /// not lookups and cost no probe.
  [[nodiscard]] std::uint64_t scoreboard_lookups() const { return scoreboard_lookups_; }
  [[nodiscard]] std::uint64_t scoreboard_probes() const { return scoreboard_probes_; }
  /// Idle wake-ups of the RTO and pacing timers (sim::Timer::idle_wakeups;
  /// tests account for them in Scheduler::events_executed()).
  [[nodiscard]] std::uint64_t timer_idle_wakeups() const {
    return rto_timer_.idle_wakeups() + pacing_timer_.idle_wakeups();
  }
  /// Heap entries pointing at the RTO and pacing timers
  /// (sim::Timer::entries): while nonzero, the sender must not be destroyed.
  [[nodiscard]] std::uint32_t timer_entries() const {
    return rto_timer_.entries() + pacing_timer_.entries();
  }

  /// Invoked once, when the app finishes and all its bytes are ACKed.
  void set_on_complete(std::function<void(Time)> fn) { on_complete_ = std::move(fn); }

  /// Hooks this sender into a per-scenario registry under `prefix` (e.g.
  /// "flow3"): live RTT histogram `<prefix>.rtt_ms`, interval-sampled cwnd
  /// trace `<prefix>.cwnd_bytes`, plus the CCA's own instruments under
  /// `<prefix>.cca`. Unbound senders pay nothing on the ACK path.
  void bind_metrics(telemetry::MetricRegistry& reg, const std::string& prefix);
  /// Mirrors SenderStats into `reg` as `<prefix>.*` counters (snapshot-style;
  /// call at collection points, costs nothing in between).
  void export_metrics(telemetry::MetricRegistry& reg) const;

 private:
  struct Segment {
    std::int64_t seq{0};
    ByteCount len{0};
    Time sent_at{Time::zero()};
    ByteCount delivered_at_send{0};
    bool app_limited{false};
    bool sacked{false};       ///< covered by a received SACK block
    bool lost{false};         ///< inferred lost (unsacked well below high_sacked)
    bool retx_queued{false};  ///< already retransmitted in this recovery
    int transmissions{1};
  };

  /// A scan cursor: the absolute index (counting every segment ever queued,
  /// popped ones included) of the first segment the scan has not passed.
  /// Segments tile the sequence space, so that is the segment
  /// first_segment_at(end of the last passed segment) would find, and
  /// subtracting popped_ makes it a segments_ index with no search.
  struct ScanCursor {
    std::int64_t index{0};
#ifndef NDEBUG
    std::int64_t seq{0};  ///< Debug oracle: the end of the last segment passed
#endif
    void pass([[maybe_unused]] const Segment& seg) {
      ++index;
#ifndef NDEBUG
      seq = seg.seq + seg.len;
#endif
    }
    void reset() { *this = ScanCursor{}; }
  };

  void try_send();
  void on_start_fire();
  void on_pacing_fire();
  void transmit(Segment& seg, bool is_retx);
  /// First segment with seq >= `seq` (segments_ is contiguous and ascending);
  /// a SACK block's first segment. Probes the index an all-full-MSS
  /// scoreboard would give first, and binary-searches the segments above it
  /// on a miss; Debug builds check the result against a binary search over
  /// the whole scoreboard.
  [[nodiscard]] util::BlockDeque<Segment>::iterator first_segment_at(std::int64_t seq);
  /// The segment `cursor` points at, after moving a cursor that fell below
  /// the front up to it. O(1), not a lookup; Debug builds check it against
  /// a binary search for the cursor's sequence number.
  [[nodiscard]] util::BlockDeque<Segment>::iterator cursor_segment(ScanCursor& cursor);
  /// Marks segments covered by the ACK's SACK blocks, then infers losses
  /// below the raised SACK edge. Returns bytes newly SACKed (0 if none).
  ByteCount apply_sack(const sim::Packet& ack);
  /// SACK-based recovery: retransmits unsacked holes below the highest
  /// SACKed byte, gated by the congestion window.
  void maybe_retransmit_holes();
  /// Debug builds: recounts the SACK/loss ledgers and checks both cursors
  /// against segments_ (bounds, settled segments below them, and the
  /// sequence number each stands for).
  void audit_scoreboard() const;
  void process_new_ack(const sim::Packet& ack);
  void process_dupack(const sim::Packet& ack);
  void enter_recovery(Time now);
  void update_rtt(Time sample);
  void arm_rto();
  void on_rto_fire();
  void maybe_complete();
  /// Every change of limit_ goes through here, closing the outgoing limit's
  /// interval into its limited_time_ bucket.
  void set_limit(SendLimit limit);
  [[nodiscard]] ByteCount send_window() const;

  sim::Scheduler& sched_;
  SenderConfig cfg_;
  std::unique_ptr<cca::CongestionControl> cc_;
  app::App& app_;
  sim::PacketSink& out_;

  std::int64_t snd_una_{0};
  std::int64_t snd_nxt_{0};
  util::BlockDeque<Segment> segments_;  ///< unacked segments, ascending seq
  std::int64_t popped_{0};              ///< segments popped from segments_' front
  ByteCount rwnd_{1 << 30};             ///< peer-advertised window (updated by ACKs)

  int dupacks_{0};
  bool in_recovery_{false};
  /// True when the current recovery began with a timeout: the CCA is in
  /// slow start and must keep growing (only dupack-triggered fast recovery
  /// freezes the window until it completes).
  bool rto_epoch_{false};
  bool fresh_loss_pending_{false};
  std::int64_t recovery_point_{0};
  /// snd_nxt when the latest congestion response was applied; losses at or
  /// beyond it are fresh congestion events deserving their own decrease.
  std::int64_t recovery_start_nxt_{0};
  ByteCount sacked_bytes_{0};
  ByteCount lost_bytes_{0};  ///< lost and not yet retransmitted
  std::int64_t high_sacked_{0};
  /// Loss-inference cursor: every segment below it is sacked or lost. Both
  /// flags are sticky below it (lost is cleared only when sacked is set) and
  /// the inference edge only rises with high_sacked_, so a scan resumes here
  /// instead of at the front.
  ScanCursor loss_scan_;
  /// Hole-repair cursor: every segment below it is sacked or retx_queued, so
  /// repair resumes here. Reset wherever retx_queued is cleared (recovery
  /// exit and the RTO epoch).
  ScanCursor hole_scan_;
  std::uint64_t scoreboard_lookups_{0};
  std::uint64_t scoreboard_probes_{0};

  /// (ack arrival, receiver bytes-arrived counter) samples for delivery-rate
  /// estimation. The counter is arrival-paced at the receiver, so rate
  /// samples stay truthful through loss recovery instead of spiking when a
  /// repaired hole releases a cumulative-ACK jump.
  util::BlockDeque<std::pair<Time, ByteCount>> delivery_hist_;
  void record_delivery_point(Time now, ByteCount received_total);
  [[nodiscard]] Rate sample_delivery_rate() const;

  Time srtt_{Time::zero()};
  Time rttvar_{Time::zero()};
  Time rto_;
  Time min_rtt_{Time::never()};
  int rto_backoff_{0};
  sim::Timer<&TcpSender::on_rto_fire> rto_timer_;

  Time next_send_time_{Time::zero()};  // pacing release time
  Time last_transmit_{Time::never()};  // for idle-restart detection
  sim::Timer<&TcpSender::on_pacing_fire> pacing_timer_;  ///< armed while a wake-up is due

  SendLimit limit_{SendLimit::kNone};
  Time limit_since_;  ///< when limit_ last changed
  /// Closed intervals per limit, indexed by SendLimit (kDone is the last).
  std::array<Time, static_cast<std::size_t>(SendLimit::kDone) + 1> limited_time_{};
  bool started_{false};
  bool completed_{false};
  SenderStats stats_;
  std::function<void(Time)> on_complete_;

  // Telemetry (null unless bind_metrics was called; hot paths gate on that).
  std::string metric_prefix_;
  telemetry::Histogram* rtt_hist_{nullptr};
  telemetry::Trace* cwnd_trace_{nullptr};
};

}  // namespace ccc::flow
