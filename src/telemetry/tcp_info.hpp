// TCPInfo-style flow instrumentation.
//
// M-Lab's NDT archives per-flow TCPInfo snapshots; the paper's passive
// analysis (§3.1) keys on AppLimited / RWndLimited time and throughput
// evolution. FlowMonitor produces exactly those measurements for simulated
// flows, letting integration tests validate the passive pipeline against
// ground truth the real M-Lab data lacks. The limit times are the sender's
// own exact counters (TcpSender::limited_time); the monitor only copies
// them into a snapshot every interval.
#pragma once

#include <vector>

#include "flow/tcp_sender.hpp"
#include "telemetry/sampler.hpp"

namespace ccc::telemetry {

/// One snapshot, mirroring the NDT TCPInfo fields the paper's analysis uses.
struct TcpInfoSnapshot {
  double t_sec{0.0};
  ByteCount bytes_acked{0};
  double throughput_mbps{0.0};  ///< over the interval since last snapshot
  double srtt_ms{0.0};
  double min_rtt_ms{0.0};
  ByteCount cwnd_bytes{0};
  /// Cumulative since the sender was constructed, as NDT archives them.
  double app_limited_sec{0.0};   ///< the NDT AppLimited field
  double rwnd_limited_sec{0.0};  ///< the NDT RWndLimited field
  double cca_limited_sec{0.0};   ///< time the cwnd was binding
  std::uint64_t retransmissions{0};
};

/// Attaches to one sender and records a snapshot every `snapshot_interval`
/// in [start + snapshot_interval, stop).
class FlowMonitor {
 public:
  FlowMonitor(sim::Scheduler& sched, const flow::TcpSender& sender, Time start, Time stop,
              Time snapshot_interval = Time::ms(100));

  FlowMonitor(const FlowMonitor&) = delete;
  FlowMonitor& operator=(const FlowMonitor&) = delete;

  [[nodiscard]] const std::vector<TcpInfoSnapshot>& snapshots() const { return snapshots_; }
  [[nodiscard]] Time snapshot_interval() const { return snapshot_interval_; }
  /// Throughput series (Mbps per snapshot interval) — the input the
  /// change-point stage of the passive pipeline expects.
  [[nodiscard]] std::vector<double> throughput_series_mbps() const;

 private:
  void snapshot(Time now);

  const flow::TcpSender& sender_;
  Time snapshot_interval_;

  ByteCount last_snapshot_bytes_{0};
  double last_snapshot_t_{0.0};
  std::vector<TcpInfoSnapshot> snapshots_;

  PeriodicSampler snapshotter_;
};

}  // namespace ccc::telemetry
