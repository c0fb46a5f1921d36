#include "telemetry/tcp_info.hpp"

namespace ccc::telemetry {

FlowMonitor::FlowMonitor(sim::Scheduler& sched, const flow::TcpSender& sender, Time start,
                         Time stop, Time snapshot_interval)
    : sender_{sender},
      snapshot_interval_{snapshot_interval},
      snapshotter_{sched, snapshot_interval, start + snapshot_interval, stop,
                   [this](Time now) { snapshot(now); }} {}

void FlowMonitor::snapshot(Time now) {
  TcpInfoSnapshot s;
  s.t_sec = now.to_sec();
  s.bytes_acked = sender_.delivered_bytes();
  const double dt = s.t_sec - last_snapshot_t_;
  if (dt > 0.0) {
    s.throughput_mbps =
        static_cast<double>(s.bytes_acked - last_snapshot_bytes_) * 8.0 / dt / 1e6;
  }
  s.srtt_ms = sender_.srtt().to_ms();
  s.min_rtt_ms = sender_.min_rtt() == Time::never() ? 0.0 : sender_.min_rtt().to_ms();
  s.cwnd_bytes = sender_.cc().cwnd_bytes();
  s.app_limited_sec = sender_.limited_time(flow::SendLimit::kApp).to_sec();
  s.rwnd_limited_sec = sender_.limited_time(flow::SendLimit::kRwnd).to_sec();
  s.cca_limited_sec = sender_.limited_time(flow::SendLimit::kCca).to_sec();
  s.retransmissions = sender_.stats().retransmissions;
  last_snapshot_bytes_ = s.bytes_acked;
  last_snapshot_t_ = s.t_sec;
  snapshots_.push_back(s);
}

std::vector<double> FlowMonitor::throughput_series_mbps() const {
  std::vector<double> out;
  out.reserve(snapshots_.size());
  for (const auto& s : snapshots_) out.push_back(s.throughput_mbps);
  return out;
}

}  // namespace ccc::telemetry
