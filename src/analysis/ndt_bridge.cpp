#include "analysis/ndt_bridge.hpp"

namespace ccc::analysis {

mlab::NdtRecord make_ndt_record(const telemetry::FlowMonitor& monitor, std::uint64_t id,
                                mlab::FlowArchetype truth, mlab::AccessType access) {
  mlab::NdtRecord rec;
  rec.id = id;
  rec.truth = truth;
  rec.access = access;
  rec.throughput_mbps = monitor.throughput_series_mbps();

  const auto& snaps = monitor.snapshots();
  if (!snaps.empty()) {
    const double interval_sec = monitor.snapshot_interval().to_sec();
    // The first snapshot closes the first interval, so the record spans
    // one interval more than the snapshot timestamps do.
    rec.duration_sec = snaps.back().t_sec - snaps.front().t_sec + interval_sec;
    rec.snapshot_interval_sec = interval_sec;
    rec.min_rtt_ms = snaps.back().min_rtt_ms;
    rec.app_limited_sec = snaps.back().app_limited_sec;
    rec.rwnd_limited_sec = snaps.back().rwnd_limited_sec;
    double sum = 0.0;
    for (double x : rec.throughput_mbps) sum += x;
    rec.mean_throughput_mbps =
        rec.throughput_mbps.empty() ? 0.0
                                    : sum / static_cast<double>(rec.throughput_mbps.size());
  }
  return rec;
}

}  // namespace ccc::analysis
