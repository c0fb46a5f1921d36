// Poisson short-flow workload: web-style traffic (Figure 3's fourth
// cross-traffic type, and §2.2's "most flows are short" population).
//
// New TCP connections arrive as a Poisson process; each carries a
// heavy-tailed (bounded-Pareto) number of bytes and terminates when
// delivered. Most such flows fit in the initial window, so no CCA dynamics
// ever engage — exactly the property the paper leans on.
//
// A finished flow is retired (destroyed, its reverse pipe released for
// reuse) at the first arrival after nothing can reach it any more, so a
// scenario holds its live flows, not every flow it ever started.
#pragma once

#include <memory>
#include <vector>

#include "cca/cca.hpp"
#include "flow/tcp_flow.hpp"
#include "util/rng.hpp"

namespace ccc::flow {

struct ShortFlowConfig {
  sim::UserId user{1};
  sim::FlowId first_flow_id{1000};
  Time start_at{Time::zero()};
  Time stop_at{Time::sec(60.0)};
  /// Mean inter-arrival time of new connections.
  Time mean_interarrival{Time::ms(500)};
  /// Bounded-Pareto flow sizes (bytes): shape, min, max.
  double size_shape{1.2};
  ByteCount size_min{4 * 1024};
  ByteCount size_max{2 * 1024 * 1024};
  Time reverse_delay{Time::ms(50)};
  ByteCount receiver_window{1 << 30};
};

class ShortFlowWorkload {
 public:
  /// Arrivals are scheduled immediately; flows are wired like any TcpFlow.
  /// `cca_factory` stamps a CCA per connection. All references must outlive
  /// the workload.
  ShortFlowWorkload(sim::Scheduler& sched, Rng& rng, ShortFlowConfig cfg,
                    cca::CcaFactory cca_factory, sim::PacketSink& forward,
                    sim::FlowDemux& demux);

  ShortFlowWorkload(const ShortFlowWorkload&) = delete;
  ShortFlowWorkload& operator=(const ShortFlowWorkload&) = delete;

  [[nodiscard]] std::size_t flows_started() const { return retired_ + flows_.size(); }
  [[nodiscard]] std::size_t flows_completed() const { return completed_; }
  /// Flows not yet retired: running, or finished but still reachable (an
  /// ACK in the reverse pipe, a timer entry on the heap).
  [[nodiscard]] std::size_t flows_held() const { return flows_.size(); }
  /// Flow completion times (seconds) of finished connections.
  [[nodiscard]] const std::vector<double>& completion_times_sec() const { return fct_sec_; }
  /// Bytes delivered in order by every flow started, retired ones included.
  [[nodiscard]] ByteCount bytes_delivered() const;

 private:
  void schedule_next_arrival();
  void on_arrival();
  void spawn_flow();
  /// Destroys every held flow that has finished and is quiescent
  /// (TcpFlow::quiescent). Runs inside an arrival and schedules nothing, so
  /// retiring draws no seq ticket and adds no event.
  void retire_finished();

  sim::Scheduler& sched_;
  Rng& rng_;
  ShortFlowConfig cfg_;
  cca::CcaFactory cca_factory_;
  sim::PacketSink& forward_;
  sim::FlowDemux& demux_;

  sim::FlowId next_id_;
  std::vector<std::unique_ptr<TcpFlow>> flows_;  ///< flows not yet retired
  std::size_t completed_{0};
  std::size_t retired_{0};
  ByteCount retired_bytes_{0};  ///< delivered by the retired flows
  std::vector<double> fct_sec_;
};

}  // namespace ccc::flow
