#include "flow/short_flow_workload.hpp"

#include <algorithm>

#include "app/bulk.hpp"

namespace ccc::flow {

ShortFlowWorkload::ShortFlowWorkload(sim::Scheduler& sched, Rng& rng, ShortFlowConfig cfg,
                                     cca::CcaFactory cca_factory, sim::PacketSink& forward,
                                     sim::FlowDemux& demux)
    : sched_{sched},
      rng_{rng},
      cfg_{cfg},
      cca_factory_{std::move(cca_factory)},
      forward_{forward},
      demux_{demux},
      next_id_{cfg.first_flow_id} {
  sched_.schedule_member_fire_at<&ShortFlowWorkload::schedule_next_arrival>(cfg_.start_at, this);
}

void ShortFlowWorkload::schedule_next_arrival() {
  if (sched_.now() >= cfg_.stop_at) return;
  const Time gap = Time::sec(rng_.exponential(cfg_.mean_interarrival.to_sec()));
  sched_.schedule_member_fire_after<&ShortFlowWorkload::on_arrival>(gap, this);
}

void ShortFlowWorkload::on_arrival() {
  if (sched_.now() >= cfg_.stop_at) return;
  retire_finished();
  spawn_flow();
  schedule_next_arrival();
}

void ShortFlowWorkload::retire_finished() {
  if (retired_ == completed_) return;
  std::erase_if(flows_, [this](const std::unique_ptr<TcpFlow>& f) {
    if (!f->quiescent()) return false;
    retired_bytes_ += f->delivered_bytes();
    f->release_reverse_path();
    ++retired_;
    return true;
  });
}

ByteCount ShortFlowWorkload::bytes_delivered() const {
  ByteCount total = retired_bytes_;
  for (const auto& f : flows_) total += f->delivered_bytes();
  return total;
}

void ShortFlowWorkload::spawn_flow() {
  const auto size = static_cast<ByteCount>(rng_.bounded_pareto(
      cfg_.size_shape, static_cast<double>(cfg_.size_min), static_cast<double>(cfg_.size_max)));

  TcpFlowConfig fc;
  fc.flow_id = next_id_++;
  fc.user = cfg_.user;
  fc.start_at = sched_.now();
  fc.reverse_delay = cfg_.reverse_delay;
  fc.receiver_window = cfg_.receiver_window;

  auto flow = std::make_unique<TcpFlow>(sched_, fc, cca_factory_(),
                                        std::make_unique<app::BulkApp>(size), forward_, demux_);
  flow->sender().set_on_complete([this, started = fc.start_at, id = fc.flow_id](Time done) {
    ++completed_;
    fct_sec_.push_back((done - started).to_sec());
    // Forward data can no longer reach the receiver: only its timers and
    // the reverse pipe keep the flow from being retired.
    demux_.deregister_flow(id);
  });
  flows_.push_back(std::move(flow));
}

}  // namespace ccc::flow
