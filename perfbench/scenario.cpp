#include "scenario.hpp"

#include <utility>

#include "queue/drop_tail.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = ccc::core;

namespace {

std::unique_ptr<ccc::sim::Qdisc> qdisc_or_droptail(std::unique_ptr<ccc::sim::Qdisc> q,
                                                   const core::DumbbellConfig& cfg) {
  if (q) return q;
  return std::make_unique<ccc::queue::DropTailQueue>(core::dumbbell_buffer_bytes(cfg));
}

}  // namespace

Scenario::Scenario(std::string label, const core::DumbbellConfig& cfg,
                   std::unique_ptr<ccc::sim::Qdisc> qdisc, const std::string& qdisc_name,
                   Tracer* tracer)
    : label_{std::move(label)},
      tracer_{tracer},
      net_{cfg, tracer == nullptr
                    ? qdisc_or_droptail(std::move(qdisc), cfg)
                    : std::make_unique<TracedQdisc>(qdisc_or_droptail(std::move(qdisc), cfg),
                                                    tracer->layer("queue." + qdisc_name))} {}

LayerStat* Scenario::stat(const std::string& name) const {
  return tracer_ == nullptr ? nullptr : &tracer_->layer(name);
}

std::size_t Scenario::add_flow(std::unique_ptr<ccc::cca::CongestionControl> cc,
                               std::unique_ptr<ccc::app::App> app, const std::string& app_kind,
                               ccc::sim::UserId user, ccc::Time start) {
  if (tracer_ != nullptr) {
    const std::string name{cc->name() == "newreno" ? "reno" : cc->name()};
    cc = std::make_unique<TracedCca>(std::move(cc), *stat("cca." + name));
    app = std::make_unique<TracedApp>(std::move(app), *stat("app." + app_kind),
                                      stat("run.residual"));
  }
  return net_.add_flow(std::move(cc), std::move(app), user, start);
}

void Scenario::add_short_flows(const ccc::flow::ShortFlowConfig& cfg,
                               ccc::cca::CcaFactory factory) {
  if (tracer_ != nullptr) {
    // Every connection the workload opens gets a decorated CCA.
    factory = [inner = std::move(factory), tracer = tracer_]()
        -> std::unique_ptr<ccc::cca::CongestionControl> {
      auto cc = inner();
      const std::string name{cc->name() == "newreno" ? "reno" : cc->name()};
      return std::make_unique<TracedCca>(std::move(cc), tracer->layer("cca." + name));
    };
  }
  short_.push_back(&net_.add_short_flows(cfg, std::move(factory)));
}

void Scenario::add_cbr(ccc::Rate rate, ccc::Time start, ccc::Time stop, ccc::sim::UserId user) {
  net_.add_cbr(rate, start, stop, user);
}

void Scenario::run(int end_sec, int warmup_sec, std::vector<double>* step_ms) {
  if (tracer_ != nullptr && sinks_.size() < net_.flow_count()) {
    // Put a decorator in front of each long flow's receiver, in its place
    // in the demux (flows added since the last call included).
    for (std::size_t i = sinks_.size(); i < net_.flow_count(); ++i) {
      auto& f = net_.flow(i);
      sinks_.push_back(std::make_unique<TracedSink>(f.receiver(), tracer_->layer("flow.receiver")));
      net_.demux().register_flow(f.id(), *sinks_.back());
    }
  }
  LayerStat* residual = stat("run.residual");
  if (warmup_sec == 0 && now_sec_ == 0) snap_ = net_.snapshot_delivered();
  for (int s = now_sec_ + 1; s <= end_sec; ++s) {
    const std::int64_t t0 = now_ns();
    if (residual != nullptr) {
      Span root{residual};
      net_.run_until(ccc::Time::sec(static_cast<double>(s)));
    } else {
      net_.run_until(ccc::Time::sec(static_cast<double>(s)));
    }
    if (step_ms != nullptr) step_ms->push_back(static_cast<double>(now_ns() - t0) / 1e6);
    if (s == warmup_sec) snap_ = net_.snapshot_delivered();
  }
  now_sec_ = end_sec;
  window_sec_ = end_sec - warmup_sec;
}

std::vector<double> Scenario::goodputs() const {
  std::vector<double> g;
  if (window_sec_ <= 0 || snap_.empty()) return g;
  return net_.goodputs_mbps_since(snap_, ccc::Time::sec(static_cast<double>(window_sec_)));
}

std::uint64_t Scenario::retransmissions() const {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < net_.flow_count(); ++i) {
    n += net_.flow(i).sender().stats().retransmissions;
  }
  return n;
}

std::uint64_t Scenario::drops() {
  return net_.bottleneck().qdisc().stats().dropped_packets;
}

std::string Scenario::digest() {
  std::string d = label_ + " goodput_mbps=";
  for (double g : goodputs()) d += fmt17(g) + ",";
  d += " events=" + std::to_string(net_.scheduler().events_executed());
  d += " drops=" + std::to_string(drops());
  d += " retx=" + std::to_string(retransmissions());
  d += " link_packets=" + std::to_string(net_.bottleneck().stats().packets_sent);
  std::size_t completed = 0;
  for (const auto* w : short_) completed += w->flows_completed();
  d += " short_done=" + std::to_string(completed);
  if (extra_digest_) d += extra_digest_();
  return d;
}

int Scenario::violations() {
  const double cap = net_.bottleneck().rate().to_mbps();
  int bad = 0;
  for (double g : goodputs()) {
    if (!(g <= cap * (1.0 + 1e-9))) ++bad;
  }
  return bad;
}

}  // namespace perfbench
