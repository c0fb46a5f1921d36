// One dumbbell scenario as the benchmark drives it: built through
// DumbbellScenario's public API, optionally with every layer decorated, and
// run one simulated second at a time so each second is one timed step.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cca/cca.hpp"
#include "core/dumbbell.hpp"
#include "decorators.hpp"
#include "flow/short_flow_workload.hpp"
#include "trace.hpp"

namespace perfbench {

class Scenario {
 public:
  /// `qdisc` nullptr means a DropTail queue sized by the config, as
  /// DumbbellScenario would build it. With a tracer, the qdisc, every CCA,
  /// app and long-flow receiver is decorated and charged to the tracer.
  Scenario(std::string label, const ccc::core::DumbbellConfig& cfg,
           std::unique_ptr<ccc::sim::Qdisc> qdisc, const std::string& qdisc_name,
           Tracer* tracer);

  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  /// `app_kind` names the app layer metric: "bulk", "abr" or "rate_limited".
  std::size_t add_flow(std::unique_ptr<ccc::cca::CongestionControl> cc,
                       std::unique_ptr<ccc::app::App> app, const std::string& app_kind,
                       ccc::sim::UserId user = 1, ccc::Time start = ccc::Time::zero());
  void add_short_flows(const ccc::flow::ShortFlowConfig& cfg, ccc::cca::CcaFactory factory);
  void add_cbr(ccc::Rate rate, ccc::Time start, ccc::Time stop, ccc::sim::UserId user);
  /// Appends `fn()` to digest(): outputs only the builder can reach.
  void set_extra_digest(std::function<std::string()> fn) { extra_digest_ = std::move(fn); }

  /// Runs whole simulated seconds up to `end_sec`, snapshotting delivered
  /// bytes at `warmup_sec`; appends host ms per simulated second to
  /// `step_ms` when given. May be called repeatedly with growing end_sec.
  void run(int end_sec, int warmup_sec, std::vector<double>* step_ms);

  [[nodiscard]] ccc::core::DumbbellScenario& net() { return net_; }
  /// Long-flow goodputs (Mbit/s) between warm-up and the last run() end.
  [[nodiscard]] std::vector<double> goodputs() const;
  [[nodiscard]] std::uint64_t retransmissions() const;
  [[nodiscard]] std::uint64_t drops();
  /// Exact outputs: goodputs as %.17g, events, drops, retransmissions,
  /// link packets and completed short flows.
  [[nodiscard]] std::string digest();
  /// Flows whose goodput exceeds the bottleneck rate.
  [[nodiscard]] int violations();

 private:
  [[nodiscard]] LayerStat* stat(const std::string& name) const;

  std::string label_;
  Tracer* tracer_;
  ccc::core::DumbbellScenario net_;
  std::vector<ccc::flow::ShortFlowWorkload*> short_;
  std::function<std::string()> extra_digest_;
  std::vector<std::unique_ptr<TracedSink>> sinks_;  // destroyed before net_
  std::vector<ccc::ByteCount> snap_;
  int now_sec_{0};
  int window_sec_{0};
};

}  // namespace perfbench
