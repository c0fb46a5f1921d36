// perfbench_selftest: the benchmark's decorators must not change what they
// decorate. On short scenarios that reach every decorated layer, the exact
// outputs (delivered bytes per flow, events executed, drops,
// retransmissions, link packets) must be equal
//   - undecorated, run_until in one call;
//   - undecorated, run_until sliced per simulated second;
//   - decorated, run_until in one call;
//   - decorated and sliced,
// and a spool drained through the decorated PullSource must give the same
// analysis tallies as one drained directly. Exit status 0 when all hold.
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "app/abr_video.hpp"
#include "app/bulk.hpp"
#include "app/rate_limited.hpp"
#include "cca/bbr.hpp"
#include "cca/cubic.hpp"
#include "cca/new_reno.hpp"
#include "core/cca_registry.hpp"
#include "decorators.hpp"
#include "ingest/sources.hpp"
#include "mlab/synthetic.hpp"
#include "nimbus/nimbus.hpp"
#include "queue/drr_fair_queue.hpp"
#include "scenario.hpp"
#include "store/flow_store.hpp"

namespace {

using namespace ccc;
using perfbench::Scenario;
using perfbench::Tracer;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

/// Every decorated sim layer: DropTail, BBR, Cubic, Reno, Nimbus, bulk,
/// ABR and rate-limited apps, long-flow receivers, and short flows (their
/// factory is decorated too) next to a CBR source.
std::unique_ptr<Scenario> mixed(Tracer* t) {
  core::DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::mbps(20);
  cfg.one_way_delay = Time::ms(10);
  cfg.reverse_delay = Time::ms(10);
  cfg.seed = 7;
  auto sc = std::make_unique<Scenario>("mixed", cfg, nullptr, "droptail", t);
  auto& sched = sc->net().scheduler();
  sc->add_flow(std::make_unique<cca::Bbr>(), std::make_unique<app::BulkApp>(), "bulk");
  sc->add_flow(std::make_unique<cca::NewReno>(), std::make_unique<app::BulkApp>(), "bulk", 1,
               Time::ms(300));
  sc->add_flow(std::make_unique<cca::Cubic>(), std::make_unique<app::AbrVideoApp>(sched), "abr");
  sc->add_flow(std::make_unique<cca::Cubic>(),
               std::make_unique<app::RateLimitedApp>(sched, Rate::mbps(3)), "rate_limited");
  nimbus::NimbusConfig ncfg;
  ncfg.capacity_hint = cfg.bottleneck_rate;
  sc->add_flow(std::make_unique<nimbus::NimbusCca>(sched, ncfg), std::make_unique<app::BulkApp>(),
               "bulk", 2, Time::sec(1.0));
  flow::ShortFlowConfig sf;
  sf.user = 3;
  sf.stop_at = Time::sec(5.0);
  sf.mean_interarrival = Time::ms(200);
  sc->add_short_flows(sf, core::make_cca_factory("cubic"));
  sc->add_cbr(Rate::mbps(1), Time::sec(0.5), Time::sec(5.0), 4);
  return sc;
}

std::unique_ptr<Scenario> fair_queue(Tracer* t) {
  core::DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::mbps(30);
  cfg.one_way_delay = Time::ms(15);
  cfg.reverse_delay = Time::ms(15);
  auto q = std::make_unique<queue::DrrFairQueue>(core::dumbbell_buffer_bytes(cfg),
                                                 queue::FairnessKey::kPerFlow);
  auto sc = std::make_unique<Scenario>("drr", cfg, std::move(q), "drr", t);
  sc->add_flow(std::make_unique<cca::Bbr>(), std::make_unique<app::BulkApp>(), "bulk");
  sc->add_flow(std::make_unique<cca::Cubic>(), std::make_unique<app::BulkApp>(), "bulk");
  return sc;
}

std::string outcome(Scenario& sc) {
  auto& net = sc.net();
  std::string d;
  for (std::size_t i = 0; i < net.flow_count(); ++i) {
    d += std::to_string(net.flow(i).delivered_bytes()) + ",";
  }
  return d + " events=" + std::to_string(net.scheduler().events_executed()) +
         " drops=" + std::to_string(sc.drops()) + " retx=" + std::to_string(sc.retransmissions()) +
         " link_packets=" + std::to_string(net.bottleneck().stats().packets_sent);
}

void check_sim(const char* name, const std::function<std::unique_ptr<Scenario>(Tracer*)>& build,
               int seconds, const std::vector<std::string>& layers) {
  const auto whole = [&](Tracer* t) {
    auto sc = build(t);
    sc->run(0, 0, nullptr);  // registers receiver decorators; no stepping
    sc->net().run_until(Time::sec(static_cast<double>(seconds)));
    return outcome(*sc);
  };
  const auto sliced = [&](Tracer* t) {
    auto sc = build(t);
    sc->run(seconds, 0, nullptr);
    return outcome(*sc);
  };
  Tracer t1;
  Tracer t2;
  const std::string base = whole(nullptr);
  std::printf("  %s: %s\n", name, base.c_str());
  expect(sliced(nullptr) == base, std::string{name} + ": sliced run equals one-call run");
  expect(whole(&t1) == base, std::string{name} + ": decorated run equals plain run");
  expect(sliced(&t2) == base, std::string{name} + ": decorated sliced run equals plain run");
  for (const auto& layer : layers) {
    const auto it = t2.layers().find(layer);
    expect(it != t2.layers().end() && it->second.calls > 0,
           std::string{name} + ": decorator for " + layer + " was called");
  }
}

std::string drain_digest(pipeline::PullSource& src) {
  pipeline::AnalyzeStage stage{pipeline::StageOptions{}};
  pipeline::drain(src, stage);
  stage.flush(1);
  const auto& t = stage.tallies();
  std::string d = std::to_string(t.flows_seen);
  for (auto v : t.verdicts) d += "," + std::to_string(v);
  return d + " cp=" + std::to_string(t.changepoints) +
         " scanned=" + std::to_string(t.samples_scanned);
}

void check_pull(const std::filesystem::path& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    store::ShardedFlowStoreWriter writer{(dir / "corpus.ccfs").string(), 700};
    mlab::SyntheticConfig scfg;
    scfg.n_flows = 2000;
    Rng rng{11};
    mlab::generate_dataset_stream(scfg, rng, [&](mlab::NdtRecord&& r) { writer.append(r); });
    (void)writer.finish();
  }
  ingest::SpoolSource plain{dir.string()};
  const std::string base = drain_digest(plain);
  ingest::SpoolSource inner{dir.string()};
  Tracer t;
  perfbench::TracedPull traced{inner, t.layer("store.read")};
  std::printf("  spool: %s\n", base.c_str());
  expect(drain_digest(traced) == base, "spool: decorated pull gives the same tallies");
  expect(t.layers().at("store.read").calls > 0, "spool: decorator for store.read was called");
  std::filesystem::remove_all(dir);
}

}  // namespace

int main(int argc, char** argv) {
  const std::filesystem::path dir =
      argc > 1 ? std::filesystem::path{argv[1]} : std::filesystem::path{"perfbench_selftest.tmp"};
  check_sim("mixed", mixed, 6,
            {"cca.bbr", "cca.reno", "cca.cubic", "cca.nimbus", "queue.droptail", "app.bulk",
             "app.abr", "app.rate_limited", "flow.receiver", "run.residual"});
  check_sim("drr", fair_queue, 4, {"cca.bbr", "cca.cubic", "queue.drr", "flow.receiver"});
  check_pull(dir);
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "OK" : "FAILED", g_failures);
  return g_failures == 0 ? 0 : 1;
}
