// Micro-benchmarks: simulator event throughput and qdisc operations (M2).
//
// Besides the google-benchmark micros, main() emits one machine-readable
// JSON line per headline metric (events/sec on the scheduler hot path) so
// the perf trajectory can be tracked across PRs:
//   {"bench": "scheduler_chain", "events": ..., "wall_sec": ..., "events_per_sec": ...}
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <vector>

#include "app/bulk.hpp"
#include "bench/cli.hpp"
#include "cca/new_reno.hpp"
#include "core/dumbbell.hpp"
#include "queue/drop_tail.hpp"
#include "queue/drr_fair_queue.hpp"
#include "sim/scheduler.hpp"
#include "sim/timer.hpp"
#include "telemetry/run_report.hpp"

namespace {

using namespace ccc;

/// The scheduler chain: one self-rescheduling event, +1 us per hop, on the
/// fire-and-forget member form the simulator's periodic ticks use. With
/// `churn` set, every hop also re-arms a 200 ms sim::Timer — TcpSender's
/// RTO shape: the deadline moves later on every "ACK", and the timer's one
/// pending entry wakes idle and re-pushes once per 200 ms.
struct ChainDriver {
  sim::Scheduler& sched;
  int events;
  bool churn;
  int count{0};
  void on_rto() {}
  sim::Timer<&ChainDriver::on_rto> rto{sched, this};
  void tick() {
    if (churn) rto.arm_after(Time::ms(200));  // "ACK arrived": push the deadline out
    if (++count < events) sched.schedule_member_fire_after<&ChainDriver::tick>(Time::us(1), this);
  }
};

/// Runs one `events`-hop chain; returns the wall time of the run and stores
/// the number of events the scheduler executed.
double run_chain(int events, bool churn, std::uint64_t& executed) {
  sim::Scheduler sched;
  ChainDriver d{sched, events, churn};
  sched.schedule_member_fire_at<&ChainDriver::tick>(Time::zero(), &d);
  const auto t0 = std::chrono::steady_clock::now();
  sched.run_until(Time::sec(10.0));
  const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - t0;
  executed = sched.events_executed();
  return wall.count();
}

void BM_SchedulerChain(benchmark::State& state) {
  // Measures raw event dispatch: a single self-rescheduling event.
  for (auto _ : state) {
    std::uint64_t events = 0;
    benchmark::DoNotOptimize(run_chain(10000, /*churn=*/false, events));
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SchedulerChain);

void BM_QdiscEnqueueDequeue_DropTail(benchmark::State& state) {
  queue::DropTailQueue q{1 << 30};
  sim::Packet p;
  p.flow = 1;
  p.size_bytes = 1500;
  for (auto _ : state) {
    q.enqueue(p, Time::zero());
    benchmark::DoNotOptimize(q.dequeue(Time::zero()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QdiscEnqueueDequeue_DropTail);

void BM_QdiscEnqueueDequeue_Drr(benchmark::State& state) {
  queue::DrrFairQueue q{1 << 30, queue::FairnessKey::kPerFlow};
  sim::Packet p;
  p.size_bytes = 1500;
  sim::FlowId f = 0;
  for (auto _ : state) {
    p.flow = (f++ % 64) + 1;  // 64 concurrent flows
    q.enqueue(p, Time::zero());
    benchmark::DoNotOptimize(q.dequeue(Time::zero()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QdiscEnqueueDequeue_Drr);

void BM_EndToEndFlowSecond(benchmark::State& state) {
  // Cost of simulating one second of a saturated 10 Mbit/s TCP flow —
  // calibrates how long the figure benches take.
  for (auto _ : state) {
    core::DumbbellConfig cfg;
    cfg.bottleneck_rate = Rate::mbps(10);
    cfg.one_way_delay = Time::ms(10);
    cfg.reverse_delay = Time::ms(10);
    core::DumbbellScenario net{cfg};
    net.add_flow(std::make_unique<cca::NewReno>(), std::make_unique<app::BulkApp>());
    net.run_until(Time::sec(1.0));
    benchmark::DoNotOptimize(net.flow(0).delivered_bytes());
  }
}
BENCHMARK(BM_EndToEndFlowSecond);

void BM_SchedulerTimerChurn(benchmark::State& state) {
  // The retransmission-timer pattern: every event re-arms a far-future
  // timer, moving its deadline later.
  for (auto _ : state) {
    std::uint64_t events = 0;
    benchmark::DoNotOptimize(run_chain(10000, /*churn=*/true, events));
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SchedulerTimerChurn);

// ----------------------------------------------------------------------
// Headline scopes, each driving the scheduler through the forms the
// simulator's own components use (schedule_member_fire, sim::Timer, the
// packet pipes), so these numbers move when the engine moves:
//   scheduler_chain        fire-and-forget self-chain (run_chain)
//   scheduler_timer_churn  the chain plus RTO churn (run_chain, churn)
//   sim_delivery           packet delivery chain through a pipe — the
//                          production Link propagation path
//   sim_timer_churn        RTO churn; the same driver as
//                          scheduler_timer_churn, kept under its own scope
//                          for BENCH_sim.json's history
//   sim_mixed_chain        RTO churn plus a 10 ms in-flight delivery window
//                          (the shape that punishes a heap-only scheduler)

constexpr int kShapeEvents = 2'000'000;

struct ShapeCountSink : sim::PacketSink {
  std::uint64_t n{0};
  void deliver(const sim::Packet&) override { ++n; }
};

/// Delivery-only: a relay sink behind a pipe (the path Link's propagation
/// pipe takes) that re-schedules each packet +1us. Every delivery is one
/// heap pop and one push: the relay's append refills the pipe the delivery
/// just emptied, so the new front gets a fresh entry.
struct ShapeRelay : sim::PacketSink {
  sim::Scheduler& sched;
  sim::Scheduler::PipeId pipe;
  int count{0};
  explicit ShapeRelay(sim::Scheduler& s) : sched{s}, pipe{s.register_pipe(*this)} {}
  void deliver(const sim::Packet& p) override {
    if (++count < kShapeEvents) sched.schedule_delivery_after(Time::us(1), pipe, p);
  }
};

double run_sim_delivery(std::uint64_t& events) {
  sim::Scheduler sched;
  ShapeRelay relay{sched};
  sim::Packet proto;
  proto.size_bytes = 1500;
  proto.payload_bytes = 1460;
  const auto t0 = std::chrono::steady_clock::now();
  sched.schedule_delivery_at(Time::zero(), relay.pipe, proto);
  sched.run_until(Time::sec(10.0));
  const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - t0;
  events = sched.events_executed();
  return wall.count();
}

double run_scheduler_chain(std::uint64_t& events) {
  return run_chain(kShapeEvents, /*churn=*/false, events);
}

double run_timer_churn(std::uint64_t& events) {
  return run_chain(kShapeEvents, /*churn=*/true, events);
}

struct ShapeMixedDriver {
  sim::Scheduler& sched;
  ShapeCountSink sink;
  sim::Scheduler::PipeId pipe;
  sim::Packet proto;
  int count{0};
  void on_rto() {}
  sim::Timer<&ShapeMixedDriver::on_rto> rto{sched, this};
  explicit ShapeMixedDriver(sim::Scheduler& s)
      : sched{s}, pipe{s.register_pipe(sink)} {}
  void tick() {
    rto.arm_after(Time::ms(200));
    // A 10 ms flight time at one departure/us keeps ~10,000 deliveries in
    // the air — queued in the pipe (the production Link path), whose front
    // is its one heap entry, so the heap holds the chain, the RTO timer and
    // that entry.
    sched.schedule_delivery_after(Time::ms(10), pipe, proto);
    if (++count < kShapeEvents) {
      sched.schedule_member_fire_after<&ShapeMixedDriver::tick>(Time::us(1), this);
    }
  }
};

double run_sim_mixed_chain(std::uint64_t& events) {
  sim::Scheduler sched;
  ShapeMixedDriver d{sched};
  d.proto.size_bytes = 1500;
  d.proto.payload_bytes = 1460;
  const auto t0 = std::chrono::steady_clock::now();
  sched.schedule_member_fire_at<&ShapeMixedDriver::tick>(Time::zero(), &d);
  sched.run_until(Time::sec(30.0));
  const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - t0;
  events = sched.events_executed();
  return wall.count();
}

/// Best-of-N: the minimum wall time over `repeat` runs. Each run is
/// deterministic (same events, same order), so the spread is pure machine
/// noise and the fastest run is the closest estimate of the true cost.
void report_shape(const char* name, double (*run)(std::uint64_t&), std::size_t repeat,
                  std::ostream& os, telemetry::RunReport& report) {
  std::uint64_t events = 0;
  double wall = run(events);
  for (std::size_t r = 1; r < repeat; ++r) {
    std::uint64_t ev = 0;
    wall = std::min(wall, run(ev));
  }
  const double eps = static_cast<double>(events) / wall;
  char line[256];
  std::snprintf(line, sizeof line,
                "{\"bench\": \"%s\", \"events\": %llu, \"wall_sec\": %.4f, "
                "\"events_per_sec\": %.0f}\n",
                name, static_cast<unsigned long long>(events), wall, eps);
  os << line;
  report.add_scalar(name, "events", static_cast<double>(events));
  report.add_scalar(name, "wall_sec", wall);
  report.add_scalar(name, "events_per_sec", eps);
}

}  // namespace

/// The bench body; main() below routes uncaught errors through the shared
/// guarded_main error boundary (structured message + exit-code contract).
int run_bench(int argc, char** argv) {
  using namespace ccc;
  // Shared bench flags first; anything unrecognized (google-benchmark's
  // --benchmark_* family) passes through via cli.rest.
  auto cli = bench::Cli::parse(argc, argv, "micro_sim");
  std::vector<char*> bench_argv{argv[0]};
  for (auto& a : cli.rest) bench_argv.push_back(a.data());
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::ostream& os = cli.output();
  // Best-of-N (default 3) folds the repeat loop the perf-smoke script used
  // to run from the shell into the bench itself: one process, one report.
  const std::size_t repeat = cli.repeat_or(3);
  telemetry::RunReport report{"micro_sim", 0};
  report_shape("scheduler_chain", run_scheduler_chain, repeat, os, report);
  report_shape("scheduler_timer_churn", run_timer_churn, repeat, os, report);
  report_shape("sim_delivery", run_sim_delivery, repeat, os, report);
  report_shape("sim_timer_churn", run_timer_churn, repeat, os, report);
  report_shape("sim_mixed_chain", run_sim_mixed_chain, repeat, os, report);
  if (!report.emit(cli.report)) {
    std::cerr << "micro_sim: cannot write --report file '" << cli.report << "'\n";
    return 2;
  }
  return 0;
}

int main(int argc, char** argv) {
  return ccc::bench::guarded_main("micro_sim", [&] { return run_bench(argc, argv); });
}
