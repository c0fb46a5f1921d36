#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "app/abr_video.hpp"
#include "app/bulk.hpp"
#include "app/rate_limited.hpp"
#include "cca/bbr.hpp"
#include "cca/cubic.hpp"
#include "cca/new_reno.hpp"
#include "core/cca_registry.hpp"
#include "core/elasticity_study.hpp"
#include "decorators.hpp"
#include "ingest/daemon.hpp"
#include "ingest/sources.hpp"
#include "mlab/synthetic.hpp"
#include "nimbus/nimbus.hpp"
#include "queue/drr_fair_queue.hpp"
#include "runner/experiment_runner.hpp"
#include "scenario.hpp"
#include "store/flow_store.hpp"
#include "sweep/checkpoint.hpp"
#include "sweep/sweep.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using ccc::Rate;
using ccc::Time;

std::string fmt17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

namespace {

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h = 0xcbf29ce484222325ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Workload sizes. README.md records each one with its reason.

// bulk_contention: fig4's dumbbell (40 Mbit/s, 40 ms) with 1 BBR + 4 Cubic,
// and fig3's (48 Mbit/s, 100 ms) Nimbus probe; simulated seconds per row.
constexpr int kBulkCubicFlows = 4;

// applimited_mix: fig5's 50 Mbit/s access link, scaled down together with
// the 10 Mbit/s app rate so the scoreboard blow-up fits a round.
constexpr double kAccessScale = 0.5;

// sweep_grid: 1 CCA x 5 cross mixes x 3 AQMs x 3 link models x 3 buffer
// depths = 135 two-second cells.
constexpr const char* kSweepGrid =
    "cca=cubic;cross=reno-bulk,bbr-bulk,abr-video,poisson-short,cbr-udp;"
    "qdisc=codel,fq_codel,pie;link=wired,markov,wifi;buf=0.5,1,2;dur=2";
constexpr unsigned kSweepJobs = 4;
constexpr std::uint64_t kSweepShardFlows = 16;

// passive_ingest: kCorpusScale x 9,984 flows (the paper's June-2023 size).
constexpr std::size_t kCorpusScale = 4;
constexpr std::uint64_t kSpoolShardFlows = 8192;
constexpr std::uint64_t kEpochFlows = 2048;
constexpr std::uint64_t kOutShardFlows = 16384;

// ---------------------------------------------------------------------------
// Statistics.

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated percentile p in [0, 100].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// The highest percentile of the ladder with at least ten of `n` samples
/// beyond it. Taken over one round's steps, so it is the same on every run
/// of a workload.
double tail_percentile(std::size_t n) {
  double best = 50.0;
  for (double p : {75.0, 90.0, 95.0, 99.0, 99.9}) {
    if (static_cast<double>(n) * (100.0 - p) >= 1000.0 - 1e-6) best = p;
  }
  return best;
}

/// Every round does the same work in the same order, so the k-th step of
/// each round is the same step (for sweep_grid, the k-th cell to finish).
/// A step's time is its fastest over the rounds. The host slows a step's
/// time and never speeds it up, and on a shared host a few-ms step runs in
/// two modes about 1.7x apart for seconds at a time; a median over rounds
/// flips between them from run to run, the fastest round does not.
std::vector<double> step_best(const std::vector<std::vector<double>>& rounds) {
  std::size_t n = 0;
  for (const auto& r : rounds) n = std::max(n, r.size());
  std::vector<double> out(n, std::numeric_limits<double>::infinity());
  for (const auto& r : rounds) {
    for (std::size_t k = 0; k < r.size(); ++k) out[k] = std::min(out[k], r[k]);
  }
  return out;
}

/// Peak resident set of this process image. VmHWM, not getrusage's
/// ru_maxrss: the latter keeps the launching process's peak across exec.
double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error{"no VmHWM in /proc/self/status"};
}

double seconds_since(std::int64_t t0_ns) { return static_cast<double>(now_ns() - t0_ns) / 1e9; }

std::uint64_t hash_files(const std::vector<std::string>& paths) {
  std::uint64_t h = fnv1a(nullptr, 0);
  for (const auto& p : paths) {
    std::ifstream in{p, std::ios::binary};
    const std::string bytes{std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
    if (!in.good() && !in.eof()) throw std::runtime_error{"cannot read " + p};
    h = fnv1a(bytes.data(), bytes.size(), h);
  }
  return h;
}

void fresh_dir(const fs::path& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

// ---------------------------------------------------------------------------
// The per-layer metric catalogue: a --trace 1 run prints every one of
// these, 0 where the workload does not reach the layer.

struct LayerMetric {
  const char* name;
  const char* unit;
};

const std::vector<LayerMetric>& layer_catalogue() {
  static const std::vector<LayerMetric> m{
      {"cca.bbr.calls", "count"},          {"cca.bbr.self_s", "s"},
      {"cca.cubic.calls", "count"},        {"cca.cubic.self_s", "s"},
      {"cca.reno.calls", "count"},         {"cca.reno.self_s", "s"},
      {"cca.nimbus.calls", "count"},       {"cca.nimbus.self_s", "s"},
      {"flow.receiver.calls", "count"},    {"flow.receiver.self_s", "s"},
      {"run.residual_s", "s"},             {"flow.sender.retransmissions", "count"},
      {"queue.drops", "count"},            {"queue.droptail.calls", "count"},
      {"queue.droptail.self_s", "s"},      {"queue.drr.calls", "count"},
      {"queue.drr.self_s", "s"},           {"app.bulk.calls", "count"},
      {"app.bulk.self_s", "s"},            {"app.abr.calls", "count"},
      {"app.abr.self_s", "s"},             {"app.rate_limited.calls", "count"},
      {"app.rate_limited.self_s", "s"},    {"sim.events", "count"},
      {"sim.link_packets", "count"},       {"sim.ns_per_event", "ns"},
      {"run.ns_per_packet", "ns"},         {"sweep.cell.calls", "count"},
      {"sweep.cell.self_s", "s"},          {"sweep.cell_p50_ms", "ms"},
      {"sweep.cell_tail_ms", "ms"},        {"runner.idle_s", "s"},
      {"sweep.journal.self_s", "s"},       {"sweep.store.self_s", "s"},
      {"store.read.calls", "count"},       {"store.read.self_s", "s"},
      {"pipeline.analyze.calls", "count"}, {"pipeline.analyze.self_s", "s"},
      {"changepoint.samples_scanned", "count"},
      {"store.write.calls", "count"},      {"store.write.self_s", "s"},
      {"ingest.epoch.calls", "count"},     {"ingest.epoch.self_s", "s"},
      {"mlab.generate.self_s", "s"},       {"store.setup_write.self_s", "s"},
      {"trace.overhead_s", "s"},
  };
  return m;
}

/// Layer values of one traced round: each tracer layer as <name>.calls and
/// <name>.self_s ("run.residual" as run.residual_s), plus `extra`. Self
/// times have the spans' own cost taken out: `cost.inner_ns` per call of
/// the layer and `cost.outer_ns` per span opened inside it.
std::map<std::string, double> layer_values(const Tracer& t, const SpanCost& cost,
                                           std::map<std::string, double> extra) {
  for (const auto& [name, st] : t.layers()) {
    const double span_ns = static_cast<double>(st.calls) * cost.inner_ns +
                           static_cast<double>(st.nested) * cost.outer_ns;
    const double self_s = std::max(0.0, (static_cast<double>(st.self_ns) - span_ns) / 1e9);
    if (name == "run.residual") {
      extra[name + "_s"] += self_s;
    } else {
      extra[name + ".calls"] += static_cast<double>(st.calls);
      extra[name + ".self_s"] += self_s;
    }
  }
  return extra;
}

// ---------------------------------------------------------------------------
// The workload interface the round loop runs.

struct Round {
  double setup_s{0.0};             ///< host time building the round's inputs
  double work_s{0.0};              ///< host time of the program's work (no set-up, digest or clean-up)
  std::uint64_t setup_spans{0};    ///< spans a traced set-up opened
  std::string digest;              ///< exact outputs; equal on every round
  std::uint64_t attempted{0};
  std::uint64_t failed{0};         ///< invariant violations
  std::map<std::string, double> values;  ///< per-layer values of this round
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One round of fixed work: builds its inputs (timed as set-up, and
  /// traced in a traced round), then runs them. `tracer` nullptr means an
  /// untraced round, which appends its steps (host ms).
  virtual Round round(Tracer* tracer, std::vector<double>* steps) = 0;
  [[nodiscard]] virtual std::string step_name() const = 0;
  /// Whether the traced round runs the untraced round's code, decorated;
  /// trace.overhead_s is defined only then.
  [[nodiscard]] virtual bool decorated() const { return true; }
  /// Extra note lines for the report (e.g. where a round's time went).
  [[nodiscard]] virtual std::vector<std::string> describe() const { return {}; }
};

// ---------------------------------------------------------------------------
// Simulator workloads: rows of dumbbell scenarios, run one after another.

struct SimRow {
  std::string label;
  int seconds{10};
  int warmup{5};
  std::function<std::unique_ptr<Scenario>(Tracer*)> build;
};

class SimWorkload final : public Workload {
 public:
  explicit SimWorkload(std::vector<SimRow> rows) : rows_{std::move(rows)} {}

  /// Each row's scenario is built just before it runs (building them all
  /// first made the rows' host time less steady).
  Round round(Tracer* tracer, std::vector<double>* steps) override {
    Round r;
    for (const auto& row : rows_) {
      const std::int64_t b0 = now_ns();
      const std::unique_ptr<Scenario> sc = row.build(tracer);
      const std::int64_t t0 = now_ns();
      r.setup_s += static_cast<double>(t0 - b0) / 1e9;
      std::vector<double> row_steps;
      sc->run(row.seconds, row.warmup, &row_steps);
      r.work_s += seconds_since(t0);
      if (tracer == nullptr) {
        steps->insert(steps->end(), row_steps.begin(), row_steps.end());
        row_steps_[row.label] = std::move(row_steps);
      }
      auto& net = sc->net();
      r.digest += sc->digest() + "\n";
      r.attempted += static_cast<std::uint64_t>(row.seconds);
      r.failed += static_cast<std::uint64_t>(sc->violations());
      r.values["sim.events"] += static_cast<double>(net.scheduler().events_executed());
      r.values["sim.link_packets"] += static_cast<double>(net.bottleneck().stats().packets_sent);
      r.values["flow.sender.retransmissions"] += static_cast<double>(sc->retransmissions());
      r.values["queue.drops"] += static_cast<double>(sc->drops());
    }
    return r;
  }

  [[nodiscard]] std::string step_name() const override { return "simulated second"; }
  [[nodiscard]] std::vector<std::string> describe() const override {
    std::vector<std::string> out;
    for (const auto& [label, v] : row_steps_) {
      // Where the row's time went: its total, its median and its costliest
      // second.
      const auto worst = std::max_element(v.begin(), v.end());
      double total = 0.0;
      for (double ms : v) total += ms;
      char line[160];
      std::snprintf(line, sizeof line,
                    "row %s: %.3f s, median second %.1f ms, slowest second %td at %.1f ms",
                    label.c_str(), total / 1e3, median(v), worst - v.begin() + 1, *worst);
      out.emplace_back(line);
    }
    return out;
  }

 private:
  std::vector<SimRow> rows_;
  std::map<std::string, std::vector<double>> row_steps_;  // last untraced round
};

ccc::core::DumbbellConfig fig4_link(double buffer_bdp, std::uint64_t seed) {
  ccc::core::DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::mbps(40);
  cfg.one_way_delay = Time::ms(20);
  cfg.reverse_delay = Time::ms(20);
  cfg.buffer_bdp_multiple = buffer_bdp;
  cfg.seed = seed;
  return cfg;
}

/// fig4's 1 BBR + `n_cubic` Cubic flows; `web` adds Poisson short flows.
SimRow bbr_vs_cubic(const std::string& label, int n_cubic, double buffer_bdp, bool fq, bool web,
                    int seconds, std::uint64_t seed) {
  return {label, seconds, 5, [=](Tracer* t) {
            const auto cfg = fig4_link(buffer_bdp, seed);
            std::unique_ptr<ccc::sim::Qdisc> q;
            if (fq) {
              q = std::make_unique<ccc::queue::DrrFairQueue>(ccc::core::dumbbell_buffer_bytes(cfg),
                                                             ccc::queue::FairnessKey::kPerFlow);
            }
            auto sc = std::make_unique<Scenario>(label, cfg, std::move(q),
                                                 fq ? "drr" : "droptail", t);
            if (n_cubic == kBulkCubicFlows) {
              sc->add_flow(std::make_unique<ccc::cca::Bbr>(),
                           std::make_unique<ccc::app::BulkApp>(), "bulk");
            }
            for (int i = 0; i < n_cubic; ++i) {
              sc->add_flow(std::make_unique<ccc::cca::Cubic>(),
                           std::make_unique<ccc::app::BulkApp>(), "bulk");
            }
            if (web) {
              ccc::flow::ShortFlowConfig sf;
              sf.user = 2;
              sf.stop_at = Time::sec(static_cast<double>(seconds));
              sc->add_short_flows(sf, ccc::core::make_cca_factory("cubic"));
            }
            return sc;
          }};
}

/// fig3's elastic phases: a Nimbus probe, built as add_elasticity_probe
/// builds it, against backlogged cross traffic from the warm-up on.
SimRow nimbus_vs(const std::string& label, bool bbr_cross, int seconds, std::uint64_t seed) {
  return {label, seconds, 5, [=](Tracer* t) {
            const ccc::core::ElasticityPocConfig poc;
            auto sc = std::make_unique<Scenario>(label, ccc::core::elasticity_dumbbell(poc, seed),
                                                 nullptr, "droptail", t);
            ccc::nimbus::NimbusConfig ncfg = poc.nimbus;
            if (ncfg.capacity_hint.is_zero()) ncfg.capacity_hint = poc.link_rate;
            auto probe = std::make_unique<ccc::nimbus::NimbusCca>(sc->net().scheduler(), ncfg);
            const ccc::nimbus::NimbusCca* p = probe.get();
            sc->add_flow(std::move(probe), std::make_unique<ccc::app::BulkApp>(), "bulk", 1);
            std::unique_ptr<ccc::cca::CongestionControl> cross;
            if (bbr_cross) {
              cross = std::make_unique<ccc::cca::Bbr>();
            } else {
              cross = std::make_unique<ccc::cca::NewReno>();
            }
            sc->add_flow(std::move(cross), std::make_unique<ccc::app::BulkApp>(), "bulk", 2,
                         poc.warmup);
            sc->set_extra_digest([p] { return " elasticity=" + fmt17(p->elasticity()); });
            return sc;
          }};
}

std::vector<SimRow> bulk_rows(std::uint64_t seed) {
  using ccc::runner::derive_seed;
  // The 4xBDP row's BBR filter cost climbs from ~2 ms to ~200 ms per
  // simulated second after second 22; nimbus+bbr's from 1 to ~370 by 10.
  // The DRR row's ~10 ms seconds are where the median step falls.
  // Backlogged flows draw no random numbers: only the cheap web row's
  // short flows depend on the seed, so the seed cannot move the BBR rows'
  // cost (a perturbed BBR trajectory costs anywhere from 0.5x to 2x).
  return {
      bbr_vs_cubic("bbr+4cubic/droptail/1bdp", 4, 1.0, false, false, 10, derive_seed(seed, 1)),
      bbr_vs_cubic("bbr+4cubic/droptail/4bdp", 4, 4.0, false, false, 30, derive_seed(seed, 2)),
      bbr_vs_cubic("bbr+4cubic/drr/1bdp", 4, 1.0, true, false, 45, derive_seed(seed, 3)),
      bbr_vs_cubic("cubic+web/drr/1bdp", 1, 1.0, true, true, 10, derive_seed(seed, 6)),
      nimbus_vs("nimbus+reno", false, 15, derive_seed(seed, 4)),
      nimbus_vs("nimbus+bbr", true, 10, derive_seed(seed, 5)),
  };
}

ccc::core::DumbbellConfig access_link(std::uint64_t seed) {
  ccc::core::DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::mbps(50 * kAccessScale);
  cfg.one_way_delay = Time::ms(10);
  cfg.reverse_delay = Time::ms(10);
  cfg.buffer_bdp_multiple = 2.0;
  cfg.seed = seed;
  return cfg;
}

/// fig5's rows below capacity: an ABR stream (`abr`) plus `n_apps`
/// rate-limited apps, all Cubic. `web` adds Poisson short flows and a CBR
/// source.
SimRow app_mix(const std::string& label, bool abr, int n_apps, bool web, int seconds, int warmup,
              std::uint64_t seed) {
  return {label, seconds, warmup, [=](Tracer* t) {
            auto sc = std::make_unique<Scenario>(label, access_link(seed), nullptr, "droptail", t);
            auto cubic = ccc::core::make_cca_factory("cubic");
            if (abr) {
              sc->add_flow(cubic(),
                           std::make_unique<ccc::app::AbrVideoApp>(sc->net().scheduler()), "abr");
            }
            for (int i = 0; i < n_apps; ++i) {
              sc->add_flow(cubic(),
                           std::make_unique<ccc::app::RateLimitedApp>(
                               sc->net().scheduler(), Rate::mbps(10 * kAccessScale)),
                           "rate_limited");
            }
            if (web) {
              ccc::flow::ShortFlowConfig sf;
              sf.user = 2;
              sf.stop_at = Time::sec(static_cast<double>(seconds));
              sf.mean_interarrival = Time::ms(30);
              sc->add_short_flows(sf, cubic);
              sc->add_cbr(Rate::mbps(2 * kAccessScale), Time::sec(1.0),
                          Time::sec(static_cast<double>(seconds)), 3);
            }
            return sc;
          }};
}

std::vector<SimRow> applimited_rows(std::uint64_t seed) {
  using ccc::runner::derive_seed;
  // abr+2rl runs through its first scoreboard blow-up (second 4, ~0.6 s of
  // host time) and the aftershocks; abr+1rl stops short of its own, which
  // costs ~2.5 s at second 8. The web rows' seconds (81 of a round's 100)
  // climb from ~2 to ~15 ms as connections pile up and hold the median
  // step; the rate-limited rows' 20-40 ms ones hold the p90 tail. At a
  // 300 ms arrival gap the web seconds cost 1-2 ms, and a median among
  // them moved twice as far as the round's wall from one process to the
  // next. Only the web rows read the seed.
  return {
      app_mix("abr+1rl", true, 1, false, 7, 4, derive_seed(seed, 1)),
      app_mix("abr+2rl", true, 2, false, 10, 3, derive_seed(seed, 2)),
      app_mix("abr+3rl", true, 3, false, 2, 1, derive_seed(seed, 3)),
      app_mix("abr+web+cbr/1", true, 0, true, 27, 4, derive_seed(seed, 5)),
      app_mix("abr+web+cbr/2", true, 0, true, 27, 4, derive_seed(seed, 6)),
      app_mix("abr+web+cbr/3", true, 0, true, 27, 4, derive_seed(seed, 7)),
  };
}

// ---------------------------------------------------------------------------
// sweep_grid: SweepEngine::run at 4 jobs with journal and out-store on; the
// traced round drives the same public pieces in the same order.

std::string cells_digest(const std::vector<ccc::sweep::CellResult>& cells,
                         const std::vector<std::string>& shards) {
  std::string d;
  for (const auto& c : cells) {
    d += std::to_string(c.cell_id);
    for (double v : {c.victim_goodput_mbps, c.cross_goodput_mbps, c.total_goodput_mbps,
                     c.solo_goodput_mbps, c.share, c.jain, c.harm_frac, c.utilization,
                     c.mean_queue_ms, c.p95_queue_ms, c.min_rtt_ms}) {
      d += " " + fmt17(v);
    }
    d += " " + std::to_string(c.drops) + " " + std::to_string(c.ecn_marks) + "\n";
  }
  char h[32];
  std::snprintf(h, sizeof h, "%016llx", static_cast<unsigned long long>(hash_files(shards)));
  return d + "shards=" + std::to_string(shards.size()) + " hash=" + h + "\n";
}

class SweepWorkload final : public Workload {
 public:
  SweepWorkload(std::uint64_t seed, fs::path dir)
      : base_seed_{ccc::runner::derive_seed(seed, 0x5eed)}, dir_{std::move(dir)} {}

  Round round(Tracer* tracer, std::vector<double>* steps) override {
    const std::int64_t s0 = now_ns();
    setup(tracer != nullptr);
    const double setup_s = seconds_since(s0);
    Round r = tracer == nullptr ? engine_round(steps) : traced_round();
    r.setup_s = setup_s;
    return r;
  }

  [[nodiscard]] std::string step_name() const override { return "cell"; }
  /// The traced round swaps the engine for its pieces and decorates none.
  [[nodiscard]] bool decorated() const override { return false; }

 private:
  /// Clears the round's output directory, parses the grid and, for the
  /// engine, builds and validates it with the round's options.
  void setup(bool traced) {
    out_ = dir_ / (traced ? "traced" : "engine");
    fresh_dir(out_);
    grid_ = ccc::sweep::GridSpec::parse(kSweepGrid);
    engine_.reset();
    if (traced) return;
    // on_progress runs on the worker that finished the cell (serialized),
    // so the time since that worker's previous completion is one cell.
    ccc::sweep::SweepOptions opts;
    opts.jobs = kSweepJobs;
    opts.base_seed = base_seed_;
    opts.checkpoint_path = (out_ / "journal.ccj").string();
    opts.out_store_base = (out_ / "sweep.ccfs").string();
    opts.flows_per_shard = kSweepShardFlows;
    opts.on_progress = [this](std::size_t, std::size_t) {
      done_at_.emplace_back(std::this_thread::get_id(), now_ns());
    };
    engine_.emplace(grid_, std::move(opts));
  }

  Round engine_round(std::vector<double>* steps) {
    done_at_.clear();
    done_at_.reserve(grid_.size());
    const std::int64_t t0 = now_ns();
    const auto summary = engine_->run();
    const double work_s = seconds_since(t0);
    std::map<std::thread::id, std::int64_t> prev;
    for (const auto& [worker, t] : done_at_) {
      const auto it = prev.try_emplace(worker, t0).first;
      steps->push_back(static_cast<double>(t - it->second) / 1e6);
      it->second = t;
    }
    Round r;
    r.work_s = work_s;
    r.attempted = grid_.size();
    r.failed = summary.results.size() == grid_.size() ? 0 : grid_.size() - summary.results.size();
    for (std::size_t i = 0; i < summary.results.size(); ++i) {
      if (summary.results[i].cell_id != i) ++r.failed;
    }
    r.digest = cells_digest(summary.results, summary.shard_paths);
    return r;
  }

  Round traced_round() {
    const fs::path& out = out_;
    const std::size_t n = grid_.size();
    std::vector<double> cell_s(n, 0.0);
    double journal_s = 0.0;
    std::mutex journal_mu;
    const std::int64_t w0 = now_ns();
    auto journal =
        ccc::sweep::CheckpointJournal::create((out / "journal.ccj").string(), grid_.signature());
    ccc::runner::ExperimentRunner pool{{.jobs = kSweepJobs, .on_progress = {}}};
    const std::int64_t t0 = now_ns();
    const auto results = pool.map<ccc::sweep::CellResult>(n, [&](std::size_t i) {
      const std::int64_t c0 = now_ns();
      const auto r = ccc::sweep::run_cell(grid_, grid_.cell(i),
                                          ccc::runner::derive_seed(base_seed_, i));
      cell_s[i] = seconds_since(c0);
      const std::lock_guard lk{journal_mu};
      const std::int64_t j0 = now_ns();
      journal.append(r);
      journal_s += seconds_since(j0);
      return r;
    });
    const double map_wall = seconds_since(t0);
    journal.close();

    const std::int64_t s0 = now_ns();
    ccc::store::ShardedFlowStoreWriter writer{(out / "sweep.ccfs").string(), kSweepShardFlows};
    std::vector<double> series;
    for (const auto& c : results) writer.append(ccc::sweep::cell_flow_view(grid_, c, series));
    const auto shards = writer.finish();
    const double store_s = seconds_since(s0);

    Round r;
    r.work_s = seconds_since(w0);
    r.attempted = n;
    r.digest = cells_digest(results, shards);
    std::vector<double> cell_ms;
    double busy = 0.0;
    for (double s : cell_s) {
      cell_ms.push_back(s * 1e3);
      busy += s;
    }
    r.values["sweep.cell.calls"] = static_cast<double>(n);
    r.values["sweep.cell.self_s"] = busy;
    r.values["sweep.cell_p50_ms"] = median(cell_ms);
    r.values["sweep.cell_tail_ms"] = percentile(cell_ms, tail_percentile(n));
    r.values["runner.idle_s"] = kSweepJobs * map_wall - busy;
    r.values["sweep.journal.self_s"] = journal_s;
    r.values["sweep.store.self_s"] = store_s;
    return r;
  }

  std::uint64_t base_seed_;
  fs::path dir_;
  fs::path out_;
  ccc::sweep::GridSpec grid_;
  std::optional<ccc::sweep::SweepEngine> engine_;
  std::vector<std::pair<std::thread::id, std::int64_t>> done_at_;
};

// ---------------------------------------------------------------------------
// passive_ingest: IngestDaemon over a SpoolSource of a synthetic corpus,
// with out-store rewrite and epoch rotation; the traced round drives the
// daemon's public pieces in the daemon's order.

/// Records the host time from each pull to the next: one step per batch.
class StepPull final : public ccc::pipeline::PullSource {
 public:
  StepPull(ccc::pipeline::PullSource& inner, std::vector<double>* steps)
      : inner_{inner}, steps_{steps} {}

  ccc::pipeline::PullResult pull(std::vector<ccc::store::FlowView>& out,
                                 std::size_t max) override {
    const std::int64_t t = now_ns();
    if (steps_ != nullptr && last_ != 0) steps_->push_back(static_cast<double>(t - last_) / 1e6);
    last_ = t;
    return inner_.pull(out, max);
  }

 private:
  ccc::pipeline::PullSource& inner_;
  std::vector<double>* steps_;
  std::int64_t last_{0};
};

std::string tallies_digest(const ccc::pipeline::AnalysisTallies& t, std::uint64_t epochs,
                           const std::vector<std::string>& shards) {
  std::string d = "flows=" + std::to_string(t.flows_seen) + " verdicts=";
  for (auto v : t.verdicts) d += std::to_string(v) + ",";
  d += " confusion=";
  for (const auto& row : t.confusion) {
    for (auto v : row) d += std::to_string(v) + ",";
  }
  d += " tp/fp/fn/tn=" + std::to_string(t.tp) + "/" + std::to_string(t.fp) + "/" +
       std::to_string(t.fn) + "/" + std::to_string(t.tn);
  d += " changepoints=" + std::to_string(t.changepoints);
  d += " early_exits=" + std::to_string(t.early_exits);
  d += " samples_scanned=" + std::to_string(t.samples_scanned);
  d += " corrupt=" + std::to_string(t.records_corrupt);
  std::string mags;
  for (double m : t.magnitudes) mags += fmt17(m) + ",";
  char h[80];
  std::snprintf(h, sizeof h, " magnitudes=%zu/%016llx epochs=%llu", t.magnitudes.size(),
                static_cast<unsigned long long>(fnv1a(mags.data(), mags.size())),
                static_cast<unsigned long long>(epochs));
  d += h;
  std::snprintf(h, sizeof h, " shards=%zu/%016llx", shards.size(),
                static_cast<unsigned long long>(hash_files(shards)));
  return d + h + "\n";
}

class IngestWorkload final : public Workload {
 public:
  IngestWorkload(std::uint64_t seed, fs::path dir) : seed_{seed}, dir_{std::move(dir)} {
    cfg_.epoch_flows = kEpochFlows;
    cfg_.out_shard_flows = kOutShardFlows;
  }

  Round round(Tracer* tracer, std::vector<double>* steps) override {
    const std::int64_t s0 = now_ns();
    setup(tracer);
    const double setup_s = seconds_since(s0);
    const std::uint64_t setup_spans = tracer == nullptr ? 0 : tracer->spans();
    ccc::ingest::SpoolSource spool{spool_dir().string()};
    Round r;
    if (tracer == nullptr) {
      ccc::ingest::IngestConfig cfg = cfg_;
      cfg.out_store = (out_ / "ingest.ccfs").string();
      const std::int64_t t0 = now_ns();
      ccc::ingest::IngestDaemon daemon{cfg};
      StepPull src{spool, steps};
      const auto res = daemon.run(src);
      r.work_s = seconds_since(t0);
      r.digest = tallies_digest(daemon.stage().tallies(), res.epochs, res.out_shards);
      check(daemon.stage().tallies(), spool, r);
    } else {
      r = traced_round(spool, out_, *tracer);
    }
    r.setup_s = setup_s;
    r.setup_spans = setup_spans;
    return r;
  }

  [[nodiscard]] std::string step_name() const override { return "pulled batch"; }

 private:
  [[nodiscard]] fs::path spool_dir() const { return dir_ / "spool"; }

  /// Clears the round's output directory and writes the corpus spool.
  void setup(Tracer* tracer) {
    out_ = dir_ / (tracer == nullptr ? "daemon" : "traced");
    fresh_dir(out_);
    fresh_dir(spool_dir());
    LayerStat* gen = tracer == nullptr ? nullptr : &tracer->layer("mlab.generate");
    LayerStat* write = tracer == nullptr ? nullptr : &tracer->layer("store.setup_write");
    ccc::store::ShardedFlowStoreWriter writer{(spool_dir() / "corpus.ccfs").string(),
                                              kSpoolShardFlows};
    ccc::mlab::SyntheticConfig scfg;
    scfg.n_flows *= kCorpusScale;
    ccc::Rng rng{ccc::runner::derive_seed(seed_, 0xc0)};
    {
      Span g{gen};
      ccc::mlab::generate_dataset_stream(scfg, rng, [&](ccc::mlab::NdtRecord&& rec) {
        Span w{write};
        writer.append(rec);
      });
    }
    Span w{write};
    (void)writer.finish();
    corpus_flows_ = scfg.n_flows;
  }

  /// IngestDaemon::run's loop, spelled out around the decorated pieces.
  Round traced_round(ccc::ingest::SpoolSource& spool, const fs::path& out, Tracer& t) {
    const std::int64_t t0 = now_ns();
    ccc::pipeline::StageOptions sopts = cfg_.stage;
    sopts.keep_findings = false;  // as the daemon forces it
    ccc::pipeline::AnalyzeStage stage{sopts};
    ccc::store::ShardedFlowStoreWriter writer{(out / "ingest.ccfs").string(),
                                              cfg_.out_shard_flows};
    TracedPull src{spool, t.layer("store.read")};
    LayerStat& analyze = t.layer("pipeline.analyze");
    LayerStat& write = t.layer("store.write");
    LayerStat& epoch_stat = t.layer("ingest.epoch");
    std::uint64_t epoch = 0;
    std::uint64_t since_epoch = 0;
    const auto settle = [&] {
      Span s{&epoch_stat};
      stage.flush(++epoch);
      if (writer.open_flows() > 0) (void)writer.rotate();
    };
    std::vector<ccc::store::FlowView> batch;
    for (;;) {
      const std::size_t want =
          std::min<std::uint64_t>(cfg_.batch_flows, cfg_.epoch_flows - since_epoch);
      batch.clear();
      const auto pr = src.pull(batch, want);
      for (const auto& flow : batch) {
        {
          Span s{&write};
          writer.append(flow);
        }
        Span s{&analyze};
        stage.push(flow);
      }
      since_epoch += pr.n;
      if (since_epoch >= cfg_.epoch_flows) {
        settle();
        since_epoch = 0;
      }
      if (pr.state == ccc::pipeline::StreamState::kEnd) break;
    }
    if (since_epoch > 0 || epoch == 0) settle();
    std::vector<std::string> shards;
    {
      Span s{&write};
      shards = writer.finish();
    }
    Round r;
    r.work_s = seconds_since(t0);
    r.digest = tallies_digest(stage.tallies(), epoch, shards);
    check(stage.tallies(), spool, r);
    r.values["changepoint.samples_scanned"] = static_cast<double>(stage.tallies().samples_scanned);
    return r;
  }

  /// Every flow pulled, verdicts summing to the flows seen, nothing corrupt
  /// and no shard skipped.
  void check(const ccc::pipeline::AnalysisTallies& t, const ccc::ingest::SpoolSource& spool,
             Round& r) const {
    std::uint64_t verdicts = 0;
    for (auto v : t.verdicts) verdicts += v;
    r.attempted = corpus_flows_;
    r.failed = t.records_corrupt + spool.stats().shards_skipped;
    if (verdicts + t.records_corrupt != t.flows_seen) r.failed += 1;
    if (t.flows_seen != corpus_flows_) {
      r.failed += corpus_flows_ > t.flows_seen ? corpus_flows_ - t.flows_seen : 1;
    }
  }

  std::uint64_t seed_;
  fs::path dir_;
  fs::path out_;
  ccc::ingest::IngestConfig cfg_;
  std::size_t corpus_flows_{0};
};

std::unique_ptr<Workload> make_workload(const Options& o) {
  const fs::path dir = fs::path{o.work_dir} / o.workload;
  if (o.workload == "bulk_contention") {
    return std::make_unique<SimWorkload>(bulk_rows(o.seed));
  }
  if (o.workload == "applimited_mix") {
    return std::make_unique<SimWorkload>(applimited_rows(o.seed));
  }
  if (o.workload == "sweep_grid") return std::make_unique<SweepWorkload>(o.seed, dir);
  if (o.workload == "passive_ingest") return std::make_unique<IngestWorkload>(o.seed, dir);
  throw std::invalid_argument{"unknown workload '" + o.workload + "'"};
}

}  // namespace

Report run_workload(const Options& opts) {
  auto w = make_workload(opts);
  Report rep;
  const SpanCost cost = opts.trace ? measure_span_cost() : SpanCost{};

  // Closed loop: rounds of identical work back to back until the budget is
  // spent, each building its own inputs first (setup_s is the median over
  // untraced rounds). A traced run alternates untraced and traced rounds.
  std::vector<double> setup_s;
  std::vector<std::vector<double>> round_steps;  // each untraced round's steps, in order
  std::vector<double> wall_plain;
  std::vector<double> wall_traced;
  std::vector<double> wall_traced_net;  // less the spans' own cost
  std::map<std::string, std::vector<double>> layer_rounds;
  std::string reference;
  const std::int64_t start = now_ns();
  for (int i = 0;; ++i) {
    const bool traced = opts.trace && i % 2 == 1;
    Tracer tracer;
    std::vector<double> steps;
    const Round r = w->round(traced ? &tracer : nullptr, traced ? nullptr : &steps);
    if (!traced) {
      setup_s.push_back(r.setup_s);
      round_steps.push_back(std::move(steps));
    }
    (traced ? wall_traced : wall_plain).push_back(r.work_s);
    if (traced) {
      const double round_spans = static_cast<double>(tracer.spans() - r.setup_spans);
      wall_traced_net.push_back(r.work_s -
                                round_spans * (cost.inner_ns + cost.outer_ns) / 1e9);
    }
    rep.attempted += r.attempted;
    rep.failed += r.failed;
    if (reference.empty()) reference = r.digest;
    if (r.digest != reference) {
      rep.correct = false;
      rep.notes.push_back(std::string{"digest mismatch on "} + (traced ? "traced" : "untraced") +
                          " round " + std::to_string(i));
    }
    if (traced) {
      for (const auto& [k, v] : layer_values(tracer, cost, r.values)) layer_rounds[k].push_back(v);
    } else if (opts.trace) {
      for (const auto& [k, v] : r.values) {
        if (k.rfind("sim.", 0) == 0) layer_rounds["plain." + k].push_back(v);
      }
    }
    const bool enough = !opts.trace || !wall_traced.empty();
    if (enough && seconds_since(start) >= opts.seconds) break;
  }

  char digest_hash[32];
  std::snprintf(digest_hash, sizeof digest_hash, "%016llx",
                static_cast<unsigned long long>(fnv1a(reference.data(), reference.size())));
  rep.notes.push_back("workload " + opts.workload + " seed " + std::to_string(opts.seed) +
                      ": digest " + digest_hash + ", rounds " +
                      std::to_string(wall_plain.size()) + " untraced + " +
                      std::to_string(wall_traced.size()) + " traced");
  rep.notes.push_back("failed_frac " + fmt17(rep.attempted == 0
                                                 ? 0.0
                                                 : static_cast<double>(rep.failed) /
                                                       static_cast<double>(rep.attempted)) +
                      " (" + std::to_string(rep.failed) + " of " + std::to_string(rep.attempted) +
                      ")");

  if (!setup_s.empty()) {
    rep.notes.push_back("set-up x" + std::to_string(setup_s.size()) + ": min " +
                        fmt17(*std::min_element(setup_s.begin(), setup_s.end())) + " s, median " +
                        fmt17(median(setup_s)) + " s");
  }
  if (!wall_plain.empty()) {
    const auto [lo, hi] = std::minmax_element(wall_plain.begin(), wall_plain.end());
    rep.notes.push_back("untraced round wall: min " + fmt17(*lo) + " s, median " +
                        fmt17(median(wall_plain)) + " s, max " + fmt17(*hi) + " s");
  }
  for (auto& line : w->describe()) rep.notes.push_back(std::move(line));
  if (!opts.trace) {
    const std::vector<double> steps = step_best(round_steps);
    const double tail_p = tail_percentile(steps.size());
    rep.notes.push_back("step = one " + w->step_name() + "; " + std::to_string(steps.size()) +
                        " steps, each the fastest of " + std::to_string(round_steps.size()) +
                        " rounds; tail = p" + fmt17(tail_p));
    rep.metrics = {
        {"wall_s", median(wall_plain), "s"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"step_p50_ms", median(steps), "ms"},
        {"step_tail_ms", percentile(steps, tail_p), "ms"},
    };
    return rep;
  }

  std::map<std::string, double> layer;
  for (const auto& [k, v] : layer_rounds) layer[k] = median(v);
  const double plain = median(wall_plain);
  if (layer["plain.sim.events"] > 0) {
    layer["sim.ns_per_event"] = plain * 1e9 / layer["plain.sim.events"];
    layer["run.ns_per_packet"] = plain * 1e9 / layer["plain.sim.link_packets"];
  }
  if (w->decorated()) layer["trace.overhead_s"] = median(wall_traced) - plain;
  for (const auto& m : layer_catalogue()) {
    const auto it = layer.find(m.name);
    rep.metrics.push_back({m.name, it == layer.end() ? 0.0 : it->second, m.unit});
  }

  // Where a traced round's time went, largest first (single-threaded round
  // layers; the sweep's cell times add up across its workers), out of the
  // traced wall less the spans' own cost.
  const double traced_wall = median(wall_traced_net);
  std::vector<std::pair<double, std::string>> shares;
  for (const auto& [k, v] : layer) {
    const bool self = k.size() > 7 && k.compare(k.size() - 7, 7, ".self_s") == 0;
    const bool setup = k.rfind("mlab.", 0) == 0 || k.rfind("store.setup_write", 0) == 0;
    if ((self || k == "run.residual_s") && k.rfind("sweep.", 0) != 0 && !setup && v > 0) {
      shares.emplace_back(v / traced_wall, k);
    }
  }
  std::sort(shares.rbegin(), shares.rend());
  if (!shares.empty()) {
    char head[160];
    std::snprintf(head, sizeof head,
                  "share of traced round wall less span cost (%.4f s; untraced %.4f s; "
                  "span %.1f ns inside + %.1f ns in parent):",
                  traced_wall, plain, cost.inner_ns, cost.outer_ns);
    std::string line = head;
    for (const auto& [f, k] : shares) {
      char buf[96];
      std::snprintf(buf, sizeof buf, " %s %.1f%%", k.c_str(), 100.0 * f);
      line += buf;
    }
    rep.notes.push_back(line);
  }
  return rep;
}

}  // namespace perfbench
