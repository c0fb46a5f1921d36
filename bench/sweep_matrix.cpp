// The grand-matrix sweep (DESIGN.md "Sweep engine & scenario axes"): every
// CCA x cross-traffic x qdisc x link-model x buffer-depth cell of the grid,
// fanned out over the ExperimentRunner, checkpointed per cell, streamed
// into ccfs shards.
//
//   sweep_matrix --grid "cca=reno,cubic;qdisc=droptail,fq_codel"
//                --checkpoint sweep.ckpt --resume
//                --out-store sweep.ccfs --jobs 16
//
// A killed run restarts with --resume and skips every journaled cell; the
// final store is byte-identical to an uninterrupted run at any --jobs.
// The table aggregates the §2.1 question per (qdisc, link): how much of the
// contention outcome (share / fairness / harm) the operator's queue choice
// determines, across every CCA and cross-traffic mix at once.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench/cli.hpp"
#include "sweep/sweep.hpp"
#include "telemetry/run_report.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace ccc;

/// sweep_matrix's own flags, parsed out of cli.rest (the ingestd pattern:
/// shared contract in bench::Cli, bench-specific surface here).
struct MatrixOptions {
  std::string out_store;
  std::uint64_t flows_per_shard{512};
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::cerr << "sweep_matrix: " << msg << "\n"
            << bench::Cli::usage("sweep_matrix")
            << "  --out-store BASE      write per-cell results as rotated ccfs shards\n"
               "  --flows-per-shard N   cells per output shard (default 512)\n";
  std::exit(2);
}

MatrixOptions parse_matrix_options(const bench::Cli& cli) {
  MatrixOptions opt;
  const auto& rest = cli.rest;
  for (std::size_t i = 0; i < rest.size(); ++i) {
    const std::string& arg = rest[i];
    auto is = [&](std::string_view flag) { return arg == flag; };
    auto value = [&](std::string_view flag) -> const std::string& {
      if (i + 1 >= rest.size()) usage_error(std::string{flag} + " needs a value");
      return rest[++i];
    };
    if (is("--out-store")) {
      opt.out_store = value("--out-store");
    } else if (is("--flows-per-shard")) {
      const std::string& v = value("--flows-per-shard");
      char* end = nullptr;
      errno = 0;
      const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || v.front() == '-' || end == nullptr || *end != '\0' || errno == ERANGE ||
          n == 0) {
        usage_error("invalid --flows-per-shard value '" + v + "' (want an integer >= 1)");
      }
      opt.flows_per_shard = n;
    } else {
      usage_error("unknown argument '" + arg + "'");
    }
  }
  return opt;
}

}  // namespace

int run_bench(int argc, char** argv) {
  using namespace ccc;
  auto cli = bench::Cli::parse(argc, argv, "sweep_matrix");
  const MatrixOptions mopt = parse_matrix_options(cli);

  sweep::GridSpec grid = sweep::GridSpec::parse(cli.grid);
  if (cli.has_duration) grid.duration = Time::sec(cli.duration_sec);

  sweep::SweepOptions sopt;
  sopt.jobs = cli.serial ? 1 : cli.jobs;
  sopt.base_seed = cli.seed_or(sopt.base_seed);
  sopt.checkpoint_path = cli.checkpoint;
  sopt.resume = cli.resume;
  sopt.out_store_base = mopt.out_store;
  sopt.flows_per_shard = mopt.flows_per_shard;
  sopt.on_progress = [](std::size_t done, std::size_t total) {
    if (done % 50 == 0 || done == total) {
      std::fprintf(stderr, "\rsweep_matrix: %zu/%zu cells", done, total);
      if (done == total) std::fputc('\n', stderr);
    }
  };

  sweep::SweepEngine engine{std::move(grid), sopt};
  const sweep::SweepSummary summary = engine.run();

  std::ostream& os = cli.output();
  print_banner(os, "Grand matrix: " + std::to_string(summary.total_cells) + " cells (" +
                       std::to_string(summary.resumed_cells) + " resumed, " +
                       std::to_string(summary.ran_cells) + " simulated), grid " +
                       engine.grid().signature());

  // Aggregate the §2.1 answer per (qdisc, link): the operator-controlled
  // coordinates. Contended cells only — solo cells have share 1 and harm 0
  // by construction and would dilute every mean.
  struct Agg {
    RunningStats share, jain, harm;
    double max_harm{0.0};
    std::uint64_t drops{0}, marks{0};
  };
  std::map<std::pair<std::string, std::string>, Agg> by_cell;
  for (const auto& r : summary.results) {
    const sweep::CellSpec spec = engine.grid().cell(r.cell_id);
    if (spec.cross == sweep::CrossTraffic::kNone) continue;
    Agg& a = by_cell[{std::string{to_string(spec.qdisc)}, std::string{to_string(spec.link)}}];
    a.share.add(r.share);
    a.jain.add(r.jain);
    a.harm.add(r.harm_frac);
    a.max_harm = std::max(a.max_harm, r.harm_frac);
    a.drops += r.drops;
    a.marks += r.ecn_marks;
  }

  telemetry::RunReport report{"sweep_matrix", sopt.base_seed};
  TextTable t{
      {"qdisc", "link", "mean share", "mean jain", "mean harm", "max harm", "drops", "marks"}};
  for (const auto& [key, a] : by_cell) {
    t.add_row({key.first, key.second, TextTable::num(a.share.mean(), 3),
               TextTable::num(a.jain.mean(), 3), TextTable::num(a.harm.mean(), 3),
               TextTable::num(a.max_harm, 3), std::to_string(a.drops),
               std::to_string(a.marks)});
    const std::string scope = key.first + "." + key.second;
    report.add_scalar(scope, "mean_share", a.share.mean());
    report.add_scalar(scope, "mean_jain", a.jain.mean());
    report.add_scalar(scope, "mean_harm", a.harm.mean());
    report.add_scalar(scope, "max_harm", a.max_harm);
    report.add_scalar(scope, "drops", static_cast<double>(a.drops));
    report.add_scalar(scope, "ecn_marks", static_cast<double>(a.marks));
  }
  t.print(os);
  os << "\nshape check: the flow-isolating qdiscs (fq, fq_codel) should lift mean\n"
        "share and Jain toward the fair split and trim the worst-case harm tail,\n"
        "while the FIFO family spreads with the CCA pairing — the operator's\n"
        "queue, not the CCA, decides who gets what (paper §2.1). Mean harm stays\n"
        "well above zero even under FQ: harm is measured against a solo run, so\n"
        "a perfectly fair split with one elastic competitor already costs ~0.5.\n";
  if (!summary.shard_paths.empty()) {
    os << "\nwrote " << summary.results.size() << " cells to " << summary.shard_paths.size()
       << " shard(s): " << summary.shard_paths.front();
    if (summary.shard_paths.size() > 1) os << " ... " << summary.shard_paths.back();
    os << "\n";
  }
  if (!report.emit(cli.report)) {
    std::cerr << "sweep_matrix: cannot write --report file '" << cli.report << "'\n";
    return 2;
  }
  return 0;
}

int main(int argc, char** argv) {
  return ccc::bench::guarded_main("sweep_matrix", [&] { return run_bench(argc, argv); });
}
