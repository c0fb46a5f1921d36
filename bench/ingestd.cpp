// ccc_ingestd — streaming ingest service for NDT flow records.
//
// Where fig2_mlab_passive analyzes a finite corpus and exits, ingestd runs
// the same §3.1 classify + changepoint analysis as a long-lived consumer of
// an unbounded stream, with bounded memory (DESIGN.md "Streaming ingest").
// One input mode per run:
//
//   --spool DIR      consume sealed ccfs shards from a spool directory, in
//                    filename order; --follow keeps watching for new shards,
//                    --replay N sweeps the corpus N times (the RSS soak)
//   --stdin          newline-delimited NDT CSV rows on stdin
//   --input F.csv    the same row protocol from a file
//   --socket PATH    the same row protocol on a unix domain socket
//   --scale N        self-contained: synthesize the fig2 corpus at N x 9,984
//                    flows into a temporary spool and consume that
//
// --jobs N (default CCC_JOBS, else the hardware) sets the daemon's analysis
// workers and the --scale generator's; --serial runs both on one thread.
// No output depends on either.
//
// Every --epoch-flows flows the daemon settles an epoch: metric deltas
// export, the open output shard (--out-store) rotates sealed-and-CRC-valid,
// and a row group of rolling aggregates lands in the --report file. At
// stream end (or SIGINT/SIGTERM, or --max-flows) it prints the shared
// Figure-2 aggregate block — byte-identical to offline fig2 over the same
// corpus when --early-exit off and the changepoint window covers the
// series, which the ingest agreement tests pin.
//
// --exit-sweep runs the early-exit accuracy-vs-bytes-read tradeoff instead
// of a daemon: every policy ({off, fixed, adaptive x margins}) over the
// same corpus, reporting per-flow verdict agreement against the exhaustive
// baseline and the series bytes each policy actually read.
#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench/cli.hpp"
#include "ingest/daemon.hpp"
#include "ingest/report.hpp"
#include "ingest/sources.hpp"
#include "mlab/synthetic.hpp"
#include "pipeline/stage.hpp"
#include "store/flow_store.hpp"
#include "telemetry/run_report.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

namespace fs = std::filesystem;
using namespace ccc;

volatile std::sig_atomic_t g_stop = 0;
extern "C" void handle_stop(int) { g_stop = 1; }

struct IngestdOptions {
  std::string spool;
  bool use_stdin{false};
  std::string socket;
  bool follow{false};
  std::size_t replay{1};
  pipeline::EarlyExitPolicy policy{pipeline::EarlyExitPolicy::kOff};
  double margin{0.5};
  std::size_t window{0};  ///< changepoint window in samples; 0 = full series
  std::uint64_t epoch_flows{65536};
  std::string out_store;
  std::uint64_t shard_flows{65536};
  std::uint64_t max_flows{0};
  bool exit_sweep{false};
};

std::string ingestd_usage() {
  return bench::Cli::usage("ingestd") +
         "\nstream modes (exactly one; --scale/--input come from the shared flags):\n"
         "  --spool DIR           consume sealed ccfs shards from DIR\n"
         "  --stdin               NDT CSV rows on stdin\n"
         "  --socket PATH         NDT CSV rows on a unix domain socket\n"
         "ingest knobs:\n"
         "  --follow              spool: keep watching for new shards\n"
         "  --replay N            spool: sweep the corpus N times\n"
         "  --early-exit MODE     off | fixed | adaptive (default off)\n"
         "  --margin F            adaptive early-exit uncertainty band (default 0.5)\n"
         "  --window N            changepoint window, samples (default 0 = full series)\n"
         "  --epoch-flows N       flush/rotate/report cadence (default 65536)\n"
         "  --out-store BASE      re-write the stream as rotated ccfs shards\n"
         "  --shard-flows N       output shard size cap (default 65536)\n"
         "  --max-flows N         stop after N flows (default 0 = stream end)\n"
         "  --exit-sweep          run the early-exit tradeoff sweep and exit\n";
}

[[noreturn]] void usage_error(const std::string& msg) {
  std::cerr << "ingestd: " << msg << "\n" << ingestd_usage();
  std::exit(2);
}

std::uint64_t parse_u64_flag(const std::string& flag, const std::string& v) {
  if (v.empty() || v.front() == '-') usage_error("invalid " + flag + " value '" + v + "'");
  errno = 0;
  char* end = nullptr;
  const std::uint64_t n = std::strtoull(v.c_str(), &end, 10);
  if (errno == ERANGE || end == v.c_str() || *end != '\0') {
    usage_error("invalid " + flag + " value '" + v + "'");
  }
  return n;
}

double parse_double_flag(const std::string& flag, const std::string& v) {
  char* end = nullptr;
  const double d = std::strtod(v.c_str(), &end);
  if (v.empty() || end == v.c_str() || *end != '\0') {
    usage_error("invalid " + flag + " value '" + v + "'");
  }
  return d;
}

/// Parses ingestd's own flags out of cli.rest (both "--flag V" and
/// "--flag=V" forms); anything left over is a usage error.
IngestdOptions parse_extra(const bench::Cli& cli) {
  IngestdOptions opt;
  const auto& rest = cli.rest;
  for (std::size_t i = 0; i < rest.size(); ++i) {
    const std::string& arg = rest[i];
    const auto value = [&](const char* flag) -> std::string {
      const std::string prefix = std::string{flag} + "=";
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      if (i + 1 >= rest.size()) usage_error(std::string{flag} + " needs a value");
      return rest[++i];
    };
    const auto is = [&](const char* flag) {
      return arg == flag || arg.rfind(std::string{flag} + "=", 0) == 0;
    };
    if (arg == "--stdin") {
      opt.use_stdin = true;
    } else if (arg == "--follow") {
      opt.follow = true;
    } else if (arg == "--exit-sweep") {
      opt.exit_sweep = true;
    } else if (is("--spool")) {
      opt.spool = value("--spool");
    } else if (is("--socket")) {
      opt.socket = value("--socket");
    } else if (is("--replay")) {
      opt.replay = parse_u64_flag("--replay", value("--replay"));
      if (opt.replay == 0) usage_error("--replay must be >= 1");
    } else if (is("--early-exit")) {
      const auto v = value("--early-exit");
      if (!pipeline::early_exit_policy_from_string(v, opt.policy)) {
        usage_error("invalid --early-exit value '" + v + "' (want off|fixed|adaptive)");
      }
    } else if (is("--margin")) {
      opt.margin = parse_double_flag("--margin", value("--margin"));
      if (opt.margin < 0.0 || opt.margin >= 1.0) usage_error("--margin must be in [0, 1)");
    } else if (is("--window")) {
      opt.window = parse_u64_flag("--window", value("--window"));
    } else if (is("--epoch-flows")) {
      opt.epoch_flows = parse_u64_flag("--epoch-flows", value("--epoch-flows"));
    } else if (is("--out-store")) {
      opt.out_store = value("--out-store");
    } else if (is("--shard-flows")) {
      opt.shard_flows = parse_u64_flag("--shard-flows", value("--shard-flows"));
      if (opt.shard_flows == 0) usage_error("--shard-flows must be >= 1");
    } else if (is("--max-flows")) {
      opt.max_flows = parse_u64_flag("--max-flows", value("--max-flows"));
    } else {
      usage_error("unrecognized or incomplete argument '" + arg + "'");
    }
  }

  int modes = 0;
  modes += !opt.spool.empty();
  modes += opt.use_stdin;
  modes += !opt.socket.empty();
  modes += cli.has_scale;
  modes += !cli.input.empty();
  if (!opt.exit_sweep && modes != 1) {
    usage_error("pick exactly one input mode: --spool, --stdin, --socket, --scale, or --input");
  }
  if (!cli.input.empty()) {
    const std::string& p = cli.input;
    if (p.size() < 4 || p.compare(p.size() - 4, 4, ".csv") != 0) {
      usage_error("--input must be a .csv row file (use --spool for ccfs shards)");
    }
    if (std::ifstream probe{p}; !probe) usage_error("cannot open --input file '" + p + "'");
  }
  return opt;
}

/// Temporary spool directory (the --scale self-contained mode); removed
/// recursively on destruction.
struct ScratchSpool {
  fs::path dir;
  ~ScratchSpool() {
    if (dir.empty()) return;
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
};

/// Forwards the daemon's per-epoch aggregate rows into the RunReport so a
/// single --report file carries the rolling series and the final scalars.
struct ReportRowSink final : telemetry::Sink {
  explicit ReportRowSink(telemetry::RunReport& rr) : rr_{rr} {}
  void meta(const std::string&, std::uint64_t) override {}
  void row(const telemetry::ReportRow& r) override {
    rr_.add_scalar(r.scope, r.name, r.value, Time::sec(r.t_sec));
  }
  telemetry::RunReport& rr_;
};

/// Synthesizes the fig2 corpus at `scale` into a fresh spool directory,
/// sealed in 64k-flow shards (the same sharding fig2 --scale uses), with
/// `jobs` generator workers (the bytes do not depend on it).
std::vector<std::string> synthesize_spool(const fs::path& dir, std::size_t scale,
                                          std::uint64_t seed, unsigned jobs) {
  fs::create_directories(dir);
  store::ShardedFlowStoreWriter writer{(dir / "corpus.ccfs").string(), 65536};
  mlab::SyntheticConfig scfg;
  scfg.n_flows *= scale;
  Rng rng{seed};
  mlab::generate_dataset_stream(
      scfg, rng, [&writer](mlab::NdtRecord&& rec) { writer.append(rec); }, jobs);
  return writer.finish();
}

int run_daemon(bench::Cli& cli, const IngestdOptions& opt) {
  std::ostream& os = cli.output();
  const std::uint64_t seed = cli.seed_or(20230601);  // fig2's June-2023 seed

  ScratchSpool scratch;
  std::unique_ptr<std::ifstream> file_in;
  std::unique_ptr<pipeline::PullSource> src;
  const ingest::SpoolSource* spool_src = nullptr;
  std::string desc;
  if (cli.has_scale) {
    scratch.dir = fs::temp_directory_path() /
                  ("ingestd_spool." + std::to_string(seed) + "." + std::to_string(cli.scale) +
                   "." + std::to_string(::getpid()));
    synthesize_spool(scratch.dir, cli.scale, seed, cli.serial ? 1 : cli.jobs);
    ingest::SpoolOptions sopts;
    sopts.replay = opt.replay;
    sopts.strict = cli.strict;
    sopts.readahead_flows = cli.readahead;
    auto s = std::make_unique<ingest::SpoolSource>(scratch.dir.string(), sopts);
    spool_src = s.get();
    src = std::move(s);
    desc = "synthetic x" + std::to_string(cli.scale) + " spool";
    if (opt.replay > 1) desc += ", replay x" + std::to_string(opt.replay);
  } else if (!opt.spool.empty()) {
    ingest::SpoolOptions sopts;
    sopts.follow = opt.follow;
    sopts.replay = opt.replay;
    sopts.strict = cli.strict;
    sopts.readahead_flows = cli.readahead;
    auto s = std::make_unique<ingest::SpoolSource>(opt.spool, sopts);
    spool_src = s.get();
    src = std::move(s);
    desc = "spool " + opt.spool;
  } else if (opt.use_stdin) {
    src = std::make_unique<ingest::CsvStreamSource>(std::cin);
    desc = "stdin";
  } else if (!cli.input.empty()) {
    file_in = std::make_unique<std::ifstream>(cli.input);
    src = std::make_unique<ingest::CsvStreamSource>(*file_in);
    desc = cli.input;
  } else {
    src = std::make_unique<ingest::SocketSource>(opt.socket);
    desc = "socket " + opt.socket;
  }

  ingest::IngestConfig dcfg;
  dcfg.stage.classify.early_exit = opt.policy;
  dcfg.stage.classify.early_exit_margin = opt.margin;
  dcfg.stage.window_samples = opt.window;
  dcfg.stage.strict = cli.strict;
  dcfg.epoch_flows = opt.epoch_flows;
  dcfg.out_store = opt.out_store;
  dcfg.out_shard_flows = opt.shard_flows;
  dcfg.max_flows = opt.max_flows;
  dcfg.jobs = cli.serial ? 1 : cli.jobs;
  dcfg.should_stop = [] { return g_stop != 0; };

  telemetry::RunReport run_report{"ingestd", seed};
  ReportRowSink epoch_sink{run_report};
  dcfg.epoch_sink = &epoch_sink;

  std::signal(SIGINT, handle_stop);
  std::signal(SIGTERM, handle_stop);

  ingest::IngestDaemon daemon{dcfg};
  const auto ires = daemon.run(*src);
  const auto res = daemon.result();
  if (res.flows == 0) {
    std::cerr << "ingestd: stream from " << desc << " delivered no flows\n";
    return 1;
  }

  print_banner(os, "Streaming ingest: " + std::to_string(res.flows) + " flows (" + desc +
                       ", " + std::to_string(ires.epochs) + " epochs)");
  const auto summary = ingest::print_passive_aggregates(os, res);

  // Operational stats go to stderr: stdout stays exactly banner + the
  // shared aggregate block, the region the fig2-agreement test compares.
  std::cerr << "ingestd: " << res.flows << " flows, " << ires.epochs << " epochs"
            << (ires.source_ended ? " (stream end)" : " (stopped)") << "\n";
  if (spool_src != nullptr) {
    const auto& st = spool_src->stats();
    std::cerr << "ingestd: spool: " << st.shards_opened << " shards opened, "
              << st.shards_skipped << " skipped, " << st.passes_done << " passes\n";
  }
  if (!ires.out_shards.empty()) {
    std::cerr << "ingestd: sealed " << ires.out_shards.size() << " output shards at "
              << opt.out_store << "\n";
  }

  ingest::add_passive_scalars(run_report, res, summary.suspect_fraction);
  run_report.add_registry("pipeline", res.metrics, Time::zero());
  if (!run_report.emit(cli.report)) {
    std::cerr << "ingestd: cannot write --report file '" << cli.report << "'\n";
    return 2;
  }
  return summary.reproduced ? 0 : 1;
}

// ---------- the early-exit tradeoff sweep ----------

struct SweepCell {
  std::string label;
  pipeline::EarlyExitPolicy policy;
  double margin;
  std::uint64_t early_exits{0};
  std::uint64_t samples_scanned{0};
  double agreement{1.0};  ///< per-flow verdict agreement vs exhaustive
};

SweepCell run_sweep_cell(std::span<const mlab::NdtRecord> dataset,
                         pipeline::EarlyExitPolicy policy, double margin, std::size_t window,
                         std::vector<pipeline::Verdict>* verdicts_out) {
  pipeline::StageOptions so;
  so.classify.early_exit = policy;
  so.classify.early_exit_margin = margin;
  so.window_samples = window;
  so.keep_findings = true;
  so.enable_telemetry = false;
  pipeline::AnalyzeStage stage{std::move(so)};
  stage.reserve_findings(dataset.size());
  const pipeline::MemorySource msrc{dataset};
  pipeline::RangePull pull{msrc, 0, dataset.size(), 0};
  pipeline::drain(pull, stage);

  SweepCell cell;
  cell.policy = policy;
  cell.margin = margin;
  cell.early_exits = stage.tallies().early_exits;
  cell.samples_scanned = stage.tallies().samples_scanned;
  verdicts_out->clear();
  verdicts_out->reserve(dataset.size());
  for (const auto& f : stage.tallies().findings) verdicts_out->push_back(f.verdict);
  return cell;
}

int run_exit_sweep(bench::Cli& cli, const IngestdOptions& opt) {
  std::ostream& os = cli.output();
  const std::uint64_t seed = cli.seed_or(20230601);
  mlab::SyntheticConfig scfg;
  if (cli.has_scale) scfg.n_flows *= cli.scale;
  Rng rng{seed};
  const auto dataset = mlab::generate_dataset(scfg, rng, cli.serial ? 1 : cli.jobs);

  print_banner(os, "Early-exit policy sweep: accuracy vs series bytes read (" +
                       std::to_string(dataset.size()) + " flows)");

  std::vector<pipeline::Verdict> baseline;
  auto base = run_sweep_cell(dataset, pipeline::EarlyExitPolicy::kOff, opt.margin, opt.window,
                             &baseline);
  base.label = "off";

  struct Config {
    std::string label;
    pipeline::EarlyExitPolicy policy;
    double margin;
  };
  std::vector<Config> configs{{"fixed", pipeline::EarlyExitPolicy::kFixed, 0.5}};
  for (const double m : {0.25, 0.5, 0.75}) {
    configs.push_back({"adaptive m=" + TextTable::num(m, 2),
                       pipeline::EarlyExitPolicy::kAdaptive, m});
  }

  std::vector<SweepCell> cells{base};
  std::vector<pipeline::Verdict> verdicts;
  for (const auto& c : configs) {
    auto cell = run_sweep_cell(dataset, c.policy, c.margin, opt.window, &verdicts);
    cell.label = c.label;
    std::size_t same = 0;
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
      if (verdicts[i] == baseline[i]) ++same;
    }
    cell.agreement =
        baseline.empty() ? 1.0 : static_cast<double>(same) / static_cast<double>(baseline.size());
    cells.push_back(cell);
  }

  TextTable table{{"policy", "early exits", "samples read", "series MB", "vs exhaustive",
                   "verdict agreement"}};
  telemetry::RunReport run_report{"ingestd", seed};
  for (const auto& c : cells) {
    const double mb = static_cast<double>(c.samples_scanned) * 8.0 / (1024.0 * 1024.0);
    const double frac = base.samples_scanned == 0
                            ? 1.0
                            : static_cast<double>(c.samples_scanned) /
                                  static_cast<double>(base.samples_scanned);
    table.add_row({c.label, std::to_string(c.early_exits), std::to_string(c.samples_scanned),
                   TextTable::num(mb, 2), TextTable::num(frac, 3),
                   TextTable::num(c.agreement, 4)});
    run_report.add_scalar("early_exit " + c.label, "early_exits",
                          static_cast<double>(c.early_exits));
    run_report.add_scalar("early_exit " + c.label, "samples_scanned",
                          static_cast<double>(c.samples_scanned));
    run_report.add_scalar("early_exit " + c.label, "verdict_agreement", c.agreement);
  }
  table.print(os);
  os << "\n'vs exhaustive' is the fraction of series samples the changepoint stage\n"
        "read relative to --early-exit off; agreement is per-flow verdict identity.\n";

  if (!run_report.emit(cli.report)) {
    std::cerr << "ingestd: cannot write --report file '" << cli.report << "'\n";
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view a{argv[i]};
    if (a == "--help" || a == "-h") {
      std::cout << ingestd_usage();
      return 0;
    }
  }
  return bench::guarded_main("ingestd", [&] {
    auto cli = bench::Cli::parse(argc, argv, "ingestd");
    const IngestdOptions opt = parse_extra(cli);
    if (opt.exit_sweep) return run_exit_sweep(cli, opt);
    return run_daemon(cli, opt);
  });
}
