// Micro-benchmarks: ccfs store write/scan throughput and the sharded
// pipeline's per-flow cost.
//
// Besides the google-benchmark micros, main() emits one machine-readable
// JSON line per headline metric — most importantly flows/sec for a full
// columnar scan (open + touch every flow's scalars and series), the number
// that gates "fig2 at millions of flows" being interactive:
//   {"bench": "store_scan", "flows": ..., "wall_sec": ..., "flows_per_sec": ...}
// plus the streaming-write rate (store_write) and the CRC-32 rate every
// store and journal byte pays (store_crc, bytes_per_sec).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench/cli.hpp"
#include "mlab/synthetic.hpp"
#include "pipeline/pipeline.hpp"
#include "store/convert.hpp"
#include "store/flow_store.hpp"
#include "store/format.hpp"
#include "telemetry/run_report.hpp"

namespace {

namespace fs = std::filesystem;
using namespace ccc;

/// One shared on-disk fixture per process: building a store per iteration
/// would measure the generator, not the store.
const std::string& fixture_path(std::size_t n_flows = 20000) {
  static std::string path;
  if (path.empty()) {
    path = (fs::temp_directory_path() /
            ("micro_store_fixture." + std::to_string(n_flows) + ".ccfs"))
               .string();
    mlab::SyntheticConfig cfg;
    cfg.n_flows = n_flows;
    Rng rng{7};
    store::FlowStoreWriter writer{path};
    mlab::generate_dataset_stream(
        cfg, rng, [&writer](mlab::NdtRecord&& rec) { writer.append(rec); });
    writer.finish();
  }
  return path;
}

void BM_StoreWrite(benchmark::State& state) {
  // Append + finish cost per flow (series streamed, scalars buffered).
  mlab::SyntheticConfig cfg;
  cfg.n_flows = 2000;
  Rng rng{11};
  const auto dataset = mlab::generate_dataset(cfg, rng);
  const auto path =
      (fs::temp_directory_path() / "micro_store_write.ccfs").string();
  for (auto _ : state) {
    store::write_store(path, dataset);
    benchmark::DoNotOptimize(path);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(dataset.size()));
  std::error_code ec;
  fs::remove(path, ec);
}
BENCHMARK(BM_StoreWrite);

void BM_StoreOpen(benchmark::State& state) {
  // mmap + validate (CRC over the whole file) — the per-shard fixed cost.
  const auto& path = fixture_path();
  for (auto _ : state) {
    store::FlowStoreReader reader{path};
    benchmark::DoNotOptimize(reader.size());
  }
}
BENCHMARK(BM_StoreOpen);

void BM_StoreOpenNoVerify(benchmark::State& state) {
  const auto& path = fixture_path();
  for (auto _ : state) {
    store::FlowStoreReader reader{path, /*verify_crc=*/false};
    benchmark::DoNotOptimize(reader.size());
  }
}
BENCHMARK(BM_StoreOpenNoVerify);

void BM_StoreScan(benchmark::State& state) {
  // Touch every flow: all scalar columns plus first/last series sample.
  store::FlowStoreReader reader{fixture_path(), /*verify_crc=*/false};
  for (auto _ : state) {
    double acc = 0.0;
    for (std::size_t i = 0; i < reader.size(); ++i) {
      const auto v = reader.at(i);
      acc += v.duration_sec + v.mean_throughput_mbps;
      if (!v.throughput_mbps.empty()) {
        acc += v.throughput_mbps.front() + v.throughput_mbps.back();
      }
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(reader.size()));
}
BENCHMARK(BM_StoreScan);

void BM_PipelineClassifyOnly(benchmark::State& state) {
  // The aggregate-only decision tree over the columnar scalars — no series
  // pages touched for filtered flows.
  store::FlowStoreReader reader{fixture_path(), /*verify_crc=*/false};
  const pipeline::ClassifyConfig cfg;
  for (auto _ : state) {
    std::size_t residual = 0;
    for (std::size_t i = 0; i < reader.size(); ++i) {
      if (pipeline::classify_filters(reader.at(i), cfg) ==
          pipeline::Verdict::kNoLevelShift) {
        ++residual;
      }
    }
    benchmark::DoNotOptimize(residual);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(reader.size()));
}
BENCHMARK(BM_PipelineClassifyOnly);

void BM_PipelineFull(benchmark::State& state) {
  // End-to-end per-flow cost including the PELT search on residual flows.
  store::FlowStoreReader reader{fixture_path(), /*verify_crc=*/false};
  pipeline::StoreSource src{reader};
  pipeline::PipelineConfig cfg;
  cfg.jobs = 1;
  cfg.enable_telemetry = false;
  for (auto _ : state) {
    const auto res = pipeline::run_pipeline(src, cfg);
    benchmark::DoNotOptimize(res.changepoints_total);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(reader.size()));
}
BENCHMARK(BM_PipelineFull);

/// Wall-clock flows/sec for a full scan of a freshly opened store, printed
/// as JSON and mirrored into the RunReport (--report). The acceptance floor
/// for this number is 1M flows/sec (ISSUE 3 / BENCH_store.json baseline).
void report_scan_rate(const char* name, std::size_t readahead_flows, std::size_t repeat,
                      std::ostream& os, telemetry::RunReport& report) {
  const auto& path = fixture_path();
  double wall = 0.0;
  std::size_t n_flows = 0;
  constexpr int kPasses = 50;  // ~1M flow visits over the 20k fixture
  for (std::size_t r = 0; r < repeat; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    store::ReaderOptions opt;
    opt.verify_crc = false;
    opt.sequential = readahead_flows > 0;
    opt.readahead_flows = readahead_flows;
    store::FlowStoreReader reader{path, opt};
    double acc = 0.0;
    for (int pass = 0; pass < kPasses; ++pass) {
      for (std::size_t i = 0; i < reader.size(); ++i) {
        const auto v = reader.at(i);
        acc += v.duration_sec + v.mean_throughput_mbps;
        if (!v.throughput_mbps.empty()) acc += v.throughput_mbps.back();
      }
    }
    const std::chrono::duration<double> w = std::chrono::steady_clock::now() - t0;
    benchmark::DoNotOptimize(acc);
    n_flows = reader.size();
    wall = r == 0 ? w.count() : std::min(wall, w.count());
  }
  const auto flows = static_cast<double>(n_flows) * kPasses;
  const double fps = flows / wall;
  char line[256];
  std::snprintf(line, sizeof line,
                "{\"bench\": \"%s\", \"flows\": %.0f, \"wall_sec\": %.4f, "
                "\"flows_per_sec\": %.0f}\n",
                name, flows, wall, fps);
  os << line;
  report.add_scalar(name, "flows", flows);
  report.add_scalar(name, "wall_sec", wall);
  report.add_scalar(name, "flows_per_sec", fps);
}

/// Streaming-write flows/sec (generator excluded), the ingest headline.
void report_write_rate(std::size_t repeat, std::ostream& os, telemetry::RunReport& report) {
  mlab::SyntheticConfig cfg;
  cfg.n_flows = 50000;
  Rng rng{13};
  const auto dataset = mlab::generate_dataset(cfg, rng);
  const auto path =
      (fs::temp_directory_path() / "micro_store_write_rate.ccfs").string();
  double wall = 0.0;
  for (std::size_t r = 0; r < repeat; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    store::write_store(path, dataset);
    const std::chrono::duration<double> w = std::chrono::steady_clock::now() - t0;
    wall = r == 0 ? w.count() : std::min(wall, w.count());
  }
  const double fps = static_cast<double>(dataset.size()) / wall;
  char line[256];
  std::snprintf(line, sizeof line,
                "{\"bench\": \"store_write\", \"flows\": %zu, \"wall_sec\": %.4f, "
                "\"flows_per_sec\": %.0f}\n",
                dataset.size(), wall, fps);
  os << line;
  report.add_scalar("store_write", "flows", static_cast<double>(dataset.size()));
  report.add_scalar("store_write", "wall_sec", wall);
  report.add_scalar("store_write", "flows_per_sec", fps);
  std::error_code ec;
  fs::remove(path, ec);
}

/// CRC-32 throughput of store::Crc32::update, the one implementation the
/// writer, both reader paths and the sweep journal share. The buffer is the
/// size of a passive_ingest round's store (~27 MB), hashed in the writer's
/// 64 KiB pieces so the number is the per-byte cost those paths pay.
void report_crc_rate(std::size_t repeat, std::ostream& os, telemetry::RunReport& report) {
  constexpr std::size_t kBytes = std::size_t{27} << 20;
  constexpr std::size_t kPiece = std::size_t{64} << 10;
  std::vector<std::uint8_t> buf(kBytes);  // table CRCs cost the same for any data
  for (std::size_t i = 0; i < kBytes; ++i) {
    buf[i] = static_cast<std::uint8_t>((i * 2654435761u) >> 13);
  }
  double wall = 0.0;
  std::uint32_t sink = 0;
  for (std::size_t r = 0; r < repeat; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    store::Crc32 crc;
    for (std::size_t off = 0; off < kBytes; off += kPiece) {
      crc.update(buf.data() + off, std::min(kPiece, kBytes - off));
    }
    const std::chrono::duration<double> w = std::chrono::steady_clock::now() - t0;
    sink ^= crc.value();
    wall = r == 0 ? w.count() : std::min(wall, w.count());
  }
  benchmark::DoNotOptimize(sink);
  const double bps = static_cast<double>(kBytes) / wall;
  char line[256];
  std::snprintf(line, sizeof line,
                "{\"bench\": \"store_crc\", \"bytes\": %zu, \"wall_sec\": %.4f, "
                "\"bytes_per_sec\": %.0f}\n",
                kBytes, wall, bps);
  os << line;
  report.add_scalar("store_crc", "bytes", static_cast<double>(kBytes));
  report.add_scalar("store_crc", "wall_sec", wall);
  report.add_scalar("store_crc", "bytes_per_sec", bps);
}

}  // namespace

/// The bench body; main() below routes uncaught errors through the shared
/// guarded_main error boundary (structured message + exit-code contract).
int run_bench(int argc, char** argv) {
  using namespace ccc;
  auto cli = bench::Cli::parse(argc, argv, "micro_store");
  std::vector<char*> bench_argv{argv[0]};
  for (auto& a : cli.rest) bench_argv.push_back(a.data());
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::ostream& os = cli.output();
  // Best-of-N (default 3) replaces the shell-side repeat loop the perf
  // smoke script used to run; --readahead sizes the pread window for the
  // buffered-scan scope (default 4096 flows per fetch).
  const std::size_t repeat = cli.repeat_or(3);
  const std::size_t readahead = cli.readahead != 0 ? cli.readahead : 4096;
  telemetry::RunReport report{"micro_store", 0};
  report_scan_rate("store_scan", /*readahead_flows=*/0, repeat, os, report);
  report_scan_rate("store_scan_pread", readahead, repeat, os, report);
  report_write_rate(repeat, os, report);
  report_crc_rate(repeat, os, report);
  if (!report.emit(cli.report)) {
    std::cerr << "micro_store: cannot write --report file '" << cli.report << "'\n";
    return 2;
  }
  std::error_code ec;
  fs::remove(fixture_path(), ec);
  return 0;
}

int main(int argc, char** argv) {
  return ccc::bench::guarded_main("micro_store", [&] { return run_bench(argc, argv); });
}
