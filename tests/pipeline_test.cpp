// Tests for the sharded passive-analysis pipeline (src/pipeline/).
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <mutex>
#include <sstream>

#include "mlab/synthetic.hpp"
#include "pipeline/pipeline.hpp"
#include "store/convert.hpp"
#include "telemetry/run_report.hpp"

namespace ccc::pipeline {
namespace {

namespace fs = std::filesystem;

std::vector<mlab::NdtRecord> make_dataset(std::size_t n, std::uint64_t seed = 99) {
  mlab::SyntheticConfig cfg;
  cfg.n_flows = n;
  Rng rng{seed};
  return mlab::generate_dataset(cfg, rng);
}

/// Serializes everything determinism promises: aggregates + merged metrics.
std::string fingerprint(const PipelineResult& r) {
  telemetry::RunReport report{"pipeline_test", 0};
  for (const auto& [v, c] : r.verdict_map()) {
    report.add_scalar("verdicts", std::string{to_string(v)}, static_cast<double>(c));
  }
  report.add_scalar("score", "tp", static_cast<double>(r.true_positives));
  report.add_scalar("score", "fp", static_cast<double>(r.false_positives));
  report.add_scalar("score", "fn", static_cast<double>(r.false_negatives));
  report.add_scalar("score", "tn", static_cast<double>(r.true_negatives));
  report.add_scalar("totals", "changepoints", static_cast<double>(r.changepoints_total));
  report.add_scalar("totals", "samples_scanned", static_cast<double>(r.samples_scanned));
  report.add_registry("pipeline", r.metrics, Time::zero());
  return report.to_jsonl();
}

// A serial run with the whole dataset in one shard and a 256-flow-shard run
// agree field for field.
TEST(Pipeline, MatchesLegacyPassiveStudy) {
  const auto dataset = make_dataset(2000);
  MemorySource src{dataset};
  PipelineConfig single;
  single.jobs = 1;
  single.shard_flows = dataset.size();
  single.keep_findings = true;
  single.enable_telemetry = false;
  const auto legacy = run_pipeline(src, single);
  ASSERT_EQ(legacy.shards, 1u);

  PipelineConfig cfg;
  cfg.jobs = 1;
  cfg.shard_flows = 256;
  cfg.keep_findings = true;
  const auto res = run_pipeline(src, cfg);

  EXPECT_EQ(res.verdict_map(), legacy.verdict_map());
  EXPECT_EQ(res.true_positives, legacy.true_positives);
  EXPECT_EQ(res.false_positives, legacy.false_positives);
  EXPECT_EQ(res.false_negatives, legacy.false_negatives);
  EXPECT_EQ(res.true_negatives, legacy.true_negatives);
  EXPECT_DOUBLE_EQ(res.filtered_fraction(), legacy.filtered_fraction());
  ASSERT_EQ(res.findings.size(), legacy.findings.size());
  for (std::size_t i = 0; i < res.findings.size(); ++i) {
    EXPECT_EQ(res.findings[i].id, legacy.findings[i].id);
    EXPECT_EQ(res.findings[i].verdict, legacy.findings[i].verdict);
    EXPECT_EQ(res.findings[i].shift_times_sec, legacy.findings[i].shift_times_sec);
  }
}

// The acceptance pin: classification counts, change-point totals, and the
// merged telemetry registry are byte-identical between --jobs 1 and
// --jobs 8 (ordered shard reduction; shared-nothing workers).
TEST(Pipeline, ReportByteIdenticalAcrossJobCounts) {
  const auto dataset = make_dataset(20000, 20230601);
  MemorySource src{dataset};

  PipelineConfig serial;
  serial.jobs = 1;
  serial.shard_flows = 1024;
  PipelineConfig wide = serial;
  wide.jobs = 8;

  const auto a = run_pipeline(src, serial);
  const auto b = run_pipeline(src, wide);
  EXPECT_EQ(a.jobs, 1u);
  EXPECT_EQ(b.jobs, 8u);
  EXPECT_EQ(fingerprint(a), fingerprint(b));
  EXPECT_EQ(a.verdicts, b.verdicts);
  EXPECT_EQ(a.confusion, b.confusion);
  EXPECT_EQ(a.changepoints_total, b.changepoints_total);
}

TEST(Pipeline, FindingsOrderIndependentOfJobs) {
  const auto dataset = make_dataset(3000);
  MemorySource src{dataset};
  PipelineConfig cfg;
  cfg.shard_flows = 128;
  cfg.keep_findings = true;
  cfg.jobs = 1;
  const auto a = run_pipeline(src, cfg);
  cfg.jobs = 8;
  const auto b = run_pipeline(src, cfg);
  ASSERT_EQ(a.findings.size(), b.findings.size());
  for (std::size_t i = 0; i < a.findings.size(); ++i) {
    EXPECT_EQ(a.findings[i].id, b.findings[i].id);
    EXPECT_EQ(a.findings[i].verdict, b.findings[i].verdict);
  }
  // Findings arrive in dataset order.
  for (std::size_t i = 0; i < a.findings.size(); ++i) {
    EXPECT_EQ(a.findings[i].id, dataset[i].id);
  }
}

TEST(Pipeline, StoreBackedRunMatchesMemoryBackedRun) {
  const auto dataset = make_dataset(4000);
  const auto tmp = (fs::temp_directory_path() /
                    ("pipeline_store." + std::to_string(::getpid()) + ".ccfs"))
                       .string();

  store::ShardedFlowStoreWriter writer{tmp, 1500};
  for (const auto& r : dataset) writer.append(r);
  const auto paths = writer.finish();
  ASSERT_EQ(paths.size(), 3u);

  std::vector<store::FlowStoreReader> readers;
  StoreSource store_src;
  readers.reserve(paths.size());
  for (const auto& p : paths) {
    readers.emplace_back(p);
    store_src.add(readers.back());
  }
  ASSERT_EQ(store_src.size(), dataset.size());

  MemorySource mem_src{dataset};
  PipelineConfig cfg;
  cfg.jobs = 4;
  cfg.shard_flows = 512;
  const auto from_store = run_pipeline(store_src, cfg);
  const auto from_mem = run_pipeline(mem_src, cfg);
  EXPECT_EQ(fingerprint(from_store), fingerprint(from_mem));

  std::error_code ec;
  for (const auto& p : paths) fs::remove(p, ec);
}

// Readahead is madvise advice only: any window (off, small, larger than a
// shard) must leave every aggregate and the merged telemetry registry
// byte-identical. Runs against a real mmapped store so the willneed path
// (page-aligned advice over the shard-mapped sample pool) is exercised.
TEST(Pipeline, ReadaheadWindowDoesNotChangeResults) {
  const auto dataset = make_dataset(4000, 77);
  const auto tmp = (fs::temp_directory_path() /
                    ("pipeline_readahead." + std::to_string(::getpid()) + ".ccfs"))
                       .string();
  store::ShardedFlowStoreWriter writer{tmp, 1500};
  for (const auto& r : dataset) writer.append(r);
  const auto paths = writer.finish();

  std::vector<store::FlowStoreReader> readers;
  StoreSource src;
  readers.reserve(paths.size());
  for (const auto& p : paths) {
    readers.emplace_back(p, store::ReaderOptions{true, true});
    src.add(readers.back());
  }

  PipelineConfig cfg;
  cfg.jobs = 4;
  cfg.shard_flows = 512;
  const auto baseline = run_pipeline(src, cfg);
  for (const std::size_t window : {std::size_t{1}, std::size_t{64}, std::size_t{100'000}}) {
    cfg.readahead_flows = window;
    const auto res = run_pipeline(src, cfg);
    EXPECT_EQ(fingerprint(res), fingerprint(baseline)) << "window " << window;
  }

  std::error_code ec;
  for (const auto& p : paths) fs::remove(p, ec);
}

TEST(Pipeline, EmptySourceYieldsEmptyResult) {
  MemorySource src{std::span<const mlab::NdtRecord>{}};
  const auto res = run_pipeline(src, {});
  EXPECT_EQ(res.flows, 0u);
  EXPECT_EQ(res.shards, 0u);
  EXPECT_EQ(res.changepoints_total, 0u);
  EXPECT_DOUBLE_EQ(res.filtered_fraction(), 0.0);
}

TEST(Pipeline, TelemetryCountersMatchAggregates) {
  const auto dataset = make_dataset(5000);
  MemorySource src{dataset};
  PipelineConfig cfg;
  cfg.shard_flows = 777;  // deliberately non-divisible
  cfg.jobs = 3;
  const auto res = run_pipeline(src, cfg);
  const auto& c = res.metrics.counters();
  EXPECT_EQ(c.at("pipeline.flows").value(), res.flows);
  EXPECT_EQ(c.at("pipeline.changepoints").value(), res.changepoints_total);
  EXPECT_EQ(c.at("pipeline.samples_scanned").value(), res.samples_scanned);
  std::uint64_t verdict_sum = 0;
  for (std::size_t v = 0; v < kVerdictCount; ++v) {
    verdict_sum += c.at(std::string{"pipeline.verdict."} +
                        std::string{to_string(static_cast<Verdict>(v))})
                       .value();
  }
  EXPECT_EQ(verdict_sum, res.flows);
  // The shift-magnitude histogram saw exactly the accepted shifts.
  EXPECT_EQ(res.metrics.histograms().at("pipeline.shift_magnitude").count(),
            res.changepoints_total);
}

TEST(Pipeline, ProgressCallbackReportsEveryShardOnce) {
  const auto dataset = make_dataset(1000);
  MemorySource src{dataset};
  PipelineConfig cfg;
  cfg.shard_flows = 100;
  cfg.jobs = 4;
  std::mutex mu;
  std::vector<std::size_t> seen;
  cfg.on_progress = [&](std::size_t done, std::size_t total) {
    std::lock_guard lk{mu};
    EXPECT_EQ(total, 10u);
    seen.push_back(done);
  };
  (void)run_pipeline(src, cfg);
  ASSERT_EQ(seen.size(), 10u);
  // Completion counts are serialized and strictly increasing 1..total.
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i + 1);
}

// ---------------- early exit (TURBOTEST-style) ----------------

TEST(EarlyExit, OffByDefaultAndResultsUnchanged) {
  ClassifyConfig cfg;
  EXPECT_EQ(cfg.early_exit, EarlyExitPolicy::kOff);
  const auto dataset = make_dataset(2000, 5);
  MemorySource src{dataset};
  PipelineConfig with_default;
  with_default.jobs = 2;
  const auto res = run_pipeline(src, with_default);
  EXPECT_EQ(res.early_exits, 0u);
}

TEST(EarlyExit, SkipsFlatFlowsAndStillCatchesEarlyShifts) {
  mlab::SyntheticConfig scfg;
  Rng rng{123};
  // A flat clean-bulk flow: the screen should exit without a full search.
  auto flat = mlab::generate_record(mlab::FlowArchetype::kBulkClean, scfg, rng, 1);
  flat.access = mlab::AccessType::kCable;
  // A policed flow steps down inside the first quarter of the test — well
  // within the 5 s screen window, so the full search must still run.
  auto stepped = mlab::generate_record(mlab::FlowArchetype::kPoliced, scfg, rng, 2);
  stepped.access = mlab::AccessType::kCable;

  ClassifyConfig cfg;
  cfg.early_exit = EarlyExitPolicy::kFixed;
  const auto f_flat = classify_flow(flat, cfg);
  EXPECT_TRUE(f_flat.early_exited);
  EXPECT_EQ(f_flat.verdict, Verdict::kNoLevelShift);
  // Early exit reads only the screen window, not the whole series.
  EXPECT_LT(f_flat.samples_scanned, flat.throughput_mbps.size());

  const auto f_stepped = classify_flow(stepped, cfg);
  EXPECT_FALSE(f_stepped.early_exited);
  EXPECT_EQ(f_stepped.verdict, Verdict::kContentionSuspect);

  // Without early exit both flows get the full treatment, same verdicts.
  ClassifyConfig full;
  EXPECT_EQ(classify_flow(flat, full).verdict, Verdict::kNoLevelShift);
  EXPECT_EQ(classify_flow(stepped, full).verdict, Verdict::kContentionSuspect);
}

TEST(EarlyExit, ReducesSamplesScannedAtScale) {
  const auto dataset = make_dataset(3000, 9);
  MemorySource src{dataset};
  PipelineConfig full;
  full.jobs = 2;
  PipelineConfig screened = full;
  screened.classify.early_exit = EarlyExitPolicy::kFixed;
  const auto a = run_pipeline(src, full);
  const auto b = run_pipeline(src, screened);
  EXPECT_GT(b.early_exits, 0u);
  EXPECT_LT(b.samples_scanned, a.samples_scanned);
  EXPECT_EQ(b.metrics.counters().at("pipeline.early_exits").value(), b.early_exits);
}

}  // namespace
}  // namespace ccc::pipeline
