// Tests for the passive pipeline (§3.1) and fairness summaries.
#include <gtest/gtest.h>

#include "analysis/fairness.hpp"
#include "mlab/synthetic.hpp"
#include "pipeline/pipeline.hpp"

namespace ccc::analysis {
namespace {

using pipeline::ClassifyConfig;
using pipeline::Verdict;

mlab::SyntheticConfig cfg_small() {
  mlab::SyntheticConfig cfg;
  cfg.n_flows = 400;
  return cfg;
}

/// The whole study over an in-memory dataset, per-flow findings kept.
pipeline::PipelineResult run_study(const std::vector<mlab::NdtRecord>& ds) {
  return pipeline::run_pipeline(pipeline::MemorySource{ds}, {.jobs = 1, .keep_findings = true});
}

TEST(PassiveStudy, FiltersAppLimitedFlows) {
  Rng rng{1};
  const auto rec = generate_record(mlab::FlowArchetype::kAppLimitedConstant, cfg_small(), rng);
  const auto f = pipeline::classify_flow(rec, ClassifyConfig{});
  EXPECT_EQ(f.verdict, Verdict::kFilteredAppLimited);
}

TEST(PassiveStudy, FiltersRwndLimitedFlows) {
  Rng rng{2};
  const auto rec = generate_record(mlab::FlowArchetype::kRwndLimited, cfg_small(), rng);
  const auto f = pipeline::classify_flow(rec, ClassifyConfig{});
  EXPECT_EQ(f.verdict, Verdict::kFilteredRwndLimited);
}

TEST(PassiveStudy, FiltersShortFlows) {
  Rng rng{3};
  for (int i = 0; i < 20; ++i) {
    const auto rec = generate_record(mlab::FlowArchetype::kShortFlow, cfg_small(), rng);
    const auto f = pipeline::classify_flow(rec, ClassifyConfig{});
    // Short flows are filtered as short (or occasionally as app-limited).
    EXPECT_TRUE(f.verdict == Verdict::kFilteredShort ||
                f.verdict == Verdict::kFilteredAppLimited)
        << pipeline::to_string(f.verdict);
  }
}

TEST(PassiveStudy, FlagsContendedBulkFlows) {
  Rng rng{4};
  int flagged = 0;
  int eligible = 0;
  for (int i = 0; i < 60; ++i) {
    const auto rec = generate_record(mlab::FlowArchetype::kBulkContended, cfg_small(), rng);
    const auto f = pipeline::classify_flow(rec, ClassifyConfig{});
    if (f.verdict == Verdict::kFilteredCellular) continue;
    ++eligible;
    flagged += f.verdict == Verdict::kContentionSuspect;
  }
  ASSERT_GT(eligible, 20);
  EXPECT_GT(static_cast<double>(flagged) / eligible, 0.7);
}

TEST(PassiveStudy, CleanBulkMostlyUnflagged) {
  Rng rng{5};
  int flagged = 0;
  int eligible = 0;
  for (int i = 0; i < 60; ++i) {
    const auto rec = generate_record(mlab::FlowArchetype::kBulkClean, cfg_small(), rng);
    const auto f = pipeline::classify_flow(rec, ClassifyConfig{});
    if (f.verdict == Verdict::kFilteredCellular) continue;
    ++eligible;
    flagged += f.verdict == Verdict::kContentionSuspect;
  }
  ASSERT_GT(eligible, 20);
  EXPECT_LT(static_cast<double>(flagged) / eligible, 0.25);
}

TEST(PassiveStudy, PolicedFlowsAliasAsContention) {
  // The paper's key caveat: passive level-shift detection cannot tell
  // policing from contention. Verify the alias actually happens.
  Rng rng{6};
  int flagged = 0;
  int eligible = 0;
  for (int i = 0; i < 60; ++i) {
    const auto rec = generate_record(mlab::FlowArchetype::kPoliced, cfg_small(), rng);
    const auto f = pipeline::classify_flow(rec, ClassifyConfig{});
    if (f.verdict == Verdict::kFilteredCellular) continue;
    ++eligible;
    flagged += f.verdict == Verdict::kContentionSuspect;
  }
  ASSERT_GT(eligible, 20);
  EXPECT_GT(static_cast<double>(flagged) / eligible, 0.5);
}

TEST(PassiveStudy, CellularExclusionToggle) {
  Rng rng{7};
  mlab::SyntheticConfig scfg = cfg_small();
  scfg.frac_cellular = 1.0;  // everyone cellular
  const auto rec = generate_record(mlab::FlowArchetype::kBulkClean, scfg, rng);
  ClassifyConfig on;
  ClassifyConfig off;
  off.exclude_cellular = false;
  EXPECT_EQ(pipeline::classify_flow(rec, on).verdict, Verdict::kFilteredCellular);
  EXPECT_NE(pipeline::classify_flow(rec, off).verdict, Verdict::kFilteredCellular);
}

TEST(PassiveStudy, FullStudyCountsAddUp) {
  Rng rng{8};
  const auto ds = generate_dataset(cfg_small(), rng);
  const auto report = run_study(ds);
  std::size_t total = 0;
  for (const auto& [v, c] : report.verdict_map()) total += c;
  EXPECT_EQ(total, ds.size());
  EXPECT_EQ(report.findings.size(), ds.size());
  EXPECT_EQ(report.true_positives + report.false_positives + report.false_negatives +
                report.true_negatives,
            ds.size());
}

TEST(PassiveStudy, MajorityFiltered) {
  // The paper's core §3.1 observation: most flows never reach the
  // change-point stage because they are app/rwnd-limited, short, or cellular.
  Rng rng{9};
  const auto ds = generate_dataset(cfg_small(), rng);
  const auto report = run_study(ds);
  EXPECT_GT(report.filtered_fraction(), 0.5);
}

TEST(PassiveStudy, PrecisionBelowOneBecauseOfPolicing) {
  Rng rng{10};
  mlab::SyntheticConfig scfg = cfg_small();
  scfg.n_flows = 2000;
  const auto ds = generate_dataset(scfg, rng);
  const auto report = run_study(ds);
  // There are contended flows and policed flows; the pipeline must catch
  // most contended ones (recall) but its precision suffers from policing.
  EXPECT_GT(report.recall(), 0.6);
  EXPECT_LT(report.precision(), 0.95);
  EXPECT_GT(report.false_positives, 0u);
}

// ---------- fairness ----------

TEST(Fairness, SummaryBasics) {
  const std::vector<double> g{4.0, 4.0, 2.0};
  const auto s = summarize_allocation(g);
  EXPECT_DOUBLE_EQ(s.total_mbps, 10.0);
  EXPECT_DOUBLE_EQ(s.min_share, 2.0);
  EXPECT_DOUBLE_EQ(s.max_share, 4.0);
  EXPECT_DOUBLE_EQ(s.spread_ratio, 2.0);
  EXPECT_NEAR(s.jain, 0.926, 0.01);
}

TEST(Fairness, HarmVector) {
  const std::vector<double> solo{10.0, 10.0};
  const std::vector<double> cont{5.0, 10.0};
  const auto h = harm_vector(solo, cont);
  EXPECT_DOUBLE_EQ(h[0], 0.5);
  EXPECT_DOUBLE_EQ(h[1], 0.0);
}

TEST(Fairness, CountStarved) {
  const std::vector<double> shares{10.0, 10.0, 0.1, 9.9};
  EXPECT_EQ(count_starved(shares, 0.1), 1u);
  EXPECT_EQ(count_starved(shares, 0.0), 0u);
}

}  // namespace
}  // namespace ccc::analysis
