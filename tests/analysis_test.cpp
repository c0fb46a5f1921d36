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

// ---------- Figure 2's claims across seeds ----------

/// EXPERIMENTS.md's Figure 2 claims, checked as predicates on the
/// paper-scale study (9,984 flows through run_pipeline, called as fig2's
/// default path calls it) at eight fixed seeds. Each band is the mean of
/// these seeds when every corpus was one serial mt19937_64 stream, plus or
/// minus five of their standard deviations (rounded outward):
///
///   claim             eight seeds: range     mean     sd       band
///   filtered          0.8348 - 0.8429        0.8391   0.0028   0.825 - 0.854
///   suspect           0.0662 - 0.0800        0.0726   0.0038   0.053 - 0.092
///   precision         0.5686 - 0.6157        0.5886   0.0150   0.513 - 0.664
///   recall            0.7094 - 0.7536        0.7316   0.0157   0.653 - 0.811
///   policed / FPs     1.000 at every seed                      >= 0.95
///
/// The corpus is a fresh sample at every seed, so a band must hold any
/// draw of the same distribution: 64 seeds put the filtered fraction's sd
/// at 0.0035, and the range widened by half its width (an earlier band)
/// failed one seed of a generator with unchanged means. Every false
/// positive was a policed flow at every seed, so that spread has no width;
/// its band leaves room for a few aliased flows of other archetypes while
/// still requiring that policing dominates.
TEST(Fig2Claims, HoldAtEightSeeds) {
  const auto idx = [](auto e) { return static_cast<std::size_t>(e); };
  const auto suspect_v = idx(Verdict::kContentionSuspect);
  for (std::uint64_t seed = 20230601; seed < 20230609; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng{seed};
    const auto ds = mlab::generate_dataset(mlab::SyntheticConfig{}, rng);
    const auto r = pipeline::run_pipeline(
        pipeline::MemorySource{ds}, {.jobs = 0, .keep_findings = true, .enable_telemetry = false});
    const double suspect =
        static_cast<double>(r.verdicts[suspect_v]) / static_cast<double>(r.flows);
    const auto policed_fp = r.confusion[idx(mlab::FlowArchetype::kPoliced)][suspect_v];

    EXPECT_GE(r.filtered_fraction(), 0.825);
    EXPECT_LE(r.filtered_fraction(), 0.854);
    EXPECT_GE(suspect, 0.053);
    EXPECT_LE(suspect, 0.092);
    EXPECT_GE(r.precision(), 0.513);
    EXPECT_LE(r.precision(), 0.664);
    EXPECT_GE(r.recall(), 0.653);
    EXPECT_LE(r.recall(), 0.811);
    ASSERT_GT(r.false_positives, 0u);
    EXPECT_GE(static_cast<double>(policed_fp), 0.95 * static_cast<double>(r.false_positives));
  }
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
