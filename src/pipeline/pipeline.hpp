// run_pipeline — the sharded Source → Classify → Changepoint → Sink driver
// that takes the §3.1 passive study from the paper's 10^4 flows to 10^6+.
//
// The flow index space is cut into contiguous shards of `shard_flows`;
// shards fan out over runner::ExperimentRunner's workers. Each shard owns its
// Sink (counters + its own telemetry::MetricRegistry), so workers share
// nothing; the merge folds shard sinks *in shard index order*, which makes
// every aggregate — verdict counts, confusion matrix, change-point totals,
// histograms, and the findings list — byte-identical for any `--jobs`
// count (the same argument as the experiment sweeps; see DESIGN.md
// "Flow store & passive pipeline").
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "pipeline/classify.hpp"
#include "pipeline/source.hpp"
#include "runner/experiment_runner.hpp"
#include "telemetry/metrics.hpp"

namespace ccc::pipeline {

struct PipelineConfig {
  ClassifyConfig classify{};
  /// Worker threads; 0 resolves via CCC_JOBS / hardware concurrency.
  unsigned jobs{0};
  /// Flows per shard (the unit of fan-out). Small enough to balance load,
  /// large enough that per-shard overhead vanishes.
  std::size_t shard_flows{8192};
  /// Keep the per-flow findings list (dataset order). At millions of flows
  /// this is the dominant memory cost, so it is opt-in; aggregates are
  /// always produced.
  bool keep_findings{false};
  /// Per-shard MetricRegistry instrumentation, merged into the result.
  bool enable_telemetry{true};
  /// Batched readahead window, in flows. When nonzero, each shard worker
  /// hints the source (FlowSource::prefetch → madvise WILLNEED) one window
  /// ahead of the flow it is crunching, so cold-cache page faults overlap
  /// with analysis instead of serializing with it. 0 disables the hints.
  /// Purely a performance knob: results are identical either way.
  std::size_t readahead_flows{0};
  /// Sanity-check every record before the stages see it (finite scalars,
  /// in-range enums — see record_is_sane in pipeline.cpp). A record that
  /// fails is counted ("store.records_corrupt") and skipped — it must not
  /// poison aggregates or index the confusion matrix out of bounds. The
  /// check is a handful of compares per flow, noise next to the stages.
  bool validate_records{true};
  /// Fail fast instead of degrading: a corrupt record throws
  /// ccc::Error{kCorruption} rather than being counted and skipped. (Shard
  /// -level strictness lives in ShardOpenOptions — by the time flows reach
  /// the pipeline the shards are already open.)
  bool strict{false};
  /// Invoked (serialized) after each *shard* completes: (done, total).
  runner::ProgressFn on_progress{};
};

struct PipelineResult {
  std::uint64_t flows{0};
  std::size_t shards{0};
  unsigned jobs{1};

  /// Indexed by Verdict.
  std::array<std::uint64_t, kVerdictCount> verdicts{};
  /// confusion[archetype][verdict] — ground-truth breakdown.
  std::array<std::array<std::uint64_t, kVerdictCount>, 7> confusion{};

  // Scoring of "contention-suspect" against synthetic ground truth.
  std::uint64_t true_positives{0};
  std::uint64_t false_positives{0};
  std::uint64_t false_negatives{0};
  std::uint64_t true_negatives{0};

  std::uint64_t changepoints_total{0};  ///< accepted shifts across all flows
  std::uint64_t early_exits{0};
  std::uint64_t samples_scanned{0};  ///< series samples the changepoint stage read
  /// Records dropped by validate_records (not in verdicts/confusion).
  std::uint64_t records_corrupt{0};

  /// Per-flow findings in dataset order; empty unless cfg.keep_findings.
  std::vector<FlowFinding> findings;
  /// Shard registries merged in shard order (counters + shift-magnitude
  /// histogram); empty unless cfg.enable_telemetry.
  telemetry::MetricRegistry metrics;

  [[nodiscard]] double precision() const;
  [[nodiscard]] double recall() const;
  /// Fraction of flows the filters removed before the change-point stage.
  [[nodiscard]] double filtered_fraction() const;
  /// Verdict counts as a map, zero-count verdicts omitted (the shape the
  /// fig2 table code expects).
  [[nodiscard]] std::map<Verdict, std::size_t> verdict_map() const;
};

[[nodiscard]] PipelineResult run_pipeline(const FlowSource& src, const PipelineConfig& cfg = {});

}  // namespace ccc::pipeline
