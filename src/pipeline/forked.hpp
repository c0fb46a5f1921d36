// run_pipeline_forked — the passive pipeline fanned out over PROCESSES
// instead of threads, one task per ccfs shard.
//
// Why processes, when run_pipeline already scales over threads: a
// past-RAM run. The threaded pipeline opens every shard in one address
// space up front (ShardSet), so a dataset larger than memory dies before
// the first flow is analyzed. Here the parent never opens a shard at all:
// each forked child opens ONLY its own shard (windowed-pread readers bound
// even that; see ShardOpenOptions::readahead_flows), analyzes it with
// jobs=1, and ships the aggregate result — a few KB — back over a pipe.
// The child's entire footprint returns to the OS at _exit, so peak RSS is
// O(procs * one shard window), independent of dataset size.
//
// Determinism: the unit of work is the ccfs shard, NOT a procs-dependent
// block, so the decomposition is identical for any --procs count. Child
// results are merged in shard order with exactly the associative folds
// run_pipeline's own ordered reduction uses (sums, histogram merges,
// findings-free), and the serialization is binary-exact for doubles —
// so the merged result is byte-identical for --procs 1 and --procs N.
// procs <= 1 runs the same serialize/merge path inline (no fork), which is
// what makes that claim trivially testable.
//
// Differences from the in-process result, by design:
//   - result.jobs is always 1 (each child is single-threaded).
//   - result.shards counts the children's internal 8192-flow shards, which
//     can differ from one concatenated run's count when ccfs shard sizes
//     are not multiples of shard_flows. Aggregates are unaffected.
//   - cfg.keep_findings is rejected (Error{kConfig}): per-flow findings at
//     past-RAM scale are exactly the memory cost this runner exists to
//     avoid, and shipping them through the pipe would reintroduce it.
//   - cfg.on_progress is ignored: children cannot call into the parent.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "pipeline/pipeline.hpp"
#include "pipeline/shard_set.hpp"

namespace ccc::pipeline {

/// run_pipeline_forked's return value: the merged pipeline result plus the
/// shard-open bookkeeping the parent never saw first-hand (children open
/// the shards under `open_opts`' degradation policy).
struct ForkedRunResult {
  PipelineResult result;
  std::size_t shards_opened{0};
  /// Failures in shard-path order; "store.shards_opened" and
  /// "pipeline.shards_failed" counters are already merged into
  /// result.metrics, mirroring the fig2 in-process bookkeeping.
  std::vector<ShardFailure> failures;
};

/// Analyzes `shard_paths` with up to `procs` forked children, one task per
/// shard. strict open/record failures in a child surface as the child's
/// rendered error wrapped in ccc::Error{kIo}; a child killed mid-shard
/// (OOM, signal) is a typed Error too, never a hang. See the header
/// comment for the determinism contract.
[[nodiscard]] ForkedRunResult run_pipeline_forked(const std::vector<std::string>& shard_paths,
                                                  const PipelineConfig& cfg,
                                                  const ShardOpenOptions& open_opts,
                                                  std::size_t procs);

}  // namespace ccc::pipeline
