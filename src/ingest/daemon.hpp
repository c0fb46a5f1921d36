// IngestDaemon — the long-running analysis loop behind ccc_ingestd.
//
// The daemon is a thin driver over the shared stage API: it pulls batches
// from any PullSource (spool / stdin / socket), runs every flow through one
// AnalyzeStage (§3.1 classify + bounded-memory changepoint search), and
// optionally re-writes the stream as log-structured ccfs shards. Within a
// batch, runner workers analyze contiguous chunks of flows while the
// calling thread appends the batch to the output store; the caller then
// folds the findings into the stage's tallies in pull order, so every
// output is the same at any job count. All state that grows does so per
// *epoch*, not per flow:
//
//   every epoch_flows flows ->  stage.flush(epoch)   counter deltas exported
//                               writer.rotate()      open shard sealed (CRC
//                                                    valid; a crash can now
//                                                    only tear the next one)
//                               epoch row emitted    rolling aggregates to
//                                                    the report sink
//
// Memory bounds (DESIGN.md "Streaming ingest"): the stage keeps tallies
// (findings stay off), the daemon one reused ChangepointWorkspace per chunk
// and one batch of finding slots, the writer buffers one open shard's
// scalar columns, and the sources hold one shard mapping or one batch of
// records. Nothing scales with stream length, which is what the 10x-replay
// RSS soak pins.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "pipeline/pipeline.hpp"
#include "pipeline/stage.hpp"
#include "store/flow_store.hpp"
#include "telemetry/sink.hpp"

namespace ccc::ingest {

struct IngestConfig {
  /// Stage knobs: classify config (early-exit policy included), changepoint
  /// window, strictness, validation. keep_findings MUST stay false for an
  /// unbounded stream; run() enforces it.
  pipeline::StageOptions stage{};
  /// Epoch length in flows — the flush / rotate / report cadence. 0 means
  /// "one epoch": settle everything only at stream end.
  std::uint64_t epoch_flows{65536};
  /// Base path for re-written ccfs shards ("" = analyze only). Shards seal
  /// at epoch boundaries and at out_shard_flows, whichever comes first.
  std::string out_store;
  std::uint64_t out_shard_flows{65536};
  /// Stop after this many flows (0 = run until the source ends). The replay
  /// and socket modes' exit condition.
  std::uint64_t max_flows{0};
  /// Flows per pull.
  std::size_t batch_flows{256};
  /// Analysis workers; 0 means "resolve from CCC_JOBS, else hardware
  /// concurrency" (runner::resolve_jobs), capped at batch_flows. 1 analyzes
  /// on the calling thread.
  unsigned jobs{0};
  /// Sleep when the source reports kBlocked with nothing delivered.
  std::chrono::milliseconds idle_wait{20};
  /// Polled between batches; return true to stop (signal handlers hook in
  /// here). Optional.
  std::function<bool()> should_stop;
  /// Receives one row group per epoch (scope "epoch<N>": flows, suspects,
  /// changepoints, early exits, samples scanned, corrupt records — the
  /// rolling Figure-2 aggregates). Optional; rows are cumulative so a tail
  /// of the file always has current totals.
  telemetry::Sink* epoch_sink{nullptr};
};

struct IngestResult {
  std::uint64_t flows{0};   ///< flows pushed through the stage
  std::uint64_t epochs{0};  ///< epoch boundaries settled (final one included)
  std::vector<std::string> out_shards;  ///< sealed output shards, append order
  bool source_ended{false};  ///< true: kEnd; false: max_flows / should_stop
};

class IngestDaemon {
 public:
  explicit IngestDaemon(IngestConfig cfg);

  /// Drives `src` until it ends, max_flows is reached, or should_stop says
  /// so. May be called once per daemon.
  IngestResult run(pipeline::PullSource& src);

  [[nodiscard]] const pipeline::AnalyzeStage& stage() const { return stage_; }

  /// The accumulated aggregates in PipelineResult shape — what the shared
  /// Figure-2 printer (ingest::print_passive_aggregates) consumes, so a
  /// daemon replay and offline fig2 print through identical code.
  [[nodiscard]] pipeline::PipelineResult result() const;

  /// The resolved analysis worker count.
  [[nodiscard]] unsigned jobs() const { return jobs_; }

 private:
  void settle_epoch(IngestResult& res);

  IngestConfig cfg_;
  unsigned jobs_;
  pipeline::AnalyzeStage stage_;
  std::unique_ptr<store::ShardedFlowStoreWriter> writer_;
  std::uint64_t epoch_{0};
};

}  // namespace ccc::ingest
