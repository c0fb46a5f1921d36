// The streaming stage interface — one analysis API under the offline
// pipeline (run_pipeline, which fig2 uses at every scale) and the ingest
// daemon.
//
// A long-running service can't be written against "index a FlowSource
// from begin to end": its input has no size(), arrives in bursts, and never
// ends. This header splits the per-record loop into the two halves every
// client composes:
//
//   PullSource  — "give me up to N flows"; reports kBlocked (stream idle,
//                 more may come) and kEnd (exhausted) instead of assuming a
//                 finite index space. RangePull adapts the old indexed
//                 FlowSource (and absorbs its readahead hint logic), so the
//                 offline pipeline is just a RangePull per shard; the ingest
//                 sources (spool / stdin / socket, src/ingest/) are the
//                 unbounded implementations.
//   PushStage   — "here is one flow"; flush(epoch) marks an explicit
//                 epoch/flush boundary (metrics export, shard rotation —
//                 whatever the stage owes the outside world), and
//                 backpressure() tells the driver to stop pulling until the
//                 stage drains. AnalyzeStage is the Classify+Changepoint+
//                 tally stage every client shares.
//
// Determinism contract: AnalyzeStage's tallies depend only on the sequence
// of flows pushed (never on batch sizes, pull timing, or flush placement —
// flush only exports counter deltas). That is what makes the sharded
// pipeline byte-identical at any --jobs and the daemon's wide-window replay
// byte-identical to offline fig2.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "changepoint/workspace.hpp"
#include "pipeline/classify.hpp"
#include "pipeline/source.hpp"
#include "telemetry/metrics.hpp"

namespace ccc::pipeline {

enum class StreamState : std::uint8_t {
  kReady,    ///< more flows are available now — pull again
  kBlocked,  ///< none right now, but the stream is still open (poll later)
  kEnd,      ///< exhausted — no flow will ever follow
};

struct PullResult {
  std::size_t n{0};  ///< flows appended to the batch by this pull
  StreamState state{StreamState::kEnd};
};

/// Where flows come from, stream-shaped. Implementations append up to `max`
/// FlowViews to `out` (which the caller clears or drains between pulls) and
/// say whether more can follow. Views stay valid until the next pull on the
/// same source — long enough to push them through a stage, which is the
/// only thing drivers do with a batch.
class PullSource {
 public:
  virtual ~PullSource() = default;
  virtual PullResult pull(std::vector<store::FlowView>& out, std::size_t max) = 0;
};

/// Adapter: a contiguous index range [begin, end) of an indexed FlowSource
/// as a PullSource. Owns the one-window-ahead readahead hinting that used to
/// live inline in run_pipeline: with `readahead` > 0, the first window is
/// staged up front and each window boundary crossed hints the next one, so
/// cold-cache page faults overlap with analysis. Views stay valid for the
/// backing source's lifetime (both implementations are span/mmap-backed).
class RangePull final : public PullSource {
 public:
  RangePull(const FlowSource& src, std::size_t begin, std::size_t end, std::size_t readahead)
      : src_{src}, begin_{begin}, next_{begin}, end_{end}, readahead_{readahead} {}

  PullResult pull(std::vector<store::FlowView>& out, std::size_t max) override;

 private:
  const FlowSource& src_;
  std::size_t begin_;
  std::size_t next_;
  std::size_t end_;
  std::size_t readahead_;
  bool primed_{false};
};

/// Everything the analysis stage accumulates — the per-shard sink of PR 3,
/// now the unit any client (shard worker, study adapter, daemon epoch) folds
/// from. Plain integer adds in the hot path; no telemetry map lookups.
struct AnalysisTallies {
  /// Every flow pushed, including ones dropped as corrupt. (The verdict
  /// counts exclude dropped records; "pipeline.flows" must not, to match
  /// the shard accounting the jobs-identity tests pin.)
  std::uint64_t flows_seen{0};
  std::array<std::uint64_t, kVerdictCount> verdicts{};
  /// confusion[archetype][verdict] — ground-truth breakdown.
  std::array<std::array<std::uint64_t, kVerdictCount>, 7> confusion{};
  std::uint64_t tp{0};
  std::uint64_t fp{0};
  std::uint64_t fn{0};
  std::uint64_t tn{0};
  std::uint64_t changepoints{0};
  std::uint64_t early_exits{0};
  std::uint64_t samples_scanned{0};
  std::uint64_t records_corrupt{0};
  std::vector<double> magnitudes;  ///< accepted shift magnitudes, push order
  std::vector<FlowFinding> findings;  ///< push order; kept only on request
};

struct StageOptions {
  ClassifyConfig classify{};
  /// Keep the per-flow findings list. Dominant memory cost at scale, and a
  /// daemon must never set it (unbounded growth) — opt-in.
  bool keep_findings{false};
  /// Export counter deltas into the stage's MetricRegistry on flush().
  bool enable_telemetry{true};
  /// Sanity-check records before the stages see them (finite scalars,
  /// in-range enum bytes); failures are counted and skipped...
  bool validate_records{true};
  /// ...or, under strict, thrown as ccc::Error{kCorruption}.
  bool strict{false};
  /// Changepoint search window in samples: 0 = offline full-series PELT;
  /// nonzero = bounded-memory windowed search (detect_changepoints_streamed)
  /// — the daemon's mode, where scratch must not scale with flow length.
  std::size_t window_samples{0};
  /// Added to the stream-local record index in strict error messages, so a
  /// shard worker reports the global flow index.
  std::uint64_t index_offset{0};
};

/// Where flows go, stream-shaped. push() takes exactly one record; flush()
/// marks an epoch boundary at which the stage settles external effects
/// (metric export, shard rotation, report rows). backpressure() = "stop
/// pulling until I drain" — advisory, drivers poll it between batches.
class PushStage {
 public:
  virtual ~PushStage() = default;
  virtual void push(const store::FlowView& flow) = 0;
  virtual void flush(std::uint64_t epoch) = 0;
  [[nodiscard]] virtual bool backpressure() const { return false; }
};

/// The shared analysis stage: validate → Classify (§3.1 filters) →
/// Changepoint (offline or windowed per StageOptions::window_samples) →
/// tally. Owns one ChangepointWorkspace, reused allocation-free across
/// every flow pushed. flush() exports the tallies accrued *since the last
/// flush* as counter increments (plus histogram observes), so one flush at
/// stream end reproduces the old per-shard export exactly and a daemon
/// flushing every epoch accumulates identical totals.
class AnalyzeStage final : public PushStage {
 public:
  explicit AnalyzeStage(StageOptions opts) : opts_{std::move(opts)} {}

  void push(const store::FlowView& flow) override;
  void flush(std::uint64_t epoch) override;

  [[nodiscard]] const AnalysisTallies& tallies() const { return tallies_; }
  [[nodiscard]] AnalysisTallies& tallies() { return tallies_; }
  [[nodiscard]] telemetry::MetricRegistry& metrics() { return metrics_; }
  [[nodiscard]] const telemetry::MetricRegistry& metrics() const { return metrics_; }
  [[nodiscard]] const StageOptions& options() const { return opts_; }
  void reserve_findings(std::size_t n) { tallies_.findings.reserve(n); }

 private:
  StageOptions opts_;
  changepoint::ChangepointWorkspace ws_;
  AnalysisTallies tallies_;
  telemetry::MetricRegistry metrics_;
  // Flush watermarks: scalar values already exported, so flush() can emit
  // deltas without a second accumulation pass in the hot loop.
  AnalysisTallies exported_;
  std::size_t magnitudes_exported_{0};
};

/// drain()'s default batch size. Exposed because ShardSet clamps a
/// windowed reader's window to at least this many flows: an ascending
/// batch no larger than the window slides it at most once, and the
/// double-buffered window keeps spans alive across exactly one slide —
/// together that is the whole span-safety argument for windowed scans.
inline constexpr std::size_t kDrainBatchFlows = 256;

/// Drives a PullSource through a stage until it stops being kReady: pull a
/// batch, push each flow, repeat. Returns the number of flows pushed this
/// call. Finite sources run to kEnd; a kBlocked stream returns control to
/// the caller (which owns the wait/backpressure policy — see IngestDaemon
/// for the polling client). Flush placement is also the caller's: drain()
/// never flushes.
std::size_t drain(PullSource& src, PushStage& stage, std::size_t batch_flows = kDrainBatchFlows);

}  // namespace ccc::pipeline
