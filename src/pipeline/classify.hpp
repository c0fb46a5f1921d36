// Classify + Changepoint stages of the passive pipeline — the paper's §3.1
// decision tree as per-flow pure functions over zero-copy FlowViews.
//
//   Classify:    drop app-limited / rwnd-limited / cellular / too-short
//                flows from TCPInfo aggregates alone (no series access —
//                on a columnar store this stage never faults in the
//                throughput pool pages of flows it filters).
//   Changepoint: offline level-shift search on each residual flow's series;
//                a large persistent shift marks it "contention-suspect".
//
// The optional early-exit follows TURBOTEST's observation that most of a
// flow's classification signal arrives early: a cheap CUSUM screen over
// a prefix of the series decides whether the full PELT search (and the
// rest of the series) is worth reading. It is a first-class policy now
// (EarlyExitPolicy): off by default — results are then byte-identical to
// the pre-pipeline analysis; `fixed` screens exactly the first
// `early_exit_window_sec`; `adaptive` keeps reading while the CUSUM
// statistic sits in an uncertain band, trading bytes read against
// accuracy per flow instead of per config. This header is the only home
// of the §3.1 taxonomy; clients call it directly or through the stage API
// (stage.hpp) that run_pipeline and the ingest daemon drive.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "changepoint/workspace.hpp"
#include "mlab/ndt_record.hpp"
#include "store/flow_store.hpp"

namespace ccc::pipeline {

enum class Verdict : std::uint8_t {
  kFilteredAppLimited,
  kFilteredRwndLimited,
  kFilteredCellular,
  kFilteredShort,
  kNoLevelShift,       ///< survived filters; throughput stable
  kContentionSuspect,  ///< survived filters; persistent level shift found
};
inline constexpr std::size_t kVerdictCount = 6;

[[nodiscard]] std::string_view to_string(Verdict v);

/// TURBOTEST-style early exit, promoted from a bool stub (PR 3) to a policy
/// (PR 7). All three policies are per-flow decisions inside the changepoint
/// stage; the classify filters always run.
enum class EarlyExitPolicy : std::uint8_t {
  /// Read and search every residual flow's full series. Byte-identical to
  /// the original offline analysis; the default.
  kOff,
  /// Screen exactly the first `early_exit_window_sec` with a CUSUM; a quiet
  /// prefix skips the full search (PR 3's `early_exit = true`).
  kFixed,
  /// Start from the fixed window but keep extending it while the CUSUM
  /// statistic sits in the uncertain band (early_exit_margin * h, h): very
  /// quiet flows exit at the minimum window, borderline flows buy accuracy
  /// with more bytes, and an alarm (or reaching the end of the series still
  /// uncertain) falls through to the full PELT search.
  kAdaptive,
};

[[nodiscard]] std::string_view to_string(EarlyExitPolicy p);
/// Parses "off" / "fixed" / "adaptive"; returns false on anything else.
[[nodiscard]] bool early_exit_policy_from_string(std::string_view s, EarlyExitPolicy& out);

struct ClassifyConfig {
  /// A flow counts as app-/rwnd-limited when the cumulative limited time
  /// exceeds this many seconds (the paper used "field > 0").
  double app_limited_threshold_sec{0.0};
  double rwnd_limited_threshold_sec{0.0};
  bool exclude_cellular{true};
  /// Flows shorter than this can't show multi-second dynamics.
  double min_duration_sec{2.0};
  /// A level shift counts if adjacent segment means differ by at least this
  /// fraction of the larger mean...
  double min_shift_fraction{0.25};
  /// ...and both segments persist at least this long.
  double min_segment_sec{1.0};
  /// PELT penalty scale (see detect_mean_shifts()).
  double sensitivity{1.0};

  /// TURBOTEST-style early exit (changepoint stage). kOff by default so
  /// results stay byte-identical to the full search; see EarlyExitPolicy.
  EarlyExitPolicy early_exit{EarlyExitPolicy::kOff};
  /// kFixed: the whole screen window. kAdaptive: the minimum window — the
  /// screen extends past it in window-sized steps while undecided.
  double early_exit_window_sec{5.0};
  /// kAdaptive only: the quiet bar, as a fraction of the alarm threshold h.
  /// A flow exits early at a checkpoint only if its peak CUSUM statistic so
  /// far stays below margin * h. Smaller margin = stricter quiet test =
  /// more bytes read and fewer missed late shifts.
  double early_exit_margin{0.5};
};

struct FlowFinding {
  std::uint64_t id{0};
  Verdict verdict{Verdict::kNoLevelShift};
  std::vector<double> shift_times_sec;   ///< accepted change points
  std::vector<double> shift_magnitudes;  ///< |mean_after/mean_before - 1|
  mlab::FlowArchetype truth{};           ///< copied from the record
  bool early_exited{false};              ///< CUSUM screen skipped the search
  std::uint32_t samples_scanned{0};      ///< series samples actually read
};

/// Classify stage alone: the aggregate-only decision tree. Returns one of
/// the kFiltered* verdicts, or kNoLevelShift meaning "residual — hand the
/// flow to the changepoint stage".
[[nodiscard]] Verdict classify_filters(const store::FlowView& flow, const ClassifyConfig& cfg);

/// Changepoint stage alone (precondition: classify_filters said residual).
/// The log series, noise scratch, cost prefixes, and PELT state all come
/// from `ws` — zero heap allocation per flow once the workspace has warmed
/// up. (The FlowFinding's own shift vectors still allocate; they are the
/// output, not scratch.) The throwaway-workspace overload was deleted in
/// PR 7: every caller goes through a workspace (or the AnalyzeStage that
/// owns one) now.
[[nodiscard]] FlowFinding detect_changepoints(const store::FlowView& flow,
                                              const ClassifyConfig& cfg,
                                              changepoint::ChangepointWorkspace& ws);

/// Bounded-memory online variant for the streaming daemon: the same
/// early-exit screen, then windowed PELT over a ring of the most recent
/// `window_samples` log-samples instead of one full-series search. Scratch
/// stays O(window_samples) regardless of series length. window_samples == 0
/// (or >= the series length) delegates to the offline search — results are
/// then byte-identical; smaller windows trade boundary-effect agreement for
/// the memory bound (the agreement suite in tests/ingest_test.cpp pins the
/// rate).
[[nodiscard]] FlowFinding detect_changepoints_streamed(const store::FlowView& flow,
                                                       const ClassifyConfig& cfg,
                                                       changepoint::ChangepointWorkspace& ws,
                                                       std::size_t window_samples);

/// Both stages composed: the per-flow unit of the pipeline (one-off calls;
/// batch consumers construct an AnalyzeStage, which reuses one workspace).
[[nodiscard]] FlowFinding classify_flow(const store::FlowView& flow, const ClassifyConfig& cfg);
[[nodiscard]] FlowFinding classify_flow(const mlab::NdtRecord& rec, const ClassifyConfig& cfg);

}  // namespace ccc::pipeline
