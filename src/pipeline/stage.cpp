#include "pipeline/stage.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/error.hpp"

namespace ccc::pipeline {

namespace {

/// Gatekeeper for StageOptions::validate_records: is this FlowView safe to
/// hand to the stages? Two classes of damage get through the shard-level
/// checks (CRC off, an in-memory source fed by a hostile CSV): non-finite
/// scalars that would poison every mean downstream, and out-of-range enum
/// bytes — `truth` indexes the confusion matrix, so an unchecked byte of
/// 200 is an out-of-bounds write, not just a wrong answer.
bool record_is_sane(const store::FlowView& f) {
  if (static_cast<std::uint8_t>(f.access) > static_cast<std::uint8_t>(mlab::AccessType::kSatellite))
    return false;
  if (static_cast<std::uint8_t>(f.truth) > static_cast<std::uint8_t>(mlab::FlowArchetype::kPoliced))
    return false;
  if (!std::isfinite(f.duration_sec) || f.duration_sec < 0.0) return false;
  if (!std::isfinite(f.app_limited_sec) || !std::isfinite(f.rwnd_limited_sec)) return false;
  if (!std::isfinite(f.mean_throughput_mbps) || !std::isfinite(f.min_rtt_ms)) return false;
  if (!std::isfinite(f.snapshot_interval_sec) || f.snapshot_interval_sec <= 0.0) return false;
  return true;
}

/// Bounds for the shift-magnitude histogram. Fixed at registration (and
/// identical across stages) so merges are exact and two runs always bucket
/// identically. Magnitudes live in (min_shift_fraction, 1].
const std::vector<double>& magnitude_bounds() {
  static const std::vector<double> bounds = {0.25, 0.35, 0.45, 0.55, 0.65,
                                             0.75, 0.85, 0.95, 1.0};
  return bounds;
}

}  // namespace

PullResult RangePull::pull(std::vector<store::FlowView>& out, std::size_t max) {
  // Stage the first readahead window lazily on the first pull, then keep
  // exactly one window in flight: every window boundary crossed below hints
  // the next one while this one is being analyzed.
  const std::size_t window = readahead_;
  if (!primed_) {
    primed_ = true;
    if (window > 0) src_.prefetch(begin_, std::min(end_, begin_ + window));
  }
  PullResult r;
  const std::size_t take = std::min(max, end_ - next_);
  for (std::size_t k = 0; k < take; ++k, ++next_) {
    if (window > 0 && (next_ - begin_) % window == 0 && next_ + window < end_) {
      src_.prefetch(next_ + window, std::min(end_, next_ + 2 * window));
    }
    out.push_back(src_.flow(next_));
  }
  r.n = take;
  r.state = next_ < end_ ? StreamState::kReady : StreamState::kEnd;
  return r;
}

void AnalyzeStage::push(const store::FlowView& flow) {
  FlowFinding f;
  const bool sane = analyze(flow, ws_, f);
  fold(flow, sane, f);
}

bool AnalyzeStage::analyze(const store::FlowView& flow, changepoint::ChangepointWorkspace& ws,
                           FlowFinding& finding) const {
  if (opts_.validate_records && !record_is_sane(flow)) return false;
  const Verdict filter = classify_filters(flow, opts_.classify);  // Classify
  if (filter != Verdict::kNoLevelShift) {
    finding.id = flow.id;
    finding.verdict = filter;
    finding.shift_times_sec.clear();
    finding.shift_magnitudes.clear();
    finding.truth = flow.truth;
    finding.early_exited = false;
    finding.samples_scanned = 0;
  } else if (opts_.window_samples == 0) {
    finding = detect_changepoints(flow, opts_.classify, ws);  // Changepoint
  } else {
    finding = detect_changepoints_streamed(flow, opts_.classify, ws, opts_.window_samples);
  }
  return true;
}

void AnalyzeStage::fold(const store::FlowView& flow, bool sane, FlowFinding& finding) {
  ++tallies_.flows_seen;
  if (!sane) {
    if (opts_.strict) {
      throw Error::corruption(
          "", "pipeline: corrupt record at flow index " +
                  std::to_string(opts_.index_offset + tallies_.flows_seen - 1) + " (id " +
                  std::to_string(flow.id) + ")");
    }
    ++tallies_.records_corrupt;
    return;
  }
  // Sink: tally. Plain integer adds; metrics settle at flush().
  const FlowFinding& f = finding;
  auto& t = tallies_;
  const auto v = static_cast<std::size_t>(f.verdict);
  ++t.verdicts[v];
  ++t.confusion[static_cast<std::size_t>(f.truth)][v];
  const bool truly = flow.truth == mlab::FlowArchetype::kBulkContended;
  const bool flagged = f.verdict == Verdict::kContentionSuspect;
  t.tp += static_cast<std::uint64_t>(flagged && truly);
  t.fp += static_cast<std::uint64_t>(flagged && !truly);
  t.fn += static_cast<std::uint64_t>(!flagged && truly);
  t.tn += static_cast<std::uint64_t>(!flagged && !truly);
  t.changepoints += f.shift_times_sec.size();
  t.early_exits += static_cast<std::uint64_t>(f.early_exited);
  t.samples_scanned += f.samples_scanned;
  t.magnitudes.insert(t.magnitudes.end(), f.shift_magnitudes.begin(), f.shift_magnitudes.end());
  if (opts_.keep_findings) t.findings.push_back(std::move(finding));
}

void AnalyzeStage::flush(std::uint64_t /*epoch*/) {
  if (!opts_.enable_telemetry) return;
  const AnalysisTallies& t = tallies_;
  AnalysisTallies& e = exported_;
  auto& reg = metrics_;
  // Deltas since the last flush, as counter increments — so one flush at
  // stream end equals the old one-shot shard export, and an every-epoch
  // flusher converges to the same totals. Registration order is fixed
  // (flows, verdicts, residual, ...) to keep report output deterministic.
  reg.counter("pipeline.flows").inc(t.flows_seen - e.flows_seen);
  for (std::size_t v = 0; v < kVerdictCount; ++v) {
    reg.counter(std::string{"pipeline.verdict."} + std::string{to_string(static_cast<Verdict>(v))})
        .inc(t.verdicts[v] - e.verdicts[v]);
  }
  const auto residual = [](const AnalysisTallies& a) {
    return a.verdicts[static_cast<std::size_t>(Verdict::kNoLevelShift)] +
           a.verdicts[static_cast<std::size_t>(Verdict::kContentionSuspect)];
  };
  reg.counter("pipeline.residual_flows").inc(residual(t) - residual(e));
  reg.counter("pipeline.changepoints").inc(t.changepoints - e.changepoints);
  reg.counter("pipeline.early_exits").inc(t.early_exits - e.early_exits);
  reg.counter("pipeline.samples_scanned").inc(t.samples_scanned - e.samples_scanned);
  reg.counter("store.records_corrupt").inc(t.records_corrupt - e.records_corrupt);
  auto& hist = reg.histogram("pipeline.shift_magnitude", magnitude_bounds());
  for (std::size_t i = magnitudes_exported_; i < t.magnitudes.size(); ++i) {
    hist.observe(t.magnitudes[i]);
  }
  magnitudes_exported_ = t.magnitudes.size();
  // Snapshot the scalar watermarks (the vectors stay with tallies_).
  e.flows_seen = t.flows_seen;
  e.verdicts = t.verdicts;
  e.changepoints = t.changepoints;
  e.early_exits = t.early_exits;
  e.samples_scanned = t.samples_scanned;
  e.records_corrupt = t.records_corrupt;
}

std::size_t drain(PullSource& src, PushStage& stage, std::size_t batch_flows) {
  std::vector<store::FlowView> batch;
  std::size_t pushed = 0;
  for (;;) {
    batch.clear();
    const PullResult r = src.pull(batch, std::max<std::size_t>(1, batch_flows));
    for (std::size_t i = 0; i < r.n; ++i) stage.push(batch[i]);
    pushed += r.n;
    if (r.state != StreamState::kReady) return pushed;
  }
}

}  // namespace ccc::pipeline
