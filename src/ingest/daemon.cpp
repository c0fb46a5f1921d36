#include "ingest/daemon.hpp"

#include <algorithm>
#include <exception>
#include <optional>
#include <thread>

#include "changepoint/workspace.hpp"
#include "runner/experiment_runner.hpp"

namespace ccc::ingest {

namespace {

pipeline::StageOptions bounded(pipeline::StageOptions opts) {
  // A daemon's stream has no end to reserve for: per-flow findings are the
  // one unbounded tally, so the daemon refuses to keep them.
  opts.keep_findings = false;
  return opts;
}

}  // namespace

IngestDaemon::IngestDaemon(IngestConfig cfg)
    : cfg_{std::move(cfg)},
      jobs_{static_cast<unsigned>(std::min<std::size_t>(
          runner::resolve_jobs(cfg_.jobs), std::max<std::size_t>(cfg_.batch_flows, 1)))},
      stage_{bounded(cfg_.stage)} {
  if (!cfg_.out_store.empty()) {
    const auto per_shard = cfg_.out_shard_flows > 0 ? cfg_.out_shard_flows : 65536;
    writer_ = std::make_unique<store::ShardedFlowStoreWriter>(cfg_.out_store, per_shard);
  }
}

void IngestDaemon::settle_epoch(IngestResult& res) {
  ++epoch_;
  stage_.flush(epoch_);
  if (writer_ && writer_->open_flows() > 0) writer_->rotate();
  if (cfg_.epoch_sink != nullptr) {
    const auto& t = stage_.tallies();
    const auto at = static_cast<double>(epoch_);
    const auto emit = [&](const char* name, std::uint64_t v) {
      cfg_.epoch_sink->row({"epoch", name, "gauge", at, static_cast<double>(v)});
    };
    // Cumulative, so tailing the file always shows current totals and the
    // per-epoch delta is one subtraction away.
    emit("flows", t.flows_seen);
    emit("contention_suspects",
         t.verdicts[static_cast<std::size_t>(pipeline::Verdict::kContentionSuspect)]);
    emit("changepoints", t.changepoints);
    emit("early_exits", t.early_exits);
    emit("samples_scanned", t.samples_scanned);
    emit("records_corrupt", t.records_corrupt);
  }
  ++res.epochs;
}

IngestResult IngestDaemon::run(pipeline::PullSource& src) {
  IngestResult res;
  std::vector<store::FlowView> batch;
  // Reused from batch to batch: a finding slot and a sanity flag per flow
  // (chars, not vector<bool>: workers write neighbouring flags), and a
  // workspace per chunk. Chunk c covers flows [c * chunk_flows, ...).
  std::vector<pipeline::FlowFinding> findings;
  std::vector<char> sane;
  std::vector<changepoint::ChangepointWorkspace> workspaces(jobs_);
  std::size_t chunk_flows = 1;
  const auto analyze_chunk = [&](std::size_t c) {
    const std::size_t end = std::min(batch.size(), (c + 1) * chunk_flows);
    for (std::size_t k = c * chunk_flows; k < end; ++k) {
      sane[k] = static_cast<char>(stage_.analyze(batch[k], workspaces[c], findings[k]));
    }
  };
  // One worker loop for the whole run. Its task indices keep counting
  // across batches: a batch's chunks are tasks [first_task, next_task).
  std::size_t first_task = 0;
  std::size_t next_task = 0;
  const std::function<void(std::size_t)> task = [&](std::size_t i) {
    analyze_chunk(i - first_task);
  };
  std::optional<runner::Workers> workers;  // after all its tasks touch: joins first
  if (jobs_ > 1) workers.emplace(task, jobs_, jobs_);

  std::uint64_t since_epoch = 0;
  for (;;) {
    if (cfg_.should_stop && cfg_.should_stop()) break;
    // Clamp each pull to the next epoch / flow-limit boundary so epochs
    // settle at exact flow counts (flush placement never changes tallies,
    // but exact boundaries make shard rotation sizes deterministic).
    std::size_t want = cfg_.batch_flows > 0 ? cfg_.batch_flows : 256;
    if (cfg_.epoch_flows > 0) {
      want = std::min<std::uint64_t>(want, cfg_.epoch_flows - since_epoch);
    }
    if (cfg_.max_flows > 0) {
      want = std::min<std::uint64_t>(want, cfg_.max_flows - res.flows);
    }
    batch.clear();
    const auto pr = src.pull(batch, want);
    const std::size_t n = batch.size();
    if (findings.size() < n) {
      findings.resize(n);
      sane.resize(n);
    }
    chunk_flows = (n + jobs_ - 1) / jobs_;
    const std::size_t chunks = chunk_flows == 0 ? 0 : (n + chunk_flows - 1) / chunk_flows;
    if (workers) {
      first_task = next_task;
      next_task += chunks;
      workers->raise_limit(next_task);
    }
    // The writer sees the raw stream (log-structured capture keeps even
    // records the validator would drop — reprocessing with better code
    // later is the point of keeping the bytes); the stage applies its own
    // validation policy.
    if (writer_) {
      for (const auto& flow : batch) writer_->append(flow);
    }
    if (workers) {
      std::exception_ptr first;
      for (std::size_t i = first_task; i < next_task; ++i) {
        if (auto error = workers->wait_for(i); error && !first) first = std::move(error);
      }
      if (first) std::rethrow_exception(first);
    } else {
      for (std::size_t c = 0; c < chunks; ++c) analyze_chunk(c);
    }
    for (std::size_t k = 0; k < n; ++k) stage_.fold(batch[k], sane[k] != 0, findings[k]);
    res.flows += pr.n;
    since_epoch += pr.n;
    if (cfg_.epoch_flows > 0 && since_epoch >= cfg_.epoch_flows) {
      settle_epoch(res);
      since_epoch = 0;
    }
    if (cfg_.max_flows > 0 && res.flows >= cfg_.max_flows) break;
    if (pr.state == pipeline::StreamState::kEnd) {
      res.source_ended = true;
      break;
    }
    if (pr.state == pipeline::StreamState::kBlocked && pr.n == 0) {
      std::this_thread::sleep_for(cfg_.idle_wait);
    }
  }
  // Settle the tail epoch: any un-flushed flows, or the whole stream when
  // epochs were off / the stream was shorter than one epoch.
  if (since_epoch > 0 || epoch_ == 0) settle_epoch(res);
  if (writer_) res.out_shards = writer_->finish();
  return res;
}

pipeline::PipelineResult IngestDaemon::result() const {
  const auto& t = stage_.tallies();
  pipeline::PipelineResult r;
  r.flows = t.flows_seen;
  r.shards = 1;
  r.jobs = jobs_;
  r.verdicts = t.verdicts;
  r.confusion = t.confusion;
  r.true_positives = t.tp;
  r.false_positives = t.fp;
  r.false_negatives = t.fn;
  r.true_negatives = t.tn;
  r.changepoints_total = t.changepoints;
  r.early_exits = t.early_exits;
  r.samples_scanned = t.samples_scanned;
  r.records_corrupt = t.records_corrupt;
  r.metrics.merge_from(stage_.metrics());
  return r;
}

}  // namespace ccc::ingest
