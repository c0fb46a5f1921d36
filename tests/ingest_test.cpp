// Tests for the streaming ingest layer (src/ingest/): spool / CSV-stream /
// socket sources, the daemon loop, shard rotation under crash, and the
// online-vs-offline changepoint agreement pins.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <tuple>

#include "ingest/daemon.hpp"
#include "ingest/report.hpp"
#include "ingest/sources.hpp"
#include "mlab/csv_io.hpp"
#include "mlab/synthetic.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/stage.hpp"
#include "store/flow_store.hpp"
#include "util/error.hpp"

namespace ccc::ingest {
namespace {

namespace fs = std::filesystem;

/// A unique scratch directory, removed recursively on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& stem) {
    static int counter = 0;
    path_ = fs::temp_directory_path() /
            (stem + "." + std::to_string(::getpid()) + "." + std::to_string(counter++));
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] std::string str() const { return path_.string(); }
  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

std::vector<mlab::NdtRecord> make_dataset(std::size_t n, std::uint64_t seed = 7) {
  mlab::SyntheticConfig cfg;
  cfg.n_flows = n;
  Rng rng{seed};
  return mlab::generate_dataset(cfg, rng);
}

std::vector<std::string> write_spool(const TempDir& dir,
                                     const std::vector<mlab::NdtRecord>& dataset,
                                     std::uint64_t flows_per_shard) {
  store::ShardedFlowStoreWriter writer{(dir.path() / "spool.ccfs").string(), flows_per_shard};
  for (const auto& r : dataset) writer.append(r);
  return writer.finish();
}

/// Pulls `src` dry (or up to `limit` flows) and returns the flow ids seen,
/// in stream order.
std::vector<std::uint64_t> drain_ids(pipeline::PullSource& src, std::size_t limit = SIZE_MAX) {
  std::vector<std::uint64_t> ids;
  std::vector<store::FlowView> batch;
  for (;;) {
    batch.clear();
    const auto pr = src.pull(batch, std::min<std::size_t>(97, limit - ids.size()));
    for (const auto& v : batch) ids.push_back(v.id);
    if (ids.size() >= limit) return ids;
    if (pr.state != pipeline::StreamState::kReady) return ids;
  }
}

/// Collects the daemon's rolling aggregate rows.
struct CaptureSink final : telemetry::Sink {
  void meta(const std::string&, std::uint64_t) override {}
  void row(const telemetry::ReportRow& r) override { rows.push_back(r); }
  std::vector<telemetry::ReportRow> rows;
};

std::string file_bytes(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

// ---------- daemon vs offline pipeline ----------

// The tentpole acceptance pin: replaying a corpus through the daemon's
// spool path (early-exit off, full-series window) reproduces the offline
// pipeline's aggregates — and therefore the shared Figure-2 table —
// byte-identically, regardless of epoch cadence.
TEST(IngestDaemon, SpoolReplayMatchesOfflinePipelineByteIdentically) {
  const auto dataset = make_dataset(4000);
  TempDir dir{"ingest_replay"};
  write_spool(dir, dataset, 512);

  pipeline::MemorySource msrc{dataset};
  pipeline::PipelineConfig pcfg;
  pcfg.jobs = 1;
  const auto offline = pipeline::run_pipeline(msrc, pcfg);

  SpoolSource spool{dir.str()};
  IngestConfig dcfg;
  dcfg.epoch_flows = 700;  // deliberately misaligned with shard size
  IngestDaemon daemon{dcfg};
  const auto ires = daemon.run(spool);
  const auto online = daemon.result();

  EXPECT_TRUE(ires.source_ended);
  EXPECT_EQ(online.flows, offline.flows);
  EXPECT_EQ(online.verdicts, offline.verdicts);
  EXPECT_EQ(online.confusion, offline.confusion);
  EXPECT_EQ(online.true_positives, offline.true_positives);
  EXPECT_EQ(online.false_positives, offline.false_positives);
  EXPECT_EQ(online.false_negatives, offline.false_negatives);
  EXPECT_EQ(online.true_negatives, offline.true_negatives);
  EXPECT_EQ(online.changepoints_total, offline.changepoints_total);
  EXPECT_EQ(online.samples_scanned, offline.samples_scanned);

  std::ostringstream off_table;
  std::ostringstream on_table;
  print_passive_aggregates(off_table, offline);
  print_passive_aggregates(on_table, online);
  EXPECT_EQ(on_table.str(), off_table.str());
}

// A window at least as long as every series delegates to the offline
// search: findings are exactly identical, not merely in agreement.
TEST(IngestStage, WindowCoveringSeriesIsExactlyOffline) {
  const auto dataset = make_dataset(1500);

  const auto run = [&](std::size_t window) {
    pipeline::StageOptions so;
    so.keep_findings = true;
    so.enable_telemetry = false;
    so.window_samples = window;
    pipeline::AnalyzeStage stage{std::move(so)};
    const pipeline::MemorySource src{dataset};
    pipeline::RangePull pull{src, 0, dataset.size(), 0};
    pipeline::drain(pull, stage);
    return std::move(stage.tallies());
  };

  const auto offline = run(0);
  const auto windowed = run(1u << 20);  // wider than any synthetic series

  EXPECT_EQ(windowed.samples_scanned, offline.samples_scanned);
  ASSERT_EQ(windowed.findings.size(), offline.findings.size());
  for (std::size_t i = 0; i < offline.findings.size(); ++i) {
    EXPECT_EQ(windowed.findings[i].verdict, offline.findings[i].verdict);
    EXPECT_EQ(windowed.findings[i].shift_times_sec, offline.findings[i].shift_times_sec);
    EXPECT_EQ(windowed.findings[i].shift_magnitudes, offline.findings[i].shift_magnitudes);
  }
}

// A bounded window (the daemon's constant-memory mode) is an approximation;
// this pins how good it has to stay. The filters don't consult the series,
// so filtered verdicts agree exactly; disagreement is confined to the
// no-shift/suspect boundary of long flows whose shifts straddle windows.
TEST(IngestStage, WindowedSearchAgreementRatePin) {
  const auto dataset = make_dataset(3000);

  const auto verdicts_at = [&](std::size_t window) {
    pipeline::StageOptions so;
    so.keep_findings = true;
    so.enable_telemetry = false;
    so.window_samples = window;
    pipeline::AnalyzeStage stage{std::move(so)};
    const pipeline::MemorySource src{dataset};
    pipeline::RangePull pull{src, 0, dataset.size(), 0};
    pipeline::drain(pull, stage);
    std::vector<pipeline::Verdict> out;
    for (const auto& f : stage.tallies().findings) out.push_back(f.verdict);
    return out;
  };

  const auto offline = verdicts_at(0);
  const auto windowed = verdicts_at(64);
  ASSERT_EQ(windowed.size(), offline.size());
  std::size_t agree = 0;
  std::size_t filtered_mismatch = 0;
  for (std::size_t i = 0; i < offline.size(); ++i) {
    if (windowed[i] == offline[i]) ++agree;
    const bool off_filtered = offline[i] != pipeline::Verdict::kNoLevelShift &&
                              offline[i] != pipeline::Verdict::kContentionSuspect;
    const bool win_filtered = windowed[i] != pipeline::Verdict::kNoLevelShift &&
                              windowed[i] != pipeline::Verdict::kContentionSuspect;
    if (off_filtered != win_filtered) ++filtered_mismatch;
  }
  EXPECT_EQ(filtered_mismatch, 0u);
  EXPECT_GE(static_cast<double>(agree) / static_cast<double>(offline.size()), 0.97);
}

// ---------- spool source ----------

TEST(SpoolSource, ReadsShardsInOrderAndReplays) {
  const auto dataset = make_dataset(700);
  TempDir dir{"ingest_spool_order"};
  const auto shards = write_spool(dir, dataset, 256);
  ASSERT_EQ(shards.size(), 3u);

  std::vector<std::uint64_t> want;
  for (const auto& r : dataset) want.push_back(r.id);

  SpoolSource once{dir.str()};
  EXPECT_EQ(drain_ids(once), want);
  EXPECT_EQ(once.stats().shards_opened, 3u);
  EXPECT_EQ(once.stats().passes_done, 1u);

  SpoolOptions twice_opts;
  twice_opts.replay = 2;
  SpoolSource twice{dir.str(), twice_opts};
  auto doubled = want;
  doubled.insert(doubled.end(), want.begin(), want.end());
  EXPECT_EQ(drain_ids(twice), doubled);
  EXPECT_EQ(twice.stats().shards_opened, 6u);
  EXPECT_EQ(twice.stats().passes_done, 2u);
}

TEST(SpoolSource, CorruptShardSkippedInDegradeModeThrownInStrict) {
  const auto dataset = make_dataset(600);
  TempDir dir{"ingest_spool_corrupt"};
  const auto shards = write_spool(dir, dataset, 200);
  ASSERT_EQ(shards.size(), 3u);
  // Tear the middle shard in half.
  fs::resize_file(shards[1], fs::file_size(shards[1]) / 2);

  SpoolSource degrade{dir.str()};
  const auto ids = drain_ids(degrade);
  std::vector<std::uint64_t> want;
  for (std::size_t i = 0; i < 200; ++i) want.push_back(dataset[i].id);
  for (std::size_t i = 400; i < 600; ++i) want.push_back(dataset[i].id);
  EXPECT_EQ(ids, want);
  EXPECT_EQ(degrade.stats().shards_opened, 2u);
  EXPECT_EQ(degrade.stats().shards_skipped, 1u);

  SpoolOptions strict_opts;
  strict_opts.strict = true;
  SpoolSource strict{dir.str(), strict_opts};
  EXPECT_THROW(drain_ids(strict), Error);
}

// The collector handoff: a shard mid-write fails to open and is retried
// (kBlocked), never consumed torn and never skipped; rotate() sealing it is
// what releases it to the consumer. New shards after the initial scan are
// picked up. A follow stream never reports kEnd.
TEST(SpoolSource, FollowModeWaitsForSealedShards) {
  const auto dataset = make_dataset(300);
  TempDir dir{"ingest_spool_follow"};
  SpoolOptions opts;
  opts.follow = true;
  SpoolSource src{dir.str(), opts};
  std::vector<store::FlowView> batch;

  // Empty spool: blocked.
  EXPECT_EQ(src.pull(batch, 10).state, pipeline::StreamState::kBlocked);

  store::ShardedFlowStoreWriter writer{(dir.path() / "spool.ccfs").string(), 1u << 20};
  for (std::size_t i = 0; i < 100; ++i) writer.append(dataset[i]);
  // Shard exists on disk but is unsealed: still blocked, not torn-read.
  EXPECT_EQ(src.pull(batch, 10).state, pipeline::StreamState::kBlocked);
  EXPECT_TRUE(batch.empty());

  ASSERT_TRUE(writer.rotate().has_value());
  EXPECT_EQ(drain_ids(src, 100).size(), 100u);

  for (std::size_t i = 100; i < 300; ++i) writer.append(dataset[i]);
  ASSERT_TRUE(writer.rotate().has_value());
  const auto more = drain_ids(src, 200);
  ASSERT_EQ(more.size(), 200u);
  EXPECT_EQ(more.front(), dataset[100].id);
  EXPECT_EQ(more.back(), dataset[299].id);

  batch.clear();
  EXPECT_EQ(src.pull(batch, 10).state, pipeline::StreamState::kBlocked);
}

// ---------- CSV stream source ----------

TEST(CsvStreamSource, ParsesRowsSkipsHeaderCountsMalformed) {
  const auto dataset = make_dataset(40);
  std::ostringstream wire;
  wire << mlab::csv_header() << "\n";
  for (std::size_t i = 0; i < 20; ++i) mlab::write_csv_record(wire, dataset[i]);
  wire << "this,is,not,a,row\n\n";  // one malformed row, one blank line
  for (std::size_t i = 20; i < 40; ++i) mlab::write_csv_record(wire, dataset[i]);

  std::istringstream in{wire.str()};
  CsvStreamSource src{in};
  std::vector<std::uint64_t> want;
  for (const auto& r : dataset) want.push_back(r.id);
  EXPECT_EQ(drain_ids(src), want);
  EXPECT_EQ(src.stats().rows_parsed, 40u);
  EXPECT_EQ(src.stats().rows_malformed, 1u);

  std::vector<store::FlowView> batch;
  EXPECT_EQ(src.pull(batch, 8).state, pipeline::StreamState::kEnd);
}

// ---------- socket source ----------

TEST(SocketSource, RowsAcrossPartialWritesAndDisconnect) {
  TempDir dir{"ingest_socket"};
  const std::string sock_path = (dir.path() / "ingest.sock").string();
  SocketSource src{sock_path};
  std::vector<store::FlowView> batch;
  EXPECT_EQ(src.pull(batch, 8).state, pipeline::StreamState::kBlocked);

  const auto dataset = make_dataset(3);
  std::ostringstream row0;
  std::ostringstream row1;
  std::ostringstream row2;
  mlab::write_csv_record(row0, dataset[0]);
  mlab::write_csv_record(row1, dataset[1]);
  mlab::write_csv_record(row2, dataset[2]);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(sock_path.size(), sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, sock_path.c_str(), sock_path.size() + 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);

  // Header plus a partial first row: no complete line yet -> blocked.
  const std::string head = std::string{mlab::csv_header()} + "\n";
  const std::string r0 = row0.str();
  ASSERT_EQ(::write(fd, head.data(), head.size()), static_cast<ssize_t>(head.size()));
  ASSERT_EQ(::write(fd, r0.data(), r0.size() / 2), static_cast<ssize_t>(r0.size() / 2));
  batch.clear();
  EXPECT_EQ(src.pull(batch, 8).state, pipeline::StreamState::kBlocked);

  // Rest of row 0 + all of row 1 in one write: two flows.
  const std::string rest = r0.substr(r0.size() / 2) + row1.str();
  ASSERT_EQ(::write(fd, rest.data(), rest.size()), static_cast<ssize_t>(rest.size()));
  batch.clear();
  const auto pr = src.pull(batch, 8);
  ASSERT_EQ(pr.n, 2u);
  EXPECT_EQ(batch[0].id, dataset[0].id);
  EXPECT_EQ(batch[1].id, dataset[1].id);

  // Row 2 without its trailing newline, then disconnect: the tail still
  // counts as a row.
  const std::string r2 = row2.str().substr(0, row2.str().size() - 1);
  ASSERT_EQ(::write(fd, r2.data(), r2.size()), static_cast<ssize_t>(r2.size()));
  ::close(fd);
  batch.clear();
  ASSERT_EQ(src.pull(batch, 8).n, 1u);
  EXPECT_EQ(batch[0].id, dataset[2].id);
  EXPECT_EQ(src.stats().connections, 1u);
  EXPECT_EQ(src.stats().rows_parsed, 3u);

  batch.clear();
  EXPECT_EQ(src.pull(batch, 8).state, pipeline::StreamState::kBlocked);
}

// ---------- rotation & crash safety (the killed-mid-shard guarantee) ----------

TEST(ShardRotation, CrashAfterRotateTearsOnlyTheOpenShard) {
  const auto dataset = make_dataset(250);
  TempDir dir{"ingest_crash"};
  store::ShardedFlowStoreWriter writer{(dir.path() / "out.ccfs").string(), 1u << 20};

  for (std::size_t i = 0; i < 100; ++i) writer.append(dataset[i]);
  const auto first = writer.rotate();
  ASSERT_TRUE(first.has_value());
  for (std::size_t i = 100; i < 200; ++i) writer.append(dataset[i]);
  const auto second = writer.rotate();
  ASSERT_TRUE(second.has_value());
  for (std::size_t i = 200; i < 250; ++i) writer.append(dataset[i]);
  EXPECT_EQ(writer.open_flows(), 50u);

  // SIGKILL stand-in: walk away from the open shard without sealing it.
  writer.abandon();

  // Every rotated shard is CRC-clean and complete.
  ASSERT_EQ(writer.sealed_paths().size(), 2u);
  std::size_t flow = 0;
  for (const auto& path : writer.sealed_paths()) {
    store::FlowStoreReader reader{path};
    ASSERT_EQ(reader.size(), 100u);
    for (std::size_t i = 0; i < reader.size(); ++i) {
      EXPECT_EQ(reader.at(i).id, dataset[flow++].id);
    }
  }
  EXPECT_EQ(flow, 200u);

  // Only the shard that was open at the crash is invalid.
  const auto torn = (dir.path() / "out.00002.ccfs").string();
  ASSERT_TRUE(fs::exists(torn));
  EXPECT_THROW(store::FlowStoreReader{torn}, Error);
}

TEST(ShardRotation, FinishAfterRotateAddsNoEmptyTail) {
  const auto dataset = make_dataset(20);
  TempDir dir{"ingest_rotate_finish"};
  store::ShardedFlowStoreWriter writer{(dir.path() / "out.ccfs").string(), 1u << 20};
  for (const auto& r : dataset) writer.append(r);
  ASSERT_TRUE(writer.rotate().has_value());
  EXPECT_FALSE(writer.rotate().has_value());  // nothing open: no-op

  const auto paths = writer.finish();
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(writer.sealed_paths(), paths);
  store::FlowStoreReader reader{paths[0]};
  EXPECT_EQ(reader.size(), dataset.size());
}

// ---------- daemon epochs, output rewrite, stop conditions ----------

TEST(IngestDaemon, EpochCadenceRotatesExactOutputShards) {
  const auto dataset = make_dataset(1000);
  TempDir in_dir{"ingest_epoch_in"};
  TempDir out_dir{"ingest_epoch_out"};
  write_spool(in_dir, dataset, 1u << 20);

  CaptureSink sink;

  SpoolSource spool{in_dir.str()};
  IngestConfig cfg;
  cfg.epoch_flows = 256;
  cfg.out_store = (out_dir.path() / "rewrite.ccfs").string();
  cfg.out_shard_flows = 1u << 20;  // rotation driven purely by epochs
  cfg.epoch_sink = &sink;
  IngestDaemon daemon{cfg};
  const auto res = daemon.run(spool);

  EXPECT_EQ(res.flows, 1000u);
  EXPECT_EQ(res.epochs, 4u);  // 256 + 256 + 256 + 232
  ASSERT_EQ(res.out_shards.size(), 4u);
  std::size_t flow = 0;
  for (std::size_t s = 0; s < res.out_shards.size(); ++s) {
    store::FlowStoreReader reader{res.out_shards[s]};
    EXPECT_EQ(reader.size(), s + 1 < res.out_shards.size() ? 256u : 232u);
    for (std::size_t i = 0; i < reader.size(); ++i) {
      EXPECT_EQ(reader.at(i).id, dataset[flow++].id);
    }
  }
  EXPECT_EQ(flow, 1000u);

  // Epoch rows are cumulative; the flows series ends at the total.
  std::vector<double> flow_rows;
  for (const auto& r : sink.rows) {
    if (r.scope == "epoch" && r.name == "flows") flow_rows.push_back(r.value);
  }
  ASSERT_EQ(flow_rows.size(), 4u);
  EXPECT_TRUE(std::is_sorted(flow_rows.begin(), flow_rows.end()));
  EXPECT_EQ(flow_rows.back(), 1000.0);
}

TEST(IngestDaemon, MaxFlowsStopsAReplayStream) {
  const auto dataset = make_dataset(400);
  TempDir dir{"ingest_maxflows"};
  write_spool(dir, dataset, 128);

  SpoolOptions opts;
  opts.replay = 1000;  // effectively unbounded without the flow limit
  SpoolSource spool{dir.str(), opts};
  IngestConfig cfg;
  cfg.max_flows = 1000;
  IngestDaemon daemon{cfg};
  const auto res = daemon.run(spool);
  EXPECT_EQ(res.flows, 1000u);
  EXPECT_FALSE(res.source_ended);
  EXPECT_EQ(daemon.result().flows, 1000u);
}

// ---------- analysis workers ----------

// Workers analyze a batch's chunks while the caller writes it; the caller
// folds in pull order, so no output depends on the job count. Epochs are
// misaligned with the input and output shards, and the pulls that epoch
// ends clamp (to 2 flows in the first case, 3 in the second) are smaller
// than the job count.
TEST(IngestDaemon, JobCountMovesNoOutput) {
  const auto dataset = make_dataset(2000);
  TempDir in_dir{"ingest_jobs_in"};
  write_spool(in_dir, dataset, 512);

  struct Case {
    std::uint64_t epoch_flows;
    std::size_t batch_flows;
    std::uint64_t out_shard_flows;
  };
  for (const Case c : {Case{258, 256, 300}, Case{703, 5, 512}}) {
    struct Run {
      pipeline::AnalysisTallies tallies;
      std::string table;
      std::vector<telemetry::ReportRow> rows;
      std::vector<std::string> shard_bytes;
      unsigned jobs;
    };
    const auto run = [&](unsigned jobs) {
      TempDir out_dir{"ingest_jobs_out"};
      CaptureSink sink;
      SpoolSource spool{in_dir.str()};
      IngestConfig cfg;
      cfg.jobs = jobs;
      cfg.epoch_flows = c.epoch_flows;
      cfg.batch_flows = c.batch_flows;
      cfg.out_store = (out_dir.path() / "rewrite.ccfs").string();
      cfg.out_shard_flows = c.out_shard_flows;
      cfg.epoch_sink = &sink;
      IngestDaemon daemon{cfg};
      const auto res = daemon.run(spool);
      Run r{daemon.stage().tallies(), "", std::move(sink.rows), {}, daemon.result().jobs};
      std::ostringstream table;
      print_passive_aggregates(table, daemon.result());
      r.table = table.str();
      for (const auto& shard : res.out_shards) r.shard_bytes.push_back(file_bytes(shard));
      return r;
    };
    const Run serial = run(1);
    const Run parallel = run(4);
    SCOPED_TRACE("epoch_flows " + std::to_string(c.epoch_flows) + ", batch_flows " +
                 std::to_string(c.batch_flows));
    EXPECT_EQ(serial.jobs, 1u);
    EXPECT_EQ(parallel.jobs, 4u);
    const auto& a = serial.tallies;
    const auto& b = parallel.tallies;
    EXPECT_EQ(a.flows_seen, dataset.size());
    EXPECT_EQ(b.flows_seen, a.flows_seen);
    EXPECT_EQ(b.verdicts, a.verdicts);
    EXPECT_EQ(b.confusion, a.confusion);
    EXPECT_EQ(std::tie(b.tp, b.fp, b.fn, b.tn), std::tie(a.tp, a.fp, a.fn, a.tn));
    EXPECT_EQ(b.changepoints, a.changepoints);
    EXPECT_EQ(b.early_exits, a.early_exits);
    EXPECT_EQ(b.samples_scanned, a.samples_scanned);
    EXPECT_EQ(b.records_corrupt, a.records_corrupt);
    EXPECT_EQ(b.magnitudes, a.magnitudes);  // push order, bit for bit
    EXPECT_EQ(parallel.table, serial.table);
    ASSERT_EQ(parallel.rows.size(), serial.rows.size());
    ASSERT_FALSE(serial.rows.empty());
    for (std::size_t i = 0; i < serial.rows.size(); ++i) {
      EXPECT_EQ(parallel.rows[i].scope, serial.rows[i].scope);
      EXPECT_EQ(parallel.rows[i].name, serial.rows[i].name);
      EXPECT_EQ(parallel.rows[i].kind, serial.rows[i].kind);
      EXPECT_EQ(parallel.rows[i].t_sec, serial.rows[i].t_sec);
      EXPECT_EQ(parallel.rows[i].value, serial.rows[i].value);
    }
    ASSERT_GT(serial.shard_bytes.size(), 1u);
    EXPECT_EQ(parallel.shard_bytes, serial.shard_bytes);
  }
}

// Under strict, the first corrupt record in pull order fails the run with
// the same error at any job count, though workers analyze past it.
TEST(IngestDaemon, StrictErrorIsTheSameAtAnyJobCount) {
  auto dataset = make_dataset(1000);
  dataset[300].truth = static_cast<mlab::FlowArchetype>(200);
  dataset[450].mean_throughput_mbps = std::numeric_limits<double>::quiet_NaN();
  const pipeline::MemorySource msrc{dataset};

  const auto error_at = [&](unsigned jobs) {
    pipeline::RangePull src{msrc, 0, dataset.size(), 0};
    IngestConfig cfg;
    cfg.jobs = jobs;
    cfg.stage.strict = true;
    IngestDaemon daemon{cfg};
    try {
      (void)daemon.run(src);
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kCorruption);
      EXPECT_EQ(daemon.stage().tallies().flows_seen, 301u);
      return std::string{e.what()};
    }
    ADD_FAILURE() << "strict daemon accepted a corrupt record at " << jobs << " jobs";
    return std::string{};
  };
  const std::string serial = error_at(1);
  EXPECT_NE(serial.find("flow index 300 (id " + std::to_string(dataset[300].id) + ")"),
            std::string::npos)
      << serial;
  EXPECT_EQ(error_at(4), serial);
}

// ---------- adaptive early exit ----------

// The adaptive policy must actually trade bytes for accuracy: it reads
// strictly fewer series samples than the exhaustive search, exits early on
// a nonzero fraction of flows, and moves the suspect count only marginally.
TEST(IngestStage, AdaptiveEarlyExitTradesBytesForAccuracy) {
  const auto dataset = make_dataset(3000);

  const auto run_policy = [&](pipeline::EarlyExitPolicy policy) {
    pipeline::StageOptions so;
    so.classify.early_exit = policy;
    so.enable_telemetry = false;
    pipeline::AnalyzeStage stage{std::move(so)};
    const pipeline::MemorySource src{dataset};
    pipeline::RangePull pull{src, 0, dataset.size(), 0};
    pipeline::drain(pull, stage);
    return std::move(stage.tallies());
  };

  const auto off = run_policy(pipeline::EarlyExitPolicy::kOff);
  const auto adaptive = run_policy(pipeline::EarlyExitPolicy::kAdaptive);

  EXPECT_EQ(off.early_exits, 0u);
  EXPECT_GT(adaptive.early_exits, 0u);
  EXPECT_LT(adaptive.samples_scanned, off.samples_scanned);

  const auto suspects = [](const pipeline::AnalysisTallies& t) {
    return t.verdicts[static_cast<std::size_t>(pipeline::Verdict::kContentionSuspect)];
  };
  const auto off_s = static_cast<double>(suspects(off));
  const auto ad_s = static_cast<double>(suspects(adaptive));
  // Within 2% of the flow count of each other (measured: well under 1%).
  EXPECT_NEAR(ad_s, off_s, 0.02 * static_cast<double>(dataset.size()));
}

}  // namespace
}  // namespace ccc::ingest
