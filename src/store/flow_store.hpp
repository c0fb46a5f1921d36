// FlowStoreWriter / FlowStoreReader — ingest and zero-copy scan of ccfs
// files (see format.hpp for the layout and the rationale).
//
// Writer: append-only and streaming. Each append streams the record's
// throughput series to disk through a fixed 64 KiB write buffer and keeps
// only the fixed-width scalar columns (~74 bytes/flow), so ingesting 10^7
// flows needs tens of megabytes of memory, not gigabytes. finish() lays
// down the columns, directory, and CRC footer.
//
// Reader: maps the file read-only and serves columns as spans into the
// mapping — no per-flow allocation, no copy. A FlowView is a handful of
// scalars plus a span over the flow's slice of the series pool; the
// pipeline's filter stages never touch the pool pages of filtered flows,
// which is what makes scans memory-bandwidth- rather than parse-bound.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mlab/ndt_record.hpp"
#include "store/format.hpp"
#include "util/faultfs.hpp"

namespace ccc::telemetry {
class MetricRegistry;
}

namespace ccc::store {

/// Process-wide count of finish() errors swallowed by ~FlowStoreWriter.
/// Nonzero means data was (possibly) lost with no exception to show for it;
/// the destructor also warns on stderr and bumps the writer's bound
/// registry ("store.finish_errors_suppressed") when one was set.
[[nodiscard]] std::uint64_t finish_errors_suppressed() noexcept;

/// A zero-copy view of one stored flow: scalar fields by value (they are
/// copied out of the columns at access time — cheap), the series as a span
/// into the reader's mapping (or into an NdtRecord for in-memory sources).
/// This is the unit the pipeline's stages operate on.
struct FlowView {
  std::uint64_t id{0};
  mlab::AccessType access{mlab::AccessType::kCable};
  mlab::FlowArchetype truth{mlab::FlowArchetype::kBulkClean};
  double duration_sec{0.0};
  double app_limited_sec{0.0};
  double rwnd_limited_sec{0.0};
  double mean_throughput_mbps{0.0};
  double min_rtt_ms{0.0};
  double snapshot_interval_sec{0.1};
  std::span<const double> throughput_mbps;

  [[nodiscard]] static FlowView from_record(const mlab::NdtRecord& rec) {
    return FlowView{rec.id,
                    rec.access,
                    rec.truth,
                    rec.duration_sec,
                    rec.app_limited_sec,
                    rec.rwnd_limited_sec,
                    rec.mean_throughput_mbps,
                    rec.min_rtt_ms,
                    rec.snapshot_interval_sec,
                    rec.throughput_mbps};
  }

  [[nodiscard]] mlab::NdtRecord to_record() const {
    mlab::NdtRecord rec;
    rec.id = id;
    rec.access = access;
    rec.truth = truth;
    rec.duration_sec = duration_sec;
    rec.app_limited_sec = app_limited_sec;
    rec.rwnd_limited_sec = rwnd_limited_sec;
    rec.mean_throughput_mbps = mean_throughput_mbps;
    rec.min_rtt_ms = min_rtt_ms;
    rec.snapshot_interval_sec = snapshot_interval_sec;
    rec.throughput_mbps.assign(throughput_mbps.begin(), throughput_mbps.end());
    return rec;
  }
};

/// Append-only single-file writer. Not thread-safe; one writer per file.
/// Throws ccc::Error (category kIo / kConfig) on failure; all file
/// operations route through faultfs for deterministic fault injection.
class FlowStoreWriter {
 public:
  explicit FlowStoreWriter(std::string path);
  ~FlowStoreWriter();

  FlowStoreWriter(const FlowStoreWriter&) = delete;
  FlowStoreWriter& operator=(const FlowStoreWriter&) = delete;

  void append(const mlab::NdtRecord& rec) { append(FlowView::from_record(rec)); }
  void append(const FlowView& flow);

  /// Writes columns, directory, and footer, then patches the header.
  /// Idempotent. The destructor calls it if the caller forgot — but the
  /// destructor MUST NOT throw, so any finish() error there is reduced to a
  /// stderr warning plus the finish_errors_suppressed() counter (and the
  /// bound registry's "store.finish_errors_suppressed"). Callers that care
  /// whether their data actually landed call finish() explicitly.
  void finish();

  /// Walks away from the file without sealing it: closes the fd, writes no
  /// directory/footer, drops the unflushed write buffer, suppresses the
  /// destructor's auto-finish. What's on disk is whatever buffer flushes
  /// already wrote — a torn shard a reader must reject. This is the
  /// in-process stand-in for SIGKILL, used by the crash-recovery tests; a
  /// daemon never calls it on purpose.
  void abandon();

  /// Optional registry for the destructor's suppressed-error counter. The
  /// registry must outlive the writer.
  void set_metrics(telemetry::MetricRegistry* reg) { metrics_ = reg; }

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::uint64_t flows() const { return ids_.size(); }
  [[nodiscard]] std::uint64_t samples() const { return sample_count_; }

 private:
  /// Everything after the header is coalesced through a buffer of this
  /// size; an append costs a write syscall only when the buffer fills.
  static constexpr std::size_t kWriteBufferBytes = std::size_t{64} << 10;

  /// Appends CRC-covered bytes through the buffer (payloads of a whole
  /// buffer or more go straight to the file after a flush).
  void write_crc(const void* data, std::size_t len);
  /// Writes out the buffered bytes. finish() flushes before the first
  /// section lands and again before the footer.
  void flush();
  /// One file write, then the CRC over exactly the bytes written.
  void put(const void* data, std::size_t len);
  void pad_to_alignment();

  std::string path_;
  faultfs::File file_;
  telemetry::MetricRegistry* metrics_{nullptr};
  bool finished_{false};
  Crc32 crc_;
  std::uint64_t pos_{0};  // logical file offset, buffered bytes included
  std::unique_ptr<std::uint8_t[]> buf_;
  std::size_t buf_len_{0};
  std::uint64_t sample_count_{0};

  // Scalar columns, held until finish() (the series pool streams through buf_).
  std::vector<std::uint64_t> ids_;
  std::vector<std::uint8_t> access_;
  std::vector<std::uint8_t> truth_;
  std::vector<double> duration_;
  std::vector<double> app_limited_;
  std::vector<double> rwnd_limited_;
  std::vector<double> mean_tput_;
  std::vector<double> min_rtt_;
  std::vector<double> snap_interval_;
  std::vector<std::uint64_t> ts_offsets_{0};  // N+1 entries, starts at 0
};

/// Rolls over to a fresh shard file every `flows_per_shard` appends, naming
/// shards base.00000.ccfs, base.00001.ccfs, ... (the ".ccfs" suffix of
/// `base_path` is re-applied after the shard index). The pipeline treats the
/// resulting shard list as one concatenated store (see pipeline::StoreSource).
class ShardedFlowStoreWriter {
 public:
  ShardedFlowStoreWriter(std::string base_path, std::uint64_t flows_per_shard);

  void append(const mlab::NdtRecord& rec) { append(FlowView::from_record(rec)); }
  void append(const FlowView& flow);

  /// Seals the open shard *now* — footer written, CRC valid, safe to hand to
  /// readers — and returns its path; the next append opens a fresh shard.
  /// Returns std::nullopt (and does nothing) when no shard is open. This is
  /// the log-structured rotation point a long-running daemon drives at epoch
  /// boundaries: after rotate() returns, a crash can only tear the *next*
  /// shard, never this one. (PR 3's writer only sealed shards implicitly at
  /// size-triggered rollover or in finish() — unusable from a service that
  /// must bound data-at-risk by time, not just by flow count.)
  std::optional<std::string> rotate();

  /// Finishes the open shard (if any) and returns all shard paths, in
  /// append order. Zero lifetime appends still produce one empty shard, but
  /// finish() directly after rotate() does NOT add a spurious empty tail.
  [[nodiscard]] std::vector<std::string> finish();

  /// Abandons the open shard un-sealed (see FlowStoreWriter::abandon) —
  /// crash simulation for tests. Already-rotated shards are unaffected.
  void abandon();

  [[nodiscard]] std::uint64_t flows() const { return total_flows_; }
  /// Flows appended to the current, not-yet-sealed shard (0 if none open) —
  /// what a rotation policy consults to skip empty-epoch rotations.
  [[nodiscard]] std::uint64_t open_flows() const { return current_ ? current_->flows() : 0; }
  /// Shards sealed so far (rotate() or rollover), excluding the open one.
  [[nodiscard]] const std::vector<std::string>& sealed_paths() const { return sealed_; }

 private:
  [[nodiscard]] std::string shard_path(std::size_t index) const;
  void roll();

  std::string base_path_;
  std::uint64_t flows_per_shard_;
  std::uint64_t total_flows_{0};
  std::vector<std::string> paths_;   // every shard ever created, append order
  std::vector<std::string> sealed_;  // the finished prefix of paths_
  std::unique_ptr<FlowStoreWriter> current_;
};

/// Open-time knobs for FlowStoreReader beyond the ctor's CRC flag.
struct ReaderOptions {
  /// Verify the footer CRC at open (the corruption gate).
  bool verify_crc{true};
  /// Tell the kernel the file will be scanned front to back
  /// (posix_fadvise/madvise SEQUENTIAL), which widens its readahead window.
  /// Purely a hint: refusal is silent and harmless.
  bool sequential{false};
  /// When nonzero, the series pool is never mapped or loaded whole: the
  /// reader keeps the fd open and serves series() from a sliding pread
  /// window of this many flows, re-fetched on the first access outside it.
  /// Scalar columns (a few percent of the file) are still loaded up front,
  /// and verify_crc streams the CRC in fixed-size chunks — so peak memory
  /// is bounded by the columns + one window however large the pool is,
  /// which is what lets a passive run scan datasets bigger than RAM.
  /// Unlike the mmap reader, a windowed reader is NOT safe for concurrent
  /// use: series() mutates the window. One thread (or one forked child)
  /// per reader.
  ///
  /// Span validity: a span returned by series() stays alive until the
  /// SECOND window slide after it (the window is double-buffered, so one
  /// slide retires the previous buffer, the next one reuses it). An
  /// ascending scan whose in-flight batch is no larger than the window
  /// slides at most once per batch, so every span in the batch stays
  /// valid — ShardSet clamps the window to the pipeline's drain batch
  /// size to guarantee exactly that.
  std::size_t readahead_flows{0};
};

/// Read-only, zero-copy view of one ccfs file. The whole file is mapped
/// (falling back to a heap read when mmap is unavailable) and validated:
/// magics, version, directory shape, section bounds, and — unless the
/// caller opts out — the footer CRC and ts_offsets monotonicity. Safe for
/// concurrent reads from any number of threads.
class FlowStoreReader {
 public:
  /// Throws ccc::Error on any failure: kIo when the OS refuses the file,
  /// kFormat when the structure is not a ccfs document, kCorruption when a
  /// once-valid file is provably damaged (CRC mismatch, torn footer,
  /// truncation, non-monotone offsets) — with the byte offset where known.
  explicit FlowStoreReader(const std::string& path, bool verify_crc = true)
      : FlowStoreReader{path, ReaderOptions{verify_crc, false}} {}
  FlowStoreReader(const std::string& path, const ReaderOptions& opts);
  ~FlowStoreReader();

  FlowStoreReader(FlowStoreReader&& other) noexcept;
  FlowStoreReader& operator=(FlowStoreReader&& other) noexcept;
  FlowStoreReader(const FlowStoreReader&) = delete;
  FlowStoreReader& operator=(const FlowStoreReader&) = delete;

  [[nodiscard]] std::size_t size() const { return flow_count_; }
  [[nodiscard]] std::uint64_t samples() const { return sample_count_; }
  [[nodiscard]] const std::string& path() const { return path_; }

  /// Whole-column access (zero-copy).
  [[nodiscard]] std::span<const std::uint64_t> ids() const { return ids_; }
  [[nodiscard]] std::span<const std::uint8_t> access() const { return access_; }
  [[nodiscard]] std::span<const std::uint8_t> truth() const { return truth_; }
  [[nodiscard]] std::span<const double> duration_sec() const { return duration_; }
  [[nodiscard]] std::span<const double> app_limited_sec() const { return app_limited_; }
  [[nodiscard]] std::span<const double> rwnd_limited_sec() const { return rwnd_limited_; }
  [[nodiscard]] std::span<const double> mean_throughput_mbps() const { return mean_tput_; }
  [[nodiscard]] std::span<const double> min_rtt_ms() const { return min_rtt_; }
  [[nodiscard]] std::span<const double> snapshot_interval_sec() const { return snap_interval_; }
  [[nodiscard]] std::span<const std::uint64_t> ts_offsets() const { return ts_offsets_; }

  /// Flow i's throughput series. Mapped mode: a span into the pool mapping,
  /// valid for the reader's lifetime. Windowed mode (readahead_flows != 0):
  /// a span into the sliding window buffer, valid until the second series()
  /// call that slides the window (see ReaderOptions::readahead_flows).
  [[nodiscard]] std::span<const double> series(std::size_t i) const {
    if (readahead_flows_ != 0) return windowed_series(i);
    return ts_pool_.subspan(ts_offsets_[i], ts_offsets_[i + 1] - ts_offsets_[i]);
  }

  /// Zero-copy per-flow view (precondition: i < size()).
  [[nodiscard]] FlowView at(std::size_t i) const {
    return FlowView{ids_[i],
                    static_cast<mlab::AccessType>(access_[i]),
                    static_cast<mlab::FlowArchetype>(truth_[i]),
                    duration_[i],
                    app_limited_[i],
                    rwnd_limited_[i],
                    mean_tput_[i],
                    min_rtt_[i],
                    snap_interval_[i],
                    series(i)};
  }

  /// Materializes flow i as an owning NdtRecord (compat with the CSV path).
  [[nodiscard]] mlab::NdtRecord record(std::size_t i) const { return at(i).to_record(); }

  /// Asks the kernel to stage the series-pool pages of flows
  /// [first, first + n) (madvise WILLNEED over the page-aligned range), so
  /// a scan's page faults overlap with the batch it is currently crunching
  /// instead of stalling it one 4 KiB fault at a time. A hint only: no-op
  /// on the heap fallback, for empty ranges, and when the kernel declines.
  void willneed(std::size_t first, std::size_t n) const;

 private:
  void open_and_validate(const std::string& path, const ReaderOptions& opts);
  void open_windowed(faultfs::File file, const ReaderOptions& opts);
  [[nodiscard]] const std::uint8_t* section(SectionId id, std::uint64_t expect_bytes) const;
  void unmap() noexcept;
  /// Windowed-mode series(): slides the pread window to cover flow i if it
  /// does not already, then returns a span into the window buffer.
  [[nodiscard]] std::span<const double> windowed_series(std::size_t i) const;

  std::string path_;
  const std::uint8_t* base_{nullptr};
  std::size_t file_bytes_{0};
  bool mapped_{false};                   // true: munmap; false: heap buffer
  std::vector<std::uint8_t> heap_copy_;  // mmap fallback / windowed columns
  // Windowed (batched-pread) mode state. base_ points into heap_copy_,
  // which holds only the file tail from the first scalar section on;
  // base_off_ is that tail's file offset (section offsets are absolute).
  std::size_t readahead_flows_{0};  // 0 = mapped mode
  std::uint64_t base_off_{0};
  std::uint64_t pool_off_{0};  // ts_pool section's file offset
  mutable faultfs::File file_; // stays open to serve window fetches
  mutable std::vector<double> win_buf_;
  mutable std::vector<double> win_prev_;  // retired window; keeps spans alive
  mutable std::size_t win_first_{0};
  mutable std::size_t win_last_{0};  // window covers flows [first, last)
  std::size_t flow_count_{0};
  std::uint64_t sample_count_{0};
  std::vector<DirectoryEntry> directory_;

  std::span<const double> ts_pool_;
  std::span<const std::uint64_t> ids_;
  std::span<const std::uint8_t> access_;
  std::span<const std::uint8_t> truth_;
  std::span<const double> duration_;
  std::span<const double> app_limited_;
  std::span<const double> rwnd_limited_;
  std::span<const double> mean_tput_;
  std::span<const double> min_rtt_;
  std::span<const double> snap_interval_;
  std::span<const std::uint64_t> ts_offsets_;
};

}  // namespace ccc::store
