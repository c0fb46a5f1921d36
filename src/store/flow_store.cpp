#include "store/flow_store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string_view>

#include "telemetry/metrics.hpp"
#include "util/error.hpp"

namespace ccc::store {

namespace {

std::atomic<std::uint64_t> g_finish_errors_suppressed{0};

// Both reader paths run this whatever verify_crc says: series(i) is a
// subspan (mapped) or a pread (windowed) sized by offset differences, so a
// damaged offsets column must fail at open, not as a read outside the pool.
// Endpoints plus monotonicity bound every interior offset by sample_count.
void check_ts_offsets(const std::string& path, std::span<const std::uint64_t> off,
                      std::uint64_t sample_count) {
  if (off.front() != 0 || off.back() != sample_count) {
    throw Error::corruption(path, "ccfs: ts_offsets endpoints inconsistent");
  }
  for (std::size_t i = 0; i + 1 < off.size(); ++i) {
    if (off[i] > off[i + 1]) throw Error::corruption(path, "ccfs: ts_offsets not monotone");
  }
}

}  // namespace

std::uint64_t finish_errors_suppressed() noexcept {
  return g_finish_errors_suppressed.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------- writer

FlowStoreWriter::FlowStoreWriter(std::string path)
    : path_{std::move(path)},
      file_{faultfs::File::open_trunc(path_)},
      buf_{std::make_unique_for_overwrite<std::uint8_t[]>(kWriteBufferBytes)} {
  Header hdr{};
  std::memcpy(hdr.magic, kHeaderMagic, sizeof hdr.magic);
  hdr.version = kFormatVersion;
  file_.write(&hdr, sizeof hdr);
  pos_ = sizeof hdr;  // header excluded from the CRC (patched at finish)
}

FlowStoreWriter::~FlowStoreWriter() {
  // The destructor must not throw, so finish() errors here have nowhere to
  // go as exceptions — that is silent data loss unless it leaves a trace.
  // Callers that need the error call finish() themselves.
  try {
    finish();
  } catch (const std::exception& e) {
    g_finish_errors_suppressed.fetch_add(1, std::memory_order_relaxed);
    if (metrics_ != nullptr) metrics_->counter("store.finish_errors_suppressed").inc();
    std::fprintf(stderr,
                 "ccfs: WARNING: finish() failed in ~FlowStoreWriter and the error was "
                 "suppressed (call finish() explicitly to observe it): %s\n",
                 e.what());
  } catch (...) {
    g_finish_errors_suppressed.fetch_add(1, std::memory_order_relaxed);
    if (metrics_ != nullptr) metrics_->counter("store.finish_errors_suppressed").inc();
    std::fprintf(stderr,
                 "ccfs: WARNING: finish() failed in ~FlowStoreWriter with an unknown "
                 "error, suppressed (call finish() explicitly to observe it): %s\n",
                 path_.c_str());
  }
}

void FlowStoreWriter::write_crc(const void* data, std::size_t len) {
  // Flush first, so a failed write leaves this call's bytes untaken and the
  // buffered ones still held: the caller sees the error, nothing is dropped.
  if (len > kWriteBufferBytes - buf_len_) flush();
  if (len >= kWriteBufferBytes) {
    put(data, len);  // too large to coalesce: straight to the file
  } else {
    std::memcpy(buf_.get() + buf_len_, data, len);
    buf_len_ += len;
  }
  pos_ += len;
}

void FlowStoreWriter::flush() {
  if (buf_len_ == 0) return;
  put(buf_.get(), buf_len_);
  buf_len_ = 0;
}

void FlowStoreWriter::put(const void* data, std::size_t len) {
  file_.write(data, len);
  crc_.update(data, len);  // only bytes the file accepted enter the CRC
}

void FlowStoreWriter::pad_to_alignment() {
  static constexpr char kZeros[kSectionAlign] = {};
  const std::size_t rem = pos_ % kSectionAlign;
  if (rem != 0) write_crc(kZeros, kSectionAlign - rem);
}

void FlowStoreWriter::append(const FlowView& flow) {
  if (finished_) throw Error::config(path_, "ccfs: append after finish");
  // The series streams through the write buffer; the scalars wait for finish().
  if (!flow.throughput_mbps.empty()) {
    write_crc(flow.throughput_mbps.data(), flow.throughput_mbps.size_bytes());
  }
  sample_count_ += flow.throughput_mbps.size();
  ids_.push_back(flow.id);
  access_.push_back(static_cast<std::uint8_t>(flow.access));
  truth_.push_back(static_cast<std::uint8_t>(flow.truth));
  duration_.push_back(flow.duration_sec);
  app_limited_.push_back(flow.app_limited_sec);
  rwnd_limited_.push_back(flow.rwnd_limited_sec);
  mean_tput_.push_back(flow.mean_throughput_mbps);
  min_rtt_.push_back(flow.min_rtt_ms);
  snap_interval_.push_back(flow.snapshot_interval_sec);
  ts_offsets_.push_back(sample_count_);
}

void FlowStoreWriter::abandon() {
  if (finished_) return;
  finished_ = true;  // suppress the destructor's auto-finish: no footer
  // The write buffer is dropped unwritten, as a killed process would drop it.
  try {
    file_.close_checked();
  } catch (...) {
    // A close error is moot — the file is already known-invalid by design.
  }
}

void FlowStoreWriter::finish() {
  if (finished_) return;
  finished_ = true;

  // The pool lands in writes of its own, before any section is buffered.
  flush();
  std::vector<DirectoryEntry> directory;
  directory.reserve(kSectionCount);
  // The pool section was streamed at [sizeof(Header), here).
  directory.push_back({static_cast<std::uint32_t>(SectionId::kTsPool), 0, sizeof(Header),
                       sample_count_ * sizeof(double)});

  const auto write_section = [&](SectionId id, const void* data, std::uint64_t bytes) {
    pad_to_alignment();
    directory.push_back({static_cast<std::uint32_t>(id), 0, pos_, bytes});
    if (bytes > 0) write_crc(data, bytes);
  };
  const std::uint64_t n = ids_.size();
  write_section(SectionId::kId, ids_.data(), n * sizeof(std::uint64_t));
  write_section(SectionId::kAccess, access_.data(), n);
  write_section(SectionId::kTruth, truth_.data(), n);
  write_section(SectionId::kDuration, duration_.data(), n * sizeof(double));
  write_section(SectionId::kAppLimited, app_limited_.data(), n * sizeof(double));
  write_section(SectionId::kRwndLimited, rwnd_limited_.data(), n * sizeof(double));
  write_section(SectionId::kMeanTput, mean_tput_.data(), n * sizeof(double));
  write_section(SectionId::kMinRtt, min_rtt_.data(), n * sizeof(double));
  write_section(SectionId::kSnapInterval, snap_interval_.data(), n * sizeof(double));
  write_section(SectionId::kTsOffsets, ts_offsets_.data(), (n + 1) * sizeof(std::uint64_t));

  pad_to_alignment();
  const std::uint64_t directory_offset = pos_;
  const auto count = static_cast<std::uint32_t>(directory.size());
  write_crc(&count, sizeof count);
  write_crc(directory.data(), directory.size() * sizeof(DirectoryEntry));
  flush();  // the CRC is complete only once the buffered tail has been written

  Footer footer{};
  footer.directory_offset = directory_offset;
  footer.flow_count = n;
  footer.sample_count = sample_count_;
  footer.crc32 = crc_.value();
  footer.magic = kFooterMagic;
  file_.write(&footer, sizeof footer);

  // Patch the header counts (outside the CRC range by construction).
  Header hdr{};
  std::memcpy(hdr.magic, kHeaderMagic, sizeof hdr.magic);
  hdr.version = kFormatVersion;
  hdr.flow_count = n;
  hdr.sample_count = sample_count_;
  hdr.directory_offset = directory_offset;
  file_.write_at(0, &hdr, sizeof hdr);
  file_.close_checked();
}

// ------------------------------------------------------- sharded writer

ShardedFlowStoreWriter::ShardedFlowStoreWriter(std::string base_path,
                                               std::uint64_t flows_per_shard)
    : base_path_{std::move(base_path)}, flows_per_shard_{flows_per_shard} {
  if (flows_per_shard_ == 0) {
    throw Error::config(base_path_, "ccfs: flows_per_shard must be positive");
  }
}

std::string ShardedFlowStoreWriter::shard_path(std::size_t index) const {
  // base "x.ccfs" -> "x.00000.ccfs"; any other base gets ".00000.ccfs" appended.
  static constexpr std::string_view kExt = ".ccfs";
  std::string stem = base_path_;
  if (stem.size() >= kExt.size() &&
      stem.compare(stem.size() - kExt.size(), kExt.size(), kExt) == 0) {
    stem.resize(stem.size() - kExt.size());
  }
  char idx[16];
  std::snprintf(idx, sizeof idx, ".%05zu", index);
  return stem + idx + std::string{kExt};
}

void ShardedFlowStoreWriter::roll() {
  if (current_) {
    current_->finish();
    sealed_.push_back(current_->path());
  }
  paths_.push_back(shard_path(paths_.size()));
  current_ = std::make_unique<FlowStoreWriter>(paths_.back());
}

void ShardedFlowStoreWriter::append(const FlowView& flow) {
  if (!current_ || current_->flows() >= flows_per_shard_) roll();
  current_->append(flow);
  ++total_flows_;
}

std::optional<std::string> ShardedFlowStoreWriter::rotate() {
  if (!current_) return std::nullopt;
  current_->finish();
  sealed_.push_back(current_->path());
  current_.reset();
  return sealed_.back();
}

std::vector<std::string> ShardedFlowStoreWriter::finish() {
  if (!current_) {
    // After rotate() everything is already sealed — do not fabricate an
    // empty tail shard. Only a zero-append lifetime rolls one so that
    // finish() always has at least one shard to hand back.
    if (!paths_.empty()) return paths_;
    roll();
  }
  current_->finish();
  if (sealed_.empty() || sealed_.back() != current_->path()) {
    sealed_.push_back(current_->path());  // finish() stays idempotent
  }
  return paths_;
}

void ShardedFlowStoreWriter::abandon() {
  if (current_) current_->abandon();
  current_.reset();
}

// ---------------------------------------------------------------- reader

FlowStoreReader::FlowStoreReader(const std::string& path, const ReaderOptions& opts)
    : path_{path} {
  try {
    open_and_validate(path, opts);
  } catch (...) {
    unmap();  // a throwing constructor runs no destructor: release the mapping
    throw;
  }
}

FlowStoreReader::~FlowStoreReader() { unmap(); }

FlowStoreReader::FlowStoreReader(FlowStoreReader&& other) noexcept { *this = std::move(other); }

FlowStoreReader& FlowStoreReader::operator=(FlowStoreReader&& other) noexcept {
  if (this == &other) return *this;
  unmap();
  path_ = std::move(other.path_);
  base_ = other.base_;
  file_bytes_ = other.file_bytes_;
  mapped_ = other.mapped_;
  heap_copy_ = std::move(other.heap_copy_);
  flow_count_ = other.flow_count_;
  sample_count_ = other.sample_count_;
  directory_ = std::move(other.directory_);
  ts_pool_ = other.ts_pool_;
  ids_ = other.ids_;
  access_ = other.access_;
  truth_ = other.truth_;
  duration_ = other.duration_;
  app_limited_ = other.app_limited_;
  rwnd_limited_ = other.rwnd_limited_;
  mean_tput_ = other.mean_tput_;
  min_rtt_ = other.min_rtt_;
  snap_interval_ = other.snap_interval_;
  ts_offsets_ = other.ts_offsets_;
  readahead_flows_ = other.readahead_flows_;
  base_off_ = other.base_off_;
  pool_off_ = other.pool_off_;
  file_ = std::move(other.file_);
  win_buf_ = std::move(other.win_buf_);
  win_prev_ = std::move(other.win_prev_);
  win_first_ = other.win_first_;
  win_last_ = other.win_last_;
  other.base_ = nullptr;
  other.mapped_ = false;
  other.file_bytes_ = 0;
  other.readahead_flows_ = 0;
  other.base_off_ = 0;
  return *this;
}

void FlowStoreReader::willneed(std::size_t first, std::size_t n) const {
  if (!mapped_ || n == 0 || first >= flow_count_) return;
  const std::size_t last = std::min(first + n, flow_count_);
  // The columns are tiny and touched for every flow anyway; the series pool
  // is the bulk of the file and the part a filtered scan skips around in —
  // so that is the range worth staging.
  const std::uint64_t begin_bytes = ts_offsets_[first] * sizeof(double);
  const std::uint64_t end_bytes = ts_offsets_[last] * sizeof(double);
  if (begin_bytes == end_bytes) return;  // all-empty series
  const auto* pool = reinterpret_cast<const std::uint8_t*>(ts_pool_.data());
  const auto addr = reinterpret_cast<std::uintptr_t>(pool + begin_bytes);
  const long page = ::sysconf(_SC_PAGESIZE);
  const auto mask = static_cast<std::uintptr_t>(page > 0 ? page : 4096) - 1;
  const std::uintptr_t aligned = addr & ~mask;  // madvise wants a page start
  const std::size_t len = (end_bytes - begin_bytes) + (addr - aligned);
  (void)::madvise(reinterpret_cast<void*>(aligned), len, MADV_WILLNEED);
}

void FlowStoreReader::unmap() noexcept {
  if (mapped_ && base_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(base_), file_bytes_);
  }
  base_ = nullptr;
  mapped_ = false;
}

const std::uint8_t* FlowStoreReader::section(SectionId id, std::uint64_t expect_bytes) const {
  for (const auto& e : directory_) {
    if (e.id != static_cast<std::uint32_t>(id)) continue;
    if (e.bytes != expect_bytes) {
      throw Error::format(path_, "ccfs: section size mismatch", e.offset);
    }
    if (e.offset % kSectionAlign != 0) {
      throw Error::format(path_, "ccfs: misaligned section", e.offset);
    }
    if (e.offset + e.bytes > file_bytes_) {
      throw Error::format(path_, "ccfs: section out of bounds", e.offset);
    }
    // base_off_ is 0 in mapped mode; in windowed mode base_ holds only the
    // file tail from the first scalar section on (the pool is not resident,
    // and is never requested through here).
    if (e.offset < base_off_) {
      throw Error::format(path_, "ccfs: section not resident", e.offset);
    }
    return base_ + (e.offset - base_off_);
  }
  throw Error::format(path_, "ccfs: missing section");
}

void FlowStoreReader::open_and_validate(const std::string& path, const ReaderOptions& opts) {
  faultfs::File file = faultfs::File::open_read(path);  // throws Error{kIo}
  file_bytes_ = file.size();
  if (file_bytes_ < sizeof(Header) + sizeof(Footer)) {
    throw Error::corruption(path, "ccfs: truncated (shorter than header + footer)",
                            file_bytes_);
  }
  if (opts.sequential) {
    // Widen the kernel's readahead window for the front-to-back scan we are
    // about to do. A hint: ignore refusal (e.g. on filesystems without it).
    (void)::posix_fadvise(file.fd(), 0, 0, POSIX_FADV_SEQUENTIAL);
  }
  if (opts.readahead_flows != 0) {
    open_windowed(std::move(file), opts);
    return;
  }

  // mmap is the fast path, but mapped page reads cannot be intercepted, so
  // faultfs vetoes it when a read-fault plan targets this path — the pread
  // fallback below then exercises the injected faults.
  void* map = MAP_FAILED;
  if (faultfs::mmap_allowed(path)) {
    map = ::mmap(nullptr, file_bytes_, PROT_READ, MAP_PRIVATE, file.fd(), 0);
  }
  if (map != MAP_FAILED) {
    base_ = static_cast<const std::uint8_t*>(map);
    mapped_ = true;
    if (opts.sequential) (void)::madvise(map, file_bytes_, MADV_SEQUENTIAL);
  } else {
    // Fallback: read the whole file onto the heap (same validation path).
    heap_copy_.resize(file_bytes_);
    file.read_exact_at(0, heap_copy_.data(), file_bytes_);
    base_ = heap_copy_.data();
  }

  Header hdr{};
  std::memcpy(&hdr, base_, sizeof hdr);
  if (std::memcmp(hdr.magic, kHeaderMagic, sizeof hdr.magic) != 0) {
    throw Error::format(path, "ccfs: bad magic", 0);
  }
  if (hdr.version != kFormatVersion) {
    throw Error::format(path,
                        "ccfs: unsupported version " + std::to_string(hdr.version),
                        offsetof(Header, version));
  }

  const std::uint64_t footer_off = file_bytes_ - sizeof(Footer);
  Footer footer{};
  std::memcpy(&footer, base_ + footer_off, sizeof footer);
  if (footer.magic != kFooterMagic) {
    throw Error::corruption(path, "ccfs: bad footer magic (torn write?)", footer_off);
  }
  flow_count_ = footer.flow_count;
  sample_count_ = footer.sample_count;
  const std::uint64_t dir_off = footer.directory_offset;
  if (dir_off < sizeof(Header) || dir_off + sizeof(std::uint32_t) > file_bytes_) {
    throw Error::format(path, "ccfs: directory offset out of bounds", footer_off);
  }

  std::uint32_t dir_count = 0;
  std::memcpy(&dir_count, base_ + dir_off, sizeof dir_count);
  const std::uint64_t dir_bytes =
      sizeof(std::uint32_t) + std::uint64_t{dir_count} * sizeof(DirectoryEntry);
  if (dir_count != kSectionCount || dir_off + dir_bytes + sizeof(Footer) != file_bytes_) {
    throw Error::format(path, "ccfs: directory shape mismatch", dir_off);
  }
  directory_.resize(dir_count);
  std::memcpy(directory_.data(), base_ + dir_off + sizeof dir_count,
              dir_count * sizeof(DirectoryEntry));

  if (opts.verify_crc) {
    const std::uint32_t got = crc32(base_ + sizeof(Header),
                                    dir_off + dir_bytes - sizeof(Header));
    if (got != footer.crc32) {
      throw Error::corruption(path, "ccfs: CRC mismatch (corrupt file)", sizeof(Header));
    }
  }

  const std::uint64_t n = flow_count_;
  const auto f64 = [&](SectionId id) {
    return std::span<const double>{
        reinterpret_cast<const double*>(section(id, n * sizeof(double))), n};
  };
  ts_pool_ = std::span<const double>{
      reinterpret_cast<const double*>(section(SectionId::kTsPool, sample_count_ * sizeof(double))),
      sample_count_};
  ids_ = std::span<const std::uint64_t>{
      reinterpret_cast<const std::uint64_t*>(section(SectionId::kId, n * sizeof(std::uint64_t))),
      n};
  access_ = std::span<const std::uint8_t>{section(SectionId::kAccess, n), n};
  truth_ = std::span<const std::uint8_t>{section(SectionId::kTruth, n), n};
  duration_ = f64(SectionId::kDuration);
  app_limited_ = f64(SectionId::kAppLimited);
  rwnd_limited_ = f64(SectionId::kRwndLimited);
  mean_tput_ = f64(SectionId::kMeanTput);
  min_rtt_ = f64(SectionId::kMinRtt);
  snap_interval_ = f64(SectionId::kSnapInterval);
  ts_offsets_ = std::span<const std::uint64_t>{
      reinterpret_cast<const std::uint64_t*>(
          section(SectionId::kTsOffsets, (n + 1) * sizeof(std::uint64_t))),
      n + 1};

  check_ts_offsets(path, ts_offsets_, sample_count_);
}

void FlowStoreReader::open_windowed(faultfs::File file, const ReaderOptions& opts) {
  const std::string& path = path_;
  readahead_flows_ = opts.readahead_flows;

  Header hdr{};
  file.read_exact_at(0, &hdr, sizeof hdr);
  if (std::memcmp(hdr.magic, kHeaderMagic, sizeof hdr.magic) != 0) {
    throw Error::format(path, "ccfs: bad magic", 0);
  }
  if (hdr.version != kFormatVersion) {
    throw Error::format(path, "ccfs: unsupported version " + std::to_string(hdr.version),
                        offsetof(Header, version));
  }

  const std::uint64_t footer_off = file_bytes_ - sizeof(Footer);
  Footer footer{};
  file.read_exact_at(footer_off, &footer, sizeof footer);
  if (footer.magic != kFooterMagic) {
    throw Error::corruption(path, "ccfs: bad footer magic (torn write?)", footer_off);
  }
  flow_count_ = footer.flow_count;
  sample_count_ = footer.sample_count;
  const std::uint64_t dir_off = footer.directory_offset;
  if (dir_off < sizeof(Header) || dir_off + sizeof(std::uint32_t) > file_bytes_) {
    throw Error::format(path, "ccfs: directory offset out of bounds", footer_off);
  }

  std::uint32_t dir_count = 0;
  file.read_exact_at(dir_off, &dir_count, sizeof dir_count);
  const std::uint64_t dir_bytes =
      sizeof(std::uint32_t) + std::uint64_t{dir_count} * sizeof(DirectoryEntry);
  if (dir_count != kSectionCount || dir_off + dir_bytes + sizeof(Footer) != file_bytes_) {
    throw Error::format(path, "ccfs: directory shape mismatch", dir_off);
  }
  directory_.resize(dir_count);
  file.read_exact_at(dir_off + sizeof dir_count, directory_.data(),
                     dir_count * sizeof(DirectoryEntry));

  if (opts.verify_crc) {
    // Streaming CRC: same covered range as the mapped path, fixed memory.
    // The chunk never exceeds the covered bytes, so a small shard allocates
    // only what it reads.
    Crc32 crc;
    std::uint64_t off = sizeof(Header);
    const std::uint64_t end = dir_off + dir_bytes;
    std::vector<std::uint8_t> chunk(
        static_cast<std::size_t>(std::min<std::uint64_t>(std::uint64_t{4} << 20, end - off)));
    while (off < end) {
      const auto len = static_cast<std::size_t>(std::min<std::uint64_t>(chunk.size(), end - off));
      file.read_exact_at(off, chunk.data(), len);
      crc.update(chunk.data(), len);
      off += len;
    }
    if (crc.value() != footer.crc32) {
      throw Error::corruption(path, "ccfs: CRC mismatch (corrupt file)", sizeof(Header));
    }
  }

  // Locate (and bounds-check) the pool section, which stays on disk; only
  // the tail from the first scalar section onward is made resident.
  pool_off_ = 0;
  bool have_pool = false;
  std::uint64_t tail_start = dir_off;
  for (const auto& e : directory_) {
    if (e.offset % kSectionAlign != 0) {
      throw Error::format(path, "ccfs: misaligned section", e.offset);
    }
    if (e.offset + e.bytes > file_bytes_) {
      throw Error::format(path, "ccfs: section out of bounds", e.offset);
    }
    if (e.id == static_cast<std::uint32_t>(SectionId::kTsPool)) {
      if (e.bytes != sample_count_ * sizeof(double)) {
        throw Error::format(path, "ccfs: section size mismatch", e.offset);
      }
      pool_off_ = e.offset;
      have_pool = true;
    } else {
      tail_start = std::min(tail_start, e.offset);
    }
  }
  if (!have_pool) throw Error::format(path, "ccfs: missing section");

  base_off_ = tail_start;
  heap_copy_.resize(static_cast<std::size_t>(file_bytes_ - tail_start));
  file.read_exact_at(tail_start, heap_copy_.data(), heap_copy_.size());
  base_ = heap_copy_.data();
  mapped_ = false;
  file_ = std::move(file);  // kept open: series() preads through it

  const std::uint64_t n = flow_count_;
  const auto f64 = [&](SectionId id) {
    return std::span<const double>{
        reinterpret_cast<const double*>(section(id, n * sizeof(double))), n};
  };
  ids_ = std::span<const std::uint64_t>{
      reinterpret_cast<const std::uint64_t*>(section(SectionId::kId, n * sizeof(std::uint64_t))),
      n};
  access_ = std::span<const std::uint8_t>{section(SectionId::kAccess, n), n};
  truth_ = std::span<const std::uint8_t>{section(SectionId::kTruth, n), n};
  duration_ = f64(SectionId::kDuration);
  app_limited_ = f64(SectionId::kAppLimited);
  rwnd_limited_ = f64(SectionId::kRwndLimited);
  mean_tput_ = f64(SectionId::kMeanTput);
  min_rtt_ = f64(SectionId::kMinRtt);
  snap_interval_ = f64(SectionId::kSnapInterval);
  ts_offsets_ = std::span<const std::uint64_t>{
      reinterpret_cast<const std::uint64_t*>(
          section(SectionId::kTsOffsets, (n + 1) * sizeof(std::uint64_t))),
      n + 1};

  check_ts_offsets(path, ts_offsets_, sample_count_);
}

std::span<const double> FlowStoreReader::windowed_series(std::size_t i) const {
  const std::uint64_t s0 = ts_offsets_[i];
  const std::uint64_t s1 = ts_offsets_[i + 1];
  if (i < win_first_ || i >= win_last_) {
    // Slide the window to start at flow i. A forward scan re-fetches once
    // per readahead_flows_ flows; any other access pattern is still
    // correct, just one pread per excursion.
    const std::size_t last = std::min(i + readahead_flows_, flow_count_);
    const std::uint64_t w1 = ts_offsets_[last];
    // Retire the old window into win_prev_ instead of resizing it in
    // place: spans handed out from it survive this slide, which is what
    // lets a pipeline drain batch straddle a window boundary (the
    // span-validity contract in ReaderOptions).
    std::swap(win_buf_, win_prev_);
    win_buf_.resize(static_cast<std::size_t>(w1 - s0));
    if (w1 > s0) {
      file_.read_exact_at(pool_off_ + s0 * sizeof(double), win_buf_.data(),
                          static_cast<std::size_t>(w1 - s0) * sizeof(double));
    }
    win_first_ = i;
    win_last_ = last;
  }
  const std::uint64_t w0 = ts_offsets_[win_first_];
  return std::span<const double>{win_buf_}.subspan(static_cast<std::size_t>(s0 - w0),
                                                   static_cast<std::size_t>(s1 - s0));
}

}  // namespace ccc::store
