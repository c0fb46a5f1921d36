// Robustness suite: the corruption matrix, the faultfs fault-injection
// drills, and the degrade-vs-strict policy tests.
//
// The contract under test (DESIGN.md "Error handling & fault injection"):
// no corrupt or unreadable input may crash, hang, or silently produce a
// wrong answer. Every failure surfaces as a typed ccc::Error (strict) or a
// counted skip (degrade). The corruption matrix earns the "every" in that
// sentence: it byte-flips and truncates each section of a golden ccfs file
// and asserts the reader's verdict for each.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "mlab/synthetic.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/shard_set.hpp"
#include "store/convert.hpp"
#include "store/flow_store.hpp"
#include "store/format.hpp"
#include "telemetry/metrics.hpp"
#include "util/error.hpp"
#include "util/faultfs.hpp"

namespace ccc {
namespace {

namespace fs = std::filesystem;

/// A unique scratch path, removed (with shard siblings) on destruction.
class TempPath {
 public:
  explicit TempPath(const std::string& stem) {
    static int counter = 0;
    path_ = (fs::temp_directory_path() /
             (stem + "." + std::to_string(::getpid()) + "." + std::to_string(counter++)))
                .string();
  }
  ~TempPath() {
    std::error_code ec;
    for (const auto& e : fs::directory_iterator(fs::path(path_).parent_path(), ec)) {
      const auto name = e.path().filename().string();
      if (name.rfind(fs::path(path_).filename().string(), 0) == 0) fs::remove(e.path(), ec);
    }
  }
  [[nodiscard]] const std::string& str() const { return path_; }

 private:
  std::string path_;
};

/// Restores the no-fault state even when an assertion bails out of a test.
struct PlanGuard {
  explicit PlanGuard(faultfs::FaultKind kind, std::uint64_t at_op,
                     std::string path_substr = {}) {
    faultfs::set_plan({kind, at_op, std::move(path_substr)});
  }
  ~PlanGuard() { faultfs::clear_plan(); }
};

std::vector<mlab::NdtRecord> make_dataset(std::size_t n, std::uint64_t seed = 7) {
  mlab::SyntheticConfig cfg;
  cfg.n_flows = n;
  Rng rng{seed};
  return mlab::generate_dataset(cfg, rng);
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream f{path, std::ios::binary};
  return {std::istreambuf_iterator<char>{f}, std::istreambuf_iterator<char>{}};
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream f{path, std::ios::binary | std::ios::trunc};
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
}

/// Opens `path` expecting a typed failure; returns the Error's category.
/// ADD_FAILUREs (rather than crashing the binary) if no ccc::Error comes out.
ErrorCategory category_of_open_failure(const std::string& path, const std::string& what_case) {
  try {
    store::FlowStoreReader r{path};
    ADD_FAILURE() << what_case << ": reader accepted a damaged file";
  } catch (const Error& e) {
    return e.category();
  } catch (const std::exception& e) {
    ADD_FAILURE() << what_case << ": untyped exception escaped: " << e.what();
  }
  return ErrorCategory::kConfig;  // sentinel no valid case maps to
}

// ---------------------------------------------------------------- ccc::Error

TEST(Error, RendersCategoryPathAndOffset) {
  const Error e = Error::corruption("/data/x.ccfs", "crc mismatch", 64);
  EXPECT_EQ(e.category(), ErrorCategory::kCorruption);
  EXPECT_EQ(e.path(), "/data/x.ccfs");
  EXPECT_EQ(e.detail(), "crc mismatch");
  EXPECT_TRUE(e.has_byte_offset());
  EXPECT_EQ(e.byte_offset(), 64u);
  EXPECT_STREQ(e.what(), "[corruption] /data/x.ccfs: crc mismatch (byte offset 64)");
}

TEST(Error, OffsetlessAndPathlessFormsRenderClean) {
  const Error e = Error::config("", "bad flag");
  EXPECT_FALSE(e.has_byte_offset());
  EXPECT_STREQ(e.what(), "[config] bad flag");
}

TEST(Error, IsCatchableAsRuntimeError) {
  // The whole refactor leans on this: pre-existing EXPECT_THROW(...,
  // std::runtime_error) sites must keep passing.
  EXPECT_THROW(throw Error::io("f", "x"), std::runtime_error);
}

// ------------------------------------------------------- the corruption matrix

TEST(CorruptionMatrix, ByteFlipInEverySectionIsDetected) {
  TempPath golden{"robust_matrix.ccfs"};
  store::write_store(golden.str(), make_dataset(64));
  const std::vector<std::uint8_t> pristine = read_file(golden.str());
  ASSERT_GE(pristine.size(), sizeof(store::Header) + sizeof(store::Footer));

  store::Footer footer{};
  std::memcpy(&footer, pristine.data() + pristine.size() - sizeof footer, sizeof footer);
  ASSERT_EQ(footer.magic, store::kFooterMagic);

  // Flip targets: one byte inside every directory-listed section, plus the
  // header magic, the header version, the directory itself, and the footer.
  struct Target {
    std::string name;
    std::size_t offset;
  };
  std::vector<Target> targets{
      {"header.magic", 0},
      {"header.version", offsetof(store::Header, version)},
      {"directory", static_cast<std::size_t>(footer.directory_offset) + 8},
      {"footer.magic", pristine.size() - 4},
      {"footer.crc", pristine.size() - 8},
  };
  // On disk the directory section is a u32 entry count followed by the
  // packed entries; copy them out (the count makes them 4-byte aligned).
  std::vector<store::DirectoryEntry> dir(store::kSectionCount);
  std::memcpy(dir.data(),
              pristine.data() + footer.directory_offset + sizeof(std::uint32_t),
              store::kSectionCount * sizeof(store::DirectoryEntry));
  for (std::size_t s = 0; s < store::kSectionCount; ++s) {
    if (dir[s].bytes == 0) continue;  // nothing to flip (all series empty)
    targets.push_back({"section." + std::to_string(dir[s].id),
                       static_cast<std::size_t>(dir[s].offset + dir[s].bytes / 2)});
  }

  TempPath mutant{"robust_matrix_mut.ccfs"};
  for (const auto& t : targets) {
    ASSERT_LT(t.offset, pristine.size()) << t.name;
    auto bytes = pristine;
    bytes[t.offset] ^= 0x40;
    write_file(mutant.str(), bytes);
    const ErrorCategory cat = category_of_open_failure(mutant.str(), "flip " + t.name);
    // A flip is never an OS failure and never the caller's fault; which of
    // format/corruption it is depends on what the byte broke.
    EXPECT_TRUE(cat == ErrorCategory::kFormat || cat == ErrorCategory::kCorruption)
        << "flip " << t.name << " produced category " << to_string(cat);
  }

  // Flips confined to CRC-covered payload (pool/columns/offsets) must be
  // called corruption specifically — the document was valid and now is not.
  for (std::size_t s = 0; s < store::kSectionCount; ++s) {
    if (dir[s].bytes == 0) continue;
    auto bytes = pristine;
    bytes[dir[s].offset + dir[s].bytes / 2] ^= 0x01;
    write_file(mutant.str(), bytes);
    EXPECT_EQ(category_of_open_failure(mutant.str(), "payload flip"),
              ErrorCategory::kCorruption)
        << "section " << dir[s].id;
  }
}

TEST(CorruptionMatrix, TruncationAtEveryBoundaryIsDetected) {
  TempPath golden{"robust_trunc.ccfs"};
  store::write_store(golden.str(), make_dataset(64));
  const std::vector<std::uint8_t> pristine = read_file(golden.str());

  store::Footer footer{};
  std::memcpy(&footer, pristine.data() + pristine.size() - sizeof footer, sizeof footer);

  const std::vector<std::size_t> cuts{
      0,                                                  // empty file
      10,                                                 // inside the header
      sizeof(store::Header),                              // header only
      sizeof(store::Header) + 1,                          // one pool byte
      static_cast<std::size_t>(footer.directory_offset),  // directory gone
      pristine.size() - sizeof(store::Footer),            // footer gone
      pristine.size() - 1,                                // last byte gone
  };
  TempPath mutant{"robust_trunc_mut.ccfs"};
  for (const std::size_t cut : cuts) {
    auto bytes = pristine;
    bytes.resize(cut);
    write_file(mutant.str(), bytes);
    const ErrorCategory cat =
        category_of_open_failure(mutant.str(), "truncate to " + std::to_string(cut));
    EXPECT_TRUE(cat == ErrorCategory::kFormat || cat == ErrorCategory::kCorruption)
        << "truncate to " << cut << " produced category " << to_string(cat);
  }
}

TEST(CorruptionMatrix, VerifyCrcOffStillRejectsStructuralDamage) {
  TempPath golden{"robust_nocrc.ccfs"};
  store::write_store(golden.str(), make_dataset(16));
  auto bytes = read_file(golden.str());
  bytes[0] ^= 0x40;  // header magic: structural, not CRC-covered
  write_file(golden.str(), bytes);
  EXPECT_THROW((store::FlowStoreReader{golden.str(), /*verify_crc=*/false}), Error);
}

/// Writes `dataset` to `path` with ts_offsets[1] raised past ts_offsets[2]:
/// the endpoints still match the footer, so only the monotone check sees it.
void write_with_non_monotone_offsets(const std::string& path,
                                     const std::vector<mlab::NdtRecord>& dataset) {
  store::write_store(path, dataset);
  auto bytes = read_file(path);
  store::Footer footer{};
  std::memcpy(&footer, bytes.data() + bytes.size() - sizeof footer, sizeof footer);
  std::vector<store::DirectoryEntry> dir(store::kSectionCount);
  std::memcpy(dir.data(), bytes.data() + footer.directory_offset + sizeof(std::uint32_t),
              store::kSectionCount * sizeof(store::DirectoryEntry));
  const auto& offsets = dir[static_cast<std::size_t>(store::SectionId::kTsOffsets)];
  ASSERT_EQ(offsets.id, static_cast<std::uint32_t>(store::SectionId::kTsOffsets));
  ASSERT_GE(offsets.bytes, 4 * sizeof(std::uint64_t));
  // Past the pool's end: a reader that trusted it would map past the pool.
  const std::uint64_t wild = footer.sample_count + 1000;
  std::memcpy(bytes.data() + offsets.offset + sizeof(std::uint64_t), &wild, sizeof wild);
  write_file(path, bytes);
}

TEST(CorruptionMatrix, VerifyCrcOffStillRejectsNonMonotoneOffsetsMapped) {
  TempPath p{"robust_nocrc_offsets_mapped.ccfs"};
  write_with_non_monotone_offsets(p.str(), make_dataset(16));
  try {
    store::FlowStoreReader r{p.str(), store::ReaderOptions{.verify_crc = false}};
    FAIL() << "mapped reader accepted non-monotone ts_offsets";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kCorruption) << e.what();
  }
}

TEST(CorruptionMatrix, VerifyCrcOffStillRejectsNonMonotoneOffsetsWindowed) {
  TempPath p{"robust_nocrc_offsets_windowed.ccfs"};
  write_with_non_monotone_offsets(p.str(), make_dataset(16));
  try {
    store::FlowStoreReader r{p.str(),
                             store::ReaderOptions{.verify_crc = false, .readahead_flows = 4}};
    FAIL() << "windowed reader accepted non-monotone ts_offsets";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kCorruption) << e.what();
  }
}

// --------------------------------------------------- degrade vs strict policy

TEST(ShardSet, DegradeSkipsCorruptShardAndCounts) {
  TempPath good{"robust_good.ccfs"};
  TempPath bad{"robust_bad.ccfs"};
  const auto dataset = make_dataset(128);
  store::write_store(good.str(), dataset);
  store::write_store(bad.str(), dataset);
  auto bytes = read_file(bad.str());
  bytes[bytes.size() / 2] ^= 0x40;
  write_file(bad.str(), bytes);

  telemetry::MetricRegistry reg;
  const auto shards =
      pipeline::ShardSet::open({bad.str(), good.str()}, {.strict = false}, &reg);
  EXPECT_EQ(shards.shards_opened(), 1u);
  EXPECT_EQ(shards.flows(), dataset.size());
  ASSERT_EQ(shards.failures().size(), 1u);
  EXPECT_EQ(shards.failures()[0].path, bad.str());
  EXPECT_EQ(shards.failures()[0].category, ErrorCategory::kCorruption);
  EXPECT_EQ(reg.counter("pipeline.shards_failed").value(), 1u);
  EXPECT_EQ(reg.counter("store.shards_opened").value(), 1u);

  // The degraded run proceeds on the surviving shard and yields sane totals.
  const auto res = pipeline::run_pipeline(shards.source(), {});
  EXPECT_EQ(res.flows, dataset.size());
}

TEST(ShardSet, StrictRethrowsTheTypedError) {
  TempPath bad{"robust_strict.ccfs"};
  store::write_store(bad.str(), make_dataset(32));
  auto bytes = read_file(bad.str());
  bytes[bytes.size() / 2] ^= 0x40;
  write_file(bad.str(), bytes);

  try {
    const auto shards = pipeline::ShardSet::open({bad.str()}, {.strict = true});
    FAIL() << "strict open accepted a corrupt shard";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kCorruption);
  }
}

TEST(ShardSet, MissingFileIsAnIoFailure) {
  telemetry::MetricRegistry reg;
  const auto shards =
      pipeline::ShardSet::open({"/nonexistent/robust.ccfs"}, {.strict = false}, &reg);
  EXPECT_EQ(shards.shards_opened(), 0u);
  ASSERT_EQ(shards.failures().size(), 1u);
  EXPECT_EQ(shards.failures()[0].category, ErrorCategory::kIo);
  EXPECT_EQ(reg.counter("pipeline.shards_failed").value(), 1u);
}

// ----------------------------------------------- pipeline record validation

TEST(PipelineValidation, CorruptEnumByteIsCountedNotCrashed) {
  auto dataset = make_dataset(50);
  // A truth byte of 200 would index the 7-row confusion matrix out of
  // bounds if it reached the sink; validation must stop it at the source.
  dataset[10].truth = static_cast<mlab::FlowArchetype>(200);
  dataset[20].access = static_cast<mlab::AccessType>(99);
  dataset[30].mean_throughput_mbps = std::numeric_limits<double>::quiet_NaN();
  const pipeline::MemorySource src{dataset};

  const auto res = pipeline::run_pipeline(src, {});
  EXPECT_EQ(res.records_corrupt, 3u);
  EXPECT_EQ(res.metrics.counters().at("store.records_corrupt").value(), 3u);
  std::uint64_t classified = 0;
  for (const auto v : res.verdicts) classified += v;
  EXPECT_EQ(classified, dataset.size() - 3);
}

TEST(PipelineValidation, StrictThrowsTypedCorruption) {
  auto dataset = make_dataset(20);
  dataset[5].truth = static_cast<mlab::FlowArchetype>(200);
  const pipeline::MemorySource src{dataset};
  pipeline::PipelineConfig cfg;
  cfg.strict = true;
  try {
    (void)pipeline::run_pipeline(src, cfg);
    FAIL() << "strict pipeline accepted a corrupt record";
  } catch (const Error& e) {
    // The typed error crosses the worker pool (runner rethrows via
    // exception_ptr), category intact.
    EXPECT_EQ(e.category(), ErrorCategory::kCorruption);
  }
}

TEST(PipelineValidation, OptOutRestoresOldBehaviourForSaneData) {
  const auto dataset = make_dataset(64);
  const pipeline::MemorySource src{dataset};
  pipeline::PipelineConfig cfg;
  cfg.validate_records = false;
  const auto res = pipeline::run_pipeline(src, cfg);
  EXPECT_EQ(res.records_corrupt, 0u);
  EXPECT_EQ(res.flows, dataset.size());
}

// ------------------------------------------------------------ faultfs drills

TEST(FaultFs, EintrOnWriteAndReadIsTransparent) {
  TempPath p{"robust_eintr.ccfs"};
  const auto dataset = make_dataset(40);
  {
    PlanGuard plan{faultfs::FaultKind::kEintr, 2, fs::path(p.str()).filename().string()};
    store::write_store(p.str(), dataset);
    EXPECT_GT(faultfs::faults_injected(), 0u) << "fault plan never fired (vacuous test)";
  }
  {
    PlanGuard plan{faultfs::FaultKind::kEintr, 0, fs::path(p.str()).filename().string()};
    store::FlowStoreReader r{p.str()};
    EXPECT_EQ(r.size(), dataset.size());
    EXPECT_GT(faultfs::faults_injected(), 0u);
  }
}

TEST(FaultFs, ShortReadIsTransparent) {
  TempPath p{"robust_short.ccfs"};
  const auto dataset = make_dataset(40);
  store::write_store(p.str(), dataset);
  PlanGuard plan{faultfs::FaultKind::kShortRead, 0, fs::path(p.str()).filename().string()};
  // The plan targets reads on this path, so the reader must bypass mmap and
  // route through pread — where the retry loop absorbs the short read.
  EXPECT_FALSE(faultfs::mmap_allowed(p.str()));
  store::FlowStoreReader r{p.str()};
  EXPECT_EQ(r.size(), dataset.size());
  EXPECT_EQ(r.at(0).id, dataset[0].id);
  EXPECT_GT(faultfs::faults_injected(), 0u);
}

TEST(FaultFs, FlippedReadByteIsCaughtAsCorruption) {
  TempPath p{"robust_flip.ccfs"};
  store::write_store(p.str(), make_dataset(40));
  PlanGuard plan{faultfs::FaultKind::kFlipByte, 0, fs::path(p.str()).filename().string()};
  try {
    store::FlowStoreReader r{p.str()};
    FAIL() << "reader accepted a byte flipped in transit";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kCorruption);
  }
  EXPECT_GT(faultfs::faults_injected(), 0u);
}

TEST(FaultFs, FailedOpenIsAnIoError) {
  TempPath p{"robust_failopen.ccfs"};
  store::write_store(p.str(), make_dataset(8));
  PlanGuard plan{faultfs::FaultKind::kFailOpen, 0, fs::path(p.str()).filename().string()};
  try {
    store::FlowStoreReader r{p.str()};
    FAIL() << "open should have been denied";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kIo);
    EXPECT_EQ(e.path(), p.str());
  }
}

TEST(FaultFs, FailedWriteSurfacesAsIoFromTheWriter) {
  TempPath p{"robust_failwrite.ccfs"};
  // Write 0 is the header; 8 flows fit the writer's buffer, so write 1 is
  // finish()'s flush of the buffered series pool.
  PlanGuard plan{faultfs::FaultKind::kFailWrite, 1, fs::path(p.str()).filename().string()};
  try {
    store::FlowStoreWriter w{p.str()};
    for (const auto& rec : make_dataset(8)) w.append(rec);
    w.finish();
    FAIL() << "injected ENOSPC never surfaced";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kIo);
  }
  EXPECT_GT(faultfs::faults_injected(), 0u);
}

TEST(FaultFs, TornWriteIsRejectedAtOpen) {
  TempPath p{"robust_torn.ccfs"};
  const auto dataset = make_dataset(64);
  std::uint64_t pool_bytes = 0;
  for (const auto& rec : dataset) pool_bytes += rec.throughput_mbps.size() * sizeof(double);
  {
    // Tear mid-pool: the writer "succeeds" (power-cut semantics — nothing
    // to report at write time), leaving a file the reader must reject.
    // Write 0 is the header; write 1 is the first flush of the buffered
    // series pool.
    PlanGuard plan{faultfs::FaultKind::kTornWrite, 1, fs::path(p.str()).filename().string()};
    store::write_store(p.str(), dataset);
    EXPECT_GT(faultfs::faults_injected(), 0u);
  }
  // The tear landed inside the pool: some series bytes, not all of them.
  EXPECT_GT(fs::file_size(p.str()), sizeof(store::Header));
  EXPECT_LT(fs::file_size(p.str()), sizeof(store::Header) + pool_bytes);
  try {
    store::FlowStoreReader r{p.str()};
    FAIL() << "reader accepted a torn file";
  } catch (const Error& e) {
    EXPECT_TRUE(e.category() == ErrorCategory::kCorruption ||
                e.category() == ErrorCategory::kFormat)
        << to_string(e.category());
  }
}

TEST(FaultFs, FailedBufferFlushSurfacesAsIoAndDropsNothing) {
  TempPath p{"robust_failflush.ccfs"};
  // Enough series bytes to fill the writer's 64 KiB buffer several times,
  // so the failing write is a flush made inside append().
  const auto dataset = make_dataset(400);
  std::size_t failed_at = dataset.size();
  {
    store::FlowStoreWriter w{p.str()};
    PlanGuard plan{faultfs::FaultKind::kFailWrite, 1, fs::path(p.str()).filename().string()};
    for (std::size_t i = 0; i < dataset.size(); ++i) {
      try {
        w.append(dataset[i]);
      } catch (const Error& e) {
        EXPECT_EQ(e.category(), ErrorCategory::kIo);
        failed_at = i;
        break;
      }
    }
    ASSERT_LT(failed_at, dataset.size()) << "the failed flush never surfaced from append()";
    EXPECT_GT(faultfs::faults_injected(), 0u);
    EXPECT_EQ(w.flows(), failed_at) << "the failed append must not count its flow";
    // The buffered bytes survived the failure: retrying the rejected flow
    // and finishing yields every flow, bit for bit.
    for (std::size_t i = failed_at; i < dataset.size(); ++i) w.append(dataset[i]);
    w.finish();
  }
  store::FlowStoreReader r{p.str()};
  ASSERT_EQ(r.size(), dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const auto v = r.at(i);
    ASSERT_EQ(v.id, dataset[i].id);
    ASSERT_TRUE(std::equal(v.throughput_mbps.begin(), v.throughput_mbps.end(),
                           dataset[i].throughput_mbps.begin(),
                           dataset[i].throughput_mbps.end()))
        << "flow " << i;
  }
}

TEST(FaultFs, KindNamesRoundTrip) {
  using faultfs::FaultKind;
  EXPECT_EQ(faultfs::to_string(FaultKind::kNone), "none");
  EXPECT_EQ(faultfs::to_string(FaultKind::kFailOpen), "fail_open");
  EXPECT_EQ(faultfs::to_string(FaultKind::kEintr), "eintr");
  EXPECT_EQ(faultfs::to_string(FaultKind::kShortRead), "short_read");
  EXPECT_EQ(faultfs::to_string(FaultKind::kFlipByte), "flip_byte");
  EXPECT_EQ(faultfs::to_string(FaultKind::kFailWrite), "fail_write");
  EXPECT_EQ(faultfs::to_string(FaultKind::kTornWrite), "torn_write");
}

// ------------------------------------------------- writer destructor contract

TEST(WriterDestructor, SuppressedFinishErrorIsCountedAndWarned) {
  TempPath p{"robust_dtor.ccfs"};
  telemetry::MetricRegistry reg;
  const std::uint64_t before = store::finish_errors_suppressed();
  {
    // Let construction and appends succeed, then fail a finish-time write;
    // the destructor must swallow the error (never std::terminate) and
    // leave an audit trail in both counters.
    store::FlowStoreWriter w{p.str()};
    w.set_metrics(&reg);
    for (const auto& rec : make_dataset(4)) w.append(rec);
    // The plan counts from here: write 0 is finish()'s flush of the pool,
    // write 1 its flush of the sections and directory.
    faultfs::set_plan({faultfs::FaultKind::kFailWrite, 1,
                       fs::path(p.str()).filename().string()});
  }
  EXPECT_GT(faultfs::faults_injected(), 0u);
  faultfs::clear_plan();
  EXPECT_EQ(store::finish_errors_suppressed(), before + 1);
  EXPECT_EQ(reg.counter("store.finish_errors_suppressed").value(), 1u);
}

TEST(WriterDestructor, ExplicitFinishSeesTheErrorInstead) {
  TempPath p{"robust_dtor2.ccfs"};
  const std::uint64_t before = store::finish_errors_suppressed();
  {
    store::FlowStoreWriter w{p.str()};
    for (const auto& rec : make_dataset(4)) w.append(rec);
    PlanGuard plan{faultfs::FaultKind::kFailWrite, 1,
                   fs::path(p.str()).filename().string()};
    EXPECT_THROW(w.finish(), Error);
    EXPECT_GT(faultfs::faults_injected(), 0u);
  }
  // finish() already threw to the caller; the destructor retries (finish is
  // idempotent-on-failure from its start), fails again on the real fd state
  // or succeeds — either way the *caller* was told, so the strict accounting
  // we pin is just: no crash, and the process-wide counter only grows.
  EXPECT_GE(store::finish_errors_suppressed(), before);
}

TEST(WriterApiMisuse, AppendAfterFinishIsConfigError) {
  TempPath p{"robust_misuse.ccfs"};
  store::FlowStoreWriter w{p.str()};
  w.append(make_dataset(1)[0]);
  w.finish();
  try {
    w.append(make_dataset(1)[0]);
    FAIL() << "append after finish was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kConfig);
  }
}

}  // namespace
}  // namespace ccc
