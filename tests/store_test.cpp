// Tests for the ccfs columnar flow-record store (src/store/).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <vector>

#include "mlab/synthetic.hpp"
#include "store/convert.hpp"
#include "store/flow_store.hpp"
#include "store/format.hpp"
#include "util/error.hpp"

namespace ccc::store {
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

std::vector<mlab::NdtRecord> make_dataset(std::size_t n, std::uint64_t seed = 42) {
  mlab::SyntheticConfig cfg;
  cfg.n_flows = n;
  Rng rng{seed};
  return mlab::generate_dataset(cfg, rng);
}

// ---------------------------------------------------------------- crc32
//
// Differential tests: the sliced production CRC against a bit-at-a-time
// oracle that lives only here. Equal values are also what keeps every
// existing .ccfs file and .ccj journal loadable.

std::uint32_t reference_crc32(const std::uint8_t* p, std::size_t len) {
  std::uint32_t c = 0xFFFF'FFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB8'8320u ^ (c >> 1) : c >> 1;
  }
  return ~c;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 gen{seed};
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(gen());
  return v;
}

TEST(Crc32, KnownAnswer) {
  const char* check = "123456789";
  EXPECT_EQ(crc32(check, std::strlen(check)), 0xCBF4'3926u);
  EXPECT_EQ(reference_crc32(reinterpret_cast<const std::uint8_t*>(check), 9), 0xCBF4'3926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32, EveryLengthAtEveryAlignmentMatchesTheOracle) {
  const auto bytes = random_bytes(300 + 8, 1);
  for (std::size_t align = 0; align < 8; ++align) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const std::uint8_t* p = bytes.data() + align;
      ASSERT_EQ(crc32(p, len), reference_crc32(p, len)) << "align " << align << " len " << len;
    }
  }
}

TEST(Crc32, IncrementalUpdatesAtRandomSplitsMatchTheOracle) {
  const auto bytes = random_bytes(5000, 2);
  const std::uint32_t want = reference_crc32(bytes.data(), bytes.size());
  std::mt19937_64 gen{3};
  for (int trial = 0; trial < 200; ++trial) {
    Crc32 crc;
    std::size_t off = 0;
    while (off < bytes.size()) {
      // Mostly short pieces (the tail loop and odd word phases), some long.
      const std::size_t cap = (gen() % 4 == 0) ? 1000 : 17;
      const std::size_t len = std::min<std::size_t>(gen() % cap, bytes.size() - off);
      crc.update(bytes.data() + off, len);
      off += len;
    }
    ASSERT_EQ(crc.value(), want) << "trial " << trial;
  }
}

TEST(Crc32, BufferLargerThanTheStreamingChunkMatchesTheOracle) {
  // The windowed reader streams its CRC in 4 MiB chunks; one buffer past
  // that size, hashed whole and in reader-sized pieces.
  constexpr std::size_t kChunk = std::size_t{4} << 20;
  const auto bytes = random_bytes(kChunk + 13, 4);
  const std::uint32_t want = reference_crc32(bytes.data(), bytes.size());
  EXPECT_EQ(crc32(bytes.data(), bytes.size()), want);
  Crc32 crc;
  crc.update(bytes.data(), kChunk);
  crc.update(bytes.data() + kChunk, bytes.size() - kChunk);
  EXPECT_EQ(crc.value(), want);
}

TEST(FlowStore, RoundTripIsBitExact) {
  const auto dataset = make_dataset(300);
  TempPath p{"store_roundtrip.ccfs"};
  write_store(p.str(), dataset);

  FlowStoreReader reader{p.str()};
  ASSERT_EQ(reader.size(), dataset.size());
  std::uint64_t samples = 0;
  for (const auto& r : dataset) samples += r.throughput_mbps.size();
  EXPECT_EQ(reader.samples(), samples);

  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const auto v = reader.at(i);
    EXPECT_EQ(v.id, dataset[i].id);
    EXPECT_EQ(v.access, dataset[i].access);
    EXPECT_EQ(v.truth, dataset[i].truth);
    // Doubles must round-trip bit-exactly — the store copies, never formats.
    EXPECT_EQ(v.duration_sec, dataset[i].duration_sec);
    EXPECT_EQ(v.app_limited_sec, dataset[i].app_limited_sec);
    EXPECT_EQ(v.rwnd_limited_sec, dataset[i].rwnd_limited_sec);
    EXPECT_EQ(v.mean_throughput_mbps, dataset[i].mean_throughput_mbps);
    EXPECT_EQ(v.min_rtt_ms, dataset[i].min_rtt_ms);
    EXPECT_EQ(v.snapshot_interval_sec, dataset[i].snapshot_interval_sec);
    ASSERT_EQ(v.throughput_mbps.size(), dataset[i].throughput_mbps.size());
    for (std::size_t k = 0; k < v.throughput_mbps.size(); ++k) {
      ASSERT_EQ(v.throughput_mbps[k], dataset[i].throughput_mbps[k]);
    }
  }
}

TEST(FlowStore, EmptyStoreRoundTrips) {
  TempPath p{"store_empty.ccfs"};
  write_store(p.str(), {});
  FlowStoreReader reader{p.str()};
  EXPECT_EQ(reader.size(), 0u);
  EXPECT_EQ(reader.samples(), 0u);
}

TEST(FlowStore, ZeroLengthSeriesFlowIsPreserved) {
  mlab::NdtRecord rec;
  rec.id = 77;
  rec.throughput_mbps.clear();
  TempPath p{"store_zerolen.ccfs"};
  write_store(p.str(), std::vector<mlab::NdtRecord>{rec});
  FlowStoreReader reader{p.str()};
  ASSERT_EQ(reader.size(), 1u);
  EXPECT_EQ(reader.at(0).id, 77u);
  EXPECT_TRUE(reader.at(0).throughput_mbps.empty());
}

TEST(FlowStore, CorruptionIsDetectedByCrc) {
  const auto dataset = make_dataset(50);
  TempPath p{"store_corrupt.ccfs"};
  write_store(p.str(), dataset);

  // Flip one byte in the middle of the file (series pool or columns).
  {
    std::fstream f{p.str(), std::ios::in | std::ios::out | std::ios::binary};
    f.seekp(static_cast<std::streamoff>(fs::file_size(p.str()) / 2));
    char b = 0;
    f.read(&b, 1);
    f.seekp(-1, std::ios::cur);
    b = static_cast<char>(b ^ 0x40);
    f.write(&b, 1);
  }
  // The throw is a typed ccc::Error naming what happened and where
  // (category kCorruption: the file was valid and is now provably damaged).
  try {
    FlowStoreReader r{p.str()};
    FAIL() << "reader accepted a corrupt file";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kCorruption);
    EXPECT_EQ(e.path(), p.str());
  }
  // Opting out of verification must still parse the structure.
  EXPECT_NO_THROW((FlowStoreReader{p.str(), /*verify_crc=*/false}));
}

/// The windowed-pread mode (readahead_flows != 0) must be indistinguishable
/// from the mmap mode through the public API: identical scalars, identical
/// series bytes — including across window slides and backward excursions,
/// the access patterns where a rebasing bug would show.
TEST(FlowStore, WindowedPreadModeMatchesMmap) {
  const auto dataset = make_dataset(300);
  TempPath p{"store_windowed.ccfs"};
  write_store(p.str(), dataset);

  FlowStoreReader mapped{p.str()};
  ReaderOptions wopts;
  wopts.sequential = true;
  wopts.readahead_flows = 7;  // deliberately tiny and odd: many slides
  FlowStoreReader windowed{p.str(), wopts};

  ASSERT_EQ(windowed.size(), mapped.size());
  ASSERT_EQ(windowed.samples(), mapped.samples());
  auto expect_same = [&](std::size_t i) {
    const auto a = mapped.at(i);
    const auto b = windowed.at(i);
    EXPECT_EQ(b.id, a.id);
    EXPECT_EQ(b.access, a.access);
    EXPECT_EQ(b.truth, a.truth);
    EXPECT_EQ(b.duration_sec, a.duration_sec);
    EXPECT_EQ(b.app_limited_sec, a.app_limited_sec);
    EXPECT_EQ(b.rwnd_limited_sec, a.rwnd_limited_sec);
    EXPECT_EQ(b.mean_throughput_mbps, a.mean_throughput_mbps);
    EXPECT_EQ(b.min_rtt_ms, a.min_rtt_ms);
    EXPECT_EQ(b.snapshot_interval_sec, a.snapshot_interval_sec);
    ASSERT_EQ(b.throughput_mbps.size(), a.throughput_mbps.size());
    for (std::size_t k = 0; k < a.throughput_mbps.size(); ++k) {
      ASSERT_EQ(b.throughput_mbps[k], a.throughput_mbps[k]) << "flow " << i << " sample " << k;
    }
  };
  for (std::size_t i = 0; i < mapped.size(); ++i) expect_same(i);
  // Backward and far-jump excursions re-fetch the window; still exact.
  expect_same(250);
  expect_same(3);
  expect_same(299);
  expect_same(0);
}

/// verify_crc in windowed mode streams the CRC through a bounded buffer —
/// it must still catch a flipped byte, and opting out must still open.
TEST(FlowStore, WindowedModeVerifiesCrc) {
  const auto dataset = make_dataset(50);
  TempPath p{"store_windowed_crc.ccfs"};
  write_store(p.str(), dataset);
  {
    std::fstream f{p.str(), std::ios::in | std::ios::out | std::ios::binary};
    f.seekp(static_cast<std::streamoff>(fs::file_size(p.str()) / 2));
    char b = 0;
    f.read(&b, 1);
    f.seekp(-1, std::ios::cur);
    b = static_cast<char>(b ^ 0x40);
    f.write(&b, 1);
  }
  ReaderOptions wopts;
  wopts.readahead_flows = 16;
  try {
    FlowStoreReader r{p.str(), wopts};
    FAIL() << "windowed reader accepted a corrupt file";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kCorruption);
    EXPECT_EQ(e.path(), p.str());
  }
  wopts.verify_crc = false;
  EXPECT_NO_THROW((FlowStoreReader{p.str(), wopts}));
}

/// Structural rejection (truncation, garbage) is mode-independent: the
/// windowed open runs the same footer/directory checks via pread.
TEST(FlowStore, WindowedModeRejectsTruncationAndGarbage) {
  const auto dataset = make_dataset(50);
  TempPath p{"store_windowed_trunc.ccfs"};
  write_store(p.str(), dataset);
  fs::resize_file(p.str(), fs::file_size(p.str()) - 16);
  ReaderOptions wopts;
  wopts.readahead_flows = 16;
  try {
    FlowStoreReader r{p.str(), wopts};
    FAIL() << "windowed reader accepted a truncated file";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kCorruption);
  }

  TempPath g{"store_windowed_garbage.ccfs"};
  std::ofstream{g.str(), std::ios::binary} << std::string(4096, 'x');
  try {
    FlowStoreReader r{g.str(), wopts};
    FAIL() << "windowed reader accepted garbage";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kFormat);
    EXPECT_EQ(e.byte_offset(), 0u);
  }
}

TEST(FlowStore, TruncatedFileIsRejected) {
  const auto dataset = make_dataset(50);
  TempPath p{"store_trunc.ccfs"};
  write_store(p.str(), dataset);
  fs::resize_file(p.str(), fs::file_size(p.str()) - 16);
  try {
    FlowStoreReader r{p.str()};
    FAIL() << "reader accepted a truncated file";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kCorruption);
  }
}

TEST(FlowStore, GarbageFileIsRejected) {
  TempPath p{"store_garbage.ccfs"};
  std::ofstream{p.str(), std::ios::binary} << std::string(4096, 'x');
  // Not-a-ccfs-document is a format error (bad magic, byte offset 0), not
  // corruption — nothing suggests it was ever valid.
  try {
    FlowStoreReader r{p.str()};
    FAIL() << "reader accepted garbage";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kFormat);
    EXPECT_EQ(e.byte_offset(), 0u);
  }
}

TEST(FlowStore, SeriesLargerThanTheWriteBufferRoundTrips) {
  // Small flows coalesce in the writer's 64 KiB buffer; a 160 KB series
  // bypasses it. Both must land in order, in one CRC.
  auto dataset = make_dataset(40);
  dataset[17].throughput_mbps.resize(20000);
  for (std::size_t i = 0; i < dataset[17].throughput_mbps.size(); ++i) {
    dataset[17].throughput_mbps[i] = 0.25 * static_cast<double>(i);
  }
  TempPath p{"store_bigseries.ccfs"};
  write_store(p.str(), dataset);
  FlowStoreReader r{p.str()};
  ASSERT_EQ(r.size(), dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const auto s = r.series(i);
    ASSERT_TRUE(std::equal(s.begin(), s.end(), dataset[i].throughput_mbps.begin(),
                           dataset[i].throughput_mbps.end()))
        << "flow " << i;
  }
}

TEST(FlowStore, AppendAfterFinishThrows) {
  TempPath p{"store_finished.ccfs"};
  FlowStoreWriter w{p.str()};
  w.append(mlab::NdtRecord{});
  w.finish();
  EXPECT_THROW(w.append(mlab::NdtRecord{}), std::runtime_error);
}

TEST(ShardedWriter, RollsOverAndConcatenatesInOrder) {
  const auto dataset = make_dataset(1000);
  TempPath p{"store_shards.ccfs"};
  ShardedFlowStoreWriter w{p.str(), /*flows_per_shard=*/300};
  for (const auto& r : dataset) w.append(r);
  const auto paths = w.finish();
  ASSERT_EQ(paths.size(), 4u);  // 300 + 300 + 300 + 100

  std::vector<FlowStoreReader> readers;
  readers.reserve(paths.size());
  std::size_t total = 0;
  for (const auto& path : paths) {
    readers.emplace_back(path);
    total += readers.back().size();
  }
  EXPECT_EQ(total, dataset.size());
  EXPECT_EQ(readers[0].size(), 300u);
  EXPECT_EQ(readers[3].size(), 100u);
  // Concatenated order is append order.
  EXPECT_EQ(readers[1].at(0).id, dataset[300].id);
  EXPECT_EQ(readers[3].at(99).id, dataset[999].id);
}

TEST(Convert, CsvToCcfsToCsvRoundTrips) {
  const auto dataset = make_dataset(120);
  std::stringstream csv_in;
  mlab::write_csv(csv_in, dataset);
  const std::string original_csv = csv_in.str();

  TempPath p{"store_csv.ccfs"};
  const auto stats = csv_file_to_ccfs(csv_in, p.str());
  EXPECT_EQ(stats.rows_parsed, dataset.size());
  EXPECT_EQ(stats.rows_skipped, 0u);

  FlowStoreReader reader{p.str()};
  ASSERT_EQ(reader.size(), dataset.size());
  std::stringstream csv_out;
  ccfs_to_csv(reader, csv_out);
  // CSV -> ccfs -> CSV is textually stable (ccfs stores the parsed doubles
  // and the serializer formats them identically).
  EXPECT_EQ(csv_out.str(), original_csv);
}

TEST(Convert, MalformedCsvRowsAreSkippedDuringIngest) {
  std::stringstream csv;
  mlab::write_csv(csv, make_dataset(5));
  csv << "this,is,not,a,flow\n";
  csv.seekg(0);
  TempPath p{"store_badrows.ccfs"};
  const auto stats = csv_file_to_ccfs(csv, p.str());
  EXPECT_EQ(stats.rows_parsed, 5u);
  EXPECT_EQ(stats.rows_skipped, 1u);
  FlowStoreReader reader{p.str()};
  EXPECT_EQ(reader.size(), 5u);
}

}  // namespace
}  // namespace ccc::store
