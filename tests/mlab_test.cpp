// Tests for the synthetic NDT dataset generator.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "mlab/csv_io.hpp"

#include "mlab/synthetic.hpp"
#include "telemetry/metrics.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace ccc::mlab {
namespace {

TEST(Synthetic, DeterministicForSeed) {
  SyntheticConfig cfg;
  cfg.n_flows = 50;
  Rng r1{7};
  Rng r2{7};
  const auto a = generate_dataset(cfg, r1);
  const auto b = generate_dataset(cfg, r2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].truth, b[i].truth);
    EXPECT_DOUBLE_EQ(a[i].mean_throughput_mbps, b[i].mean_throughput_mbps);
  }
}

void expect_same_records(const std::vector<NdtRecord>& a, const std::vector<NdtRecord>& b,
                         std::size_t n) {
  ASSERT_GE(a.size(), n);
  ASSERT_GE(b.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a[i].id, i);
    EXPECT_EQ(b[i].id, i);
    EXPECT_EQ(a[i].access, b[i].access);
    EXPECT_EQ(a[i].truth, b[i].truth);
    EXPECT_EQ(a[i].duration_sec, b[i].duration_sec);
    EXPECT_EQ(a[i].app_limited_sec, b[i].app_limited_sec);
    EXPECT_EQ(a[i].rwnd_limited_sec, b[i].rwnd_limited_sec);
    EXPECT_EQ(a[i].mean_throughput_mbps, b[i].mean_throughput_mbps);
    EXPECT_EQ(a[i].min_rtt_ms, b[i].min_rtt_ms);
    EXPECT_EQ(a[i].snapshot_interval_sec, b[i].snapshot_interval_sec);
    EXPECT_EQ(a[i].throughput_mbps, b[i].throughput_mbps);
  }
}

TEST(Synthetic, RecordsIdenticalAtAnyJobCount) {
  // 1,000 flows: 16 blocks, the last one partial, several windows deep.
  SyntheticConfig cfg;
  cfg.n_flows = 1000;
  Rng r1{11};
  const auto serial = generate_dataset(cfg, r1, 1);
  ASSERT_EQ(serial.size(), cfg.n_flows);
  for (const unsigned jobs : {2u, 4u, 8u}) {
    SCOPED_TRACE(jobs);
    Rng rng{11};
    // A sink that copies leaves the output record's buffer in place for
    // the next record.
    std::vector<NdtRecord> streamed;
    generate_dataset_stream(
        cfg, rng, [&](NdtRecord&& rec) { streamed.push_back(std::as_const(rec)); }, jobs);
    ASSERT_EQ(streamed.size(), cfg.n_flows);
    expect_same_records(serial, streamed, cfg.n_flows);
  }
}

TEST(Synthetic, ReusedRecordsCarryOnlyTheirOwnArchetypesFields) {
  // Each block reuses one scratch record and every slot header is reused
  // block after block; no field of a previous record may leak into the
  // next one.
  SyntheticConfig cfg;
  cfg.n_flows = 2000;
  Rng rng{15};
  std::size_t n = 0;
  generate_dataset_stream(
      cfg, rng,
      [&](NdtRecord&& rec) {
        const bool app_limited = rec.truth == FlowArchetype::kAppLimitedStreaming ||
                                 rec.truth == FlowArchetype::kAppLimitedConstant ||
                                 rec.truth == FlowArchetype::kShortFlow;
        EXPECT_EQ(rec.app_limited_sec > 0.0, app_limited) << "id " << rec.id;
        EXPECT_EQ(rec.rwnd_limited_sec > 0.0, rec.truth == FlowArchetype::kRwndLimited)
            << "id " << rec.id;
        ++n;
      },
      4);
  EXPECT_EQ(n, cfg.n_flows);
}

TEST(Synthetic, SmallerCorpusIsAPrefixOfALargerOne) {
  SyntheticConfig small;
  small.n_flows = 1000;  // not a whole number of blocks
  SyntheticConfig large;
  large.n_flows = 2500;
  Rng r1{12};
  Rng r2{12};
  const auto a = generate_dataset(small, r1, 4);
  const auto b = generate_dataset(large, r2, 4);
  ASSERT_EQ(a.size(), small.n_flows);
  expect_same_records(a, b, small.n_flows);
  // Both calls took the same one draw from the caller's Rng.
  EXPECT_EQ(r1.engine()(), r2.engine()());
}

std::size_t thread_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e : std::filesystem::directory_iterator{"/proc/self/task"}) {
    ++n;
  }
  return n;
}

TEST(Synthetic, SinkExceptionIsRethrownWithNoWorkerLeft) {
  SyntheticConfig cfg;
  cfg.n_flows = 2000;
  // A complete threaded call first, so helper threads a runtime starts
  // with the first pool (TSan's, for one) are part of the baseline.
  Rng warm{13};
  ASSERT_EQ(generate_dataset(cfg, warm, 4).size(), cfg.n_flows);
  for (const unsigned jobs : {1u, 4u}) {
    SCOPED_TRACE(jobs);
    const std::size_t threads_before = thread_count();
    Rng rng{13};
    std::size_t seen = 0;
    try {
      generate_dataset_stream(
          cfg, rng,
          [&](NdtRecord&& rec) {
            if (rec.id == 300) throw std::runtime_error{"sink full"};
            ++seen;
          },
          jobs);
      FAIL() << "expected the sink's exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "sink full");
    }
    EXPECT_EQ(seen, 300u);
    // The runner's threads are joined before the call returns; a joined
    // thread can linger in /proc for a moment after join.
    for (int i = 0; i < 200 && thread_count() != threads_before; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds{10});
    }
    EXPECT_EQ(thread_count(), threads_before);
  }
}

TEST(Synthetic, NoPositiveFractionThrowsAtAnyJobCount) {
  SyntheticConfig cfg;
  cfg.n_flows = 500;
  cfg.frac_app_limited_streaming = cfg.frac_app_limited_constant = cfg.frac_short = 0.0;
  cfg.frac_rwnd_limited = cfg.frac_bulk_clean = cfg.frac_bulk_contended = cfg.frac_policed = 0.0;
  for (const unsigned jobs : {1u, 4u}) {
    Rng rng{14};
    std::size_t seen = 0;
    EXPECT_THROW(generate_dataset_stream(cfg, rng, [&](NdtRecord&&) { ++seen; }, jobs),
                 std::invalid_argument)
        << "jobs=" << jobs;
    EXPECT_EQ(seen, 0u);
  }
}

TEST(Synthetic, GeneratesRequestedCount) {
  SyntheticConfig cfg;
  cfg.n_flows = 500;
  Rng rng{1};
  EXPECT_EQ(generate_dataset(cfg, rng).size(), 500u);
}

TEST(Synthetic, MixMatchesConfiguredFractions) {
  SyntheticConfig cfg;
  cfg.n_flows = 8000;
  Rng rng{2};
  const auto ds = generate_dataset(cfg, rng);
  std::map<FlowArchetype, int> counts;
  for (const auto& r : ds) ++counts[r.truth];
  const double n = static_cast<double>(ds.size());
  EXPECT_NEAR(counts[FlowArchetype::kAppLimitedStreaming] / n, 0.30, 0.03);
  EXPECT_NEAR(counts[FlowArchetype::kShortFlow] / n, 0.22, 0.03);
  EXPECT_NEAR(counts[FlowArchetype::kBulkContended] / n, 0.06, 0.02);
}

TEST(Synthetic, AppLimitedFlowsCarryTheField) {
  SyntheticConfig cfg;
  Rng rng{3};
  const auto rec = generate_record(FlowArchetype::kAppLimitedStreaming, cfg, rng);
  EXPECT_GT(rec.app_limited_sec, 0.0);
  EXPECT_DOUBLE_EQ(rec.rwnd_limited_sec, 0.0);
}

TEST(Synthetic, RwndLimitedFlowsCarryTheField) {
  SyntheticConfig cfg;
  Rng rng{4};
  const auto rec = generate_record(FlowArchetype::kRwndLimited, cfg, rng);
  EXPECT_GT(rec.rwnd_limited_sec, 0.0);
  EXPECT_DOUBLE_EQ(rec.app_limited_sec, 0.0);
}

TEST(Synthetic, ShortFlowsAreShort) {
  SyntheticConfig cfg;
  Rng rng{5};
  for (int i = 0; i < 50; ++i) {
    const auto rec = generate_record(FlowArchetype::kShortFlow, cfg, rng);
    EXPECT_LE(rec.duration_sec, 1.5);
    EXPECT_LE(rec.throughput_mbps.size(), 15u);
  }
}

TEST(Synthetic, ContendedFlowsHaveALevelShift) {
  SyntheticConfig cfg;
  Rng rng{6};
  // A contended flow's series must contain two clearly different levels.
  int with_gap = 0;
  for (int i = 0; i < 30; ++i) {
    const auto rec = generate_record(FlowArchetype::kBulkContended, cfg, rng);
    const double hi = quantile(rec.throughput_mbps, 0.9);
    const double lo = quantile(rec.throughput_mbps, 0.1);
    if (lo < 0.75 * hi) ++with_gap;
  }
  EXPECT_GE(with_gap, 28);
}

TEST(Synthetic, CleanBulkFlowsAreFlat) {
  SyntheticConfig cfg;
  Rng rng{7};
  int flat = 0;
  for (int i = 0; i < 30; ++i) {
    auto rec = generate_record(FlowArchetype::kBulkClean, cfg, rng);
    if (rec.access == AccessType::kCellular || rec.access == AccessType::kSatellite) continue;
    RunningStats st;
    for (double x : rec.throughput_mbps) st.add(x);
    if (st.stddev() / st.mean() < 0.2) ++flat;
  }
  EXPECT_GE(flat, 15);  // most wired bulk flows are stable
}

TEST(Synthetic, PolicedFlowsStepDownOnce) {
  SyntheticConfig cfg;
  Rng rng{8};
  const auto rec = generate_record(FlowArchetype::kPoliced, cfg, rng);
  // Early mean must exceed late mean (burst then policed).
  const auto& v = rec.throughput_mbps;
  double early = 0.0;
  double late = 0.0;
  const std::size_t k = v.size() / 10;
  for (std::size_t i = 0; i < k; ++i) early += v[i];
  for (std::size_t i = v.size() - 3 * k; i < v.size(); ++i) late += v[i];
  early /= static_cast<double>(k);
  late /= static_cast<double>(3 * k);
  if (rec.access != AccessType::kCellular && rec.access != AccessType::kSatellite) {
    EXPECT_GT(early, late * 1.3);
  }
}

TEST(Synthetic, TruthContendedFlagOnlyForContended) {
  SyntheticConfig cfg;
  Rng rng{9};
  EXPECT_TRUE(generate_record(FlowArchetype::kBulkContended, cfg, rng).truth_contended());
  EXPECT_FALSE(generate_record(FlowArchetype::kPoliced, cfg, rng).truth_contended());
  EXPECT_FALSE(generate_record(FlowArchetype::kBulkClean, cfg, rng).truth_contended());
}

TEST(Synthetic, ArchetypeNamesAreStable) {
  EXPECT_EQ(to_string(FlowArchetype::kPoliced), "policed");
  EXPECT_EQ(to_string(AccessType::kCellular), "cellular");
}


// ---------- CSV round trip ----------

TEST(CsvIo, RoundTripPreservesRecords) {
  SyntheticConfig cfg;
  cfg.n_flows = 200;
  Rng rng{31};
  const auto original = generate_dataset(cfg, rng);
  std::stringstream ss;
  write_csv(ss, original);
  const auto loaded = read_csv(ss);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded[i].id, original[i].id);
    EXPECT_EQ(loaded[i].truth, original[i].truth);
    EXPECT_EQ(loaded[i].access, original[i].access);
    EXPECT_NEAR(loaded[i].app_limited_sec, original[i].app_limited_sec, 1e-4);
    ASSERT_EQ(loaded[i].throughput_mbps.size(), original[i].throughput_mbps.size());
    if (!original[i].throughput_mbps.empty()) {
      EXPECT_NEAR(loaded[i].throughput_mbps.back(), original[i].throughput_mbps.back(), 1e-3);
    }
  }
}

TEST(CsvIo, RoundTripIsBitExact) {
  // Gigabit rates need more than the stream's default 6 significant digits.
  NdtRecord rec;
  rec.id = 9;
  rec.duration_sec = 0.30000000000000004;
  rec.min_rtt_ms = 1e-7;
  rec.mean_throughput_mbps = 123456789.125;
  rec.throughput_mbps = {1001.7073720799162, 0.05, 1459.9999999999998};
  SyntheticConfig cfg;
  cfg.n_flows = 50;
  Rng rng{31};
  auto dataset = generate_dataset(cfg, rng);
  dataset.push_back(rec);
  std::stringstream ss;
  write_csv(ss, dataset);
  const auto loaded = read_csv(ss);
  ASSERT_EQ(loaded.size(), dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    EXPECT_EQ(loaded[i].duration_sec, dataset[i].duration_sec);
    EXPECT_EQ(loaded[i].app_limited_sec, dataset[i].app_limited_sec);
    EXPECT_EQ(loaded[i].rwnd_limited_sec, dataset[i].rwnd_limited_sec);
    EXPECT_EQ(loaded[i].mean_throughput_mbps, dataset[i].mean_throughput_mbps);
    EXPECT_EQ(loaded[i].min_rtt_ms, dataset[i].min_rtt_ms);
    EXPECT_EQ(loaded[i].snapshot_interval_sec, dataset[i].snapshot_interval_sec);
    EXPECT_EQ(loaded[i].throughput_mbps, dataset[i].throughput_mbps);
  }
}

TEST(CsvIo, RejectsWrongHeader) {
  std::stringstream ss{"not,a,valid,header\n1,cable\n"};
  EXPECT_THROW((void)read_csv(ss), std::runtime_error);
  // ... and the throw is typed: a wrong header is a different-file problem
  // (kFormat at byte 0), distinct from the skip-and-count bad-row path.
  std::stringstream again{"not,a,valid,header\n1,cable\n"};
  try {
    (void)read_csv(again);
    FAIL() << "wrong header was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kFormat);
    EXPECT_EQ(e.byte_offset(), 0u);
  }
}

TEST(CsvIo, OverRangeNumericFieldIsSkippedAndCounted) {
  // A 400-digit field makes std::stod/stoull throw std::out_of_range — a
  // class of parse failure that once escaped the enumerated catch list and
  // killed the load. It must go through the same skip-and-count path as
  // garbage text.
  std::stringstream out;
  write_csv(out, std::vector<NdtRecord>{});
  const std::string huge(400, '9');
  std::stringstream in{out.str() +
                       "1,cable,policed,10,0,0,5,20,0.1,1;2;3\n" +
                       huge + ",cable,policed,10,0,0,5,20,0.1,1;2;3\n" +  // u64 overflow
                       "3,cable,policed," + huge + ",0,0,5,20,0.1,1;2;3\n" +  // double overflow
                       "4,cable,policed,10,0,0,5,20,0.1,1;" + huge + ";3\n"};  // series overflow
  CsvParseStats stats;
  const auto rows = read_csv(in, &stats);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].id, 1u);
  EXPECT_EQ(stats.rows_seen, 4u);
  EXPECT_EQ(stats.rows_skipped, 3u);
}

TEST(CsvIo, NegativeIdIsSkippedNotWrapped) {
  // std::stoull silently wraps "-1" to 2^64-1; an id column with a sign bit
  // must read as a malformed row, never as a silently huge id.
  std::stringstream out;
  write_csv(out, std::vector<NdtRecord>{});
  std::stringstream in{out.str() +
                       "-1,cable,policed,10,0,0,5,20,0.1,1;2;3\n"
                       "7,cable,policed,10,0,0,5,20,0.1,1;2;3\n"};
  CsvParseStats stats;
  const auto rows = read_csv(in, &stats);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].id, 7u);
  EXPECT_EQ(stats.rows_skipped, 1u);
}

TEST(CsvIo, MalformedRowsAreCountedAndSkippedNotFatal) {
  // One truncated export row must not discard the well-formed neighbors.
  std::stringstream out;
  write_csv(out, std::vector<NdtRecord>{});
  std::string csv = out.str() +
                    "1,cable,policed,10,0,0,5,20,0.1,1;2;3\n"       // ok
                    "2,cable,policed,ten,0,0,5,20,0.1,1;2;3\n"      // bad number
                    "3,cable,warp-drive,10,0,0,5,20,0.1,1;2;3\n"    // bad enum
                    "4,cable,policed,10,0,0\n"                      // wrong arity
                    "5,fiber,bulk-clean,10,0,0,5,20,0.1,1;2;3\n";   // ok
  std::stringstream in{csv};
  CsvParseStats stats;
  const auto rows = read_csv(in, &stats);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].id, 1u);
  EXPECT_EQ(rows[1].id, 5u);
  EXPECT_EQ(stats.rows_seen, 5u);
  EXPECT_EQ(stats.rows_parsed, 2u);
  EXPECT_EQ(stats.rows_skipped, 3u);
}

TEST(CsvIo, MalformedRowsReportedViaTelemetryCounter) {
  std::stringstream out;
  write_csv(out, std::vector<NdtRecord>{});
  std::stringstream in{out.str() + "nonsense row\n1,cable,policed,10,0,0,5,20,0.1,\n"};
  telemetry::MetricRegistry reg;
  const auto rows = read_csv(in, reg);
  EXPECT_EQ(rows.size(), 1u);
  EXPECT_EQ(reg.counter("csv.rows_seen").value(), 2u);
  EXPECT_EQ(reg.counter("csv.rows_parsed").value(), 1u);
  EXPECT_EQ(reg.counter("csv.rows_malformed_skipped").value(), 1u);
}

TEST(CsvIo, HandlesCrlfLineEndings) {
  SyntheticConfig cfg;
  cfg.n_flows = 20;
  Rng rng{7};
  const auto original = generate_dataset(cfg, rng);
  std::stringstream out;
  write_csv(out, original);
  // Re-terminate every line with CRLF, as a Windows/BigQuery export would.
  std::string crlf;
  for (const char c : out.str()) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  std::stringstream in{crlf};
  CsvParseStats stats;
  const auto loaded = read_csv(in, &stats);
  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_EQ(stats.rows_skipped, 0u);
  EXPECT_EQ(loaded.back().id, original.back().id);
}

TEST(CsvIo, HandlesQuotedFieldsAndTrailingBlankLines) {
  std::stringstream out;
  write_csv(out, std::vector<NdtRecord>{});
  // Quoted numeric and enum fields (quotes many exporters add), a quoted
  // series containing the separator, and trailing blank lines.
  std::stringstream in{out.str() +
                       "\"1\",\"cable\",\"policed\",10,0,0,\"5\",20,0.1,\"1;2;3\"\n"
                       "2,fiber,bulk-clean,10,0,0,5,20,0.1,4;5\r\n"
                       "\n"
                       "\r\n"
                       "\n"};
  CsvParseStats stats;
  const auto rows = read_csv(in, &stats);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].id, 1u);
  EXPECT_EQ(rows[0].truth, FlowArchetype::kPoliced);
  ASSERT_EQ(rows[0].throughput_mbps.size(), 3u);
  EXPECT_DOUBLE_EQ(rows[0].throughput_mbps[2], 3.0);
  EXPECT_EQ(stats.rows_seen, 2u);
  EXPECT_EQ(stats.rows_skipped, 0u);
}

TEST(CsvIo, UnterminatedQuoteCountsAsMalformed) {
  std::stringstream out;
  write_csv(out, std::vector<NdtRecord>{});
  std::stringstream in{out.str() + "\"1,cable,policed,10,0,0,5,20,0.1,1\n"};
  CsvParseStats stats;
  EXPECT_TRUE(read_csv(in, &stats).empty());
  EXPECT_EQ(stats.rows_skipped, 1u);
}

TEST(CsvIo, RejectsUnknownEnums) {
  EXPECT_THROW((void)archetype_from_string("warp-drive"), std::runtime_error);
  EXPECT_THROW((void)access_from_string("telepathy"), std::runtime_error);
  EXPECT_EQ(archetype_from_string("policed"), FlowArchetype::kPoliced);
  EXPECT_EQ(access_from_string("dsl"), AccessType::kDsl);
}

TEST(CsvIo, EmptyDatasetRoundTrips) {
  std::stringstream ss;
  write_csv(ss, std::vector<NdtRecord>{});
  EXPECT_TRUE(read_csv(ss).empty());
}

}  // namespace
}  // namespace ccc::mlab
